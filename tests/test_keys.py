import hashlib
import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aabeta import keys, rabin
from aabeta.errors import GenerationFailure, InconsistentKey
from aabeta.keys import (
    KeyPair,
    PrivateKey,
    PublicKey,
    check_public_key,
    d_above_floor,
    format_private_key,
    format_public_key,
    generate_keypair,
    parse_private_key,
    parse_public_key,
    validate_keypair,
)

import vectors
from reference import reference_validate_keypair


def test_generated_e_a1_is_p_squared_q():
    kp = generate_keypair(16, random.Random(2))
    priv = kp.private
    assert kp.public.e_a1 == priv.p * priv.p * priv.q
    assert (1 << 48) < kp.public.e_a1 < (1 << 51)


def test_reference_keys_fail_strict_but_pass_relaxed():
    kp = vectors.keypair()
    report = validate_keypair(kp, strict=True)
    assert not report.valid
    joined = "\n".join(report.violations)
    assert "p-range" in joined  # 62683 < 2^16
    assert "e2-range" in joined  # 4106878163802480 < 2^52
    relaxed = validate_keypair(kp, strict=False)
    assert relaxed.valid, relaxed.violations


def test_reference_relaxed_consistency_by_hand():
    # independent check of what relaxed mode asserts
    assert vectors.E_A1_16 == vectors.P16**2 * vectors.Q16
    assert vectors.E_A2_16 * vectors.D16 % vectors.PQ16 == 1
    assert math.gcd(vectors.E_A1_16, vectors.E_A2_16) == 1


def test_generate_rejects_small_n():
    with pytest.raises(ValueError):
        generate_keypair(4, random.Random(0))


def test_generate_deterministic_under_seed():
    a = generate_keypair(8, random.Random(77))
    b = generate_keypair(8, random.Random(77))
    assert a == b


# SHA-256 of one hex line per seeded key; a change meant to move seeded
# keys updates this value in the same commit and says why.
_SEEDED_KEYGEN_SHA256 = "06863c926c9a27a2cdea9c703e95d5164e26f6b897ce0186cff1ab310eabf828"


def test_seeded_keygen_digest():
    h = hashlib.sha256()
    for n in (16, 64, 256):
        for seed in range(20):
            kp = generate_keypair(n, random.Random(seed))
            pub, priv = kp.public, kp.private
            h.update(f"{n:x},{pub.e_a1:x},{pub.e_a2:x},{priv.p:x},{priv.q:x},{priv.d:x}\n".encode())
    assert h.hexdigest() == _SEEDED_KEYGEN_SHA256


def test_generate_strict_valid():
    kp = generate_keypair(16, random.Random(1))
    assert validate_keypair(kp, strict=True).valid


@pytest.mark.parametrize("n", [16, 32, 64])
def test_generated_keypairs_hold_every_strict_invariant(n):
    for seed in range(67):
        kp = generate_keypair(n, random.Random(f"{n}:{seed}"))
        report = validate_keypair(kp, strict=True)
        assert report.valid, (n, seed, report.violations)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_e_a2_is_minimal_shift_of_inverse(n):
    for seed in range(25):
        kp = generate_keypair(n, random.Random(f"min:{n}:{seed}"))
        pq = kp.private.pq
        e = kp.public.e_a2
        lo = 1 << (3 * n + 4)
        assert lo < e < 1 << (3 * n + 6)
        assert e * kp.private.d % pq == 1
        # one step back leaves the interval: the shift count is minimal
        assert e - pq <= lo


def test_validation_flags_inconsistent_pair():
    kp = generate_keypair(16, random.Random(4))
    broken = KeyPair(
        PublicKey(16, kp.public.e_a1 + 1, kp.public.e_a2), kp.private
    )
    report = validate_keypair(broken, strict=False)
    assert not report.valid
    assert any("e1-consistency" in v for v in report.violations)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "relaxed"])
@pytest.mark.parametrize("zero", ["p", "q"])
def test_validation_flags_zero_prime_without_dividing_by_zero(zero, strict):
    p, q = (0, vectors.Q16) if zero == "p" else (vectors.P16, 0)
    kp = KeyPair(vectors.public_key(), PrivateKey(p, q, vectors.D16))
    names = [v.partition(":")[0] for v in validate_keypair(kp, strict=strict).violations]
    assert "d-inverse" in names
    assert f"{zero}-mod4" in names
    assert "p-q-coprime" in names  # gcd(0, x) = x


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "relaxed"])
def test_validation_flags_p_and_q_sharing_a_factor(strict):
    # 27 and 23019 = 3 * 7673 are distinct and both 3 (mod 4)
    n, p, q = 8, 27, 23019
    pq = p * q
    e_a2 = (1 << 24) + 1
    while math.gcd(e_a2, p * pq) != 1:
        e_a2 += 2
    kp = KeyPair(PublicKey(n, p * pq, e_a2), PrivateKey(p, q, pow(e_a2, -1, pq)))
    names = [v.partition(":")[0] for v in validate_keypair(kp, strict=strict).violations]
    assert "p-q-coprime" in names
    if not strict:
        assert names == ["p-q-coprime"]


def test_validation_flags_d_at_or_below_the_coppersmith_floor():
    # the smallest d >= 3 coprime to pq, and its inverse shifted as generate_keypair shifts it
    n = 16
    kp = generate_keypair(n, random.Random(3))
    p, q, pq = kp.private.p, kp.private.q, kp.private.pq
    d = next(d for d in itertools.count(3) if math.gcd(d, pq) == 1)
    e, lo = pow(d, -1, pq), 1 << (3 * n + 4)
    e += ((lo - e) // pq + 1) * pq
    weak = KeyPair(PublicKey(n, kp.public.e_a1, e), PrivateKey(p, q, d))
    assert validate_keypair(weak, strict=True).violations == ["d-floor: d not above e_a1^(4/9)"]


# d = x^4 + i against e_a1 = x^9 + j: d^9 and e_a1^4 both near x^36, where bit lengths tie
_NEAR_FLOOR = st.builds(lambda x, i, j: (x**4 + i, x**9 + j),
                        st.integers(-3, 3000), st.integers(-1, 1), st.integers(-1, 1))
_ANY_PAIR = st.tuples(st.integers(-(2**600), 2**600), st.integers(-(2**600), 2**600))


@given(st.one_of(_NEAR_FLOOR, _ANY_PAIR))
@example((0, 0))
@example((1, 0))
@example((-(2**200), 1))
@example((2**4 + 1, 2**9))
@example((2**4, 2**9))
@example((2999**4 - 1, 2999**9 + 1))
def test_d_above_floor_is_d9_above_e_a1_4(pair):
    d, e_a1 = pair
    assert d_above_floor(d, e_a1) == (d**9 > e_a1**4)


_RELAXED_RULES = ("e1-consistency", "d-inverse", "p-mod4", "q-mod4", "p-q-coprime")
# rules of the oracle that the kept rules imply, so validate_keypair leaves them out
_IMPLIED_RULES = ("e1-e2-coprime", "d-coprime", "pq-range", "e1-range")


def _rule_names(report):
    return [v.partition(":")[0] for v in report.violations]


def _is_prime(x):
    return x > 1 and all(x % f for f in range(2, math.isqrt(x) + 1))


def _with_d(n, p, q, d):
    """The key on (p, q, d) with e_a2 shifted into range as generate_keypair shifts it."""
    pq, lo = p * q, 1 << (3 * n + 4)
    e = pow(d, -1, pq)
    return KeyPair(PublicKey(n, p * p * q, e + ((lo - e) // pq + 1) * pq), PrivateKey(p, q, d))


def _rekeyed(n, p, q, rng=None):
    """The key on (p, q) with d drawn as generate_keypair draws it."""
    rng, pq = rng or random.Random(0), p * q
    d = next(d for d in iter(lambda: rng.randrange(2, pq), None)
             if d**9 > (p * p * q) ** 4 and math.gcd(d, pq) == 1)
    return _with_d(n, p, q, d)


def _first(start, ok):
    """The first x = start, start + 4, ... that passes ok."""
    return next(x for x in itertools.count(start, 4) if ok(x))


_BASE = generate_keypair(16, random.Random(3))
_P, _Q, _D = _BASE.private
_PQ = _P * _Q


def _changed(e_a1=0, e_a2=0, d=0):
    """The base key with e_a1, e_a2 and d moved by the given amounts."""
    pub = _BASE.public
    return KeyPair(PublicKey(16, pub.e_a1 + e_a1, pub.e_a2 + e_a2), PrivateKey(_P, _Q, _D + d))


# one key per rule, whose strict report is that rule alone
_WITNESSES = {
    "e1-consistency": lambda: _changed(e_a1=1),
    "d-inverse": lambda: _changed(e_a2=2),
    "p-mod4": lambda: _rekeyed(16, _first((1 << 16) + 1, _is_prime), _Q),
    "q-mod4": lambda: _rekeyed(16, _P, _first((1 << 16) + 1, _is_prime)),
    "p-q-coprime": lambda: _rekeyed(16, _P, _P),
    "n-range": lambda: KeyPair(PublicKey(4, 0x206F, 0x1019C), PrivateKey(19, 23, 56)),
    "p-prime": lambda: _rekeyed(
        16, _first((1 << 16) + 3, lambda x: not _is_prime(x) and math.gcd(x, _Q) == 1), _Q),
    "q-prime": lambda: _rekeyed(
        16, _P, _first((1 << 16) + 3, lambda x: not _is_prime(x) and math.gcd(x, _P) == 1)),
    "p-range": lambda: _rekeyed(16, _first((1 << 17) + 3, _is_prime), _Q),
    "q-range": lambda: _rekeyed(16, _P, _first((1 << 15) + 3, _is_prime)),
    "e2-range": lambda: _changed(e_a2=_PQ << 64),
    # the smallest d >= 3 coprime to p*q, as in test_validation_flags_d_at_or_below_the_coppersmith_floor
    "d-floor": lambda: _with_d(16, _P, _Q, 3),
    "d-range": lambda: _changed(d=_PQ),
}


@pytest.mark.parametrize("rule", list(_WITNESSES))
def test_each_rule_is_the_only_violation_of_its_witness(rule):
    kp = _WITNESSES[rule]()
    assert _rule_names(validate_keypair(kp, strict=True)) == [rule]
    assert _rule_names(validate_keypair(kp, strict=False)) == ([rule] if rule in _RELAXED_RULES else [])


def _perturbations(x, pq):
    return st.one_of(
        st.integers(-8, 8).map(lambda k: max(0, x + k)),
        st.integers(2, 8).map(lambda k: x * k),
        st.just(0),
        st.integers(-4, 4).map(lambda k: max(0, x + k * pq)),
        st.integers(0, x.bit_length()).map(lambda i: x ^ (1 << i)),
    )


def _keypair(fields):
    return KeyPair(PublicKey(*fields[:3]), PrivateKey(*fields[3:]))


@st.composite
def _perturbed_keypairs(draw, n_min=8, changes=(1, 3)):
    """A key (generated at n >= 8, else built on rabin.keygen's primes) with fields perturbed."""
    n = draw(st.integers(n_min, 24))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if n >= 8:
        kp = generate_keypair(n, rng)
    else:
        primes = rabin.keygen(n, rng)
        kp = _rekeyed(n, primes.p, primes.q, rng)
    fields = [*kp.public, *kp.private]
    changed = draw(st.lists(st.integers(0, 5), min_size=changes[0], max_size=changes[1], unique=True))
    for i in changed:
        fields[i] = draw(_perturbations(fields[i], kp.private.pq))
    return _keypair(fields)


_SMALL_KEYPAIRS = st.tuples(st.integers(0, 40), *[st.integers(0, 2**16)] * 5).map(_keypair)


@settings(deadline=None)
@given(st.one_of(_perturbed_keypairs(), _SMALL_KEYPAIRS), st.booleans())
@example(_WITNESSES["n-range"](), True)
@example(_keypair((16, 0, 0, 0, 0, 0)), True)
def test_reports_are_the_oracle_without_the_implied_rules(kp, strict):
    expected = [v for v in reference_validate_keypair(kp, strict).violations
                if v.partition(":")[0] not in _IMPLIED_RULES]
    if strict and kp.public.n < 8:
        # first in the strict block, after the relaxed rules' lines
        expected.insert(sum(v.partition(":")[0] in _RELAXED_RULES for v in expected), "n-range: n below 8")
    assert validate_keypair(kp, strict).violations == expected


@settings(deadline=None)
@given(_perturbed_keypairs(n_min=4, changes=(0, 1)))
def test_keys_passing_strict_validation_pass_the_public_key_check(kp):
    if validate_keypair(kp, strict=True).valid:
        check_public_key(kp.public)


def test_generate_raises_when_d_sampling_runs_out(monkeypatch):
    monkeypatch.setattr(keys, "_D_RETRIES", 0)
    with pytest.raises(GenerationFailure, match="^could not sample a decryption exponent$"):
        generate_keypair(16, random.Random(0))


def test_check_public_key_needs_n_at_least_8_and_3n_bit_coefficients():
    check_public_key(vectors.public_key())  # e_a1 has exactly 3n = 48 bits
    for n in (8, 16, 64):
        check_public_key(generate_keypair(n, random.Random(n)).public)
    check_public_key(PublicKey(16, 1 << 47, 1 << 51))  # 48 and 52 bits
    for bad in (
        PublicKey(7, 1 << 40, 1 << 40),
        PublicKey(16, (1 << 47) - 1, 1 << 51),
        PublicKey(16, 1 << 47, (1 << 47) - 1),
        PublicKey(100_000_000, 5, 7),
    ):
        with pytest.raises(InconsistentKey):
            check_public_key(bad)


def test_key_file_round_trip():
    kp = generate_keypair(16, random.Random(5))
    assert parse_public_key(format_public_key(kp.public)) == kp.public
    priv, n = parse_private_key(format_private_key(kp.private, 16))
    assert priv == kp.private and n == 16


def test_key_file_round_trip_beyond_decimal_digit_limit():
    pub = PublicKey(5000, (1 << 15002) - 3, (1 << 15020) - 1)  # e_a2 ~ 4520 digits
    text = format_public_key(pub)
    assert all(line.split(" = ")[1].startswith("0x") for line in text.splitlines())
    assert parse_public_key(text) == pub


_KEY_FILE_INT = st.integers(0, 2**20000)  # past the 4300-digit decimal limit


@settings(deadline=None)
@given(_KEY_FILE_INT, _KEY_FILE_INT, _KEY_FILE_INT, _KEY_FILE_INT)
@example(2**20000, 2**20000 - 1, 10**4300, 0)
@example(keys._MAX_N, 2 ** (keys._MAX_N + 1) - 1, 10**4300, 2**20000)  # all past 4300 digits
@example(keys._MAX_N + 1, 7, 7, 0)
@example(16, 2**17 - 1, 7, 2**100_000)
@example(16, 2**18 - 1, 7, 0)
@example(16, 2**512 - 1, 2**511, 0)
@example(16, 7, 2**512, 0)
def test_key_files_round_trip_any_size(n, a, b, c):
    # d has no cap; n above _MAX_N, p or q above n + 1 bits, or e_a1 or e_a2 above 32n bits
    # is refused
    pub, priv = PublicKey(n, a, b), PrivateKey(a, b, c)
    for parse, text, value, too_large in (
        (parse_public_key, format_public_key(pub), pub,
         n > keys._MAX_N or max(a, b).bit_length() > 32 * n),
        (parse_private_key, format_private_key(priv, n), (priv, n),
         n > keys._MAX_N or max(a, b).bit_length() > n + 1),
    ):
        if too_large:
            with pytest.raises(InconsistentKey, match="key too large"):
                parse(text)
        else:
            assert parse(text) == value


def test_key_file_reference_values():
    text = format_private_key(PrivateKey(vectors.P16, vectors.Q16, vectors.D16), 16)
    priv, n = parse_private_key(text)
    assert (priv.p, priv.q, priv.d, n) == (vectors.P16, vectors.Q16, vectors.D16, 16)


def test_key_file_rejects_unknown_and_malformed_fields():
    good = format_public_key(vectors.public_key())
    with pytest.raises(ValueError):
        parse_public_key(good + "extra = 5\n")
    with pytest.raises(ValueError):
        parse_public_key("n = 16\neA1 = 3\n")  # missing eA2
    with pytest.raises(ValueError):
        parse_public_key(good.replace("eA1 = ", "eA1 = -"))
    with pytest.raises(ValueError):
        parse_public_key(good + "n = 16\n")  # duplicate
    for value in ("١٦", "1_6", "+16"):  # ASCII decimal digits only
        with pytest.raises(ValueError):
            parse_public_key(good.replace("n = 0x10", f"n = {value}"))


def test_private_key_pq_property():
    priv = PrivateKey(vectors.P16, vectors.Q16, vectors.D16)
    assert priv.pq == vectors.PQ16
