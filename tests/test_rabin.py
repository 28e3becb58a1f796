import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aabeta import rabin
from aabeta.errors import InvalidCiphertext
from aabeta.numtheory import jacobi

from reference import jacobi_decrypt_extrabits


def test_keygen_smallest_size():
    rng = random.Random(3)
    kp = rabin.keygen(4, rng)
    assert kp.p in {19, 23, 31} and kp.q in {19, 23, 31}
    assert kp.p != kp.q
    assert kp.N == kp.p * kp.q


def test_keygen_deterministic():
    assert rabin.keygen(8, random.Random(9)) == rabin.keygen(8, random.Random(9))


def test_keygen_modulus_bound():
    kp = rabin.keygen(16, random.Random(1))
    assert kp.N < 1 << 34


def test_encrypt_values():
    assert rabin.encrypt(77, 9) == 4
    assert rabin.encrypt(77, 0) == 0
    assert rabin.encrypt(77, 1) == 1
    with pytest.raises(ValueError):
        rabin.encrypt(77, 77)


def test_decrypt_all_enumerated_oracle():
    kp = rabin.RabinKeyPair(77, 7, 11)
    expected = {x for x in range(77) if x * x % 77 == 4}
    assert expected == {2, 9, 68, 75}
    roots = rabin.decrypt_all(kp, 4)
    assert set(roots) == expected
    assert all(r * r % 77 == 4 for r in roots)


def test_decrypt_all_zero_and_one():
    kp = rabin.RabinKeyPair(77, 7, 11)
    assert rabin.decrypt_all(kp, 0) == (0, 0, 0, 0)
    ones = {x for x in range(77) if x * x % 77 == 1}
    assert set(rabin.decrypt_all(kp, 1)) == ones
    assert {1, 76} <= ones and len(ones) == 4


def test_decrypt_all_non_residue():
    kp = rabin.RabinKeyPair(77, 7, 11)
    assert 3 not in {x * x % 7 for x in range(7)}
    with pytest.raises(InvalidCiphertext):
        rabin.decrypt_all(kp, 3)


@pytest.mark.parametrize("c", [-1, 77, 77 + 4])
def test_decrypt_all_rejects_ciphertexts_outside_the_modulus(c):
    with pytest.raises(InvalidCiphertext, match=r"\[0, N\)"):
        rabin.decrypt_all(rabin.RabinKeyPair(77, 7, 11), c)


def test_root_pairs_sum_to_zero_mod_n():
    rng = random.Random(4)
    for _ in range(50):
        kp = rabin.keygen(8, rng)
        m = rng.randrange(1, kp.N)
        roots = rabin.decrypt_all(kp, rabin.encrypt(kp.N, m))
        assert sorted(roots) == sorted((kp.N - r) % kp.N for r in roots)


def test_redundant_construction():
    # payload 0b1011 replicated over l=2 low bits gives 0b101111
    assert rabin.encrypt_redundant(1 << 20, 0b1011, 2) == pow(0b101111, 2, 1 << 20)


def test_redundant_round_trip():
    rng = random.Random(8)
    for _ in range(200):
        kp = rabin.keygen(12, rng)
        payload = rng.randrange(1, 1 << 14)
        c = rabin.encrypt_redundant(kp.N, payload, 8)
        assert payload in rabin.decrypt_redundant(kp, c, 8)


def test_redundant_overflow():
    with pytest.raises(ValueError):
        rabin.encrypt_redundant(77, 1 << 10, 4)


@pytest.mark.parametrize(
    "payload, l, reason",
    [
        (1, 0, "l must be at least 1"),
        (-1, 2, "payload must be nonnegative"),
        # 6 + 1 bits pass the bit-length check, but 0b1111111 = 127 >= 77
        (0b111111, 1, "tagged message does not fit below N"),
    ],
    ids=["l-0", "negative-payload", "tagged-at-least-N"],
)
def test_redundant_rejects_bad_inputs(payload, l, reason):
    with pytest.raises(ValueError, match=reason):
        rabin.encrypt_redundant(77, payload, l)


def test_redundant_ambiguity_found_by_exhaustive_search():
    # search tiny keys for a payload whose tagged square has a second
    # matching root, then check both payloads come from tagged roots
    found = None
    for p, q in ((7, 11), (11, 19), (19, 23), (23, 31)):
        kp = rabin.RabinKeyPair(p * q, p, q)
        l = 2
        for payload in range(1, kp.N >> l):
            m = (payload << l) | (payload & 3)
            if m >= kp.N:
                break
            c = rabin.encrypt(kp.N, m)
            payloads = rabin.decrypt_redundant(kp, c, l)
            if len(payloads) == 2:
                found = (kp, payload, c, payloads)
                break
        if found:
            break
    assert found is not None
    kp, payload, c, payloads = found
    assert payload in payloads
    roots = rabin.decrypt_all(kp, c)
    for other in payloads:
        assert (other << 2) | (other & 3) in roots  # the root that carries its tag


def test_redundant_zero_payload():
    kp = rabin.RabinKeyPair(77, 7, 11)
    # all four roots of 0 are 0, counted once
    assert rabin.decrypt_redundant(kp, 0, 2) == (0,)


def test_redundancy_failure_rate_statistical():
    # ambiguity probability is near 2^(1-l); wide tolerance, seeded run
    stats = rabin.redundancy_experiment(16, 8, 2000, random.Random(12345))
    assert stats.trials == 2000
    unique_rate = 1 - stats.rate
    assert unique_rate >= 1 - 3 * 2 ** (1 - 8)


def test_extrabits_known_values():
    c, parity, jac_bit = rabin.encrypt_extrabits(77, 9)
    assert (c, parity) == (4, 1)
    assert jacobi(9, 77) == 1 and jac_bit == 1
    assert rabin.decrypt_extrabits(rabin.RabinKeyPair(77, 7, 11), c, parity, jac_bit) == 9


def test_extrabits_rejects_shared_factor():
    with pytest.raises(ValueError):
        rabin.encrypt_extrabits(77, 14)


def test_extrabits_round_trip_many():
    rng = random.Random(6)
    kp = rabin.keygen(16, rng)
    done = 0
    while done < 1000:
        m = rng.randrange(1, kp.N)
        if math.gcd(m, kp.N) != 1:
            continue
        c, parity, jac_bit = rabin.encrypt_extrabits(kp.N, m)
        assert rabin.decrypt_extrabits(kp, c, parity, jac_bit) == m
        done += 1


def test_extrabits_bits_identify_unique_root():
    # the two equal-Jacobi roots are m and N-m, which differ in parity
    rng = random.Random(14)
    kp = rabin.keygen(10, rng)
    for _ in range(200):
        m = rng.randrange(1, kp.N)
        if math.gcd(m, kp.N) != 1:
            continue
        roots = rabin.decrypt_all(kp, rabin.encrypt(kp.N, m))
        jacs = [jacobi(r, kp.N) for r in roots]
        assert sorted(jacs) == [-1, -1, 1, 1]
        for sign in (1, -1):
            pair = [r for r, j in zip(roots, jacs) if j == sign]
            assert (pair[0] + pair[1]) % kp.N == 0
            assert pair[0] % 2 != pair[1] % 2


@st.composite
def extrabits_inputs(draw):
    """A key with 4-40 bit primes; c in [0, N) random, a square, 0 or a multiple of p or q."""
    bits = draw(st.integers(min_value=4, max_value=40))
    kp = rabin.keygen(bits, random.Random(draw(st.integers())))
    m = draw(st.integers(min_value=0, max_value=kp.N - 1))
    c = draw(st.sampled_from((
        m,
        m * m % kp.N,
        0,
        m % kp.q * kp.p,
        m % kp.p * kp.q,
        (m % kp.q * kp.p) ** 2 % kp.N,
    )))
    return kp, c


def _outcome(decrypt, kp, c, parity_bit, jacobi_bit):
    try:
        return decrypt(kp, c, parity_bit, jacobi_bit)
    except InvalidCiphertext as exc:
        return str(exc)


@settings(deadline=None)
@given(extrabits_inputs())
def test_decrypt_extrabits_matches_jacobi_oracle(inputs):
    # the Jacobi bit read from the root's CRT sign position must agree
    # with jacobi(r, N) == 1 for every c, shared factors included
    kp, c = inputs
    for bits in ((0, 0), (0, 1), (1, 0), (1, 1)):  # (parity, Jacobi)
        expected = _outcome(jacobi_decrypt_extrabits, kp, c, *bits)
        assert _outcome(rabin.decrypt_extrabits, kp, c, *bits) == expected


def test_keypair_validation():
    with pytest.raises(ValueError):
        rabin.RabinKeyPair(78, 7, 11)
    with pytest.raises(ValueError):
        rabin.RabinKeyPair(49, 7, 7)
    with pytest.raises(ValueError):
        rabin.RabinKeyPair(35, 5, 7)  # 5 = 1 mod 4


def test_keypair_rejects_p_and_q_sharing_a_factor():
    # 27 and 23019 = 3 * 7673 are distinct and both 3 (mod 4)
    with pytest.raises(ValueError, match="share a factor"):
        rabin.RabinKeyPair(27 * 23019, 27, 23019)


def test_redundant_rejects_a_ciphertext_without_a_tagged_root():
    # the roots of 1 mod 77 are 1, 34, 43 and 76: none repeats its low 2 bits
    kp = rabin.RabinKeyPair(77, 7, 11)
    assert sorted(rabin.decrypt_all(kp, 1)) == [1, 34, 43, 76]
    with pytest.raises(InvalidCiphertext, match="no root carries the replicated tag"):
        rabin.decrypt_redundant(kp, 1, 2)
