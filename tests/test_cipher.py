import hashlib
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from aabeta import cipher
from aabeta.cipher import (
    Ciphertext,
    EphemeralPair,
    decrypt,
    encrypt,
    encrypt_trace,
    format_ciphertext,
    parse_ciphertext,
    sample_ephemerals,
    v_window,
)
from aabeta.codec import EncodedMessage, capacity_bytes, decode, encode
from aabeta.errors import CryptoError, InconsistentKey, InvalidCiphertext, ParameterViolation
from aabeta.keys import KeyPair, PrivateKey, PublicKey, generate_keypair, validate_keypair
from aabeta.numtheory import four_roots, is_probable_prime, jacobi, sqrt_mod_p_3mod4

import vectors
from reference import accepted_roots, ciphertext_range, reference_decrypt, unmasked_roots


def test_reference_encryption_intermediates():
    trace = encrypt_trace(vectors.public_key(), vectors.message(), vectors.ephemerals())
    assert trace.u == vectors.U16
    assert trace.v == vectors.V16
    assert trace.v * trace.v == vectors.V16_SQUARED
    assert trace.ciphertext.c == vectors.C16


def test_reference_ciphertext_by_independent_dot_product():
    # recompute the two-term combination directly from the frozen inputs
    u = vectors.M1_16 * 2**16 + vectors.K1_16
    v = vectors.M2_16 * 2**16 + vectors.K2_16
    assert u * vectors.E_A1_16 + v * v * vectors.E_A2_16 == vectors.C16
    ct = encrypt_trace(
        vectors.public_key(), vectors.message(), vectors.ephemerals()
    ).ciphertext
    assert ct.c == vectors.C16


def test_reference_decryption_pipeline():
    kp = vectors.keypair()
    w, roots = unmasked_roots(kp, vectors.C16)
    assert w == vectors.W16
    assert roots == vectors.ROOTS16
    # only the third root divides exactly
    accepted = accepted_roots(kp.public, vectors.C16, roots)
    assert accepted == [(vectors.U16, vectors.ROOTS16[2])]
    msg = decrypt(kp, vectors.ciphertext())
    assert msg.m1 == vectors.M1_16
    assert msg.m2 == vectors.M2_16


def test_reference_root_identities():
    assert vectors.C16 * vectors.D16 % vectors.PQ16 == vectors.W16
    for root in vectors.ROOTS16:
        assert root * root % vectors.PQ16 == vectors.W16


# SHA-256 of one hex line per seeded round trip: n, seed, C, m1, m2, then the
# outcome of decrypting C+1 and C with one seeded bit flipped. A change meant
# to move decryption outputs updates this value in the same commit and says why.
_SEEDED_DECRYPT_SHA256 = "cc5d0dc5785866f337025dc01e1364e3f102e5ef1855eddf0f4a8424791734a1"


def _outcome(kp, c):
    """The message pair in hex, or the class name of the CryptoError decrypt raises."""
    try:
        msg = decrypt(kp, Ciphertext(c))
    except CryptoError as exc:
        return type(exc).__name__
    return f"{msg.m1:x},{msg.m2:x}"


def test_seeded_decrypt_digest():
    h = hashlib.sha256()
    for n in (16, 64, 256):
        for seed in range(20):
            rng = random.Random(seed)
            kp = generate_keypair(n, rng)
            payload = rng.randbytes(rng.randrange(capacity_bytes(n) + 1))
            c = encrypt(kp.public, encode(payload, n), rng).c
            msg = decrypt(kp, Ciphertext(c))
            assert decode(msg) == payload
            flipped = c ^ 1 << rng.randrange(c.bit_length())
            tampered = f"{_outcome(kp, c + 1)},{_outcome(kp, flipped)}"
            h.update(f"{n:x},{seed:x},{c:x},{msg.m1:x},{msg.m2:x},{tampered}\n".encode())
    assert h.hexdigest() == _SEEDED_DECRYPT_SHA256


def test_tampered_ciphertext_rejected():
    with pytest.raises(InvalidCiphertext):
        decrypt(vectors.keypair(), Ciphertext(vectors.C16 + 1))


def test_ciphertext_range_edges_are_reachable():
    # the largest message with the largest session values lands on C_hi,
    # and the smallest ones just above C_lo; both decrypt
    n = 16
    kp = generate_keypair(n, random.Random(3))
    c_lo, c_hi = ciphertext_range(kp.public)
    top = EncodedMessage((1 << 3 * n + 1) - 1, (1 << n - 1) - 1, n)
    k_max = (1 << n) - 1
    ct = encrypt_trace(kp.public, top, EphemeralPair(k_max, k_max)).ciphertext
    assert ct.c == c_hi
    assert decrypt(kp, ct) == top
    low = (1 << n - 1) + 1
    ct = encrypt_trace(kp.public, encode(b"", n), EphemeralPair(low, low)).ciphertext
    assert c_lo < ct.c
    assert decode(decrypt(kp, ct)) == b""


def test_out_of_range_ciphertexts_rejected_before_any_root(monkeypatch):
    def no_root(*args):
        raise AssertionError("square root taken for an out-of-range ciphertext")

    monkeypatch.setattr(cipher, "sqrt_mod_p_3mod4", no_root)  # both of decrypt's root steps
    monkeypatch.setattr(cipher, "four_roots", no_root)  # the four-root combine
    for kp in (vectors.keypair(), generate_keypair(16, random.Random(3))):
        c_lo, c_hi = ciphertext_range(kp.public)
        huge = random.Random(6).getrandbits(10**6) | 1 << 10**6 - 1
        for c in (c_lo - 1, c_hi + 1, 0, huge):
            with pytest.raises(InvalidCiphertext):
                decrypt(kp, Ciphertext(c))


def test_encrypt_randomizes():
    kp = generate_keypair(16, random.Random(0))
    msg = encode(b"abc", 16)
    rng = random.Random(5)
    a = encrypt(kp.public, msg, rng)
    b = encrypt(kp.public, msg, rng)
    assert a != b
    assert decrypt(kp, a) == decrypt(kp, b) == msg


def test_ephemeral_range_enforced():
    kp = generate_keypair(16, random.Random(1))
    msg = encode(b"abc", 16)
    with pytest.raises(ValueError):
        encrypt_trace(kp.public, msg, EphemeralPair(1 << 15, 40000))
    with pytest.raises(ValueError):
        encrypt_trace(kp.public, msg, EphemeralPair(40000, 1 << 16))


def test_message_key_size_mismatch():
    kp = generate_keypair(16, random.Random(2))
    with pytest.raises(ValueError):
        encrypt(kp.public, encode(b"a", 32), random.Random(0))


@pytest.mark.parametrize("n", [8, 16, 32, 64])
def test_round_trip_uniqueness_and_consistency(n):
    rng = random.Random(f"rt:{n}")
    cap = capacity_bytes(n)
    for trial in range(25):
        if trial % 5 == 0:
            kp = generate_keypair(n, rng)
            pq = kp.private.pq
        payload = rng.randbytes(rng.randrange(cap + 1))
        msg = encode(payload, n)
        enc = encrypt_trace(kp.public, msg, sample_ephemerals(n, rng))
        c = enc.ciphertext.c
        # decrypt returns only when exactly one candidate passes
        # integrality + window, every time
        dec = decrypt(kp, enc.ciphertext)
        assert dec == msg
        assert decode(dec) == payload
        # unmasked value equals the encryption-side square
        w, roots = unmasked_roots(kp, c)
        assert w == enc.v * enc.v % pq
        assert all(r * r % pq == w for r in roots)
        assert accepted_roots(kp.public, c, roots) == [(enc.u, enc.v)]
        assert (1 << (4 * n)) < enc.u < (1 << (4 * n + 1))
        assert (1 << (2 * n - 2)) < enc.v < (1 << (2 * n - 1))
        # direct big-integer recomputation of the two-term combination
        e1, e2 = kp.public.e_a1, kp.public.e_a2
        assert enc.ciphertext.c == enc.u * e1 + enc.v * enc.v * e2


@st.composite
def window_extremes(draw):
    """(n, m2, k2): m2 and the session value k2 at either end of their ranges or between."""
    n = draw(st.integers(8, 64))
    m2_lo, k2_lo = (1 << (n - 2)) + 1, (1 << (n - 1)) + 1
    m2_hi, k2_hi = (1 << (n - 1)) - 1, (1 << n) - 1
    m2 = draw(st.sampled_from((m2_lo, m2_hi)) | st.integers(m2_lo, m2_hi))
    k2 = draw(st.sampled_from((k2_lo, k2_hi)) | st.integers(k2_lo, k2_hi))
    return n, m2, k2


@given(window_extremes())
@example((8, 2**6 + 1, 2**7 + 1))
@example((8, 2**7 - 1, 2**8 - 1))
@example((64, 2**62 + 1, 2**63 + 1))
@example((64, 2**63 - 1, 2**64 - 1))
def test_encrypted_v_lies_strictly_inside_v_window(case):
    n, m2, k2 = case
    msg = EncodedMessage((1 << (3 * n)) + 1, m2, n)
    eph = EphemeralPair((1 << (n - 1)) + 1, k2)
    v = encrypt_trace(PublicKey(n, 1, 1), msg, eph).v  # V does not depend on the key
    v_lo, v_hi = v_window(n)
    assert v_lo < v < v_hi


@st.composite
def round_trip_cases(draw):
    n = draw(st.integers(8, 64))
    payload = draw(st.binary(max_size=capacity_bytes(n)))
    return n, draw(st.integers(0, 2**32)), payload, draw(st.integers(0, 2**64))


@settings(deadline=None)
@given(round_trip_cases())
def test_decrypt_inverts_encrypt(case):
    n, key_seed, payload, ephemeral_seed = case
    kp = generate_keypair(n, random.Random(key_seed))
    ct = encrypt(kp.public, encode(payload, n), random.Random(ephemeral_seed))
    assert decode(decrypt(kp, ct)) == payload


@pytest.mark.parametrize("n", [16, 64])
def test_out_of_range_message_rejected(n):
    # U carries an in-range m1, but V = 2^(2n-2)+1 gives m2 = 2^(n-2), just
    # outside (2^(n-2), 2^(n-1)); C still lies inside [C_lo, C_hi]
    kp = generate_keypair(n, random.Random(f"m2-range:{n}"))
    u = (((1 << 3 * n) + 1) << n) + (1 << n - 1) + 1
    v = (1 << 2 * n - 2) + 1
    c = u * kp.public.e_a1 + v * v * kp.public.e_a2
    c_lo, c_hi = ciphertext_range(kp.public)
    assert c_lo <= c <= c_hi
    # exactly one root satisfies the ciphertext equation...
    assert accepted_roots(kp.public, c, unmasked_roots(kp, c)[1]) == [(u, v)]
    # ...so the rejection names the message range, chained from the codec check
    with pytest.raises(InvalidCiphertext, match="outside the message ranges") as info:
        decrypt(kp, Ciphertext(c))
    assert isinstance(info.value.__cause__, ValueError)


def _count_four_root_calls(monkeypatch):
    """Route decrypt's four-root fallback through a counter; returns the tally list."""
    calls = []

    def counted(*args):
        calls.append(1)
        return four_roots(*args)

    monkeypatch.setattr(cipher, "four_roots", counted)
    return calls


def _record_root_moduli(monkeypatch):
    """Record the modulus of each square root decrypt takes; returns the list."""
    moduli = []

    def recorded(w, p):
        moduli.append(p)
        return sqrt_mod_p_3mod4(w, p)

    monkeypatch.setattr(cipher, "sqrt_mod_p_3mod4", recorded)
    return moduli


def _outcome_pair(kp, c):
    """What decrypt and the four-root reference each return or raise for C."""
    out = []
    for fn in (decrypt, reference_decrypt):
        try:
            out.append(fn(kp, Ciphertext(c)))
        except Exception as exc:  # the class is the outcome
            out.append(type(exc))
    return out


@pytest.mark.parametrize("n", [16, 64])
def test_honest_decrypt_takes_one_square_root(monkeypatch, n):
    calls = _count_four_root_calls(monkeypatch)
    roots = _record_root_moduli(monkeypatch)
    rng = random.Random(f"one-root:{n}")
    kp = generate_keypair(n, rng)
    for _ in range(10):
        msg = encode(rng.randbytes(rng.randrange(capacity_bytes(n) + 1)), n)
        assert decrypt(kp, encrypt(kp.public, msg, rng)) == msg
    assert calls == []
    assert roots == [kp.private.p] * 10


def test_root_divisible_by_p_decrypts_through_four_roots(monkeypatch):
    # V = p*k leaves x = 0 (mod p), which no Newton step can lift
    n = 16
    kp = generate_keypair(n, random.Random(7))
    p = kp.private.p
    first = ((1 << 2 * n - 2) // p + 1) * p
    v = next(
        v
        for v in range(first, 1 << 2 * n - 1, p)
        if v >> n > 1 << n - 2 and v & (1 << n) - 1 > 1 << n - 1
    )
    msg = EncodedMessage(encode(b"p | V", n).m1, v >> n, n)
    ct = encrypt_trace(kp.public, msg, EphemeralPair((1 << n - 1) + 1, v & (1 << n) - 1))
    assert ct.v == v and v % p == 0
    calls = _count_four_root_calls(monkeypatch)
    roots = _record_root_moduli(monkeypatch)
    assert decrypt(kp, ct.ciphertext) == msg
    assert calls == [1]
    assert roots == [p, kp.private.q]


def test_residue_mod_p_only_is_rejected_after_one_root(monkeypatch):
    # C+delta whose W is a square mod p but not mod q: the lifted roots
    # cannot divide the equation mod q
    kp = vectors.keypair()
    p, q = kp.private.p, kp.private.q
    c = next(
        c
        for c in range(vectors.C16 + 1, vectors.C16 + 1000)
        if jacobi(c * kp.private.d, p) == 1 and jacobi(c * kp.private.d, q) == -1
    )
    calls = _count_four_root_calls(monkeypatch)
    assert _outcome_pair(kp, c) == [InvalidCiphertext] * 2
    assert calls == []


@pytest.mark.parametrize(
    "p, q, decrypts",
    [
        (11, 2999, True),  # p^2 < 2^(2n-1) < p*q: the window root is one of W's four
        (263, 7, False),  # p*q < 2^(2n-1) < p^2: no root of W reaches the window
    ],
)
def test_small_factor_keys_decrypt_as_the_four_root_path(monkeypatch, p, q, decrypts):
    # relaxed-valid keys (e_a2 = d = 1) outside the honest sizes, where
    # p*min(p, q) <= 2^(2n-1) sends decrypt to the four-root path
    n = 8
    kp = KeyPair(PublicKey(n, p * p * q, 1), PrivateKey(p, q, 1))
    calls = _count_four_root_calls(monkeypatch)
    rng = random.Random(f"small:{p}:{q}")
    decrypted = 0
    for _ in range(10):
        msg = encode(rng.randbytes(rng.randrange(capacity_bytes(n) + 1)), n)
        got, want = _outcome_pair(kp, encrypt(kp.public, msg, rng).c)
        assert got == want
        decrypted += got == msg
    assert len(calls) == 10
    # with p = 11 a second window root also divides now and then (ParameterViolation)
    assert (decrypted > 0) is decrypts


def test_composite_p_root_sharing_a_factor_is_rejected_not_a_value_error():
    # a relaxed-valid key (e_a2 = d = 1) on p = 3r with r = 1 (mod 4): for
    # W = 0 (mod 3) and W = 1 (mod r), x = W^((p+1)/4) passes x^2 = W (mod p)
    # with gcd(x, p) = 3, so 2x has no inverse mod p
    n = 16
    r = next(r for r in range(21849, 43690, 4) if is_probable_prime(r))
    p, q = 3 * r, vectors.Q16
    assert p * min(p, q) > 1 << 2 * n - 1  # the size guard alone would take one root
    kp = KeyPair(PublicKey(n, p * p * q, 1), PrivateKey(p, q, 1))
    assert validate_keypair(kp, strict=False).valid
    c_lo, _ = ciphertext_range(kp.public)
    w = next(w for w in range(1, p, r) if w % 3 == 0)
    c = c_lo + (w - c_lo) % p
    assert math.gcd(sqrt_mod_p_3mod4(c % p, p), p) == 3
    assert _outcome_pair(kp, c) == [InvalidCiphertext] * 2


def _shared_factor_case():
    # p = 27 and q = 23019 share the factor 3; W = 0 has the root 0 mod both
    n, p, q = 8, 27, 23019
    pub = PublicKey(n, p * p * q, 1)
    c_lo, _ = ciphertext_range(pub)
    return KeyPair(pub, PrivateKey(p, q, 1)), -(-c_lo // (p * q)) * p * q


def _reference_key_with(p, q):
    kp = vectors.keypair()
    return KeyPair(kp.public, PrivateKey(p, q, kp.private.d)), vectors.C16


@pytest.mark.parametrize(
    "kp, c",
    [
        _shared_factor_case(),
        _reference_key_with(vectors.P16 + 2, vectors.Q16),  # p + 2 = 1 (mod 4)
        _reference_key_with(0, vectors.Q16),
        _reference_key_with(vectors.P16, 0),
    ],
    ids=["p-q-share-3", "p-1mod4", "p-zero", "q-zero"],
)
def test_key_failing_the_root_step_raises_inconsistent_key(kp, c):
    assert not validate_keypair(kp, strict=False).valid
    with pytest.raises(InconsistentKey):
        decrypt(kp, Ciphertext(c))


@st.composite
def four_root_cases(draw):
    """Relaxed-valid keys (e_a2 = d = 1, p, q = 3 mod 4, coprime, below 2^12)
    with p*min(p, q) <= 2^(2n-1), and a C from the key's range or the equation."""
    n = draw(st.integers(5, 12))
    bound = 1 << 2 * n - 1
    p = 4 * draw(st.integers(0, (min(4095, bound // 3) - 3) // 4)) + 3
    q_max = 4095 if p * p <= bound else bound // p
    q = 4 * draw(st.integers(0, (q_max - 3) // 4)) + 3
    assume(math.gcd(p, q) == 1)
    pub = PublicKey(n, p * p * q, 1)
    if draw(st.booleans()):
        c = draw(st.integers(*ciphertext_range(pub)))
    else:
        u = draw(st.integers(((1 << 3 * n) + 1) << n, (1 << 4 * n + 1) - 1))
        v = draw(st.integers((1 << 2 * n - 2) + 1, (1 << 2 * n - 1) - 1))
        c = u * pub.e_a1 + v * v
    return KeyPair(pub, PrivateKey(p, q, 1)), c


@settings(deadline=None)
@given(four_root_cases())
def test_four_root_case_matches_reference_on_small_relaxed_keys(case):
    kp, c = case
    assert kp.private.p * min(kp.private.p, kp.private.q) <= 1 << 2 * kp.public.n - 1
    assert validate_keypair(kp, strict=False).valid
    got, want = _outcome_pair(kp, c)
    assert got == want, (kp, c)


@st.composite
def tampered_cases(draw):
    n = draw(st.integers(8, 64))
    payload = draw(st.binary(max_size=capacity_bytes(n)))
    seeds = draw(st.integers(0, 2**32)), draw(st.integers(0, 2**64))
    delta = draw(st.integers(-8, 8).filter(bool))
    return n, payload, seeds, delta, draw(st.integers(0, 7 * n + 3))


@settings(deadline=None)
@given(tampered_cases())
def test_decrypt_matches_four_root_reference(case):
    n, payload, (key_seed, ephemeral_seed), delta, bit = case
    kp = generate_keypair(n, random.Random(key_seed))
    c = encrypt(kp.public, encode(payload, n), random.Random(ephemeral_seed)).c
    for tampered in (c, c + delta, c ^ 1 << bit):
        got, want = _outcome_pair(kp, tampered)
        assert got == want, (n, key_seed, ephemeral_seed, tampered)


def test_double_acceptance_raises_parameter_violation(monkeypatch):
    # crafted key material outside the honest parameter ranges: with
    # e_a2 = d = 1 the pair is algebraically consistent, and the two
    # window roots 264, 385 of 253 mod 649 differ by a multiple of
    # p^2*q, so both pass the divisibility filter.
    p, q, n = 11, 59, 5
    e_a1 = p * p * q
    v_a, v_b = 264, 385
    assert (v_a * v_a - v_b * v_b) % e_a1 == 0
    lo, hi = 1 << (2 * n - 2), 1 << (2 * n - 1)
    assert lo < v_a < hi and lo < v_b < hi
    kp = KeyPair(PublicKey(n, e_a1, 1), PrivateKey(p, q, 1))
    # U = m1*2^n + k1 with m1 and k1 in range, so C passes the range check
    u = (((1 << 3 * n) + 100) << n) + (1 << n - 1) + 1
    # p^2 lies below the V window (and p divides both roots): four roots it is
    calls = _count_four_root_calls(monkeypatch)
    with pytest.raises(ParameterViolation):
        decrypt(kp, Ciphertext(u * e_a1 + v_a * v_a))
    assert calls == [1]
    # with U = 100 the same pair lies below C_lo: rejected before any root
    with pytest.raises(InvalidCiphertext):
        decrypt(kp, Ciphertext(100 * e_a1 + v_a * v_a))


class OpCountingInt:
    """Integer proxy that tallies arithmetic by kind; comparisons are free."""

    __slots__ = ("value", "counts")

    def __init__(self, value, counts):
        self.value = int(value)
        self.counts = counts

    def _wrap(self, value):
        return OpCountingInt(value, self.counts)

    @staticmethod
    def _val(other):
        return other.value if isinstance(other, OpCountingInt) else other

    def _tally(self, kind):
        self.counts[kind] = self.counts.get(kind, 0) + 1

    def __mul__(self, other):
        self._tally("mul")
        return self._wrap(self.value * self._val(other))

    __rmul__ = __mul__

    def __add__(self, other):
        self._tally("add")
        return self._wrap(self.value + self._val(other))

    __radd__ = __add__

    def __sub__(self, other):
        self._tally("sub")
        return self._wrap(self.value - self._val(other))

    def __rsub__(self, other):
        self._tally("sub")
        return self._wrap(self._val(other) - self.value)

    def __floordiv__(self, other):
        self._tally("div")
        return self._wrap(self.value // self._val(other))

    def __rfloordiv__(self, other):
        self._tally("div")
        return self._wrap(self._val(other) // self.value)

    def __truediv__(self, other):
        self._tally("div")
        return self._wrap(self.value / self._val(other))

    __rtruediv__ = __rfloordiv__

    def __mod__(self, other):
        self._tally("mod")
        return self._wrap(self.value % self._val(other))

    def __rmod__(self, other):
        self._tally("mod")
        return self._wrap(self._val(other) % self.value)

    def __divmod__(self, other):
        self._tally("div")
        return divmod(self.value, self._val(other))

    __rdivmod__ = __divmod__

    def __pow__(self, other, mod=None):
        self._tally("pow")
        return self._wrap(pow(self.value, self._val(other), mod))

    def __lshift__(self, other):
        return self._wrap(self.value << self._val(other))

    def __rshift__(self, other):
        return self._wrap(self.value >> self._val(other))

    def __neg__(self):
        return self._wrap(-self.value)

    def __eq__(self, other):
        return self.value == self._val(other)

    def __lt__(self, other):
        return self.value < self._val(other)

    def __le__(self, other):
        return self.value <= self._val(other)

    def __gt__(self, other):
        return self.value > self._val(other)

    def __ge__(self, other):
        return self.value >= self._val(other)

    def __hash__(self):
        return hash(self.value)

    def __int__(self):
        return self.value

    def __repr__(self):
        return f"OpCountingInt({self.value})"


def test_encryption_uses_no_division_and_no_modular_reduction():
    counts = {}
    msg = EncodedMessage(
        OpCountingInt(vectors.M1_16, counts),
        OpCountingInt(vectors.M2_16, counts),
        16,
    )
    eph = EphemeralPair(
        OpCountingInt(vectors.K1_16, counts), OpCountingInt(vectors.K2_16, counts)
    )
    trace = encrypt_trace(vectors.public_key(), msg, eph)
    assert trace.ciphertext.c.value == vectors.C16
    assert counts.get("div", 0) == 0
    assert counts.get("mod", 0) == 0
    assert counts.get("pow", 0) == 0
    assert counts.get("mul", 0) >= 3
    assert counts.get("add", 0) >= 2


def test_ciphertext_file_format():
    ct = vectors.ciphertext()
    assert parse_ciphertext(format_ciphertext(ct)) == ct
    assert parse_ciphertext(f"{vectors.C16}") == ct
    assert parse_ciphertext(hex(vectors.C16) + "\n") == ct
    for bad in ("12x34\n", "١٢٣", "1_234", "+123", "0x_ff", "0x", ""):
        with pytest.raises(ValueError):
            parse_ciphertext(bad)


def test_ciphertext_text_round_trips_at_n2048_size():
    # C's largest size at n = 2048 is 7n + 4 = 14,340 bits: past CPython's
    # 4300-digit decimal limit, so only the hex form can carry it
    ct = Ciphertext(random.Random(2048).getrandbits(14_340) | 1 << 14_339)
    text = format_ciphertext(ct)
    assert text.startswith("0x")
    assert parse_ciphertext(text) == ct
