"""Key generation and validation.

A key pair at security parameter n consists of the public tuple
(n, e_a1, e_a2) with e_a1 = p^2*q, and the private triple (p, q, d)
where p, q are primes congruent to 3 mod 4 in (2^n, 2^(n+1)) and d is
the decryption exponent with e_a2*d = 1 (mod p*q).
"""

import math
import re
from collections import namedtuple

from . import rabin
from .errors import GenerationFailure, InconsistentKey
from .numtheory import is_probable_prime

__all__ = [
    "PublicKey",
    "PrivateKey",
    "KeyPair",
    "ValidationReport",
    "generate_keypair",
    "validate_keypair",
    "check_public_key",
    "parse_uint",
    "parse_fields",
    "format_fields",
    "format_public_key",
    "parse_public_key",
    "format_private_key",
    "parse_private_key",
]


PublicKey = namedtuple("PublicKey", "n e_a1 e_a2")
KeyPair = namedtuple("KeyPair", "public private")


class PrivateKey(namedtuple("PrivateKey", "p q d")):
    __slots__ = ()

    @property
    def pq(self):
        return self.p * self.q


class ValidationReport(namedtuple("ValidationReport", "violations")):
    __slots__ = ()

    @property
    def valid(self):
        return not self.violations


_D_RETRIES = 1000


def generate_keypair(n, rng):
    """Generate a full key pair at bit size n (n >= 8) on rabin.keygen's primes.

    d is sampled uniformly from (e_a1^(4/9), p*q) coprime to p*q, and
    e_a2 is the inverse of d shifted by the minimal multiple of p*q
    into (2^(3n+4), 2^(3n+6)).
    """
    if n < 8:
        raise ValueError("n must be at least 8")
    primes = rabin.keygen(n, rng)
    p, q, pq = primes.p, primes.q, primes.N
    e_a1 = p * p * q
    floor_pow = e_a1**4
    for _ in range(_D_RETRIES):
        d = rng.randrange(2, pq)
        if d**9 > floor_pow and math.gcd(d, pq) == 1:
            break
    else:
        raise GenerationFailure("could not sample a decryption exponent")
    e = pow(d, -1, pq)
    lo = 1 << (3 * n + 4)
    e += ((lo - e) // pq + 1) * pq  # e < pq < 2^(2n+2) < lo
    assert lo < e < 1 << (3 * n + 6)
    return KeyPair(PublicKey(n, e_a1, e), PrivateKey(p, q, d))


def validate_keypair(kp, strict=True):
    """Check key-pair invariants, returning a report of all violations.

    Relaxed mode (strict=False) checks e_a1 = p^2*q, e_a2*d = 1 (mod p*q),
    p = q = 3 (mod 4) and gcd(p, q) = 1; strict adds n >= 8, primality and the
    generator's bounds. Implied rules are left out: the relaxed rules give
    gcd(d, p*q) = gcd(e_a1, e_a2) = 1, and p-range and q-range bound p*q and e_a1.
    """
    pub, priv = kp.public, kp.private
    n, e_a1, e_a2 = pub.n, pub.e_a1, pub.e_a2
    p, q, d = priv.p, priv.q, priv.d
    pq = p * q
    bad = []
    if e_a1 != p * p * q:
        bad.append("e1-consistency: e_a1 != p^2*q")
    if pq == 0 or e_a2 * d % pq != 1:
        bad.append("d-inverse: e_a2*d != 1 (mod p*q)")
    if p % 4 != 3:
        bad.append("p-mod4: p != 3 (mod 4)")
    if q % 4 != 3:
        bad.append("q-mod4: q != 3 (mod 4)")
    if math.gcd(p, q) != 1:
        bad.append("p-q-coprime: gcd(p, q) != 1")
    if strict:
        if n < 8:
            bad.append("n-range: n below 8")
        if not is_probable_prime(p):
            bad.append("p-prime: p is not prime")
        if not is_probable_prime(q):
            bad.append("q-prime: q is not prime")
        for tag, name, x, a, b, bounds in (
            ("p", "p", p, n, n + 1, "2^n, 2^(n+1)"),
            ("q", "q", q, n, n + 1, "2^n, 2^(n+1)"),
            ("e2", "e_a2", e_a2, 3 * n + 4, 3 * n + 6, "2^(3n+4), 2^(3n+6)"),
        ):
            # 2^a < x < 2^b by bit lengths: no power of two is built from the file's n,
            # and the message names the bounds in n, which may be too long for decimal
            if not (x > 0 and (x - 1).bit_length() > a and x.bit_length() <= b):
                bad.append(f"{tag}-range: {name} not in ({bounds})")
        if d**9 <= e_a1**4:
            bad.append("d-floor: d not above e_a1^(4/9)")
        if not 1 < d < pq:
            bad.append("d-range: d not in (1, p*q)")
    return ValidationReport(bad)


def check_public_key(pub):
    """Raise InconsistentKey unless n >= 8 and e_a1, e_a2 have 3n bits or more.

    This bounds n, and with it the work of every command that uses only
    the public key, by the size of the key file.
    """
    if pub.n < 8 or min(pub.e_a1, pub.e_a2).bit_length() < 3 * pub.n:
        raise InconsistentKey("public key too small: need n >= 8 and e_a1, e_a2 of 3n bits or more")


# The largest n of a key file or of --n: 8x the largest size the README uses, far
# past any size keygen finishes in, and small enough that no 1 << n exhausts memory.
_MAX_N = 1 << 14


def _check_size(kind, n, *primes, coefficients=()):
    """Raise InconsistentKey for n above _MAX_N, a prime above n+1 bits, or e_a1 or e_a2 above 32n
    bits (the lattice attack's cost grows with their square; the tests' weakest key, e_a2 raised
    by p*q*2^(20n), has about 22n + 2 bits); d is not capped."""
    if n > _MAX_N or any(x.bit_length() > n + 1 for x in primes) or any(
            e.bit_length() > 32 * n for e in coefficients):
        raise InconsistentKey(f"{kind} key too large: n above {_MAX_N}, p or q above n+1 bits, "
                              "or e_a1 or e_a2 above 32n bits")


_PUBLIC_FIELDS = ("n", "eA1", "eA2")
_PRIVATE_FIELDS = ("n", "p", "q", "d")
_UINT_TEXT = re.compile(r"[0-9]+|0[xX][0-9a-fA-F]+")


def parse_uint(text):
    """The one integer grammar of every CLI input: ASCII decimal or 0x hex.

    Leading zeros are fine; a sign, `_`, whitespace or non-ASCII digit
    raises ValueError, as does decimal past CPython's str-to-int limit.
    """
    if not _UINT_TEXT.fullmatch(text):
        raise ValueError(f"not an unsigned integer: {text[:40]!r}")
    return int(text, 16 if text[:2] in ("0x", "0X") else 10)


def parse_fields(text, expected):
    """Parse `name = value` lines into a dict of non-negative integers.

    Every name in `expected` must appear exactly once and no other name
    may appear; each value is read by parse_uint. Blank lines are
    skipped. Raises ValueError otherwise.
    """
    values = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        name, sep, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep:
            raise ValueError(f"malformed line: {raw!r}")
        if name not in expected:
            raise ValueError(f"unknown field: {name!r}")
        if name in values:
            raise ValueError(f"duplicate field: {name!r}")
        values[name] = parse_uint(value)
    missing = [f for f in expected if f not in values]
    if missing:
        raise ValueError(f"missing fields: {missing}")
    return values


def format_fields(pairs):
    """One `name = 0x...` line per (name, value) pair, the record parse_fields reads."""
    return "".join(f"{name} = {value:#x}\n" for name, value in pairs)


def format_public_key(pub):
    return format_fields(zip(_PUBLIC_FIELDS, (pub.n, pub.e_a1, pub.e_a2)))


def parse_public_key(text):
    v = parse_fields(text, _PUBLIC_FIELDS)
    _check_size("public", v["n"], coefficients=(v["eA1"], v["eA2"]))
    return PublicKey(v["n"], v["eA1"], v["eA2"])


def format_private_key(priv, n):
    return format_fields(zip(_PRIVATE_FIELDS, (n, priv.p, priv.q, priv.d)))


def parse_private_key(text):
    """Return (PrivateKey, n) from the key-file text."""
    v = parse_fields(text, _PRIVATE_FIELDS)
    _check_size("private", v["n"], v["p"], v["q"])
    return PrivateKey(v["p"], v["q"], v["d"]), v["n"]
