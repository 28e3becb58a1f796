"""Baseline Rabin cryptosystem: C = M^2 mod N with N = p*q.

Decryption yields four square roots; two disambiguation schemes are
provided. The redundancy scheme replicates the l least-significant
payload bits and returns the tuple of payloads whose root carries the
tag: one entry for an unambiguous ciphertext, more with small
probability. The extra-bits scheme transmits the parity and the
Jacobi symbol of M, which identify the root uniquely when
gcd(M, N) = 1.
"""

import math
from collections import namedtuple

from .errors import InvalidCiphertext, NonResidueError
from .numtheory import four_roots, gen_prime_3mod4, jacobi, sqrt_mod_p_3mod4

__all__ = [
    "RabinKeyPair",
    "RedundancyStats",
    "keygen",
    "encrypt",
    "decrypt_all",
    "encrypt_redundant",
    "decrypt_redundant",
    "encrypt_extrabits",
    "decrypt_extrabits",
    "redundancy_experiment",
]


class RabinKeyPair(namedtuple("RabinKeyPair", "N p q")):
    __slots__ = ()

    def __new__(cls, N, p, q):
        if N != p * q:
            raise ValueError("N != p*q")
        if math.gcd(p, q) != 1:
            raise ValueError("p and q share a factor")
        if p % 4 != 3 or q % 4 != 3:
            raise ValueError("primes must be 3 (mod 4)")
        return super().__new__(cls, N, p, q)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: keep it checked
        return cls(*iterable)


class RedundancyStats(namedtuple("RedundancyStats", "trials ambiguous")):
    __slots__ = ()

    @property
    def rate(self):
        return self.ambiguous / self.trials


def keygen(n, rng):
    """Two distinct primes = 3 (mod 4) in (2^n, 2^(n+1))."""
    p = gen_prime_3mod4(n, rng)
    q = p
    while q == p:
        q = gen_prime_3mod4(n, rng)
    return RabinKeyPair(p * q, p, q)


def encrypt(n_modulus, m):
    if not 0 <= m < n_modulus:
        raise ValueError("message must lie in [0, N)")
    return m * m % n_modulus


def decrypt_all(kp, c):
    """All four square roots of c modulo N, via CRT."""
    if not 0 <= c < kp.N:
        raise InvalidCiphertext("ciphertext must lie in [0, N)")
    try:
        x_p = sqrt_mod_p_3mod4(c % kp.p, kp.p)
        x_q = sqrt_mod_p_3mod4(c % kp.q, kp.q)
    except NonResidueError as exc:
        raise InvalidCiphertext("value is not a quadratic residue mod N") from exc
    return four_roots(x_p, x_q, kp.p, kp.q)


def encrypt_redundant(n_modulus, payload, l):
    """Append a copy of the payload's l low bits, then square mod N."""
    if l < 1:
        raise ValueError("l must be at least 1")
    if payload < 0:
        raise ValueError("payload must be nonnegative")
    if payload.bit_length() + l > n_modulus.bit_length():  # before any shift by l
        raise ValueError("tagged message does not fit below N")
    m = (payload << l) | (payload & ((1 << l) - 1))
    if m >= n_modulus:
        raise ValueError("tagged message does not fit below N")
    return encrypt(n_modulus, m)


def decrypt_redundant(kp, c, l):
    """The tuple of payloads, in root order, whose distinct roots carry the tag.

    One entry for an unambiguous ciphertext, more when several roots match.
    Raises InvalidCiphertext when none does; ValueError unless 0 < l < N.bit_length().
    """
    if not 1 <= l < kp.N.bit_length():
        raise ValueError("l must lie in [1, N.bit_length())")
    mask = (1 << l) - 1
    roots = dict.fromkeys(decrypt_all(kp, c))
    payloads = tuple(r >> l for r in roots if (r & mask) == (r >> l) & mask)
    if not payloads:
        raise InvalidCiphertext("no root carries the replicated tag")
    return payloads


def encrypt_extrabits(n_modulus, m):
    """Square mod N plus the two disambiguation bits (parity, Jacobi)."""
    c = encrypt(n_modulus, m)
    if math.gcd(m, n_modulus) != 1:
        raise ValueError("message shares a factor with the modulus")
    jac = 1 if jacobi(m, n_modulus) == 1 else 0
    return c, m & 1, jac


def decrypt_extrabits(kp, c, parity_bit, jacobi_bit):
    """The single root matching both transmitted bits.

    decrypt_all's roots (+-x_p, +-x_q) have Jacobi symbols 1, -1, -1, 1 when
    gcd(c, N) = 1 (x_p, x_q are residues, -1 is not: p, q = 3 mod 4), else 0.
    """
    jacobi_bits = (1, 0, 0, 1) if math.gcd(c, kp.N) == 1 else (0, 0, 0, 0)
    matches = [
        r
        for r, jac in dict(zip(decrypt_all(kp, c), jacobi_bits)).items()
        if (r & 1) == parity_bit and jac == jacobi_bit
    ]
    if len(matches) != 1:
        raise InvalidCiphertext(f"{len(matches)} roots match the extra bits")
    return matches[0]


def redundancy_experiment(n, l, trials, rng):
    """Monte Carlo estimate of the redundancy scheme's ambiguity rate.

    Each trial draws a fresh key pair and payload; a trial counts as
    ambiguous when more than one root carries the tag. The correct
    payload is always among the matches, which the trial asserts.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    ambiguous = 0
    for _ in range(trials):
        kp = keygen(n, rng)
        payload = rng.randrange(1, 1 << (2 * n - l))
        c = encrypt_redundant(kp.N, payload, l)
        payloads = decrypt_redundant(kp, c, l)
        assert payload in payloads
        ambiguous += len(payloads) > 1
    return RedundancyStats(trials, ambiguous)
