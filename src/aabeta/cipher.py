"""Encryption and decryption.

Encryption blinds the message pair with fresh session values:

    U = m1*2^n + k1    (in (2^(4n), 2^(4n+1)))
    V = m2*2^n + k2    (in (2^(2n-2), 2^(2n-1)))
    C = U*e_a1 + V^2*e_a2

using only multiplication and addition on public values. Decryption
recovers W = V^2 mod p*q through the private exponent, lifts a root of
W mod p to +-V mod p^2 (C = V^2*e_a2 mod p^2, as e_a1 = p^2*q) and keeps
the candidate in the V window that divides the ciphertext equation; the
session values fall away under floor division by 2^n.
"""

import math
from collections import namedtuple

from .codec import EncodedMessage
from .errors import InconsistentKey, InvalidCiphertext, NonResidueError, ParameterViolation
from .keys import parse_uint
from .numtheory import four_roots, sqrt_mod_p_3mod4

__all__ = [
    "Ciphertext",
    "EphemeralPair",
    "EncryptionTrace",
    "v_window",
    "sample_ephemerals",
    "encrypt",
    "encrypt_trace",
    "decrypt",
    "format_ciphertext",
    "parse_ciphertext",
]


Ciphertext = namedtuple("Ciphertext", "c")
EphemeralPair = namedtuple("EphemeralPair", "k1 k2")
EncryptionTrace = namedtuple("EncryptionTrace", "u v ciphertext")


def v_window(n):
    """The open window (2^(2n-2), 2^(2n-1)) that holds every V: of the four square
    roots decrypt finds, only V lies in it and divides the ciphertext equation."""
    return 1 << (2 * n - 2), 1 << (2 * n - 1)


def sample_ephemerals(n, rng):
    """Fresh session pair, each uniform in (2^(n-1), 2^n)."""
    lo = 1 << (n - 1)
    return EphemeralPair(rng.randrange(lo + 1, 2 * lo), rng.randrange(lo + 1, 2 * lo))


def encrypt(pub, msg, rng):
    return encrypt_trace(pub, msg, sample_ephemerals(pub.n, rng)).ciphertext


def encrypt_trace(pub, msg, eph):
    """Deterministic encryption with caller-supplied session values.

    Returns U and V alongside the ciphertext.
    """
    n = pub.n
    if msg.n != n:
        raise ValueError(f"message encoded for n={msg.n}, key has n={n}")
    lo = 1 << (n - 1)
    if not (lo < eph.k1 < 2 * lo and lo < eph.k2 < 2 * lo):
        raise ValueError(f"session values outside (2^{n - 1}, 2^{n})")
    two_n = 1 << n
    u = msg.m1 * two_n + eph.k1
    v = msg.m2 * two_n + eph.k2
    c = u * pub.e_a1 + v * v * pub.e_a2
    return EncryptionTrace(u, v, Ciphertext(c))


def _in_range(pub, ct):
    """ct, if C lies in [C_lo, C_hi], the C = U*e_a1 + V^2*e_a2 of every U in
    [(2^(3n)+1)*2^n, 2^(4n+1)-1] and V in (2^(2n-2), 2^(2n-1)); else InvalidCiphertext."""
    n = pub.n
    v_lo, v_hi = v_window(n)
    c_lo = (((1 << 3 * n) + 1) << n) * pub.e_a1 + (v_lo + 1) ** 2 * pub.e_a2
    c_hi = ((1 << 4 * n + 1) - 1) * pub.e_a1 + (v_hi - 1) ** 2 * pub.e_a2
    if not c_lo <= ct.c <= c_hi:
        raise InvalidCiphertext("ciphertext outside the range of the public key")
    return ct


def decrypt(kp, ct):
    """Recover the message pair from a ciphertext.

    Raises InvalidCiphertext before any modexp when C is outside the range
    the V window and the m1 range allow, and when the unmasked value
    W = C*d mod p*q has no square root x mod p. A Newton step lifts x to
    the two candidates +-V mod p^2; unless gcd(x, p) = 1 and p*min(p, q) >
    2^(2n-1) (every window V below p^2 and p*q), the candidates are W's four
    roots four_roots(x, sqrt_mod_p_3mod4(W % q, q), p, q). Exactly one may pass
    the V window v_window(n) and divide the ciphertext equation: zero, or one outside
    the message ranges, raises InvalidCiphertext; two or more, ParameterViolation
    (the key breaks the uniqueness window). A p or q that the root step
    rejects (zero, not 3 mod 4, or sharing a factor) raises InconsistentKey.
    """
    pub, priv = kp.public, kp.private
    n = pub.n
    c = _in_range(pub, ct).c
    v_lo, v_hi = v_window(n)
    p, q = priv.p, priv.q
    try:
        w = c * priv.d % priv.pq
        x = sqrt_mod_p_3mod4(w % p, p)
        if p * min(p, q) > v_hi and math.gcd(x, p) == 1:
            pp = p * p  # Newton on e_a2*V^2 - C mod p^2, with d = e_a2^-1 (mod p)
            t = (pub.e_a2 * x * x - c) % pp // p * priv.d * pow(2 * x, -1, p) % p
            roots = ((x - p * t) % pp, (p * t - x) % pp)
        else:
            roots = four_roots(x, sqrt_mod_p_3mod4(w % q, q), p, q)
    except NonResidueError as exc:
        raise InvalidCiphertext("value is not a quadratic residue mod p*q") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise InconsistentKey(f"private key fails the root step: {exc}") from exc
    accepted = []
    # dict.fromkeys collapses duplicate roots (x_p or x_q zero)
    for v in dict.fromkeys(roots):
        if not v_lo < v < v_hi:
            continue
        num = c - v * v * pub.e_a2
        if num < 0 or num % pub.e_a1:
            continue
        accepted.append((num // pub.e_a1, v))
    if len(accepted) > 1:
        raise ParameterViolation(
            f"{len(accepted)} candidates accepted; key breaks uniqueness"
        )
    if not accepted:
        raise InvalidCiphertext("no candidate root satisfies the ciphertext equation")
    [(u, v)] = accepted
    try:
        return EncodedMessage(u >> n, v >> n, n)
    except ValueError as exc:
        raise InvalidCiphertext(
            "the accepted root gives a message outside the message ranges"
        ) from exc


def format_ciphertext(ct):
    """0x hex: linear in the size of C and free of the decimal digit limit."""
    return f"{ct.c:#x}\n"


def parse_ciphertext(text):
    """One parse_uint integer (decimal or 0x hex); surrounding whitespace tolerated."""
    return Ciphertext(parse_uint(text.strip()))
