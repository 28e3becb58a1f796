"""Arbitrary-precision number-theory kernel.

Exact integer arithmetic only: Miller-Rabin primality, prime
generation in the 3 (mod 4) residue class, square roots modulo primes
p = 3 (mod 4), the four CRT square roots modulo p*q and Jacobi
symbols. Modular powers, inverses and integer square roots are the
builtins pow(a, e, m), pow(a, -1, m) and math.isqrt.
"""

import math
import random

from .errors import GenerationFailure, NonResidueError

__all__ = [
    "jacobi",
    "is_probable_prime",
    "gen_prime_3mod4",
    "sqrt_mod_p_3mod4",
    "four_roots",
]


def _sieve(bound):
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(bound) if flags[i]]


_SMALL_PRIMES = _sieve(1 << 11)

# Proven-deterministic Miller-Rabin witness set for n < 3.317e24 (covers 2^64).
_WITNESSES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Random-witness Miller-Rabin rounds above 2^64.
_MR_ROUNDS = 64

# gen_prime_3mod4 gives up after this many candidates per bit of size.
_TRIES_PER_BIT = 100


def jacobi(a, n):
    """Jacobi symbol (a|n) for odd n >= 3; one of -1, 0, +1."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs an odd modulus >= 3")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _miller_rabin(n, bases):
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_probable_prime(n):
    """Miller-Rabin primality test.

    Deterministic (and correct) for n below the proven witness-set
    bound; above that the error probability is at most 4**-64.
    The witness choice is a pure function of n, so repeated calls
    agree.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    if n < 1 << 64:
        return _miller_rabin(n, _WITNESSES_64)
    rnd = random.Random(n)
    return _miller_rabin(n, [rnd.randrange(2, n - 1) for _ in range(_MR_ROUNDS)])


def gen_prime_3mod4(n, rng):
    """Random probable prime p = 3 (mod 4) with 2^n < p < 2^(n+1).

    Raises GenerationFailure after 100*n candidates.
    """
    if n < 4:
        raise ValueError("bit size must be at least 4")
    max_tries = _TRIES_PER_BIT * n
    for _ in range(max_tries):
        p = 4 * rng.randrange(1 << (n - 2), 1 << (n - 1)) + 3
        if is_probable_prime(p):
            return p
    raise GenerationFailure(f"no prime found in {max_tries} tries at bit size {n}")


def sqrt_mod_p_3mod4(w, p):
    """Principal square root of w modulo a prime p = 3 (mod 4).

    Returns x = w^((p+1)/4) mod p with x*x = w (mod p); the second
    root is p - x. Raises NonResidueError when w has no square root.
    """
    if p < 3 or p % 4 != 3:
        raise ValueError("modulus must be a prime congruent to 3 mod 4")
    if not 0 <= w < p:
        raise ValueError("w must lie in [0, p)")
    x = pow(w, (p + 1) // 4, p)
    if x * x % p != w:
        raise NonResidueError(f"{w} is not a quadratic residue mod {p}")
    return x


def four_roots(x_p, x_q, p, q):
    """The four square roots modulo p*q combined from roots mod p and mod q.

    Sign pattern of the (mod p, mod q) components is fixed to
    (+,+), (+,-), (-,+), (-,-) so cross-sums of the first/third and
    second/fourth entries are divisible by p.
    """
    if p == q:
        raise ValueError("p and q must be distinct")
    if not 0 <= x_p < p:
        raise ValueError("x_p must lie in [0, p)")
    if not 0 <= x_q < q:
        raise ValueError("x_q must lie in [0, q)")
    modulus = p * q
    t_p = x_p * pow(q, -1, p) * q
    t_q = x_q * pow(p, -1, q) * p
    return (
        (t_p + t_q) % modulus,
        (t_p - t_q) % modulus,
        (-t_p + t_q) % modulus,
        (-t_p - t_q) % modulus,
    )
