"""Arbitrary-precision number-theory kernel.

Exact integer arithmetic only: Baillie-PSW primality (trial division,
a strong base-2 test and a strong Lucas test), prime generation in the
3 (mod 4) residue class, square roots modulo primes p = 3 (mod 4), the
four CRT square roots modulo p*q and Jacobi symbols. Modular powers,
inverses and integer square roots are the builtins pow(a, e, m),
pow(a, -1, m) and math.isqrt.
"""

import math

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

# gen_prime_3mod4 gives up after this many candidates per bit of size.
_TRIES_PER_BIT = 100


def jacobi(a, n):
    """Jacobi symbol (a|n) for odd n >= 3; one of -1, 0, +1."""
    if n < 3 or n % 2 == 0:
        raise ValueError("Jacobi symbol needs an odd modulus >= 3")
    a %= n
    result = 1
    while a:
        t = (a & -a).bit_length() - 1
        a >>= t
        if t % 2 and n % 8 in (3, 5):
            result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_base2(n):
    """Strong probable-prime test to base 2 for odd n > 2."""
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    x = pow(2, (n - 1) >> s, n)
    if x == 1:
        return True
    for _ in range(s):
        if x == n - 1:
            return True
        x = x * x % n
    return False


def _strong_lucas(n):
    """Strong Lucas test with Selfridge's D in 5, -7, 9, ..., P = 1, Q = (1 - D)/4.

    n passes when U_d or some V_(d*2^r), r < s, is 0 mod n, where n + 1 = d*2^s.
    For odd n with no prime factor below 2^11; a square or (D|n) = 0 is composite.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    half = (n + 1) // 2  # the inverse of 2 mod n
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    u, v, qk = 1, 1, Q % n  # U_k, V_k, Q^k for k = 1, then k runs over the bits of (n+1) >> s
    for bit in bin((n + 1) >> s)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (D * u + v) * half % n, qk * Q % n
    for _ in range(s):
        if v == 0:
            return True
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
    return u == 0


def is_probable_prime(n):
    """Baillie-PSW: trial division below 2^11, then strong base-2 and strong Lucas tests.

    Deterministic (Baillie & Wagstaff 1980); exact below 2^64, and no
    composite is known to pass it.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % p == 0:
            return n == p
    return _strong_base2(n) and _strong_lucas(n)


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
    e_p = q * pow(q, -1, p)  # 1 mod p and 0 mod q, so 1 - e_p is 0 mod p and 1 mod q
    t_p = x_p * e_p
    t_q = x_q * (1 - e_p)
    return (
        (t_p + t_q) % modulus,
        (t_p - t_q) % modulus,
        (-t_p + t_q) % modulus,
        (-t_p - t_q) % modulus,
    )
