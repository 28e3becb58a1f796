"""Arbitrary-precision number-theory kernel.

Exact integer arithmetic only: Baillie-PSW primality (a gcd screen with
the primes below 2^11 and one with those in (2^11, 2^14), a strong
base-2 test and a strong Lucas test computed in Z_n[x]/(x^2 - x + Q)),
prime generation in the 3 (mod 4) residue class, square roots modulo
primes p = 3 (mod 4), the four CRT square roots modulo p*q and Jacobi
symbols. Modular powers, inverses and integer square roots are the
builtins pow(a, e, m), pow(a, -1, m) and math.isqrt.
"""

import itertools
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
    return flags


def _primorial(lo, hi):
    """Product of the odd primes in (lo, hi) for even lo, taken 64 primes at a time."""
    primes = list(itertools.compress(range(lo + 1, hi, 2), _PRIME_FLAGS[lo + 1 : hi : 2]))
    return math.prod(math.prod(primes[i : i + 64]) for i in range(0, len(primes), 64))


_PRIME_FLAGS = _sieve(1 << 14)  # _PRIME_FLAGS[i] is 1 exactly when i is prime
_SMALL_PRODUCT = _primorial(2, 1 << 11)
_DEEP_PRODUCT = _primorial(1 << 11, 1 << 14)

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
    The powers x^k = a + b*x of x in Z_n[x]/(x^2 - x + Q) give U_k = b and
    V_k = 2a + b. For odd n; a square or (D|n) = 0 is composite.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    a, b = 0, 1  # x^k for k = 1, then k runs over the bits of (n+1) >> s
    for bit in bin((n + 1) >> s)[3:]:
        aa = a * a
        a, b = (aa - Q * b * b) % n, ((a + b) ** 2 - aa) % n  # x^(2k)
        if bit == "1":
            a, b = -Q * b % n, (a + b) % n  # x^(k+1)
    if b == 0:  # U_d
        return True
    for _ in range(s):
        if (2 * a + b) % n == 0:  # V_(d*2^r) for r = 0, 1, ..., s - 1
            return True
        aa = a * a
        a, b = (aa - Q * b * b) % n, ((a + b) ** 2 - aa) % n
    return False


def is_probable_prime(n):
    """Baillie-PSW: gcds with the primes below 2^14, then strong base-2 and Lucas tests.

    The gcd with the odd primes below 2^11 decides every n below 2053^2,
    2053 being the least prime above 2^11. Deterministic (Baillie &
    Wagstaff 1980); exact below 2^64, and no composite is known to pass it.
    """
    if n < 3 or n % 2 == 0:
        return n == 2
    if math.gcd(n, _SMALL_PRODUCT) != 1:
        return n < len(_PRIME_FLAGS) and bool(_PRIME_FLAGS[n])
    if n < 2053 * 2053:
        return True
    return math.gcd(n, _DEEP_PRODUCT) == 1 and _strong_base2(n) and _strong_lucas(n)


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
        raise NonResidueError("w is not a quadratic residue mod p")
    return x


def four_roots(x_p, x_q, p, q):
    """The four square roots modulo p*q combined from roots mod p and mod q.

    Sign pattern of the (mod p, mod q) components is fixed to
    (+,+), (+,-), (-,+), (-,-) so cross-sums of the first/third and
    second/fourth entries are divisible by p.
    """
    if math.gcd(p, q) != 1:
        raise ValueError("p and q share a factor")
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
