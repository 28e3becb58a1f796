import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aabeta.errors import GenerationFailure, NonResidueError
from aabeta.numtheory import (
    _strong_base2,
    _strong_lucas,
    four_roots,
    gen_prime_3mod4,
    is_probable_prime,
    jacobi,
    sqrt_mod_p_3mod4,
)

import vectors
from reference import reference_strong_lucas


def _trial_division_is_prime(n):
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def test_reference_square_root_exponent():
    w, p = vectors.W16, vectors.P16
    x = pow(w, (p + 1) // 4, p)
    assert x * x % p == w % p


def test_reference_primes_bezout():
    q, p = vectors.Q16, vectors.P16
    x = pow(q, -1, p)
    y, rem = divmod(1 - q * x, p)
    assert rem == 0
    assert q * x + p * y == 1


def test_reference_decryption_exponent_is_inverse():
    # cross-check by multiply-and-reduce before relying on the value
    inv = pow(vectors.E_A2_16, -1, vectors.PQ16)
    assert vectors.E_A2_16 * inv % vectors.PQ16 == 1
    assert inv == vectors.D16


def test_is_probable_prime_known_values():
    assert not is_probable_prime(561)  # Carmichael: 3 * 11 * 17
    assert is_probable_prime(2)
    assert _trial_division_is_prime(62683)
    assert is_probable_prime(62683)


def test_is_probable_prime_agrees_with_sieve_below_one_million():
    bound = 1_000_000
    flags = bytearray([1]) * bound
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(range(i * i, bound, i)))
    for n in range(bound):
        assert is_probable_prime(n) == bool(flags[n]), n


def test_is_probable_prime_agrees_with_sieve_around_2053_squared():
    # Below 2053^2 the gcd with the odd primes below 2^11 decides alone;
    # from 2053^2 on, a number coprime to them goes on to the 2^14 gcd and BPSW.
    square = 2053 * 2053
    lo, hi = square - 20_000, square + 20_000
    flags = bytearray([1]) * (hi - lo)
    for d in range(2, math.isqrt(hi) + 1):  # every d < lo, so d itself is never crossed out
        flags[-lo % d :: d] = bytearray(len(range(-lo % d, hi - lo, d)))
    assert not flags[square - lo]
    for n in range(lo, hi):
        assert is_probable_prime(n) == bool(flags[n - lo]), n


def test_is_probable_prime_beyond_small_prime_bound():
    assert is_probable_prime((1 << 31) - 1)  # Mersenne prime
    # no factor below 2^11, so the gcd with the primes in (2^11, 2^14) rejects it
    assert not is_probable_prime(2053 * 2063)
    assert is_probable_prime((1 << 89) - 1)  # Mersenne prime above 2^64
    assert not is_probable_prime(((1 << 61) - 1) * ((1 << 31) - 1))


# 2047 = 23 * 89 and 3215031751 = 151 * 751 * 28351 fall to the gcd with the
# primes below 2^11; 3825123056546413051 has smallest factor 149491 > 2^14, so
# is_probable_prime reaches the Lucas step on it, and that step rejects it.
@pytest.mark.parametrize("n", [2047, 3215031751, 3825123056546413051])
def test_strong_base2_pseudoprimes_fail_lucas(n):
    assert _strong_base2(n)
    assert not _strong_lucas(n)
    assert not is_probable_prime(n)


# 5450201 = 2089 * 2609 has no factor below 2^11 and falls to the gcd with the
# primes in (2^11, 2^14). 540136277 = 16433 * 32869 and 2424052399 = 16411 * 147709
# have no factor below 2^14, so is_probable_prime runs _strong_base2 on them.
@pytest.mark.parametrize("n", [5459, 5777, 10877, 5450201, 540136277, 2424052399])
def test_strong_lucas_pseudoprimes_fail_base2(n):
    assert _strong_lucas(n)
    assert not _strong_base2(n)
    assert not is_probable_prime(n)


def test_prime_squares_beyond_trial_division_rejected():
    # 2053^2 and 3511^2 fall to the gcd with the primes in (2^11, 2^14)
    assert not is_probable_prime(2053 * 2053)
    # 3511 is a Wieferich prime, so 3511^2 passes base 2 and the Lucas
    # half rejects it on its own
    assert _strong_base2(3511 * 3511)
    assert not _strong_lucas(3511 * 3511)
    assert not is_probable_prime(3511 * 3511)
    # every D has (D|p^2) = 1 for a prime p above all tried D, so without
    # the square check the search for D would not end
    assert not _strong_lucas(((1 << 61) - 1) ** 2)


def _next_prime(k):
    k |= 1
    while not is_probable_prime(k):
        k += 2
    return k


def _odd_of_bit_length(lo, hi):
    """Odd integers whose bit length is drawn uniformly from [lo, hi]."""
    return st.integers(lo, hi).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)).map(
        lambda k: k | 1
    )


_ODD_BELOW_2_600 = _odd_of_bit_length(2, 600)
# p*q with both primes above 2^14, the composites that reach the Lucas step
_SEMIPRIMES = st.tuples(_odd_of_bit_length(15, 300), _odd_of_bit_length(15, 299)).map(
    lambda pair: _next_prime(pair[0]) * _next_prime(pair[1])
)


@settings(deadline=None)
@given(st.one_of(_ODD_BELOW_2_600, _SEMIPRIMES))
@example(5459)
@example(5777)
@example(10877)
@example(5450201)
@example(3511 * 3511)
@example(540136277)
@example(((1 << 61) - 1) ** 2)
def test_strong_lucas_matches_recurrence_oracle(n):
    assert _strong_lucas(n) == reference_strong_lucas(n)


def test_gen_prime_3mod4_smallest_size():
    expected = {p for p in range(17, 32) if _trial_division_is_prime(p) and p % 4 == 3}
    assert expected == {19, 23, 31}
    rng = random.Random(5)
    for _ in range(20):
        assert gen_prime_3mod4(4, rng) in expected


def test_gen_prime_3mod4_deterministic_under_seed():
    a = gen_prime_3mod4(4, random.Random(123))
    b = gen_prime_3mod4(4, random.Random(123))
    assert a == b


def test_gen_prime_3mod4_bounds():
    rng = random.Random(9)
    for n in (16, 32, 64):
        p = gen_prime_3mod4(n, rng)
        assert (1 << n) < p < (1 << (n + 1))
        assert p % 4 == 3
        assert is_probable_prime(p)


def test_gen_prime_3mod4_generation_failure():
    # rng stuck on one composite candidate exhausts the retry budget
    class Stuck:
        def randrange(self, lo, hi):
            return 6  # 4*6+3 = 27 = 3^3, composite

    with pytest.raises(GenerationFailure):
        gen_prime_3mod4(4, Stuck())


def test_sqrt_mod_p_3mod4_small():
    assert sqrt_mod_p_3mod4(4, 7) == 2
    assert sqrt_mod_p_3mod4(0, 11) == 0


def test_sqrt_mod_p_3mod4_non_residue():
    residues = {x * x % 7 for x in range(7)}
    assert residues == {0, 1, 2, 4}
    with pytest.raises(NonResidueError):
        sqrt_mod_p_3mod4(3, 7)


def test_sqrt_mod_p_3mod4_non_residue_message_prints_no_decimal():
    # 3 is not a residue mod the Mersenne prime 2^2203 - 1 (664 decimal digits)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # CPython's lowest limit
    try:
        with pytest.raises(NonResidueError):
            sqrt_mod_p_3mod4(3, (1 << 2203) - 1)
    finally:
        sys.set_int_max_str_digits(limit)


def test_sqrt_mod_p_3mod4_rejects_bad_modulus():
    with pytest.raises(ValueError):
        sqrt_mod_p_3mod4(2, 5)  # 5 = 1 mod 4
    with pytest.raises(ValueError):
        sqrt_mod_p_3mod4(9, 7)  # w out of range


def test_sqrt_mod_p_3mod4_randomized_roots():
    rng = random.Random(21)
    primes = [p for p in range(3, 4000) if _trial_division_is_prime(p) and p % 4 == 3]
    for _ in range(300):
        p = rng.choice(primes)
        r = rng.randrange(p)
        w = r * r % p
        x = sqrt_mod_p_3mod4(w, p)
        assert x in (r % p, (p - r) % p)
        assert x * x % p == w


def test_four_roots_reference_vector():
    w, p, q = vectors.W16, vectors.P16, vectors.Q16
    x_p = sqrt_mod_p_3mod4(w % p, p)
    x_q = sqrt_mod_p_3mod4(w % q, q)
    assert four_roots(x_p, x_q, p, q) == vectors.ROOTS16


def test_four_roots_zero():
    assert four_roots(0, 0, 7, 11) == (0, 0, 0, 0)


def test_four_roots_enumerated_oracle():
    expected = {x for x in range(77) if x * x % 77 == 4}
    assert expected == {2, 9, 68, 75}
    roots = four_roots(2, 9, 7, 11)
    assert set(roots) == expected
    assert all(r * r % 77 == 4 for r in roots)


def test_four_roots_sign_pattern():
    rng = random.Random(31)
    for _ in range(100):
        p = gen_prime_3mod4(8, rng)
        q = p
        while q == p:
            q = gen_prime_3mod4(8, rng)
        v = rng.randrange(1, p * q)
        w = v * v % (p * q)
        roots = four_roots(
            sqrt_mod_p_3mod4(w % p, p), sqrt_mod_p_3mod4(w % q, q), p, q
        )
        assert all(r * r % (p * q) == w for r in roots)
        assert (roots[0] + roots[3]) % (p * q) == 0
        assert (roots[1] + roots[2]) % (p * q) == 0


def test_four_roots_rejects_equal_primes():
    with pytest.raises(ValueError):
        four_roots(1, 1, 7, 7)


def test_four_roots_rejects_p_and_q_sharing_a_factor():
    with pytest.raises(ValueError, match="p and q share a factor"):
        four_roots(0, 0, 27, 23019)


def test_jacobi_known_values():
    assert jacobi(2, 15) == 1
    assert jacobi(0, 9) == 0
    non_residues = {x for x in range(1, 7)} - {x * x % 7 for x in range(1, 7)}
    assert 5 in non_residues
    assert jacobi(5, 7) == -1


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 10)


def test_jacobi_matches_legendre_on_primes():
    rng = random.Random(13)
    primes = [p for p in range(3, 500) if _trial_division_is_prime(p) and p % 2 == 1]
    for _ in range(300):
        p = rng.choice(primes)
        a = rng.randrange(2 * p)
        expected = 0 if a % p == 0 else (1 if a % p in {x * x % p for x in range(1, p)} else -1)
        assert jacobi(a, p) == expected


def test_jacobi_multiplicative_in_modulus():
    rng = random.Random(17)
    for _ in range(200):
        m = rng.randrange(3, 2000) | 1
        n = rng.randrange(3, 2000) | 1
        a = rng.randrange(5000)
        assert jacobi(a, m * n) == jacobi(a, m) * jacobi(a, n)


def test_jacobi_strips_powers_of_two():
    # (2^t a | n) = (2|n)^t (a|n), with (2|n) = -1 exactly when n = 3, 5 mod 8
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randrange(3, 1 << 64) | 1
        a = rng.randrange(1, 1 << 64) | 1
        t = rng.randrange(200)
        two = -1 if n % 8 in (3, 5) else 1
        assert jacobi(a << t, n) == two**t * jacobi(a, n)


def test_reference_v_is_isqrt_of_v_squared():
    assert math.isqrt(vectors.V16_SQUARED) == vectors.V16
