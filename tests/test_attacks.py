import hashlib
import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from aabeta import attacks
from aabeta.attacks import (
    VERDICT_INFEASIBLE,
    VERDICT_NOT_RECOVERED,
    VERDICT_RECOVERED,
    build_lattice,
    congruence_bruteforce,
    congruence_params,
    coppersmith_feasibility,
    euclid_division_check,
    factor_from_roots,
    lattice_attack,
    lll_reduce,
    preset_scale,
)
from aabeta.cipher import Ciphertext, decrypt, encrypt_trace, sample_ephemerals
from aabeta.cli import _ATTACK_KINDS
from aabeta.codec import capacity_bytes, encode
from aabeta.errors import FactoringFailure, InconsistentKey, InvalidCiphertext
from aabeta.keys import KeyPair, PublicKey, generate_keypair, validate_keypair
from aabeta.numtheory import four_roots, sqrt_mod_p_3mod4

import vectors
from reference import (
    ciphertext_range,
    determinant,
    linear_congruence_scan,
    oversized_e_a2_instances,
    rational_lll,
    reference_factor_from_roots,
    two_step_solution,
)


def _random_instance(n, seed, tag="atk", shift=None):
    """Seeded key pair and encryption; e_a2 is raised by 2^shift*pq unless shift is None."""
    rng = random.Random(f"{tag}:{n}:{seed}")
    kp = generate_keypair(n, rng)
    if shift is not None:
        pub = PublicKey(n, kp.public.e_a1, kp.public.e_a2 + (kp.private.pq << shift))
        kp = KeyPair(pub, kp.private)
    payload = rng.randbytes(rng.randrange(capacity_bytes(n) + 1))
    trace = encrypt_trace(kp.public, encode(payload, n), sample_ephemerals(n, rng))
    return kp, trace


# --- congruence ---


def test_congruence_params_reference_identities():
    pub, ct = vectors.public_key(), vectors.ciphertext()
    par = congruence_params(pub, ct)
    # b is integral by construction; verify the defining relation directly
    assert (ct.c - pub.e_a1 * par.a) % pub.e_a2 == 0
    assert par.b == (ct.c - pub.e_a1 * par.a) // pub.e_a2
    j = (vectors.U16 - par.a) // pub.e_a2
    assert (vectors.U16 - par.a) % pub.e_a2 == 0 and j >= 0
    assert par.b - pub.e_a1 * j == vectors.V16_SQUARED
    assert par.window_u == 1 << 10 == 1024
    assert par.window_v == 3 << 9 == 1536


def test_congruence_params_rejects_non_coprime_coefficients():
    pub = PublicKey(16, 6, 9)  # gcd(e_a1, e_a2) = 3: e_a1 has no inverse mod e_a2
    with pytest.raises(InconsistentKey):
        congruence_params(pub, Ciphertext(33))


@pytest.mark.parametrize("n", [8, 16, 32])
def test_congruence_shared_j_identity_random(n):
    for seed in range(10):
        kp, trace = _random_instance(n, seed)
        par = congruence_params(kp.public, trace.ciphertext)
        j, rem = divmod(trace.u - par.a, kp.public.e_a2)
        assert rem == 0 and j >= 0
        assert par.b - kp.public.e_a1 * j == trace.v * trace.v
        assert par.window_u == 1 << (n - 6)
        assert par.window_v == 3 << (n - 7)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_congruence_u_window_covers_interval(n):
    for seed in range(10):
        kp, trace = _random_instance(n, seed + 50)
        par = congruence_params(kp.public, trace.ciphertext)
        e2 = kp.public.e_a2
        u_lo, u_hi = (1 << (4 * n)) + 1, (1 << (4 * n + 1)) - 1
        j_lo = -((par.a - u_lo) // e2)
        j_hi = (u_hi - par.a) // e2
        count = j_hi - j_lo + 1
        assert count >= par.window_u
        assert count * e2 >= (1 << (4 * n)) - 2


def test_congruence_bruteforce_recovers_toy():
    kp, trace = _random_instance(8, 0)
    report = congruence_bruteforce(kp.public, trace.ciphertext, 10_000)
    assert report.verdict == VERDICT_RECOVERED
    assert report.recovered["u"] == trace.u
    assert report.recovered["v"] == trace.v
    assert report.recovered["m1"] == trace.u >> 8
    assert report.diagnostics["j_window"] <= 10_000


def test_congruence_bruteforce_recovers_reference():
    pub, ct = vectors.public_key(), vectors.ciphertext()
    probe = congruence_bruteforce(pub, ct, 1)
    window = probe.diagnostics["j_window"]
    report = congruence_bruteforce(pub, ct, window)
    assert report.verdict == VERDICT_RECOVERED
    assert report.recovered["u"] == vectors.U16
    assert report.recovered["v"] == vectors.V16
    assert report.recovered["m1"] == vectors.M1_16
    assert report.recovered["m2"] == vectors.M2_16


def test_congruence_bruteforce_budget_too_small_at_n64():
    kp, trace = _random_instance(64, 1)
    report = congruence_bruteforce(kp.public, trace.ciphertext, 1_000_000)
    assert report.verdict == VERDICT_NOT_RECOVERED
    assert report.diagnostics["budget_exhausted"]
    assert report.diagnostics["j_window"] > 1_000_000
    assert report.diagnostics["scanned"] == 1_000_000


def test_congruence_bruteforce_rejects_a_negative_budget():
    kp, trace = _random_instance(16, 0)
    with pytest.raises(ValueError, match="^j_budget must be non-negative$"):
        congruence_bruteforce(kp.public, trace.ciphertext, -5)


def _full_scan(pub, ct):
    """The congruence scan with a budget of its whole j-window."""
    window = congruence_bruteforce(pub, ct, 0).diagnostics["j_window"]
    return congruence_bruteforce(pub, ct, window)


_U_IN_RANGE = (((1 << 48) + 1) << 16) + (1 << 15) + 1  # m1 = 2^48 + 1, k1 = 2^15 + 1 at n = 16
_V_IN_RANGE = (((1 << 14) + 5) << 16) + (1 << 15) + 3  # m2 = 2^14 + 5, k2 = 2^15 + 3


@pytest.mark.parametrize(
    "u, v",
    [(_U_IN_RANGE, (1 << 30) + 1), (5, _V_IN_RANGE), (-7, _V_IN_RANGE)],
    ids=["m2-below-range", "m1-zero", "u-negative"],
)
def test_attacks_recover_only_message_pairs(u, v):
    # C = U*e_a1 + V^2*e_a2 with V in its window, but (U >> n, V >> n) is no
    # message pair: m2 = 2^14, m1 = 0 or m1 = -1. decrypt rejects each, so
    # an attack that recovers it reports a wrong answer.
    kp = generate_keypair(16, random.Random("m2-range:16"))
    ct = Ciphertext(u * kp.public.e_a1 + v * v * kp.public.e_a2)
    with pytest.raises(InvalidCiphertext):
        decrypt(kp, ct)
    report = _full_scan(kp.public, ct)
    assert report.verdict == VERDICT_NOT_RECOVERED
    assert report.recovered is None
    assert report.diagnostics["scanned"] == report.diagnostics["j_window"] > 0
    assert lattice_attack(kp.public, ct).recovered is None


def _around(lo, hi):
    """Integers in (lo, hi) and a few steps either side of each end."""
    return (
        st.integers(lo - 3, lo + 3) | st.integers(hi - 3, hi + 3) | st.integers(lo + 1, hi - 1)
    )


@st.composite
def _near_range_instances(draw):
    n = draw(st.integers(min_value=8, max_value=12))
    kp = generate_keypair(n, random.Random(draw(st.integers(0, 10**6))))
    m1 = draw(_around(1 << 3 * n, 1 << 3 * n + 1))
    m2 = draw(_around(1 << n - 2, 1 << n - 1))
    k1, k2 = (draw(st.integers((1 << n - 1) + 1, (1 << n) - 1)) for _ in range(2))
    u, v = (m1 << n) + k1, (m2 << n) + k2
    return kp, (m1, m2), Ciphertext(u * kp.public.e_a1 + v * v * kp.public.e_a2)


@settings(deadline=None)
@given(instance=_near_range_instances())
def test_attacks_agree_with_decrypt(instance):
    # honest session values, m1 and m2 inside or just outside their ranges
    kp, (m1, m2), ct = instance
    try:
        msg = decrypt(kp, ct)
    except InvalidCiphertext:
        expected = None
    else:
        expected = (msg.m1, msg.m2)
        assert expected == (m1, m2)
    event("decrypts" if expected else "rejected")
    report = _full_scan(kp.public, ct)
    assert (report.verdict == VERDICT_RECOVERED) == (expected is not None)
    assert (report.recovered and (report.recovered["m1"], report.recovered["m2"])) == expected
    lattice = lattice_attack(kp.public, ct).recovered
    if lattice:
        assert (lattice["m1"], lattice["m2"]) == expected


# V^2 draws around each branch of the recovery check, given the pair's V
_V_SQUARED_DRAWS = {
    "honest": lambda v: st.just(v * v),
    "offset": lambda v: st.integers(v * v - 3, v * v + 3),
    "nonpositive": lambda v: st.integers(max_value=0),
    "large": lambda v: st.integers(1 << 1000, 1 << 3000),
    "large-square": lambda v: st.integers(1 << 500, 1 << 1500).map(lambda r: r * r),
}


@st.composite
def _recovery_candidates(draw, v_squared_draw):
    """(pub, C, U, V^2) with V^2 from v_squared_draw(V).

    (U, V) is an honest pair or one whose m1 or m2 lies just outside its
    range; C is solved by (U, V*V) or by (U, V^2).
    """
    n = draw(st.integers(min_value=8, max_value=12))
    pub = generate_keypair(n, random.Random(draw(st.integers(0, 10**6)))).public
    m1 = draw(_around(1 << 3 * n, 1 << 3 * n + 1))
    m2 = draw(_around(1 << n - 2, 1 << n - 1))
    k1, k2 = (draw(st.integers((1 << n - 1) + 1, (1 << n) - 1)) for _ in range(2))
    u, v = (m1 << n) + k1, (m2 << n) + k2
    v_squared = draw(v_squared_draw(v))
    solved = draw(st.booleans())
    c = u * pub.e_a1 + (v_squared if solved else v * v) * pub.e_a2
    in_range = (1 << 3 * n) < m1 < (1 << 3 * n + 1) and (1 << n - 2) < m2 < (1 << n - 1)
    event("C solved by (U, V^2)" if solved else "C solved by (U, V*V)")
    event("message pair" if in_range else "m1 or m2 out of range")
    return pub, c, u, v_squared


@pytest.mark.parametrize("kind", _V_SQUARED_DRAWS)
@settings(deadline=None)
@given(data=st.data())
def test_recovery_check_matches_the_two_step_check(kind, data):
    candidate = data.draw(_recovery_candidates(_V_SQUARED_DRAWS[kind]))
    expected = two_step_solution(*candidate)
    event("recovered" if expected else "rejected")
    assert attacks._solution(*candidate) == expected


# budgets and counts on either side of the 2^14-candidate filter block
_BLOCK_EDGES = st.sampled_from((0, 1, (1 << 14) - 1, 1 << 14, (1 << 14) + 1))


@settings(deadline=None)
@given(
    n=st.integers(min_value=8, max_value=24),
    seed=st.integers(min_value=0, max_value=10**6),
    budget=_BLOCK_EDGES | st.integers(min_value=0, max_value=1 << 15),
)
@example(n=20, seed=4, budget=17_273)  # the true j is candidate 17,272, in block 2
def test_congruence_scan_matches_linear_oracle(n, seed, budget):
    kp, trace = _random_instance(n, seed)
    fast = congruence_bruteforce(kp.public, trace.ciphertext, budget)
    slow = linear_congruence_scan(kp.public, trace.ciphertext, budget)
    assert fast == slow


@settings(deadline=None)
@given(
    # past the 510-bit s0 and 386-bit step of an n=128 scan
    s0=st.integers(min_value=0, max_value=1 << 600),
    step=st.integers(min_value=1, max_value=1 << 600),
    count=_BLOCK_EDGES | st.integers(min_value=0, max_value=1 << 15),
)
@example(s0=0, step=1, count=(1 << 15) + 1)  # two full blocks and one candidate more
def test_square_filter_keeps_exactly_the_square_residues(s0, step, count):
    # the filter must pass every t whose s0 - step*t is a square modulo each
    # modulus (else a hit is lost) and no other t (else isqrt is wasted)
    squares = {m: {pow(x, 2, m) for x in range(m)} for m in attacks._SQUARE_MODULI}
    residues = [(m, s0 % m, step % m, squares[m]) for m in squares]
    expected = [
        t for t in range(count)
        if all((s_m - step_m * t) % m in sq for m, s_m, step_m, sq in residues)
    ]
    assert list(attacks._square_candidates(s0, step, count)) == expected


# --- coppersmith feasibility ---


def test_coppersmith_honest_keys_infeasible():
    for n, seed in ((16, 0), (16, 1), (32, 0)):
        kp, _ = _random_instance(n, seed)
        report = coppersmith_feasibility(kp.public, d=kp.private.d)
        assert report.verdict == VERDICT_INFEASIBLE
        assert not report.diagnostics["v_attack_feasible"]
        assert not report.diagnostics["d_attack_feasible"]


def test_coppersmith_reference_v_bound():
    report = coppersmith_feasibility(vectors.public_key())
    assert report.verdict == VERDICT_INFEASIBLE
    assert report.diagnostics["v_min"] == 1 << 30
    assert report.diagnostics["sqrt_e_a1"] == math.isqrt(vectors.E_A1_16)
    assert report.diagnostics["v_min"] > report.diagnostics["sqrt_e_a1"]


def test_coppersmith_flags_weak_decryption_exponent():
    rng = random.Random("weak")
    kp = generate_keypair(16, rng)
    pq = kp.private.pq
    while True:
        d = rng.randrange(2, 1 << 12)  # far below e_a1^(4/9) ~ 2^21
        if math.gcd(d, pq) == 1:
            break
    assert d**9 <= kp.public.e_a1**4
    report = coppersmith_feasibility(kp.public, d=d)
    assert report.diagnostics["d_attack_feasible"]
    assert report.verdict == VERDICT_NOT_RECOVERED


# --- euclidean division ---


def test_euclid_reference_inequalities():
    pub, ct = vectors.public_key(), vectors.ciphertext()
    assert ct.c // pub.e_a1 != vectors.U16
    assert ct.c // pub.e_a2 != vectors.V16_SQUARED
    report = euclid_division_check(pub, ct, vectors.U16, vectors.V16)
    assert report.verdict == VERDICT_NOT_RECOVERED
    assert not report.diagnostics["floor_hits_u"]
    assert not report.diagnostics["floor_hits_v_squared"]


def test_euclid_random_instances_never_leak():
    for seed in range(200):
        kp, trace = _random_instance(32, seed)
        report = euclid_division_check(kp.public, trace.ciphertext, trace.u, trace.v)
        assert report.verdict == VERDICT_NOT_RECOVERED


def test_euclid_flags_degenerate_ciphertext():
    pub = vectors.public_key()
    crafted = Ciphertext(vectors.U16 * pub.e_a1)  # V = 0: not a valid encryption
    report = euclid_division_check(pub, crafted, vectors.U16, 0)
    assert report.verdict == VERDICT_RECOVERED
    assert report.diagnostics["floor_hits_u"]


# --- lattice machinery ---


def test_build_lattice_entries_and_determinant():
    pub, ct = vectors.public_key(), vectors.ciphertext()
    t = preset_scale(16)
    rows = build_lattice(pub, ct, t)
    assert rows == [
        [1, 0, vectors.E_A1_16 << 320],
        [0, 1, vectors.E_A2_16 << 320],
        [0, 0, -(vectors.C16 << 320)],
    ]
    assert determinant(rows) == -ct.c * t
    assert build_lattice(pub, ct, 1)[2] == [0, 0, -ct.c]
    with pytest.raises(ValueError, match="scale must be at least 1"):
        build_lattice(pub, ct, 0)


def test_determinant_small_cases():
    assert determinant([[2, 0], [0, 3]]) == 6
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    # cofactor oracle: 2*(2+6) - 3*(8-3) + 1*(8+1) = 10
    assert determinant([[2, 3, 1], [4, 1, -3], [-1, 2, 2]]) == 10
    with pytest.raises(ValueError):
        determinant([[1, 2, 3], [4, 5, 6]])


def test_preset_scale():
    assert preset_scale(16) == 1 << 320


def _reference_gso(rows):
    # plain textbook Gram-Schmidt, independent of the implementation
    bstar, mu = [], []
    for i, row in enumerate(rows):
        vec = [Fraction(x) for x in row]
        coeffs = []
        for j in range(i):
            num = sum(Fraction(x) * y for x, y in zip(rows[i], bstar[j]))
            den = sum(y * y for y in bstar[j])
            m = num / den
            coeffs.append(m)
            vec = [a - m * b for a, b in zip(vec, bstar[j])]
        bstar.append(vec)
        mu.append(coeffs)
    return bstar, mu


def _assert_lll_postconditions(original, reduced, delta=Fraction(3, 4)):
    bstar, mu = _reference_gso(reduced)
    norms = [sum(x * x for x in vec) for vec in bstar]
    for i, coeffs in enumerate(mu):
        for m in coeffs:
            assert abs(m) <= Fraction(1, 2), (i, m)
    for k in range(1, len(reduced)):
        lhs = delta * norms[k - 1]
        rhs = norms[k] + mu[k][k - 1] ** 2 * norms[k - 1]
        assert lhs <= rhs, k
    assert abs(determinant(original)) == abs(determinant(reduced))
    # every output row lies in the input lattice: the Cramer solution
    # of x * original = row must be integral
    det = determinant(original)
    size = len(original)
    for row in reduced:
        for i in range(size):
            sub = [list(original[r]) for r in range(size)]
            sub[i] = list(row)
            assert determinant(sub) % det == 0


def test_lll_identity_fixed_point():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert lll_reduce(eye) == eye


def test_lll_hand_checked_example():
    reduced = lll_reduce([[1, 1, 0], [0, 1, 0], [0, 0, 7]])
    first_norm = sum(x * x for x in reduced[0])
    assert first_norm <= 2
    _assert_lll_postconditions([[1, 1, 0], [0, 1, 0], [0, 0, 7]], reduced)


def test_lll_rejects_dependent_rows():
    with pytest.raises(ValueError):
        lll_reduce([[1, 2, 3], [2, 4, 6], [0, 0, 1]])


@pytest.mark.parametrize("basis", [[[1, 2], [3]], [[1, 0], [0, 1], [1, 1, 1]]])
def test_lll_rejects_ragged_rows(basis):
    with pytest.raises(ValueError, match="rows must have equal length"):
        lll_reduce(basis)


def test_lll_empty_basis():
    assert lll_reduce([]) == []


def test_lll_single_row_unchanged():
    assert lll_reduce([[0, -3, 7]]) == [[0, -3, 7]]


def test_lll_rejects_single_zero_row():
    with pytest.raises(ValueError):
        lll_reduce([[0, 0]])


def test_lll_rejects_dependent_row_after_swaps():
    # rows 0 and 1 swap at k = 1; row 3, the sum of rows 0-2 (determinant 1),
    # is dependent beyond the first two rows, so the Gram-Schmidt step
    # rejects it when k first reaches it, after the swaps
    basis = [[5, 3, 4, 0], [3, 2, 2, 0], [1, 1, 1, 0], [9, 6, 7, 0]]
    with pytest.raises(ValueError):
        lll_reduce(basis)
    with pytest.raises(ValueError):
        rational_lll(basis)


@pytest.mark.parametrize(
    "basis",
    [[[0, 0], [1, 2]], [[1, 2], [0, 0]], [[0, 0, 0], [1, 0, 0], [0, 1, 0]]],
)
def test_lll_rejects_zero_row_in_first_two(basis):
    # a zero row 0 (d_1 = 0) or a zero row 1 (d_2 = 0) is rejected by the Gram-Schmidt step
    with pytest.raises(ValueError):
        lll_reduce(basis)
    with pytest.raises(ValueError):
        rational_lll(basis)


@pytest.mark.parametrize("shift", [0, 300, 3000])
def test_lll_rejects_dependent_rows_after_a_long_k1_phase(shift):
    # rows 0 and 1 are F(301) and F(300) times one vector, so d_2 = 0 and the
    # Gram-Schmidt step rejects the basis before LLL's k = 1 phase, which would
    # run a Euclidean algorithm of about 300 steps down to a zero row
    fib = [0, 1]
    while len(fib) < 302:
        fib.append(fib[-1] + fib[-2])
    v = [3 << shift, -(5 << shift), 7]
    basis = [[fib[301] * x for x in v], [fib[300] * x for x in v], [0, 1, 0]]
    with pytest.raises(ValueError, match="linearly dependent"):
        lll_reduce(basis)
    with pytest.raises(ValueError):
        rational_lll(basis)


def test_lll_lovasz_equality_at_k1_on_two_rows():
    # 4 |b_1|^2 = 3 |b_0|^2: no swap. Not square, so not an oracle @example
    basis = [[2, 0, 0], [1, 1, 1]]
    assert lll_reduce(basis) == rational_lll(basis) == basis


def test_lll_swaps_when_the_leading_bits_hide_a_failing_lovasz_test():
    # 4 n1 - 3 n0 = -3 on Gram entries of about 1000 bits: only their low
    # bits fail the Lovasz test at k = 1, and the rows swap
    h = 1 << 499
    basis = [[2 * h, 1, 0, 0, 0], [0, 0, h, h, h]]
    assert lll_reduce(basis) == rational_lll(basis) == [basis[1], basis[0]]


@pytest.mark.parametrize("rows", [2, 3])
def test_lll_matches_rational_oracle_after_long_k1_phase(rows):
    # rows 0 and 1 carry consecutive Fibonacci numbers in the scaled column,
    # so reducing them is a Euclidean algorithm of about 300 swaps at k=1
    # before k first reaches 2 (or the end, with two rows); s > F(600)
    # keeps the scaled column dominant until it vanishes
    fib = [0, 1]
    while len(fib) < 602:
        fib.append(fib[-1] + fib[-2])
    s = 1 << 450
    basis = [[1, 0, s * fib[601]], [0, 1, s * fib[600]], [0, 0, -s * 10**125]][:rows]
    reduced = lll_reduce(basis)
    assert reduced == rational_lll(basis)
    if rows == 2:
        # the kernel vector of the scaled column, (F(600), -F(601), 0), comes first
        assert [abs(x) for x in reduced[0]] == [fib[600], fib[601], 0]


@settings(deadline=None)
@given(
    k=st.integers(min_value=2, max_value=100),
    shift=st.integers(min_value=0, max_value=1000),
    offsets=st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
    sign=st.sampled_from((1, -1)),
)
@example(k=600, shift=1000, offsets=(0, 0), sign=1)
def test_lll_matches_rational_oracle_on_scaled_fibonacci_rows(k, shift, offsets, sign):
    # F(k+1) and F(k) times 2^shift make the k=1 phase a Euclidean algorithm of
    # about k swaps on Gram entries of up to 2 shift + 1.4 k bits
    fib = [0, 1]
    while len(fib) < k + 2:
        fib.append(fib[-1] + fib[-2])
    s = 1 << shift
    basis = [[1, 0, s * (fib[k + 1] + offsets[0])], [0, 1, sign * s * (fib[k] + offsets[1])]]
    assert lll_reduce(basis) == rational_lll(basis)


def test_lll_matches_rational_oracle_past_the_cofactor_cap():
    # the scaled column's ratio is the continued fraction [1; 1, ..., 1, Q]
    # with 100 ones and Q = 2^61 + 1: LLL's k = 1 phase takes the ones as a
    # run of nearly parallel Euclid steps, then one size reduction by Q
    fib = [0, 1]
    while len(fib) < 102:
        fib.append(fib[-1] + fib[-2])
    q = (1 << 61) + 1
    basis = [[1, 0, fib[101] * q + fib[100]], [0, 1, fib[100] * q + fib[99]]]
    assert lll_reduce(basis) == rational_lll(basis)


def test_lll_random_bases_postconditions():
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        basis = [
            [rng.randrange(-(1 << 128), 1 << 128) for _ in range(3)] for _ in range(3)
        ]
        if determinant(basis) == 0:
            continue
        reduced = lll_reduce(basis)
        _assert_lll_postconditions(basis, reduced)
        checked += 1


def test_lll_higher_dimension():
    rng = random.Random(77)
    for _ in range(10):
        basis = [[rng.randrange(-(1 << 24), 1 << 24) for _ in range(5)] for _ in range(5)]
        if determinant(basis) == 0:
            continue
        _assert_lll_postconditions(basis, lll_reduce(basis))


def test_lll_reference_lattice_shape_and_regression():
    pub, ct = vectors.public_key(), vectors.ciphertext()
    t = preset_scale(16)
    reduced = lll_reduce(build_lattice(pub, ct, t))
    zero_rows = [r for r in reduced if r[2] == 0]
    full_rows = [r for r in reduced if abs(r[2]) == t]
    assert len(zero_rows) == 2
    assert len(full_rows) == 1
    # regression: this implementation's reduction order reproduces the
    # known reduced matrix for the reference instance exactly
    assert reduced == [
        [-4106878163802480, 245505609868187, 0],
        [247367271832221073, 4155888875658045598, 0],
        [-1118395942494397, 66856738131713, t],
    ]


@st.composite
def integer_bases(draw):
    """Square integer bases of dimension 2-5 with |entries| < 2^130.

    Half of them get one row replaced by an integer combination of the
    others, so dependent inputs are drawn as often as independent ones.
    """
    dim = draw(st.integers(min_value=2, max_value=5))
    dependent = draw(st.booleans())
    # a sum of four rows times |coefficients| <= 2 stays below 2^130; entries
    # of 1-3 bits hit the ties (|mu| = 1/2, mu + 1/2 integral, Lovasz equality)
    bits = draw(
        st.integers(min_value=1, max_value=3)
        | st.integers(min_value=4, max_value=126 if dependent else 130)
    )
    entries = st.integers(min_value=-(1 << bits) + 1, max_value=(1 << bits) - 1)
    rows = draw(st.lists(
        st.lists(entries, min_size=dim, max_size=dim), min_size=dim, max_size=dim
    ))
    if dependent:
        i = draw(st.integers(min_value=0, max_value=dim - 1))
        coeffs = draw(st.lists(
            st.integers(min_value=-2, max_value=2), min_size=dim, max_size=dim
        ))
        coeffs[i] = 0
        rows[i] = [sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rows)]
    return rows


def _outcome(reduce, basis):
    try:
        return reduce(basis)
    except ValueError:
        return ValueError


_S = 1 << 400


@settings(deadline=None)
@given(integer_bases())
@example([[2, 0], [1, 1]])  # mu = 1/2: not size-reduced
@example([[0, 3], [1, -1]])  # rounding a half-integral mu
@example([[-1, 0, 1], [-3, 0, 1], [1, 1, -2]])  # Lovasz test holds with equality
@example([[2, 0, 0], [1, 1, 1], [0, 0, 5]])  # ... at k=1: 4 |b_1|^2 = 3 |b_0|^2
@example([[2, 0], [-1, 1]])  # <b_1, b_0> = -|b_0|^2 / 2: no size reduction
# the same ties with Gram entries of about 800 bits
@example([[2 * _S, 0], [_S, _S]])
@example([[2 * _S, 0], [-_S, _S]])
@example([[2 * _S, 0, 0], [_S, _S, _S], [0, 0, 5 * _S]])
# near ties that only the low bits break: a test on the leading bits alone would give
@example([[2 * _S, 1], [_S, 1]])  # mu = 1/2 where it is just above 1/2
@example([[2 * _S, 1], [3 * _S, 0]])  # r = 2 where mu is just below 3/2, so r = 1
@example([[2 * _S, 0, 1], [_S, _S, _S], [0, 0, 5 * _S]])  # no swap where 4 n1 < 3 n0
def test_lll_matches_rational_oracle(basis):
    # the integral d/lam updates must reproduce the Fraction LLL bit for bit,
    # including which inputs are rejected as dependent
    expected = _outcome(rational_lll, basis)
    assert _outcome(lll_reduce, basis) == expected
    assert (expected is ValueError) == (determinant(basis) == 0)


def test_lll_matches_rational_oracle_on_n128_attack_lattice():
    kp, trace = _random_instance(128, 1)
    basis = build_lattice(kp.public, trace.ciphertext, preset_scale(128))
    assert lll_reduce(basis) == rational_lll(basis)


@st.composite
def scaled_embeddings(draw):
    """build_lattice's shape in dimension 2-4: rows [e_i | s*a_i] and [0...0 | -s*c].

    s = 2^k with k <= 300 makes the last column dwarf the unit part, so
    the k=1 phase swaps many times before later rows are reached.
    """
    m = draw(st.integers(min_value=1, max_value=3))
    s = 1 << draw(st.integers(min_value=0, max_value=300))
    bits = draw(st.integers(min_value=1, max_value=200))
    # full-length entries half the time: long continued fractions, many swaps
    size = st.integers(min_value=0, max_value=(1 << bits) - 1) | st.integers(
        min_value=1 << (bits - 1), max_value=(1 << bits) - 1
    )
    a = [draw(size) * draw(st.sampled_from((1, -1))) for _ in range(m)]
    c = draw(size.filter(bool) | st.integers(min_value=1, max_value=1 << (bits + 100)))
    rows = [[int(i == j) for j in range(m)] + [s * a[i]] for i in range(m)]
    return rows + [[0] * m + [-s * c]]


@settings(deadline=None)
@given(scaled_embeddings())
def test_lll_matches_rational_oracle_on_scaled_embeddings(basis):
    assert lll_reduce(basis) == rational_lll(basis)


def test_lattice_contains_solution_vector():
    pub, ct = vectors.public_key(), vectors.ciphertext()
    rows = build_lattice(pub, ct, 1 << 20)
    target = (vectors.U16, vectors.V16_SQUARED, 1)
    image = [sum(target[i] * rows[i][j] for i in range(3)) for j in range(3)]
    assert image == [vectors.U16, vectors.V16_SQUARED, 0]


def test_lattice_attack_reference_not_recovered():
    report = lattice_attack(
        vectors.public_key(),
        vectors.ciphertext(),
        scale=preset_scale(16),
        u_true=vectors.U16,
        v_true=vectors.V16,
    )
    assert report.verdict == VERDICT_NOT_RECOVERED
    assert report.recovered is None
    assert report.diagnostics["solution_norm"] == vectors.SOLUTION_NORM16
    assert report.diagnostics["solution_in_lattice"] is True
    assert report.diagnostics["zero_scale_rows"] == 2
    assert report.diagnostics["full_scale_rows"] == 1
    # log2 of sqrt(3 / (2 pi e)) * (C * 2^320)^(1/3), the Gaussian heuristic
    assert report.diagnostics["sigma_log2"] == pytest.approx(143.32, abs=0.01)
    assert len(report.diagnostics["row_norms_log2"]) == 3


def test_lattice_attack_auto_scale_toy():
    kp, trace = _random_instance(8, 3)
    report = lattice_attack(kp.public, trace.ciphertext, scale="auto")
    assert report.verdict in (VERDICT_RECOVERED, VERDICT_NOT_RECOVERED)
    assert report.params["n"] == 8
    if report.verdict == VERDICT_RECOVERED:
        assert report.recovered["u"] * kp.public.e_a1 + report.recovered[
            "v"
        ] ** 2 * kp.public.e_a2 == trace.ciphertext.c


@pytest.mark.parametrize("n", [16, 32])
def test_lattice_attack_recovers_from_oversized_e_a2(n):
    # e_a2 + 2^64*pq still inverts d mod pq, so the key decrypts, but the
    # larger coefficient makes (U, V^2, 0) short enough for the search to find
    for weak, msg, ct in oversized_e_a2_instances(n):
        assert validate_keypair(weak, strict=False).valid
        assert decrypt(weak, ct) == msg
        report = lattice_attack(weak.public, ct, scale=preset_scale(n))
        assert report.verdict == VERDICT_RECOVERED
        assert (report.recovered["m1"], report.recovered["m2"]) == (msg.m1, msg.m2)


@pytest.mark.parametrize("n", [16, 32])
def test_lattice_attack_auto_scale_recovers_from_oversized_e_a2(n):
    # auto is 2^(bitlen C + 2), so the first two reduced rows have zero third
    # coordinate on every key and the two-row search always runs; here it
    # recovers every message, as preset_scale does (test above)
    for weak, msg, ct in oversized_e_a2_instances(n):
        report = lattice_attack(weak.public, ct)
        assert report.verdict == VERDICT_RECOVERED
        assert (report.recovered["m1"], report.recovered["m2"]) == (msg.m1, msg.m2)
        assert report.params["scale_log2"] == ct.c.bit_length() + 2


@pytest.mark.parametrize("n", [16, 32])
def test_lattice_search_matches_a_scan_of_every_coefficient_pair(n):
    # only pairs with c1*z1 + c2*z2 = 1 go to the recovery check; a scan of all
    # (2*_COEFF_BOUND + 1)^2 pairs, c1 outer, finds the same first recovery, or none
    coeffs = range(-attacks._COEFF_BOUND, attacks._COEFF_BOUND + 1)
    instances = [(weak.public, ct) for weak, _, ct in oversized_e_a2_instances(n)]
    instances += [(kp.public, trace.ciphertext) for kp, trace in (_random_instance(n, s) for s in range(10))]
    recovered = 0
    for pub, ct in instances:
        for scale in (1 << (ct.c.bit_length() + 2), preset_scale(n)):
            zero_rows = [r for r in lll_reduce(build_lattice(pub, ct, scale)) if r[2] == 0]
            expected = None
            if len(zero_rows) == 2:
                (u1, w1, _), (u2, w2, _) = zero_rows
                candidates = (attacks._solution(pub, ct.c, c1 * u1 + c2 * u2, c1 * w1 + c2 * w2)
                              for c1, c2 in itertools.product(coeffs, repeat=2))
                expected = next(filter(None, candidates), None)
            assert lattice_attack(pub, ct, scale).recovered == expected
            recovered += expected is not None
    assert recovered >= 20


@pytest.mark.parametrize("scale", ["auto", 1 << 320])
@pytest.mark.parametrize("c", [0, -1])
def test_lattice_attack_rejects_nonpositive_ciphertext(scale, c):
    with pytest.raises(ValueError, match="ciphertext must be positive"):
        lattice_attack(vectors.public_key(), Ciphertext(c), scale=scale)


@st.composite
def _auto_scale_lattices(draw):
    """(e_a1, e_a2, C), each 1-400 bits; half share a factor of up to 200 bits."""
    factor = draw(st.just(1) | st.integers(2, (1 << draw(st.integers(2, 200))) - 1))

    def term():
        bits = draw(st.integers(1, 400 - factor.bit_length() + 1))
        return factor * draw(st.integers(1 << (bits - 1), (1 << bits) - 1))

    return term(), term(), term()


@settings(deadline=None)
@given(_auto_scale_lattices())
@example((1, 1, 1))
@example((1, 1, (1 << 400) - 1))
@example(((1 << 399) + 1, (1 << 399) + 3, 5))
def test_auto_scale_zero_tail_in_first_two_rows(lattice):
    # lattice_attack's proof: |c_0|, |c_1| <= 2 lambda_2 < 4C < T, while every
    # vector with a nonzero third coordinate is at least T long
    e_a1, e_a2, c = lattice
    t = 1 << (c.bit_length() + 2)
    reduced = lll_reduce(build_lattice(PublicKey(8, e_a1, e_a2), Ciphertext(c), t))
    assert reduced[0][2] == reduced[1][2] == 0
    assert reduced[2][2] != 0


def _dot(x, y):
    return sum(i * j for i, j in zip(x, y))


def _tie_ciphertext(pub, j=0):
    """For odd a, b, a ciphertext whose mu_20 is a half-integer once row 2 is size-reduced against
    the Bezout row: C*(s*b - t*a) = (a^2 + b^2)/2 (mod a^2 + b^2), s*a + t*b = 1; else None."""
    g = math.gcd(pub.e_a1, pub.e_a2)
    a, b = pub.e_a1 // g, pub.e_a2 // g
    if not a % 2 == b % 2 == 1:
        return None
    s = pow(a, -1, b)
    t, norm = (1 - s * a) // b, a * a + b * b
    return Ciphertext(norm // 2 * pow(s * b - t * a, -1, norm) % norm + j * norm)


def test_attack_basis_rows_are_a_reduced_basis_of_the_key_rows():
    # rows 0 and 1 are (x, y, (x*e_a1 + y*e_a2)*T) with x, y from a matrix of determinant
    # +-1, so they span build_lattice's rows 0 and 1; |mu_10| <= 1/2 and the Lovasz test
    # hold, so lll_reduce's k = 1 phase leaves them as they are and turns the old rows
    # into them up to sign
    instances = [(kp.public, trace.ciphertext) for kp, trace in (
        _random_instance(n, seed, "basis", shift)
        for n in (8, 32, 128) for seed, shift in ((0, None), (1, 64), (2, 20 * n)))]
    # g = 5 with a = 1, b = 7; g = 4 with b = 1 (s = 0); a = 1 with b = 6
    instances += [(PublicKey(8, *e), Ciphertext(1 << 70)) for e in ((5, 35), (12, 4), (1, 6))]
    checked = 0
    for pub, ct in instances:
        for scale in (3, preset_scale(pub.n), 1 << (ct.c.bit_length() + 2)):
            old, new = build_lattice(pub, ct, scale), attacks._attack_basis(pub, ct, scale)
            if new == old:
                continue
            (x0, y0, _), (x1, y1, _) = v, w = new[:2]
            rows = [[x, y, (x * pub.e_a1 + y * pub.e_a2) * scale] for x, y in ((x0, y0), (x1, y1))]
            assert rows == new[:2]
            assert abs(x0 * y1 - y0 * x1) == 1 and new[2] == old[2]
            assert 2 * abs(_dot(w, v)) < _dot(v, v) and 4 * _dot(w, w) >= 3 * _dot(v, v)
            assert lll_reduce(new[:2]) == new[:2]
            assert all(row in (r, [-x for x in r]) for row, r in zip(lll_reduce(old[:2]), new[:2]))
            checked += 1
    assert checked == 23  # scale 3 is below the guard on 10 keys, preset_scale(n) on 3
    assert attacks._attack_basis(PublicKey(8, 5, 35), Ciphertext(9), 3)[:2] == [[7, -1, 0], [1, 0, 15]]


@pytest.mark.parametrize("e_a1, e_a2, scale", [
    (0, 7, 1 << 64), (-5, 7, 1 << 64), (5, 0, 1 << 64), (5, -7, 1 << 64), (0, 0, 1 << 64),
    (5, 35, 2),  # g = 5, a = 1, b = 7: (g*T)^2 = 100 = 2(a^2 + b^2); scale 3 passes (test above)
    ((1 << 40) + 1, (1 << 40) + 1, 1 << 64),  # a = b = 1
], ids=["e_a1-0", "e_a1-negative", "e_a2-0", "e_a2-negative", "both-0", "scale-at-bound",
        "a-equals-b"])
def test_attack_basis_falls_back_to_build_lattice(e_a1, e_a2, scale):
    pub, ct = PublicKey(8, e_a1, e_a2), Ciphertext(12345)
    assert attacks._attack_basis(pub, ct, scale) == build_lattice(pub, ct, scale)


@settings(deadline=None)
@given(n=st.integers(8, 64), data=st.data())
def test_cli_lattice_attack_sends_closed_form_key_rows_to_lll(n, data):
    # for a != b and C in [C_lo, C_hi] (C_lo > max(e_a1, e_a2)), T = 2^(bitlen C + 2) >
    # 4 max(e_a1, e_a2), so (g*T)^2 > 8(a^2 + b^2) and _attack_basis never falls back to
    # build_lattice's rows: the CLI's lattice row gives LLL no raw key rows
    coefficient = st.integers(3 * n, 32 * n).flatmap(
        lambda bits: st.integers(1 << (bits - 1), (1 << bits) - 1))
    e_a1 = data.draw(coefficient)
    e_a2 = data.draw(coefficient.filter(lambda e: e != e_a1))
    pub = PublicKey(n, e_a1, e_a2)
    ct = Ciphertext(data.draw(st.integers(*ciphertext_range(pub))))
    # LLL itself returns the basis as it is: the property is about its input
    with mock.patch.object(attacks, "lll_reduce", side_effect=lambda basis: basis) as lll:
        _ATTACK_KINDS["lattice"][1](attacks, pub, None, None, ct)
    [(basis,)] = [call.args for call in lll.call_args_list]
    g = math.gcd(e_a1, e_a2)
    assert basis[0] == [e_a2 // g, -(e_a1 // g), 0]
    assert basis[1][2] == g << (ct.c.bit_length() + 2)


@st.composite
def _lattice_attack_inputs(draw):
    """(pub, ct, scale): an honest key, one with e_a2 raised by p*q*2^s, or random coefficients,
    at n in [8, 64]; a key's own ciphertext or, when a and b are odd, one that forces a
    half-integer size reduction; scale auto, preset, 1, 3, a power of two or any integer."""
    n = draw(st.integers(8, 64))
    kind = draw(st.sampled_from(("honest", "weak", "random")))
    if kind == "random":
        pub = PublicKey(n, *(draw(st.integers(-2, 1 << draw(st.integers(1, 8 * n))))
                             for _ in range(2)))
        ct = Ciphertext(draw(st.integers(1, 1 << 8 * n)))
    else:
        shift = draw(st.integers(0, 20 * n)) if kind == "weak" else None
        kp, trace = _random_instance(n, draw(st.integers(0, 10**6)), "basis", shift)
        pub, ct = kp.public, trace.ciphertext
        tie = _tie_ciphertext(pub, draw(st.integers(0, 1 << 4 * n)))
        if tie and draw(st.booleans()):
            ct, kind = tie, kind + " tie"
    event(kind)
    scale = draw(st.sampled_from(("auto", preset_scale(n), 1, 3))
                 | st.integers(0, 24 * n).map(lambda k: 1 << k) | st.integers(1, 1 << 24 * n))
    return pub, ct, scale


@settings(deadline=None)
@given(_lattice_attack_inputs())
def test_lattice_attack_report_is_the_one_build_lattice_gives(inputs):
    pub, ct, scale = inputs
    report = lattice_attack(pub, ct, scale)
    with mock.patch.object(attacks, "_attack_basis", build_lattice):
        assert lattice_attack(pub, ct, scale) == report


# --- factoring from roots ---


def test_factor_from_roots_reference():
    g = math.gcd(vectors.E_A1_16, vectors.ROOTS16[0] + vectors.ROOTS16[2])
    assert g == vectors.P16  # 62683 * 27856 = 1746097648
    assert vectors.P16 * 27856 == vectors.ROOTS16[0] + vectors.ROOTS16[2]
    p, q = factor_from_roots(vectors.E_A1_16, list(vectors.ROOTS16))
    assert (p, q) == (vectors.P16, vectors.Q16)


def test_factor_from_roots_toy():
    roots = four_roots(2, 9, 7, 11)  # roots of 4 mod 77
    assert factor_from_roots(539, list(roots)) == (7, 11)


def test_factor_from_roots_any_order():
    roots = list(vectors.ROOTS16)
    for perm in itertools.permutations(roots):
        assert factor_from_roots(vectors.E_A1_16, list(perm)) == (
            vectors.P16,
            vectors.Q16,
        )


@pytest.mark.parametrize("n", [8, 16, 32])
def test_factor_from_roots_random_keys(n):
    rng = random.Random(f"fact:{n}")
    for _ in range(20):
        kp = generate_keypair(n, rng)
        p, q = kp.private.p, kp.private.q
        pq = p * q
        v = rng.randrange(2, pq)
        w = v * v % pq
        x_p = sqrt_mod_p_3mod4(w % p, p)
        x_q = sqrt_mod_p_3mod4(w % q, q)
        if x_p == 0 or x_q == 0:
            continue
        roots = four_roots(x_p, x_q, p, q)
        assert factor_from_roots(kp.public.e_a1, list(roots)) == (p, q)


def test_factor_from_roots_cross_sum_p_squared():
    # the first cross-sum is p^2, whose gcd with e_a1 = p^2*q is p^2 itself
    roots = [vectors.P16**2, 0, 0, 0]
    assert factor_from_roots(vectors.E_A1_16, roots) == (vectors.P16, vectors.Q16)


def test_factor_from_roots_divisor_that_does_not_resolve():
    # 105 = 3 * 5 * 7 is no p^2*q: the cross-sum 3 gives g = 3, but neither
    # gcd(3, 35) nor the roots of 3 or 35 yield a p, so every pair fails
    with pytest.raises(FactoringFailure):
        factor_from_roots(105, [3, 0, 0, 0])


@st.composite
def _honest_root_sets(draw):
    """(e_a1, roots): the four roots mod pq of V^2 for a random V, V = p*k
    or V = q*k, on an honest key at n in [8, 64], in a random order."""
    n = draw(st.integers(min_value=8, max_value=64))
    kp = generate_keypair(n, random.Random(draw(st.integers(0, 10**6))))
    p, q, pq = kp.private.p, kp.private.q, kp.private.pq
    kind = draw(st.sampled_from(("random", "p*k", "q*k")))
    factor = {"random": 1, "p*k": p, "q*k": q}[kind]
    v = factor * draw(st.integers(1, pq // factor - 1))
    w = v * v % pq
    roots = four_roots(sqrt_mod_p_3mod4(w % p, p), sqrt_mod_p_3mod4(w % q, q), p, q)
    event(f"V = {kind}")
    return kp.public.e_a1, draw(st.permutations(roots))


# e_a1 up to 2^40, half of the draws with a square factor t^2
_CRAFTED_E_A1 = st.integers(0, 1 << 40) | st.builds(
    lambda t, r: t * t * r, st.integers(0, 1 << 10), st.integers(0, 1 << 20)
)
_CRAFTED_ROOTS = st.lists(st.integers(-50, 299), min_size=4, max_size=4)


def _factoring_outcome(factor, e_a1, roots):
    try:
        return factor(e_a1, list(roots))
    except Exception as exc:
        return type(exc)


@settings(deadline=None)
@given(instance=_honest_root_sets() | st.tuples(_CRAFTED_E_A1, _CRAFTED_ROOTS))
def test_factor_from_roots_matches_the_two_function_reference(instance):
    expected = _factoring_outcome(reference_factor_from_roots, *instance)
    event("factored" if isinstance(expected, tuple) else expected.__name__)
    assert _factoring_outcome(factor_from_roots, *instance) == expected


def test_factor_from_roots_failure():
    with pytest.raises(FactoringFailure):
        factor_from_roots(539, [0, 0, 0, 0])
    with pytest.raises(ValueError):
        factor_from_roots(539, [1, 2, 3])



def test_same_inputs_give_equal_reports():
    pub, ct = vectors.public_key(), vectors.ciphertext()
    for attack in (
        lambda: congruence_bruteforce(pub, ct, 1000),
        lambda: coppersmith_feasibility(pub, d=vectors.D16),
        lambda: euclid_division_check(pub, ct, vectors.U16, vectors.V16),
        lambda: lattice_attack(pub, ct, preset_scale(16), vectors.U16, vectors.V16),
    ):
        assert attack() == attack()


# --- digest gates ---

# SHA-256 of one line of report values per seeded instance, and of the reduced
# rows of seeded n=128 lattices; a change meant to move either updates the
# value in the same commit and says why.
_SEEDED_ATTACK_REPORTS_SHA256 = "7b14224d91285b9510ff9ef821ea683cac4221c0bdfd71d155e420328ed965a9"
_SEEDED_LLL_SHA256 = "129b3881902d964d6da01099c55c0ff9ed1db480b5396d445df0e82c4f564154"


def _canonical(value):
    """A report value as digest text: ints in hex, floats to 9 significant digits."""
    if type(value) is int:
        return f"{value:x}"
    if type(value) is float:
        return f"{value:.9g}"
    if type(value) is tuple:
        return ";".join(map(_canonical, value))
    return str(value)  # verdicts, booleans and None


def _report_values(report, *diagnostics):
    recovered = report.recovered or {}
    return (
        report.verdict,
        *(report.diagnostics.get(key) for key in diagnostics),
        *(recovered.get(key) for key in ("u", "v", "m1", "m2")),
    )


def test_seeded_attack_reports_digest():
    lattice = ("zero_scale_rows", "full_scale_rows", "sigma_log2", "row_norms_log2",
               "solution_norm", "solution_in_lattice")
    congruence = ("window_u", "window_v", "j_window", "scanned", "budget_exhausted")
    h = hashlib.sha256()
    for n in (16, 32, 64, 128):
        for seed in range(10):
            # odd seeds get keys whose ciphertexts auto recovers and preset_scale misses
            kp, trace = _random_instance(n, seed, "digest", 20 * n if seed % 2 else None)
            pub, ct = kp.public, trace.ciphertext
            values = [n, seed, ct.c]
            for scale in ("auto", preset_scale(n)):
                report = lattice_attack(pub, ct, scale, trace.u, trace.v)
                values += [report.params["scale_log2"], *_report_values(report, *lattice)]
            values += _report_values(congruence_bruteforce(pub, ct, 1 << 12), *congruence)
            h.update((",".join(map(_canonical, values)) + "\n").encode())
    assert h.hexdigest() == _SEEDED_ATTACK_REPORTS_SHA256


def test_seeded_lll_reduce_digest():
    # e_a2 near 2^(4n) makes (U, V^2, 0) and the key's own short vector of L0
    # about equally long, so a reduction's last Lovasz tests are close calls
    h = hashlib.sha256()
    for seed in range(12):
        kp, trace = _random_instance(128, seed, "lll", 2 * 128 + 2)
        ct = trace.ciphertext
        for scale in (1 << ct.c.bit_length() + 2, preset_scale(128)):
            for row in lll_reduce(build_lattice(kp.public, ct, scale)):
                h.update((",".join(map(_canonical, row)) + "\n").encode())
    assert h.hexdigest() == _SEEDED_LLL_SHA256


def _gate_instances(n):
    """(pub, ct, u, v) at n: honest keys, e_a2 raised by p*q*2^64 and by p*q*2^(20n), a key
    with e_a1 = e_a2, and a ciphertext crafted to force a half-integer size reduction."""
    instances = []
    for seed in range(8):
        kp, trace = _random_instance(n, seed, "gate", (None, None, 64, 20 * n)[seed // 2])
        instances.append((kp.public, trace.ciphertext, trace.u, trace.v))
    pub, ct = instances[0][:2]
    instances.append((PublicKey(n, pub.e_a1, pub.e_a1), ct, None, None))
    instances += [(pub, tie, None, None) for pub, *_ in instances[:8] if (tie := _tie_ciphertext(pub))]
    return instances


def _report_line(report):
    """Every field of a report, dict entries sorted by name, floats in full."""
    sections = (report.params, report.diagnostics, report.recovered)
    return repr((report.attack, report.verdict,
                 *(None if s is None else sorted(s.items()) for s in sections)))


# SHA-256 of every lattice_attack report test_lattice_attack_reports_digest makes.
_LATTICE_REPORTS_SHA256 = "4f15a5a3762c9a5836ccdee521d4b65d82f2dadb035640bbac5f7689229f2a0e"


def test_lattice_attack_reports_digest():
    # each instance runs at scales auto, preset, 1, 3, 2^(L-2) and 2^(L+1), L the larger
    # coefficient's bit length; with coprime coefficients (g = 1) the first of the last two
    # is at or below sqrt(2(a^2 + b^2)) / g and the second above it
    h = hashlib.sha256()
    for n in (8, 16, 32, 64, 128):
        for pub, ct, u, v in _gate_instances(n):
            bits = max(pub.e_a1, pub.e_a2).bit_length()
            for scale in ("auto", preset_scale(n), 1, 3, 1 << (bits - 2), 1 << (bits + 1)):
                h.update((_report_line(lattice_attack(pub, ct, scale, u, v)) + "\n").encode())
    assert h.hexdigest() == _LATTICE_REPORTS_SHA256
