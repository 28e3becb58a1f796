"""Cryptanalysis lab for the ciphertext equation C = U*e_a1 + V^2*e_a2.

Implements the known attack avenues as falsification harnesses:

* congruence scan -- walk the parametric solutions U = a + e_a2*j,
  V^2 = b - e_a1*j of C, filtering candidates by square residues;
* small-root feasibility -- evaluate the modular-polynomial bound
  conditions against the key's guaranteed ranges in exact integers;
* floor-division probe -- check whether plain Euclidean division of C
  by either public coefficient leaks U or V^2;
* lattice reduction -- embed the equation in a 3-dimensional lattice,
  reduce with an exact-arithmetic LLL, and search short combinations
  for the solution vector;
* root-pair factoring -- recover p from gcd(e_a1, V_i + V_j) given all
  four square roots, demonstrating the equivalence with factoring.

Root-pair factoring (factor_from_roots) returns (p, q) or raises
FactoringFailure, and the CLI (cli._cmd_attack) builds its report.
Every other attack returns an AttackReport rather than raising on
failure: the verdict is data, and the same inputs give an equal report.
"""

import itertools
import math
from collections import namedtuple

from .cipher import v_window
from .codec import EncodedMessage
from .errors import FactoringFailure, InconsistentKey
from .keys import d_above_floor

__all__ = [
    "VERDICT_RECOVERED",
    "VERDICT_INFEASIBLE",
    "VERDICT_NOT_RECOVERED",
    "CongruenceParams",
    "AttackReport",
    "congruence_params",
    "congruence_bruteforce",
    "coppersmith_feasibility",
    "euclid_division_check",
    "build_lattice",
    "preset_scale",
    "lll_reduce",
    "lattice_attack",
    "factor_from_roots",
]

VERDICT_RECOVERED = "recovered"
VERDICT_INFEASIBLE = "infeasible-by-bounds"
VERDICT_NOT_RECOVERED = "not-recovered"


CongruenceParams = namedtuple("CongruenceParams", "a b window_u window_v")
AttackReport = namedtuple("AttackReport", "attack verdict params diagnostics recovered")


def congruence_params(pub, ct):
    """Base point (a, b) of C's solutions U = a + e_a2*j, V^2 = b - e_a1*j, and the scan windows.

    window_u and window_v are the guaranteed candidate counts 2^(n-6)
    and 3*2^(n-7) for the two scans.
    """
    try:
        inv = pow(pub.e_a1, -1, pub.e_a2)
    except ValueError as exc:
        raise InconsistentKey("public coefficients are not coprime") from exc
    a = ct.c * inv % pub.e_a2
    b, rem = divmod(ct.c - pub.e_a1 * a, pub.e_a2)
    assert rem == 0
    n = pub.n
    return CongruenceParams(a, b, 1 << (n - 6), 3 << (n - 7))


# A square is a square modulo each (Cohen, Alg. 1.7.3); 0.03% of non-squares pass all.
_SQUARE_MODULI = (64, 63, 65, 11, 17, 19, 23, 29, 31)
_SQUARES = {m: frozenset(x * x % m for x in range(m)) for m in _SQUARE_MODULI}
_BLOCK = 1 << 14  # candidates per filter mask, one bit each
# m^2 characters; character i is "1" when i mod m is a square modulo m
_SQUARE_TEXT = {m: "".join("01"[x in sq] for x in range(m)) * m for m, sq in _SQUARES.items()}
# 1 + 2^m + 2^2m + ... past _BLOCK + m bits: times an m-bit pattern, it repeats the pattern
_REPEAT = {m: ((1 << m * (_BLOCK // m + 2)) - 1) // ((1 << m) - 1) for m in _SQUARE_MODULI}


def _solution(pub, c, u, v_squared):
    """Report fields of (U, V), else None. The one recovery check, in order: V^2 > 0, V^2
    a square mod 64, then isqrt(V^2)^2 = V^2, U*e_a1 + V^2*e_a2 = C, (U >> n, V >> n) a message pair."""
    if v_squared <= 0 or v_squared % 64 not in _SQUARES[64]:
        return None
    v = math.isqrt(v_squared)
    if v * v != v_squared or u * pub.e_a1 + v_squared * pub.e_a2 != c:
        return None
    try:
        msg = EncodedMessage(u >> pub.n, v >> pub.n, pub.n)
    except ValueError:
        return None
    return {"u": u, "v": v, "m1": msg.m1, "m2": msg.m2}


def _square_candidates(s0, step, count):
    """Yield in increasing order each t < count with s0 - step*t a square modulo every _SQUARE_MODULI.

    Modulo m the test has period m in t, so each m-bit pattern is built once per scan:
    with k = -step mod m, (s0 - step*t) mod m is character s0 % m + k*t of
    _SQUARE_TEXT[m], so one strided slice reads the m bits. One product with
    _REPEAT[m] repeats the pattern past one block plus m bits, and each block
    takes it shifted right by start % m.
    """
    patterns = []
    for m, text in _SQUARE_TEXT.items():
        k = -step % m
        bits = text[s0 % m :: k][:m] if k else text[s0 % m] * m
        patterns.append((m, int(bits[::-1], 2) * _REPEAT[m]))  # bit t is character t
    for start in range(0, count, _BLOCK):
        mask = (1 << min(_BLOCK, count - start)) - 1
        for m, pattern in patterns:
            mask &= pattern >> start % m
        while mask:
            yield start + (mask & -mask).bit_length() - 1
            mask &= mask - 1


def congruence_bruteforce(pub, ct, j_budget):
    """Scan the V-window of the parametric family for a perfect square.

    Walks j over the interval where b - e_a1*j can be V^2 for V inside
    cipher.v_window(n), up to j_budget candidates. Recovers (U, V) -- and
    hence the message pair -- iff the scan reaches the right j.

    Candidates that pass a square-residue filter (every square does) go
    to the recovery check, _solution. On honest ciphertexts the report,
    "scanned" (candidates covered) too, is a linear scan's.
    """
    if j_budget < 0:
        raise ValueError("j_budget must be non-negative")
    par = congruence_params(pub, ct)
    n, e_a1, e_a2 = pub.n, pub.e_a1, pub.e_a2
    v_lo, v_hi = v_window(n)
    s_min, s_max = (v_lo + 1) ** 2, (v_hi - 1) ** 2
    j_lo = -((s_max - par.b) // e_a1)  # ceil((b - s_max) / e_a1)
    j_hi = (par.b - s_min) // e_a1
    window = max(0, j_hi - j_lo + 1)
    found = None
    scanned = min(window, j_budget)
    s0 = par.b - e_a1 * j_lo
    for t in _square_candidates(s0, e_a1, scanned):
        if found := _solution(pub, ct.c, par.a + e_a2 * (j_lo + t), s0 - e_a1 * t):
            scanned = t + 1
            break
    diagnostics = {
        "window_u": par.window_u,
        "window_v": par.window_v,
        "j_window": window,
        "scanned": scanned,
        "budget_exhausted": window > j_budget and found is None,
    }
    return AttackReport(
        attack="congruence",
        verdict=VERDICT_RECOVERED if found else VERDICT_NOT_RECOVERED,
        params={"n": n, "budget": j_budget},
        diagnostics=diagnostics,
        recovered=found,
    )


def coppersmith_feasibility(pub, d=None):
    """Evaluate the small-root bound conditions against the key ranges.

    The V attack needs some in-range V below sqrt(e_a1) (monic degree-2
    polynomial modulo e_a1); the d attack needs d at or below
    e_a1^(4/9) (degree-1 polynomial modulo the divisor p*q >
    e_a1^(2/3)). Honest keys guarantee both fail. Pass the private d to
    audit a concrete key; without it the d check reflects the
    generator's floor, which sits exactly on the bound.
    """
    n, e_a1 = pub.n, pub.e_a1
    v_min = v_window(n)[0]
    v_feasible = v_min * v_min < e_a1
    d_feasible = d is not None and not d_above_floor(d, e_a1)
    verdict = (
        VERDICT_NOT_RECOVERED if (v_feasible or d_feasible) else VERDICT_INFEASIBLE
    )
    return AttackReport(
        attack="coppersmith",
        verdict=verdict,
        params={"n": n, "d_supplied": d is not None},
        diagnostics={
            "v_attack_feasible": v_feasible,
            "d_attack_feasible": d_feasible,
            "v_min": v_min,
            "sqrt_e_a1": math.isqrt(e_a1),
        },
        recovered=None,
    )


def euclid_division_check(pub, ct, u_true, v_true):
    """Does floor division of C by either coefficient leak U or V^2?

    A known-answer harness: the caller supplies the true (U, V) and the
    check compares them against floor(C/e_a1) and floor(C/e_a2).
    """
    q1 = ct.c // pub.e_a1
    q2 = ct.c // pub.e_a2
    hit_u = q1 == u_true
    hit_v = q2 == v_true * v_true
    return AttackReport(
        attack="euclid",
        verdict=VERDICT_RECOVERED if (hit_u or hit_v) else VERDICT_NOT_RECOVERED,
        params={"n": pub.n},
        diagnostics={"floor_hits_u": hit_u, "floor_hits_v_squared": hit_v},
        recovered={"u": q1} if hit_u else ({"v_squared": q2} if hit_v else None),
    )


def build_lattice(pub, ct, scale):
    """Row basis of the attack lattice for C = e_a1*x1 + e_a2*x2.

    Rows are (1, 0, e_a1*scale), (0, 1, e_a2*scale), (0, 0, -C*scale);
    (U, V^2, 1) times this matrix is the target vector (U, V^2, 0).
    """
    if scale < 1:
        raise ValueError("scale must be at least 1")
    return [
        [1, 0, pub.e_a1 * scale],
        [0, 1, pub.e_a2 * scale],
        [0, 0, -ct.c * scale],
    ]


def preset_scale(n):
    """The 2^(20n) scale used by the reference worked example."""
    return 1 << (20 * n)


def lll_reduce(basis):
    """Integral LLL with delta = 3/4 (de Weger 1987; Cohen, Alg. 2.6.7).

    d_0 = 1, d_i+1 = |b*_0|^2 ... |b*_i|^2 and lam_ij = d_j+1 * mu_ij stay
    exact integers. The Gram-Schmidt pass computes d and lam of each row from
    the current rows when k first reaches it (k_max); a linearly dependent
    row, a zero row included, raises ValueError there. Integral LLL runs from
    k = 1: row k is size-reduced against j = k-1 down to 0 when 2|lam_kj| >
    d_j+1, by r = (2 lam_kj + d_j+1) // (2 d_j+1) = floor(mu_kj + 1/2). The
    d_k a swap would give, new_dk = (d_k-1 d_k+1 + lam_k,k-1^2) / d_k, is an
    exact quotient, and rows k-1 and k swap while the Lovasz test 4 new_dk >=
    3 d_k fails; a swap updates lam of rows k+1..k_max-1 alone. At k = 1
    (d_0 = 1) these steps are Lagrange-Gauss reduction of rows 0 and 1, and
    no later row's lam pays for them. The output spans the same lattice with
    |mu_ij| <= 1/2. Meant for small dimensions.
    """
    b = [[int(x) for x in row] for row in basis]
    dim = len(b)
    if any(len(row) != len(b[0]) for row in b):
        raise ValueError("rows must have equal length")
    d = [1] * (dim + 1)
    lam = [[0] * dim for _ in range(dim)]
    k = k_max = 0  # rows below k_max have their d and lam
    while k < dim:
        if k == k_max:
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for t in range(j):
                    u = (d[t + 1] * u - lam[k][t] * lam[j][t]) // d[t]
                if j < k:
                    lam[k][j] = u
                elif u == 0:
                    raise ValueError("basis rows are linearly dependent")
                else:
                    d[k + 1] = u
            k_max += 1
            if k == 0:
                k = 1
                continue
        for j in range(k - 1, -1, -1):
            if 2 * abs(lam[k][j]) > d[j + 1]:
                r = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                for jj in range(j):
                    lam[k][jj] -= r * lam[j][jj]
                lam[k][j] -= r * d[j + 1]
        lk = lam[k][k - 1]
        new_dk = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
        if 4 * new_dk >= 3 * d[k]:
            k += 1
            continue
        # columns < k-1 of rows k-1 and k trade places; lam_k,k-1 stays
        b[k - 1], b[k] = b[k], b[k - 1]
        lam[k - 1], lam[k] = lam[k], lam[k - 1]
        lam[k][k - 1] = lk
        for i in range(k + 1, k_max):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
            lam[i][k - 1] = (new_dk * t + lk * lam[i][k]) // d[k + 1]
        d[k] = new_dk
        k = max(k - 1, 1)
    return b


# Short-vector search range for each reduced-row coefficient.
_COEFF_BOUND = 4


def _attack_basis(pub, ct, scale):
    """build_lattice's rows in the closed form of lattice_attack: [v, z, w], else [v, w, row 2],
    else (under the key-row guards) build_lattice's rows."""
    rows = build_lattice(pub, ct, scale)
    g = math.gcd(pub.e_a1, pub.e_a2) or 1
    a, b = pub.e_a1 // g, pub.e_a2 // g
    norm, gt2 = a * a + b * b, (g * scale) ** 2
    if min(a, b) < 1 or a == b or gt2 <= 2 * norm:
        return rows
    s = pow(a, -1, b)
    t = (1 - s * a) // b
    k = (2 * (s * b - t * a) + norm) // (2 * norm)
    v, w = [b, -a, 0], [s - k * b, t + k * a, g * scale]
    c, rem = divmod(ct.c, g)
    z = [c * w[0], c * w[1], 0]  # row 2 + (C/g) w
    lam = z[0] * b - z[1] * a
    if 2 * abs(lam) > norm:
        r = (2 * lam + norm) // (2 * norm)
        z = [z[0] - r * b, z[1] + r * a, 0]
    if rem or 4 * (z[0] * z[0] + z[1] * z[1]) >= 3 * gt2:
        return [v, w, rows[2]]
    return [v, z, w]


def lattice_attack(pub, ct, scale="auto", u_true=None, v_true=None):
    """Reduce the attack lattice and search short vectors for (U, V^2, 0).

    Reduced rows with third coordinate 0 lie in L0 = {(a, b) : a*e_a1 +
    b*e_a2 = 0 (mod C)}, which holds the target. L0 has covolume <= C and
    lambda_1(L0) >= 1, so lambda_2(L0) <= (2/sqrt 3) C (Hermite); any other
    vector is at least T = scale long. scale="auto" is 2^(bitlen C + 2), so
    LLL (delta = 3/4; Lenstra, Lenstra & Lovasz 1982) gives the first rows
    |c_0|, |c_1| <= 2 lambda_2(L) <= 2 lambda_2(L0) < 4C < T: both in L0.

    The search tries the integer combinations of the zero-tail rows with
    coefficients up to +/-_COEFF_BOUND, c1 outer and c2 inner, and stops
    at the first (U, V^2) that passes the recovery check, _solution. A
    zero-tail row (u, w, 0) has u*e_a1 + w*e_a2 = z*C, so only the
    combinations with c1*z1 + c2*z2 = 1 can meet C and go to the check.
    Supplying the true (U, V) adds known-answer diagnostics (target norm,
    lattice membership). A ciphertext below 1 raises ValueError.

    _attack_basis puts rows 0 and 1 in closed form: with g = gcd(e_a1, e_a2),
    a = e_a1/g, b = e_a2/g, s = a^-1 mod b (0 if b = 1) and t = (1 - s*a)/b, so
    s*e_a1 + t*e_a2 = g, they are v = (b, -a, 0) and w = (s - k*b, t + k*a, g*T),
    k the nearest integer to (s*b - t*a)/(a^2 + b^2): build_lattice's rows times a
    matrix of determinant 1. A key-row vector with a nonzero third coordinate is at
    least g*T long, and the delta = 3/4 pair that LLL's k = 1 phase (Lagrange-Gauss)
    leaves has |b_0|^2 <= 2 lambda_1^2 <= 2(a^2 + b^2). So that phase turns
    build_lattice's rows into (+-v, +-w) and leaves (v, w) as they are, unless
    e_a1 < 1, e_a2 < 1, (g*T)^2 <= 2(a^2 + b^2) or a = b, where build_lattice's rows
    stay (as (s*b - t*a)^2 + 1 = (s^2 + t^2)(a^2 + b^2), only a = b = 1 lets
    |mu_10| = 1/2 tie). Integral LLL and the report do not see row signs, save in two
    cases this leaves uncovered: a mu_kj of exactly +-3/2, +-5/2, ... once row 2
    takes part (both roundings give rows of equal norm, but the bases may
    part there), and two passing combinations the search meets in either order.

    Row 2 = (0, 0, -C*T) is put in closed form too. For g | C, z is row 2 + (C/g) w =
    (C/g)(w0, w1, 0) size-reduced against v by lll_reduce's rounding. If 4|z|^2 < 3(g*T)^2, LLL
    at k = 2 reduces row 2 to z and swaps z in front of w: the Lovasz test fails, and z's part
    orthogonal to v, (C/g)/|v|, gives 2|C/g| <= (g*T)^2 (a^2 + b^2), so mu_21 rounds to -C/g,
    as |w*|^2 = (g*T)^2 + 1/(a^2 + b^2) (s*a + t*b = 1). So _attack_basis returns [v, z, w],
    else [v, w, row 2]. LLL's steps depend only on the current rows, and k_max computes w's
    Gram-Schmidt data afresh, so from [v, z, w] it gives bit for bit what [v, w, row 2] gives.
    """
    if ct.c < 1:
        raise ValueError("ciphertext must be positive")
    n = pub.n
    scale_int = 1 << (ct.c.bit_length() + 2) if scale == "auto" else int(scale)
    reduced = lll_reduce(_attack_basis(pub, ct, scale_int))
    zero_rows = [r for r in reduced if r[2] == 0]
    scale_rows = [r for r in reduced if abs(r[2]) == scale_int]

    det = ct.c * scale_int
    sigma_log2 = 0.5 * math.log2(3 / (2 * math.pi * math.e)) + math.log2(det) / 3

    found = None
    if len(zero_rows) == 2:
        (u1, w1, _), (u2, w2, _) = zero_rows
        z1, z2 = ((u * pub.e_a1 + w * pub.e_a2) // ct.c for u, w, _ in zero_rows)
        coeffs = range(-_COEFF_BOUND, _COEFF_BOUND + 1)
        candidates = (_solution(pub, ct.c, c1 * u1 + c2 * u2, c1 * w1 + c2 * w2)
                      for c1, c2 in itertools.product(coeffs, repeat=2) if c1 * z1 + c2 * z2 == 1)
        found = next(filter(None, candidates), None)

    diagnostics = {
        "zero_scale_rows": len(zero_rows),
        "full_scale_rows": len(scale_rows),
        "sigma_log2": sigma_log2,
        "row_norms_log2": tuple(
            round(0.5 * math.log2(sum(x * x for x in row)), 3) for row in reduced
        ),
    }
    if u_true is not None and v_true is not None:
        diagnostics["solution_norm"] = (math.isqrt(4 * (u_true**2 + v_true**4)) + 1) // 2
        # (U, V^2, 1) times the basis is (U, V^2, (U*e_a1 + V^2*e_a2 - C)*scale)
        diagnostics["solution_in_lattice"] = u_true * pub.e_a1 + v_true**2 * pub.e_a2 == ct.c
    return AttackReport(
        attack="lattice",
        verdict=VERDICT_RECOVERED if found else VERDICT_NOT_RECOVERED,
        params={"n": n, "scale_log2": scale_int.bit_length() - 1},
        diagnostics=diagnostics,
        recovered=found,
    )


_CROSS_PAIRS = ((0, 2), (0, 1), (1, 3), (2, 3))


def factor_from_roots(e_a1, roots):
    """Recover (p, q) with e_a1 = p^2*q from the four square roots.

    Cross-sums of roots are divisible by exactly one of the primes, so
    g = gcd(e_a1, V_i + V_j) is p, q, p^2 or p*q for some scanned pair,
    whatever the order of the roots. For each g with 1 < g < e_a1 the
    candidates are gcd(g, e_a1/g), then the exact square roots of g and
    of e_a1/g, so each one's square divides e_a1; the first p > 1 with
    1 < e_a1 // p^2 != p is returned.
    """
    if len(roots) != 4:
        raise ValueError("exactly four roots expected")
    for i, j in _CROSS_PAIRS:
        g = math.gcd(e_a1, roots[i] + roots[j])
        if 1 < g < e_a1:
            h = e_a1 // g
            exact_roots = (r for x in (g, h) if (r := math.isqrt(x)) * r == x)
            for p in (math.gcd(g, h), *exact_roots):
                q = e_a1 // (p * p)
                if p > 1 and 1 < q != p:
                    return p, q
    raise FactoringFailure("no root cross-sum shares a usable factor with the key")
