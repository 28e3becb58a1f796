"""Reference helpers that only the tests use.

`determinant` is the independent check on lattice bases (LLL keeps the
absolute determinant); `rational_lll` is the textbook LLL over exact
`Fraction` Gram-Schmidt data, the oracle that the integral
`attacks.lll_reduce` must match bit for bit; `linear_congruence_scan`
takes `math.isqrt` of every candidate, the oracle whose report the
residue-filtered `attacks.congruence_bruteforce` must match;
`two_step_solution` is the attack lab's recovery check as two steps, an
`isqrt` square test and then the (U, V) equation and message-pair test,
the oracle of the one-step `attacks._solution(pub, c, u, v_squared)`;
`parse_report_text` reads the `key: value` report that
`aabeta.cli.report_to_text` writes; `jacobi_decrypt_extrabits` computes
each root's Jacobi symbol, the oracle of `rabin.decrypt_extrabits`,
which reads it from the root's position;
`ciphertext_range` restates the [C_lo, C_hi] bounds that `decrypt`
checks before any modexp; `unmasked_roots` recomputes its unmasked
value and four roots from the public primitives, and `accepted_roots`
restates its window and divisibility filter over those roots.
`oversized_e_a2_instances` builds weak keys that still decrypt and whose
ciphertexts the lattice attack recovers. `reference_strong_lucas` runs
the strong Lucas test on the U/V/Q^k recurrences, the oracle of the
ring-form `numtheory._strong_lucas`. `reference_decrypt` is the
four-root decryption (both square roots, CRT combine, then the filters),
the oracle of `cipher.decrypt`, which lifts one root mod p to p^2.
"""

import math
import random
from fractions import Fraction

from aabeta.attacks import (
    VERDICT_NOT_RECOVERED,
    VERDICT_RECOVERED,
    AttackReport,
    congruence_params,
)
from aabeta.cipher import encrypt_trace, sample_ephemerals
from aabeta.codec import EncodedMessage, capacity_bytes, encode
from aabeta.errors import InvalidCiphertext, ParameterViolation
from aabeta.keys import KeyPair, PublicKey, generate_keypair
from aabeta.numtheory import four_roots, jacobi, sqrt_mod_p_3mod4
from aabeta.rabin import RabinKeyPair, decrypt_all


def determinant(rows):
    """Exact integer determinant (fraction-free Gaussian elimination)."""
    a = [list(map(int, r)) for r in rows]
    size = len(a)
    if any(len(r) != size for r in a):
        raise ValueError("square matrix required")
    sign = 1
    prev = 1
    for k in range(size - 1):
        if a[k][k] == 0:
            for i in range(k + 1, size):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _gso(b):
    """Exact Gram-Schmidt data: (mu, squared norms of the b*_i)."""
    dim = len(b)
    bstar = []
    mu = [[Fraction(0)] * dim for _ in range(dim)]
    norms = []
    for i in range(dim):
        vec = [Fraction(x) for x in b[i]]
        for j in range(i):
            m = sum(Fraction(x) * y for x, y in zip(b[i], bstar[j])) / norms[j]
            mu[i][j] = m
            vec = [x - m * y for x, y in zip(vec, bstar[j])]
        norm = sum(x * x for x in vec)
        if norm == 0:
            raise ValueError("basis rows are linearly dependent")
        bstar.append(vec)
        norms.append(norm)
    return mu, norms


# Lovasz condition parameter of rational_lll.
_LLL_DELTA = Fraction(3, 4)


def rational_lll(basis):
    """Lattice reduction with exact rational Gram-Schmidt arithmetic.

    Output spans the same lattice, is size-reduced (|mu_ij| <= 1/2) and
    satisfies the Lovasz condition with delta = 3/4. The Gram-Schmidt
    data is recomputed from scratch after every swap.
    """
    b = [[int(x) for x in row] for row in basis]
    dim = len(b)
    if any(len(row) != len(b[0]) for row in b):
        raise ValueError("rows must have equal length")
    mu, norms = _gso(b)
    half = Fraction(1, 2)
    k = 1
    while k < dim:
        for j in range(k - 1, -1, -1):
            m = mu[k][j]
            if m > half or m < -half:
                r = math.floor(m + half)
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                # size reduction leaves every b*_i fixed; update mu row k
                for jj in range(j):
                    mu[k][jj] -= r * mu[j][jj]
                mu[k][j] = m - r
        if norms[k] >= (_LLL_DELTA - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = _gso(b)
            k = max(k - 1, 1)
    return [row[:] for row in b]


def linear_congruence_scan(pub, ct, j_budget):
    """Scan the V-window of the parametric family for a perfect square.

    Walks j over the interval where b - e_a1*j can be V^2 for V inside
    its honest range, up to j_budget candidates. Recovers (U, V) -- and
    hence the message pair -- iff the scan reaches the right j.
    """
    par = congruence_params(pub, ct)
    n, e_a1, e_a2, c = pub.n, pub.e_a1, pub.e_a2, ct.c
    v_lo = (1 << (2 * n - 2)) + 1
    v_hi = (1 << (2 * n - 1)) - 1
    s_min, s_max = v_lo * v_lo, v_hi * v_hi
    j_lo = -((s_max - par.b) // e_a1)  # ceil((b - s_max) / e_a1)
    j_hi = (par.b - s_min) // e_a1
    window = max(0, j_hi - j_lo + 1)
    found = None
    scanned = 0
    s = par.b - e_a1 * j_lo
    j = j_lo
    while j <= j_hi and scanned < j_budget:
        scanned += 1
        r = math.isqrt(s)
        if r * r == s and v_lo <= r <= v_hi:
            u = par.a + e_a2 * j
            if u * e_a1 + s * e_a2 == c:
                found = {"u": u, "v": r, "m1": u >> n, "m2": r >> n}
                break
        s -= e_a1
        j += 1
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


def two_step_solution(pub, c, u, v_squared):
    """Report fields of (U, V) if V^2 is a square, U*e_a1 + V^2*e_a2 = C and
    (U >> n, V >> n) is a message pair, else None."""
    if v_squared < 0:  # math.isqrt rejects it
        return None
    v = math.isqrt(v_squared)
    if v * v != v_squared:
        return None
    if u * pub.e_a1 + v * v * pub.e_a2 != c:
        return None
    try:
        msg = EncodedMessage(u >> pub.n, v >> pub.n, pub.n)
    except ValueError:
        return None
    return {"u": u, "v": v, "m1": msg.m1, "m2": msg.m2}


def jacobi_decrypt_extrabits(kp, c, parity_bit, jacobi_bit):
    """The single root of c whose parity and (r|N) == 1 match the two bits."""
    matches = [
        r
        for r in dict.fromkeys(decrypt_all(kp, c))
        if (r & 1) == parity_bit and (1 if jacobi(r, kp.N) == 1 else 0) == jacobi_bit
    ]
    if len(matches) != 1:
        raise InvalidCiphertext(f"{len(matches)} roots match the extra bits")
    return matches[0]


def parse_report_text(text):
    """Parse the `key: value` report format back to a flat string dict."""
    out = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition(": ")
        if not sep:
            raise ValueError(f"malformed report line: {raw!r}")
        out[key] = value
    return out


def ciphertext_range(pub):
    """[C_lo, C_hi]: C = U*e_a1 + V^2*e_a2 at the extremes that decryption accepts.

    U = m1*2^n + k1 with m1 in (2^(3n), 2^(3n+1)) lies in
    [(2^(3n)+1)*2^n, 2^(4n+1)-1]; V lies in (2^(2n-2), 2^(2n-1)).
    """
    n, e_a1, e_a2 = pub.n, pub.e_a1, pub.e_a2
    c_lo = ((1 << 3 * n) + 1) * (1 << n) * e_a1 + ((1 << 2 * n - 2) + 1) ** 2 * e_a2
    c_hi = ((1 << 4 * n + 1) - 1) * e_a1 + ((1 << 2 * n - 1) - 1) ** 2 * e_a2
    return c_lo, c_hi


def unmasked_roots(kp, c):
    """W = C*d mod p*q and its four square roots, by the primitives decrypt uses."""
    p, q = kp.private.p, kp.private.q
    w = c * kp.private.d % (p * q)
    return w, four_roots(sqrt_mod_p_3mod4(w % p, p), sqrt_mod_p_3mod4(w % q, q), p, q)


def accepted_roots(pub, c, roots):
    """(U, V) for each root V in (2^(2n-2), 2^(2n-1)) where C - V^2*e_a2 = U*e_a1 >= 0."""
    lo, hi = 1 << 2 * pub.n - 2, 1 << 2 * pub.n - 1
    out = []
    for v in roots:
        u, rem = divmod(c - v * v * pub.e_a2, pub.e_a1)
        if lo < v < hi and u >= 0 and rem == 0:
            out.append((u, v))
    return out


def oversized_e_a2_instances(n):
    """20 seeded keys with e_a2 raised by 2^64*pq, each with a ciphertext and its message.

    e_a2 + 2^64*pq still inverts d mod pq, so each key decrypts.
    """
    for seed in range(20):
        rng = random.Random(f"weak-e2:{n}:{seed}")
        kp = generate_keypair(n, rng)
        pub = PublicKey(n, kp.public.e_a1, kp.public.e_a2 + (kp.private.pq << 64))
        msg = encode(rng.randbytes(rng.randrange(capacity_bytes(n) + 1)), n)
        ct = encrypt_trace(pub, msg, sample_ephemerals(n, rng)).ciphertext
        yield KeyPair(pub, kp.private), msg, ct


def reference_strong_lucas(n):
    """Strong Lucas test on the U_k, V_k, Q^k recurrences, Selfridge's D, P = 1.

    n passes when U_d or some V_(d*2^r), r < s, is 0 mod n, where
    n + 1 = d*2^s. For odd n; a square or (D|n) = 0 is composite.
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


def reference_decrypt(kp, ct):
    """Decryption through all four square roots of W = C*d mod p*q.

    Same range check and filters as `cipher.decrypt`: the roots come from
    rabin.decrypt_all, and exactly one may pass the V window and divide the
    ciphertext equation. Its errors match decrypt's only on keys that pass
    relaxed validation: on others RabinKeyPair raises ValueError.
    """
    pub, priv = kp.public, kp.private
    n = pub.n
    c = ct.c
    v_lo = 1 << (2 * n - 2)
    v_hi = 1 << (2 * n - 1)
    c_lo = (((1 << 3 * n) + 1) << n) * pub.e_a1 + (v_lo + 1) ** 2 * pub.e_a2
    c_hi = ((1 << 4 * n + 1) - 1) * pub.e_a1 + (v_hi - 1) ** 2 * pub.e_a2
    if not c_lo <= c <= c_hi:
        raise InvalidCiphertext("ciphertext outside the range of the public key")
    pq = priv.pq
    roots = decrypt_all(RabinKeyPair(pq, priv.p, priv.q), c * priv.d % pq)
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
