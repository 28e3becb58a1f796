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
ciphertexts the lattice attack recovers; `wide_e_a2_instance` builds a key
with the widest e_a2 that `keys._check_size` allows and an in-range
ciphertext, the slowest input of `attack --kind lattice`;
`oversized_d_instance` builds a key whose d is raised by a large multiple of
p*q, which decrypts but fails strict validation's d-range.
`reference_attack_basis` puts only the two key rows of the attack lattice
in closed form, the oracle of `attacks._attack_basis`, which puts row 2 in
closed form too: LLL must reduce both bases to the same rows. `reference_strong_lucas` runs
the strong Lucas test on the U/V/Q^k recurrences, the oracle of the
ring-form `numtheory._strong_lucas`. `reference_decrypt` is the
four-root decryption (both square roots, CRT combine, then the filters),
the oracle of `cipher.decrypt`, which lifts one root mod p to p^2.
`reference_factor_from_roots` and `_resolve_square_factor` are the
root-pair factoring as two functions, the second testing each candidate
by `divmod` and separate `> 1` checks, the oracle of the one-loop
`attacks.factor_from_roots`. `reference_validate_keypair` checks all 16
key rules, four of them implied by the others, the oracle of the
minimal rule set in `keys.validate_keypair`.
"""

import math
import random
from fractions import Fraction

from aabeta.attacks import (
    VERDICT_NOT_RECOVERED,
    VERDICT_RECOVERED,
    AttackReport,
    build_lattice,
    congruence_params,
)
from aabeta.cipher import encrypt_trace, sample_ephemerals
from aabeta.codec import EncodedMessage, capacity_bytes, encode
from aabeta.errors import FactoringFailure, InvalidCiphertext, ParameterViolation
from aabeta.keys import KeyPair, PrivateKey, PublicKey, ValidationReport, generate_keypair
from aabeta.numtheory import four_roots, is_probable_prime, jacobi, sqrt_mod_p_3mod4
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


def wide_e_a2_instance(n, seed=0):
    """(pub, ct): e_a1 of 3n bits, an odd e_a2 of 32n bits and C = U*e_a1 + V^2*e_a2 for an
    honest (U, V), so C is in range. No private key inverts it; the lattice attack needs none."""
    rng = random.Random(f"wide-e2:{n}:{seed}")
    e_a1 = rng.getrandbits(3 * n) | 1 << (3 * n - 1) | 1
    e_a2 = rng.getrandbits(32 * n) | 1 << (32 * n - 1) | 1
    pub = PublicKey(n, e_a1, e_a2)
    msg = encode(rng.randbytes(rng.randrange(capacity_bytes(n) + 1)), n)
    return pub, encrypt_trace(pub, msg, sample_ephemerals(n, rng)).ciphertext


def oversized_d_instance(n, bits, seed=0):
    """A seeded key pair with d raised by p*q times a random multiplier of `bits` bits, so d
    has about bits + 2n + 2 bits, none of them forced to zero. e_a2*d = 1 (mod p*q) still
    holds: the key passes relaxed validation and decrypts, and strict validation's d-range fails."""
    rng = random.Random(f"oversized-d:{n}:{seed}")
    kp = generate_keypair(n, rng)
    p, q, d = kp.private
    return KeyPair(kp.public, PrivateKey(p, q, d + p * q * (rng.getrandbits(bits) | 1 << bits - 1)))


def reference_attack_basis(pub, ct, scale):
    """build_lattice's rows with rows 0 and 1 in the closed form of lattice_attack."""
    rows = build_lattice(pub, ct, scale)
    g = math.gcd(pub.e_a1, pub.e_a2) or 1
    a, b = pub.e_a1 // g, pub.e_a2 // g
    norm = a * a + b * b
    if min(a, b) < 1 or a == b or (g * scale) ** 2 <= 2 * norm:
        return rows
    s = pow(a, -1, b)
    t = (1 - s * a) // b
    k = (2 * (s * b - t * a) + norm) // (2 * norm)
    return [[b, -a, 0], [s - k * b, t + k * a, g * scale], rows[2]]


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


_CROSS_PAIRS = ((0, 2), (0, 1), (1, 3), (2, 3))


def reference_factor_from_roots(e_a1, roots):
    """Recover (p, q) with e_a1 = p^2*q from the four square roots.

    Cross-sums of roots are divisible by exactly one of the primes, so
    gcd(e_a1, V_i + V_j) exposes a nontrivial divisor; the scan covers
    enough pairs to work on any ordering of the roots.
    """
    if len(roots) != 4:
        raise ValueError("exactly four roots expected")
    for i, j in _CROSS_PAIRS:
        g = math.gcd(e_a1, roots[i] + roots[j])
        if 1 < g < e_a1:
            resolved = _resolve_square_factor(e_a1, g)
            if resolved:
                return resolved
    raise FactoringFailure("no root cross-sum shares a usable factor with the key")


def _resolve_square_factor(e_a1, g):
    # g is a nontrivial divisor of e_a1 = p^2*q: one of p, q, p^2, p*q
    h = e_a1 // g
    candidates = []
    t = math.gcd(g, h)
    if t > 1:
        candidates.append(t)  # g is p or p*q
    r = math.isqrt(g)
    if r > 1 and r * r == g:
        candidates.append(r)  # g is p^2
    r = math.isqrt(h)
    if r > 1 and r * r == h:
        candidates.append(r)  # g is q, so h is p^2
    for p in candidates:
        rest, rem = divmod(e_a1, p * p)
        if rem == 0 and rest > 1 and rest != p:
            return p, rest
    return None


def reference_validate_keypair(kp, strict=True):
    """Check key-pair invariants, returning a report of all violations.

    Relaxed mode (strict=False) checks only algebraic consistency:
    e_a1 = p^2*q, e_a2*d = 1 (mod p*q), coprime public coefficients,
    p = q = 3 (mod 4) and coprime p and q. Strict mode adds primality
    and every range bound the generator guarantees.
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
    if math.gcd(e_a1, e_a2) != 1:
        bad.append("e1-e2-coprime: gcd(e_a1, e_a2) != 1")
    if p % 4 != 3:
        bad.append("p-mod4: p != 3 (mod 4)")
    if q % 4 != 3:
        bad.append("q-mod4: q != 3 (mod 4)")
    if math.gcd(p, q) != 1:
        bad.append("p-q-coprime: gcd(p, q) != 1")
    if strict:
        if not is_probable_prime(p):
            bad.append("p-prime: p is not prime")
        if not is_probable_prime(q):
            bad.append("q-prime: q is not prime")
        for tag, name, x, a, b, bounds in (
            ("p", "p", p, n, n + 1, "2^n, 2^(n+1)"),
            ("q", "q", q, n, n + 1, "2^n, 2^(n+1)"),
            ("e1", "e_a1", e_a1, 3 * n, 3 * n + 3, "2^(3n), 2^(3n+3)"),
            ("e2", "e_a2", e_a2, 3 * n + 4, 3 * n + 6, "2^(3n+4), 2^(3n+6)"),
            ("pq", "p*q", pq, 2 * n, 2 * n + 2, "2^(2n), 2^(2n+2)"),
        ):
            # 2^a < x < 2^b by bit lengths: no power of two is built from the file's n,
            # and the message names the bounds in n, which may be too long for decimal
            if not (x > 0 and (x - 1).bit_length() > a and x.bit_length() <= b):
                bad.append(f"{tag}-range: {name} not in ({bounds})")
        if d**9 <= e_a1**4:
            bad.append("d-floor: d not above e_a1^(4/9)")
        if not 1 < d < pq:
            bad.append("d-range: d not in (1, p*q)")
        if math.gcd(d, pq) != 1:
            bad.append("d-coprime: gcd(d, p*q) != 1")
    return ValidationReport(bad)
