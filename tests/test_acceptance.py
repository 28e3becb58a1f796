"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as
they pass. Every criterion carries a wall-clock budget which is
asserted alongside the functional checks.
"""

import math
import random
import time
from fractions import Fraction

from aabeta.attacks import (
    VERDICT_INFEASIBLE,
    VERDICT_NOT_RECOVERED,
    build_lattice,
    congruence_params,
    coppersmith_feasibility,
    factor_from_roots,
    lattice_attack,
    lll_reduce,
    preset_scale,
)
from aabeta.bench import run_bench
from aabeta.cipher import decrypt, encrypt_trace, sample_ephemerals
from aabeta.codec import capacity_bytes, encode
from aabeta.keys import generate_keypair, validate_keypair
from aabeta.numtheory import four_roots, sqrt_mod_p_3mod4
from aabeta.rabin import redundancy_experiment

import vectors
from reference import accepted_roots, determinant, unmasked_roots


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name}: {elapsed:.1f}s exceeded budget {self.seconds}s"
            )
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s)")
        return False


def test_criterion_1_reference_worked_example_bit_exact():
    with Budget("1 (reference worked example)", 1.0):
        enc = encrypt_trace(
            vectors.public_key(), vectors.message(), vectors.ephemerals()
        )
        assert enc.u == vectors.U16
        assert enc.v == vectors.V16
        assert enc.ciphertext.c == vectors.C16
        kp = vectors.keypair()
        w, roots = unmasked_roots(kp, enc.ciphertext.c)
        assert w == vectors.W16
        assert roots == vectors.ROOTS16
        # only the third root yields an integer
        accepted = accepted_roots(kp.public, enc.ciphertext.c, roots)
        assert accepted == [(vectors.U16, vectors.ROOTS16[2])]
        dec = decrypt(kp, enc.ciphertext)
        assert dec.m1 == vectors.M1_16
        assert dec.m2 == vectors.M2_16


def test_criterion_2_uniqueness_of_accepted_candidate():
    with Budget("2 (uniqueness over 400 round-trips)", 30.0):
        trials = 0
        for n in (8, 16, 32, 64):
            rng = random.Random(f"acc2:{n}")
            cap = capacity_bytes(n)
            for k in range(10):
                kp = generate_keypair(n, rng)
                for _ in range(10):
                    msg = encode(rng.randbytes(rng.randrange(cap + 1)), n)
                    enc = encrypt_trace(kp.public, msg, sample_ephemerals(n, rng))
                    # decrypt returns only when exactly one candidate is accepted
                    assert decrypt(kp, enc.ciphertext) == msg, (n, k)
                    trials += 1
        assert trials == 400


def test_criterion_3_factoring_equivalence():
    with Budget("3 (factoring from roots)", 10.0):
        for n in (8, 16, 32):
            rng = random.Random(f"roots:0:{n}")
            for i in range(100):
                kp = generate_keypair(n, rng)
                p, q = kp.private.p, kp.private.q
                pq = p * q
                while True:
                    v = rng.randrange(2, pq)
                    w = v * v % pq
                    x_p = sqrt_mod_p_3mod4(w % p, p)
                    x_q = sqrt_mod_p_3mod4(w % q, q)
                    if x_p and x_q:
                        break
                roots = four_roots(x_p, x_q, p, q)
                assert factor_from_roots(kp.public.e_a1, list(roots)) == (p, q), (n, i)
                assert math.gcd(kp.public.e_a1, roots[0] + roots[2]) == p, (n, i)


def test_criterion_4_euclidean_division_inequalities():
    with Budget("4 (floor-division probe, 10^4 instances)", 30.0):
        rng = random.Random("acc4")
        cap = capacity_bytes(16)
        count = 0
        for _ in range(100):
            kp = generate_keypair(16, rng)
            e_a1, e_a2 = kp.public.e_a1, kp.public.e_a2
            for _ in range(100):
                msg = encode(rng.randbytes(rng.randrange(cap + 1)), 16)
                enc = encrypt_trace(kp.public, msg, sample_ephemerals(16, rng))
                c = enc.ciphertext.c
                assert c // e_a1 != enc.u
                assert c // e_a2 != enc.v * enc.v
                count += 1
        assert count == 10_000


def test_criterion_5_congruence_parametric_structure():
    with Budget("5 (congruence parametric identity)", 30.0):
        instances = [(vectors.keypair(), None)]
        for n in (8, 16, 32, 64):
            rng = random.Random(f"acc5:{n}")
            cap = capacity_bytes(n)
            for _ in range(15):
                kp = generate_keypair(n, rng)
                msg = encode(rng.randbytes(rng.randrange(cap + 1)), n)
                enc = encrypt_trace(kp.public, msg, sample_ephemerals(n, rng))
                instances.append((kp, enc))
        # the known-answer instance, replayed through the same checks
        ref_enc = encrypt_trace(
            vectors.public_key(), vectors.message(), vectors.ephemerals()
        )
        instances[0] = (vectors.keypair(), ref_enc)
        for kp, enc in instances:
            pub = kp.public
            n = pub.n
            par = congruence_params(pub, enc.ciphertext)
            j, rem = divmod(enc.u - par.a, pub.e_a2)
            assert rem == 0
            assert par.a + pub.e_a2 * j == enc.u
            assert par.b - pub.e_a1 * j == enc.v * enc.v
            assert par.window_u == 1 << (n - 6)
            assert par.window_v == 3 << (n - 7)


def test_criterion_6_lattice_attack_and_lll_postconditions():
    with Budget("6 (lattice attack + LLL postconditions)", 60.0):
        pub, ct = vectors.public_key(), vectors.ciphertext()
        scale = preset_scale(16)
        basis = build_lattice(pub, ct, scale)

        # membership identity: (U, V^2, 1) maps into the zero-tail plane
        target = (vectors.U16, vectors.V16_SQUARED, 1)
        image = [sum(target[i] * basis[i][j] for i in range(3)) for j in range(3)]
        assert image == [vectors.U16, vectors.V16_SQUARED, 0]

        reduced = lll_reduce(basis)
        assert sum(1 for r in reduced if r[2] == 0) == 2
        assert sum(1 for r in reduced if abs(r[2]) == scale) == 1

        report = lattice_attack(
            pub, ct, scale=scale, u_true=vectors.U16, v_true=vectors.V16
        )
        assert report.verdict == VERDICT_NOT_RECOVERED
        assert report.diagnostics["solution_in_lattice"] is True

        rng = random.Random("acc6")
        delta = Fraction(3, 4)
        half = Fraction(1, 2)
        checked = 0
        while checked < 500:
            rows = [
                [rng.randrange(-(1 << 128), 1 << 128) for _ in range(3)]
                for _ in range(3)
            ]
            det_before = determinant(rows)
            if det_before == 0:
                continue
            red = lll_reduce(rows)
            # independent Gram-Schmidt over exact rationals
            bstar, mu = [], []
            for i in range(3):
                vec = [Fraction(x) for x in red[i]]
                coeffs = []
                for j in range(i):
                    den = sum(y * y for y in bstar[j])
                    m = sum(Fraction(x) * y for x, y in zip(red[i], bstar[j])) / den
                    coeffs.append(m)
                    vec = [a - m * b for a, b in zip(vec, bstar[j])]
                bstar.append(vec)
                mu.append(coeffs)
            for coeffs in mu:
                assert all(abs(m) <= half for m in coeffs)
            norms = [sum(x * x for x in vec) for vec in bstar]
            for k in (1, 2):
                assert delta * norms[k - 1] <= norms[k] + mu[k][k - 1] ** 2 * norms[k - 1]
            assert abs(determinant(red)) == abs(det_before)
            checked += 1


def test_criterion_7_redundancy_ambiguity_rate():
    with Budget("7 (redundancy ambiguity rate)", 60.0):
        stats = redundancy_experiment(16, 8, 20_000, random.Random("acc7"))
        low, high = 2**-7 / 3, 3 * 2**-7
        assert low <= stats.rate <= high, stats.rate


def test_criterion_8_size_ratios_and_encryption_growth():
    with Budget("8 (size ratios + growth trend)", 300.0):
        # structural size ratios
        for n in (64, 128):
            rng = random.Random(f"acc8:{n}")
            kp = generate_keypair(n, rng)
            key_bits = kp.public.e_a1.bit_length() + kp.public.e_a2.bit_length()
            assert 6 * n <= key_bits <= 6 * n + 9
            for _ in range(10):
                msg = encode(rng.randbytes(capacity_bytes(n)), n)
                enc = encrypt_trace(kp.public, msg, sample_ephemerals(n, rng))
                assert enc.ciphertext.c.bit_length() / (4 * n) <= 1.80
        # growth trend of encryption time
        rows = run_bench(["aabeta"], [128, 256, 512, 1024], reps=5, seed=0)
        times = [row.encrypt_ms for row in sorted(rows, key=lambda r: r.n)]
        assert times == sorted(times), times
        xs = [math.log(row.n) for row in rows]
        ys = [math.log(row.encrypt_ms) for row in rows]
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
            (x - xbar) ** 2 for x in xs
        )
        assert 1.5 <= slope <= 2.6, slope


def test_criterion_9_small_root_bound_checks():
    with Budget("9 (small-root bound checks)", 5.0):
        for n in (16, 32):
            rng = random.Random(f"acc9:{n}")
            kp = generate_keypair(n, rng)
            assert validate_keypair(kp, strict=True).valid
            report = coppersmith_feasibility(kp.public, d=kp.private.d)
            assert report.verdict == VERDICT_INFEASIBLE
            assert not report.diagnostics["v_attack_feasible"]
            assert not report.diagnostics["d_attack_feasible"]
        # deliberately weakened key: d below the generator's floor
        rng = random.Random("acc9:weak")
        kp = generate_keypair(16, rng)
        pq = kp.private.pq
        while True:
            d = rng.randrange(2, 1 << 12)
            if math.gcd(d, pq) == 1:
                break
        assert d**9 <= kp.public.e_a1**4
        weak = coppersmith_feasibility(kp.public, d=d)
        assert weak.diagnostics["d_attack_feasible"]
        assert weak.verdict != VERDICT_INFEASIBLE
