import csv
import io
import random

import pytest

from aabeta.bench import (
    BenchRow,
    SCHEMES,
    emit_csv,
    rsa_encrypt,
    rsa_keygen,
    run_bench,
)
from aabeta.keys import generate_keypair
from aabeta.cipher import encrypt, sample_ephemerals
from aabeta.codec import capacity_bytes, encode

HEADER = "scheme,n,keygen_ms,encrypt_ms,decrypt_ms,reps,payload_bytes"


def test_rsa_round_trip_many():
    # the decrypt kernel is pow(c, d, modulus), no CRT shortcut
    rng = random.Random(1)
    kp = rsa_keygen(32, rng)
    for _ in range(100):
        m = rng.randrange(kp.modulus)
        assert pow(rsa_encrypt(kp, m), kp.d, kp.modulus) == m


def test_rsa_fixed_points_and_boundary():
    kp = rsa_keygen(24, random.Random(2))
    assert pow(rsa_encrypt(kp, 0), kp.d, kp.modulus) == 0
    assert pow(rsa_encrypt(kp, 1), kp.d, kp.modulus) == 1
    m = kp.modulus - 2
    assert pow(rsa_encrypt(kp, m), kp.d, kp.modulus) == m
    with pytest.raises(ValueError):
        rsa_encrypt(kp, kp.modulus)


def test_rsa_modulus_size():
    kp = rsa_keygen(32, random.Random(3))
    assert kp.modulus.bit_length() in (63, 64)
    assert kp.e == 65537


def test_run_bench_rows_and_csv():
    rows = run_bench(SCHEMES, [16], reps=5, seed=0)
    assert len(rows) == 3
    for row in rows:
        assert row.reps == 5
        assert row.keygen_ms > 0
        assert row.encrypt_ms > 0
        assert row.decrypt_ms > 0
    text = emit_csv(rows)
    lines = text.strip().splitlines()
    assert lines[0] == HEADER
    assert len(lines) == 4
    parsed = list(csv.reader(io.StringIO(text)))
    assert [p[0] for p in parsed[1:]] == ["aabeta", "rabin", "rsa"]
    assert all(p[1] == "16" for p in parsed[1:])


def test_run_bench_encrypt_time_grows():
    rows = run_bench(["aabeta"], [32, 256], reps=5, seed=1)
    by_n = {r.n: r for r in rows}
    assert by_n[32].encrypt_ms <= by_n[256].encrypt_ms


def test_run_bench_validates_arguments():
    with pytest.raises(ValueError):
        run_bench(["aabeta"], [16], reps=3)
    with pytest.raises(ValueError):
        run_bench(["nope"], [16], reps=5)


def test_run_bench_prepares_every_row_then_times_identical_rounds(monkeypatch):
    from aabeta import bench as bench_mod

    calls = []

    def keygen(n, rng):
        calls.append(("keygen", n))
        return n

    def ops(kp, n, payload_bytes, rng):
        def draw():
            calls.append(("draw", n))
            return n

        def seal(item):
            calls.append(("seal", n))
            return item

        def kernel(job):
            return lambda items: calls.append((job, n))

        return draw, seal, kernel("encrypt"), kernel("decrypt")

    monkeypatch.setitem(bench_mod._SCHEME_TABLE, "rabin", (keygen, lambda n: 1, ops))
    monkeypatch.setattr(bench_mod, "_MIN_SAMPLE_SECONDS", 0)
    n_list, reps = [8, 16, 24], 5
    rows = run_bench(["rabin"], n_list, reps=reps, seed=0)
    assert [(r.scheme, r.n, r.reps, r.payload_bytes) for r in rows] == [("rabin", n, reps, 1) for n in n_list]
    jobs = {(job, n) for n in n_list for job in ("keygen", "encrypt", "decrypt")}
    prepare, timed = calls[: -reps * len(jobs)], calls[-reps * len(jobs) :]
    # calibration stops at one item: one draw and one kernel run per batch
    prepared = ("keygen", "draw", "encrypt", "draw", "seal", "decrypt")
    assert sorted(prepare) == sorted((op, n) for n in n_list for op in prepared)
    first_round = timed[: len(jobs)]
    assert sorted(first_round) == sorted(jobs)
    assert timed == first_round * reps


def test_run_bench_rejects_concurrent_invocation():
    from aabeta import bench as bench_mod

    assert bench_mod._running.acquire(blocking=False)
    try:
        with pytest.raises(RuntimeError):
            run_bench(["rabin"], [8], reps=5)
    finally:
        bench_mod._running.release()


def test_emit_csv_empty_and_ordering():
    assert emit_csv([]).strip() == HEADER
    rows = [
        BenchRow("rsa", 16, 1.0, 2.0, 3.0, 5, 3),
        BenchRow("aabeta", 32, 1.0, 2.0, 3.0, 5, 15),
        BenchRow("aabeta", 16, 1.0, 2.0, 3.0, 5, 7),
    ]
    lines = emit_csv(rows).strip().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["aabeta", "aabeta", "rsa"]
    assert [l.split(",")[1] for l in lines[1:]] == ["16", "32", "16"]
    assert lines[1] == "aabeta,16,1.000000,2.000000,3.000000,5,7"


def test_public_key_size_ratio_structural():
    # public key is about 6n bits for a 4n-bit plaintext block (1 : 1.5)
    for n in (32, 64):
        kp = generate_keypair(n, random.Random(f"ratio:{n}"))
        bits = kp.public.e_a1.bit_length() + kp.public.e_a2.bit_length()
        assert 6 * n <= bits <= 6 * n + 9


def test_ciphertext_expansion_ratio_structural():
    # ciphertext is at most about 1.75x the 4n-bit plaintext block
    n = 64
    rng = random.Random("expansion")
    kp = generate_keypair(n, rng)
    for _ in range(20):
        msg = encode(rng.randbytes(capacity_bytes(n)), n)
        ct = encrypt(kp.public, msg, rng)
        assert ct.c.bit_length() / (4 * n) <= 1.80
