"""Timing harness comparing the scheme against textbook RSA and Rabin.

Medians of per-operation wall-clock milliseconds over at least five
rounds. Every (scheme, n) row is built before anything is timed, then
each round times every row's keygen, encrypt and decrypt once: host
speed drifts by about 1.8x over spans longer than a row, and timing
rows back to back flattened the growth slope of encrypt time. A single
encryption is far cheaper than call overhead, so encrypt and decrypt
time batch kernels over pre-generated inputs seeded per row, with the
batch calibrated so one sample is long enough to time reliably. Runs
are single-threaded: concurrent invocation in one process is rejected.
"""

import csv
import io
import math
import random
import statistics
import threading
import time
from collections import namedtuple
from functools import partial

from . import cipher, codec, rabin
from .keys import generate_keypair

__all__ = [
    "BenchRow",
    "RsaKeyPair",
    "SCHEMES",
    "rsa_keygen",
    "rsa_encrypt",
    "run_bench",
    "emit_csv",
]

_MIN_SAMPLE_SECONDS = 0.005
_MAX_BATCH = 4096


BenchRow = namedtuple("BenchRow", "scheme n keygen_ms encrypt_ms decrypt_ms reps payload_bytes")
RsaKeyPair = namedtuple("RsaKeyPair", "modulus e d")


def rsa_keygen(n, rng):
    """Textbook RSA, e = 65537, on the first rabin.keygen(n - 1) pair with phi prime to e."""
    e = 65537
    while True:
        kp = rabin.keygen(n - 1, rng)
        phi = (kp.p - 1) * (kp.q - 1)
        if math.gcd(e, phi) == 1:
            return RsaKeyPair(kp.N, e, pow(e, -1, phi))


def rsa_encrypt(kp, m):
    if not 0 <= m < kp.modulus:
        raise ValueError("message must lie in [0, N)")
    return pow(m, kp.e, kp.modulus)


_running = threading.Lock()


def run_bench(schemes, n_list, reps=5, seed=0):
    """Benchmark the requested schemes at each n, returning BenchRows."""
    if reps < 5:
        raise ValueError("reps must be at least 5")
    unknown = set(schemes) - set(SCHEMES)
    if unknown:
        raise ValueError(f"unknown schemes: {sorted(unknown)}")
    if not _running.acquire(blocking=False):
        raise RuntimeError("a benchmark is already running in this process")
    try:
        rows = [_prepare_row(scheme, n, seed) for scheme in sorted(set(schemes)) for n in sorted(set(n_list))]
        # Job-major, so one job's rows are timed close together: all
        # encrypts, then all decrypts, then the slow keygens.
        order = [jobs[j] for j in (1, 2, 0) for *_, jobs in rows]
        for _ in range(reps):
            for run, ops, samples in order:
                t0 = time.perf_counter()
                run()
                samples.append((time.perf_counter() - t0) / ops * 1000.0)
        return [
            BenchRow(scheme, n, *(statistics.median(s) for *_, s in jobs), reps, payload_bytes)
            for scheme, n, payload_bytes, jobs in rows
        ]
    finally:
        _running.release()


def emit_csv(rows):
    """CSV text, one line per row, ordered by (scheme, n)."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(BenchRow._fields)
    for row in sorted(rows, key=lambda r: (r.scheme, r.n)):
        writer.writerow(f"{v:.6f}" if type(v) is float else v for v in row)
    return out.getvalue()


def _calibrate(make_one, kernel):
    """Grow the batch 4x, drawing only the new items, until one kernel run is long enough to time."""
    items = [make_one()]
    while True:
        t0 = time.perf_counter()
        kernel(items)
        if time.perf_counter() - t0 >= _MIN_SAMPLE_SECONDS or len(items) >= _MAX_BATCH:
            return items
        items += [make_one() for _ in range(3 * len(items))]


def _aabeta_ops(kp, n, payload_bytes, rng):
    pub = kp.public
    e_a1, e_a2 = pub.e_a1, pub.e_a2

    def draw():
        msg = codec.encode(rng.randbytes(payload_bytes), n)
        eph = cipher.sample_ephemerals(n, rng)
        return msg.m1, msg.m2, eph.k1, eph.k2

    def seal(item):
        m1, m2, k1, k2 = item
        msg = codec.EncodedMessage(m1, m2, n)
        return cipher.encrypt_trace(pub, msg, cipher.EphemeralPair(k1, k2)).ciphertext

    def enc_kernel(items):
        two_n = 1 << n
        sink = 0
        for m1, m2, k1, k2 in items:
            u = m1 * two_n + k1
            v = m2 * two_n + k2
            sink ^= u * e_a1 + v * v * e_a2
        return sink

    def dec_kernel(items):
        for ct in items:
            cipher.decrypt(kp, ct)

    return draw, seal, enc_kernel, dec_kernel


def _int_draw(payload_bytes, rng):
    return lambda: int.from_bytes(rng.randbytes(payload_bytes), "big")


def _rsa_ops(kp, n, payload_bytes, rng):
    modulus, e, d = kp.modulus, kp.e, kp.d

    def enc_kernel(items):
        for m in items:
            pow(m, e, modulus)

    def dec_kernel(items):
        for c in items:
            pow(c, d, modulus)

    return _int_draw(payload_bytes, rng), partial(rsa_encrypt, kp), enc_kernel, dec_kernel


def _rabin_ops(kp, n, payload_bytes, rng):
    modulus = kp.N

    def enc_kernel(items):
        for m in items:
            m * m % modulus

    def dec_kernel(items):
        for c in items:
            rabin.decrypt_all(kp, c)

    return _int_draw(payload_bytes, rng), partial(rabin.encrypt, modulus), enc_kernel, dec_kernel


# scheme -> (keygen(n, rng), payload_bytes(n), ops(kp, n, payload_bytes, rng)).
# ops returns (draw, seal, enc_kernel, dec_kernel): draw() makes one
# encryption input from the row's rng, seal(item) turns it into a
# decryption input, and each kernel runs over one batch of inputs.
_SCHEME_TABLE = {
    "aabeta": (generate_keypair, codec.capacity_bytes, _aabeta_ops),
    "rabin": (rabin.keygen, lambda n: (2 * n) // 8, _rabin_ops),
    "rsa": (rsa_keygen, lambda n: (2 * n - 2) // 8, _rsa_ops),
}
SCHEMES = tuple(_SCHEME_TABLE)


def _prepare_row(scheme, n, seed):
    """Build one row's key and batches; its jobs are (run, ops, samples) in BenchRow order."""
    rng = random.Random(f"{seed}:{scheme}:{n}")
    keygen, payload_size, ops = _SCHEME_TABLE[scheme]
    payload_bytes = payload_size(n)
    draw, seal, enc_kernel, dec_kernel = ops(keygen(n, rng), n, payload_bytes, rng)
    enc_items = _calibrate(draw, enc_kernel)
    dec_items = _calibrate(lambda: seal(draw()), dec_kernel)
    jobs = (
        (partial(keygen, n, rng), 1, []),
        (partial(enc_kernel, enc_items), len(enc_items), []),
        (partial(dec_kernel, dec_items), len(dec_items), []),
    )
    return scheme, n, payload_bytes, jobs
