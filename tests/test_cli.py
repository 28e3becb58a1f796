import errno
import functools
import hashlib
import itertools
import math
import os
import random
import re
import resource
import string
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aabeta
import aabeta.bench  # the bench command imports it only when run
from aabeta import rabin
from aabeta.attacks import AttackReport, euclid_division_check
from aabeta.cipher import (
    Ciphertext,
    encrypt_trace,
    format_ciphertext,
    parse_ciphertext,
    sample_ephemerals,
)
from aabeta.cli import _ATTACK_KINDS, _MAX_N, build_parser, main, report_to_text
from aabeta.codec import encode
from aabeta.errors import GenerationFailure
from aabeta.keys import (
    KeyPair,
    PrivateKey,
    PublicKey,
    format_fields,
    format_private_key,
    format_public_key,
    generate_keypair,
    parse_fields,
    parse_private_key,
    parse_public_key,
    parse_uint,
)

import vectors
from reference import (
    ciphertext_range,
    oversized_e_a2_instances,
    parse_report_text,
    unmasked_roots,
)


def run(*argv):
    return main(list(argv))


@pytest.fixture
def keys16(tmp_path):
    pub = tmp_path / "pub.txt"
    priv = tmp_path / "priv.txt"
    assert run("keygen", "--n", "16", "--seed", "1", "--out-pub", str(pub),
               "--out-priv", str(priv)) == 0
    return pub, priv


@pytest.fixture
def reference_keys(tmp_path):
    pub = tmp_path / "ref_pub.txt"
    priv = tmp_path / "ref_priv.txt"
    pub.write_text(
        f"n = 16\neA1 = {vectors.E_A1_16}\neA2 = {vectors.E_A2_16}\n",
        encoding="utf-8",
    )
    priv.write_text(
        f"n = 16\np = {vectors.P16}\nq = {vectors.Q16}\nd = {vectors.D16}\n",
        encoding="utf-8",
    )
    return pub, priv


def test_keygen_deterministic_byte_identical(tmp_path):
    files = []
    for tag in ("a", "b"):
        pub = tmp_path / f"pub-{tag}"
        priv = tmp_path / f"priv-{tag}"
        assert run("keygen", "--n", "16", "--seed", "1",
                   "--out-pub", str(pub), "--out-priv", str(priv)) == 0
        files.append((pub.read_bytes(), priv.read_bytes()))
    assert files[0] == files[1]


def test_keygen_rejects_small_n(tmp_path):
    assert run("keygen", "--n", "4", "--out-pub", str(tmp_path / "p"),
               "--out-priv", str(tmp_path / "s")) == 2


def test_generated_keys_validate_strict(keys16):
    pub, priv = keys16
    assert run("validate", "--pub", str(pub), "--priv", str(priv)) == 0


def test_reference_keys_validate_relaxed_only(reference_keys, capsys):
    pub, priv = reference_keys
    assert run("validate", "--pub", str(pub), "--priv", str(priv)) == 4
    assert "p-range" in capsys.readouterr().err
    assert run("validate", "--pub", str(pub), "--priv", str(priv), "--relaxed") == 0


def test_encrypt_decrypt_round_trip(keys16, tmp_path):
    pub, priv = keys16
    payload = tmp_path / "payload.bin"
    ct = tmp_path / "ct.txt"
    out = tmp_path / "out.bin"
    payload.write_bytes(b"seven!!")  # exactly capacity for n=16
    assert run("encrypt", "--pub", str(pub), "--in", str(payload),
               "--out", str(ct), "--seed", "9") == 0
    assert run("decrypt", "--pub", str(pub), "--priv", str(priv),
               "--in", str(ct), "--out", str(out)) == 0
    assert out.read_bytes() == b"seven!!"


def test_encrypt_oversize_payload(keys16, tmp_path, capsys):
    pub, _ = keys16
    payload = tmp_path / "big.bin"
    payload.write_bytes(b"x" * 8)
    assert run("encrypt", "--pub", str(pub), "--in", str(payload),
               "--out", str(tmp_path / "ct")) == 2
    assert "capacity" in capsys.readouterr().err


def test_encrypt_deterministic_under_seed(keys16, tmp_path):
    pub, _ = keys16
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"abc")
    cts = []
    for tag in ("1", "2"):
        ct = tmp_path / f"ct-{tag}"
        assert run("encrypt", "--pub", str(pub), "--in", str(payload),
                   "--out", str(ct), "--seed", "4") == 0
        cts.append(ct.read_text())
    assert cts[0] == cts[1]


def _known_answer_record(path, **overrides):
    fields = {"m1": vectors.M1_16, "m2": vectors.M2_16, "k1": vectors.K1_16,
              "k2": vectors.K2_16, **overrides}
    path.write_text("".join(f"{name} = {value}\n" for name, value in fields.items()
                            if value is not None))
    return path


def test_only_unseeded_commands_draw_from_the_os(keys16, tmp_path, monkeypatch, capsys):
    # 624 outputs of a Mersenne Twister give away its state, so keys and
    # session values drawn without --seed come from random.SystemRandom
    draws = []

    class SpyRandom(random.SystemRandom):
        def getrandbits(self, k):
            draws.append(k)
            return super().getrandbits(k)

    monkeypatch.setattr(random, "SystemRandom", SpyRandom)
    pub, _ = keys16
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"abc")
    ka = _known_answer_record(tmp_path / "ka.txt")
    out = str(tmp_path / "out")
    new_pub, new_priv = str(tmp_path / "pub2"), str(tmp_path / "priv2")
    outs = ("--out-pub", new_pub, "--out-priv", new_priv)
    unseeded = [
        ("keygen", "--n", "16", *outs),
        ("encrypt", "--pub", str(pub), "--in", str(payload), "--out", out),
        ("rabin", "keygen", "--n", "16", *outs),
    ]
    seeded = [
        ("keygen", "--n", "16", "--seed", "1", *outs),
        ("encrypt", "--pub", str(pub), "--in", str(payload), "--out", out, "--seed", "4"),
        ("encrypt", "--pub", str(pub), "--insecure-known-answer", str(ka), "--out", out),
        ("rabin", "keygen", "--n", "16", "--seed", "1", *outs),
        ("rabin", "ambiguity", "--trials", "50"),  # seed 0 by default
        ("bench", "--schemes", "rabin", "--n-list", "16"),  # seed 0 by default
    ]
    for argv in unseeded + seeded:
        draws.clear()
        assert run(*argv) == 0
        assert bool(draws) == (argv in unseeded), argv
    assert run("keygen", "--n", "16", *outs) == 0
    assert run("validate", "--pub", new_pub, "--priv", new_priv) == 0
    assert capsys.readouterr().out.endswith("valid (strict)\n")


def test_reference_vector_via_fixed_ephemerals(reference_keys, tmp_path):
    pub, _ = reference_keys
    ct = tmp_path / "ct.txt"
    ka = _known_answer_record(tmp_path / "ka.txt")
    assert run("encrypt", "--pub", str(pub), "--out", str(ct),
               "--insecure-known-answer", str(ka)) == 0
    assert ct.read_text().strip() == hex(vectors.C16)


def test_n2048_known_answer_vector(tmp_path):
    # the largest size README uses: strict validation, the known-answer
    # encryption and decryption, all through the CLI
    pub, priv = tmp_path / "pub.txt", tmp_path / "priv.txt"
    pub.write_text(f"n = 2048\neA1 = {vectors.E_A1_2048:#x}\neA2 = {vectors.E_A2_2048:#x}\n")
    priv.write_text(f"n = 2048\np = {vectors.P2048:#x}\nq = {vectors.Q2048:#x}\n"
                    f"d = {vectors.D2048:#x}\n")
    assert run("validate", "--pub", str(pub), "--priv", str(priv)) == 0
    ka = tmp_path / "ka.txt"
    ka.write_text(f"m1 = {vectors.M1_2048:#x}\nm2 = {vectors.M2_2048:#x}\n"
                  f"k1 = {vectors.K1_2048:#x}\nk2 = {vectors.K2_2048:#x}\n")
    ct, out = tmp_path / "ct.txt", tmp_path / "out.bin"
    assert run("encrypt", "--pub", str(pub), "--out", str(ct),
               "--insecure-known-answer", str(ka)) == 0
    assert ct.read_text() == f"{vectors.C2048:#x}\n"
    assert run("decrypt", "--pub", str(pub), "--priv", str(priv),
               "--in", str(ct), "--out", str(out)) == 0
    assert out.read_bytes() == vectors.PAYLOAD_2048


def test_fixed_ephemerals_require_gate(reference_keys, tmp_path):
    # the record is the only way in: the old flags, --in mixed with the record,
    # and neither of the two all stop in argparse
    pub, _ = reference_keys
    payload = tmp_path / "p.bin"
    payload.write_bytes(b"a")
    ka = _known_answer_record(tmp_path / "ka.txt")
    for options in (
        ("--in", payload, "--insecure-fixed-ephemerals"),
        ("--in", payload, "--k1", "54433", "--k2", "33079"),
        ("--in", payload, "--raw-m1", "544644664056570", "--raw-m2", "21777"),
        ("--in", payload, "--insecure-known-answer", ka),
        (),
    ):
        with pytest.raises(SystemExit) as exc:
            run("encrypt", "--pub", str(pub), "--out", str(tmp_path / "ct"), *map(str, options))
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "overrides, reason",
    [
        ({"k2": None}, "missing fields"),
        ({"u": 5}, "unknown field"),
        ({"m1": 1 << 48}, "m1 outside"),
        ({"k1": 1 << 15}, "session values outside"),
    ],
    ids=["missing-k2", "extra-field", "m1-2^48", "k1-2^15"],
)
def test_known_answer_record_rejects_bad_fields(reference_keys, tmp_path, capsys,
                                                overrides, reason):
    pub, _ = reference_keys
    ka = _known_answer_record(tmp_path / "ka.txt", **overrides)
    assert run("encrypt", "--pub", str(pub), "--out", str(tmp_path / "ct"),
               "--insecure-known-answer", str(ka)) == 2
    assert reason in capsys.readouterr().err


def test_decrypt_corrupted_ciphertext(keys16, tmp_path):
    pub, priv = keys16
    payload = tmp_path / "p.bin"
    ct = tmp_path / "ct.txt"
    payload.write_bytes(b"abc")
    assert run("encrypt", "--pub", str(pub), "--in", str(payload),
               "--out", str(ct), "--seed", "2") == 0
    ct.write_text(f"{int(ct.read_text(), 16) + 1:#x}\n")
    assert run("decrypt", "--pub", str(pub), "--priv", str(priv),
               "--in", str(ct), "--out", str(tmp_path / "o")) == 4


def test_decrypt_out_of_range_ciphertext(keys16, tmp_path):
    # C_hi + 1 (one past the largest C the public key allows) and a
    # 10^6-bit C both exit with the invalid-ciphertext code
    pub, priv = keys16
    _, c_hi = ciphertext_range(parse_public_key(pub.read_text()))
    ct = tmp_path / "ct.txt"
    for c in (c_hi + 1, 1 << 10**6):
        ct.write_text(f"{c:#x}\n")
        assert run("decrypt", "--pub", str(pub), "--priv", str(priv),
                   "--in", str(ct), "--out", str(tmp_path / "o")) == 4


def test_missing_input_file_is_io_error(keys16, tmp_path):
    pub, priv = keys16
    assert run("decrypt", "--pub", str(pub), "--priv", str(priv),
               "--in", str(tmp_path / "absent"), "--out", str(tmp_path / "o")) == 5


def test_unknown_flag_exits_2(keys16, tmp_path):
    pub, _ = keys16
    with pytest.raises(SystemExit) as exc:
        run("encrypt", "--pub", str(pub), "--nope", "x")
    assert exc.value.code == 2


def test_attack_euclid_reference(reference_keys, tmp_path):
    pub, _ = reference_keys
    ct = tmp_path / "ct.txt"
    ct.write_text(f"{vectors.C16}\n")
    ka = tmp_path / "ka.txt"
    ka.write_text(f"u = {vectors.U16}\nv = {vectors.V16}\n")
    report_path = tmp_path / "report.txt"
    assert run("attack", "--kind", "euclid", "--pub", str(pub), "--ct", str(ct),
               "--known-answer", str(ka), "--report", str(report_path)) == 0
    report = parse_report_text(report_path.read_text())
    assert report["verdict"] == "not-recovered"


def test_attack_lattice_reference(reference_keys, tmp_path):
    pub, _ = reference_keys
    ct = tmp_path / "ct.txt"
    ct.write_text(f"{vectors.C16}\n")
    report_path = tmp_path / "report.txt"
    assert run("attack", "--kind", "lattice", "--pub", str(pub), "--ct", str(ct),
               "--report", str(report_path)) == 0
    report = parse_report_text(report_path.read_text())
    assert report["verdict"] == "not-recovered"
    assert report["param.scale_log2"] == hex(vectors.C16.bit_length() + 2) == "0x74"
    assert float(report["diag.sigma_log2"]) == pytest.approx(75.32, abs=0.01)
    assert "diag.row_norms_log2" in report
    assert report["diag.zero_scale_rows"] == "0x2"
    assert report["diag.full_scale_rows"] == "0x1"


def test_attack_lattice_default_scale_recovers_oversized_e_a2(tmp_path, capsys):
    weak, msg, ct = next(oversized_e_a2_instances(16))
    pub, ct_path = tmp_path / "pub.txt", tmp_path / "ct.txt"
    pub.write_text(format_public_key(weak.public))
    ct_path.write_text(format_ciphertext(ct))
    assert run("attack", "--kind", "lattice", "--pub", str(pub), "--ct", str(ct_path)) == 0
    report = parse_report_text(capsys.readouterr().out)
    assert report["verdict"] == "recovered"
    assert report["recovered.m1"] == hex(msg.m1)
    assert report["recovered.m2"] == hex(msg.m2)
    assert report["param.scale_log2"] == hex(ct.c.bit_length() + 2)


@pytest.mark.parametrize("scale", ["2^99999999"])
def test_attack_lattice_scale_above_cap_exits_2(reference_keys, tmp_path, scale):
    # --T and its 2^(32n) cap are gone: the lattice attack always runs at
    # 2^(bitlen C + 2), and --T is an unrecognized argument
    pub, _ = reference_keys
    ct = tmp_path / "ct.txt"
    ct.write_text(f"{vectors.C16}\n")
    t0 = time.perf_counter()
    assert exit_code("attack", "--kind", "lattice", "--pub", str(pub), "--ct", str(ct),
                     "--T", scale) == 2
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "n, command",
    [
        (100_000_000, ["encrypt"]),
        (100_000_000, ["attack", "--kind", "congruence"]),
        (100_000_000, ["attack", "--kind", "coppersmith"]),
        (100_000_000, ["attack", "--kind", "lattice"]),
        (16, ["attack", "--kind", "coppersmith"]),
    ],
    ids=["encrypt", "congruence", "coppersmith", "lattice-T", "coppersmith-n16"],
)
def test_undersized_public_key_exits_4(tmp_path, n, command):
    # e_a1 = 5 and e_a2 = 7 have far fewer than 3n bits. Unchecked, the n = 10^8
    # key ran encrypt and the congruence scan past 10 s and reached CPython's
    # digit limit, and the n = 16 key got a coppersmith security verdict.
    pub = tmp_path / "pub.txt"
    pub.write_text(f"n = {n}\neA1 = 5\neA2 = 7\n")
    ct = tmp_path / "ct.txt"
    ct.write_text("0x100\n")
    payload = tmp_path / "m.bin"
    payload.write_bytes(b"hi")
    if command[0] == "encrypt":
        files = ["--in", str(payload), "--out", str(tmp_path / "out.txt")]
    else:
        files = ["--ct", str(ct)]
    t0 = time.perf_counter()
    assert run(*command, "--pub", str(pub), *files) == 4
    assert time.perf_counter() - t0 < 1.0


def test_attack_congruence_auto_report_to_stdout(keys16, tmp_path, capsys):
    pub, priv = keys16
    payload = tmp_path / "p.bin"
    ct = tmp_path / "ct.txt"
    payload.write_bytes(b"hi")
    assert run("encrypt", "--pub", str(pub), "--in", str(payload),
               "--out", str(ct), "--seed", "3") == 0
    assert run("attack", "--kind", "congruence", "--pub", str(pub),
               "--ct", str(ct), "--budget", "100000") == 0
    report = parse_report_text(capsys.readouterr().out)
    assert report["attack"] == "congruence"
    assert report["verdict"] in ("recovered", "not-recovered")


def test_attack_coppersmith_with_private_audit(keys16, tmp_path, capsys):
    pub, priv = keys16
    assert run("attack", "--kind", "coppersmith", "--pub", str(pub),
               "--priv", str(priv)) == 0
    report = parse_report_text(capsys.readouterr().out)
    assert report["verdict"] == "infeasible-by-bounds"
    assert report["diag.d_attack_feasible"] == "False"


@pytest.mark.parametrize("other", [("--n", "20", "--seed", "1"), ("--n", "16", "--seed", "2")],
                         ids=["other-n", "foreign-d"])
def test_attack_coppersmith_rejects_private_key_of_another_key(keys16, tmp_path, capsys, other):
    # the audit must not read a d that does not belong to the public key
    pub, _ = keys16
    priv = tmp_path / "other-priv.txt"
    assert run("keygen", *other, "--out-pub", str(tmp_path / "other-pub.txt"),
               "--out-priv", str(priv)) == 0
    assert run("validate", "--pub", str(pub), "--priv", str(priv), "--relaxed") == 4
    assert run("attack", "--kind", "coppersmith", "--pub", str(pub), "--priv", str(priv)) == 4
    out, err = capsys.readouterr()
    expected = "key files disagree on n" if other[1] == "20" else "e1-consistency"
    assert err.count(expected) == 2
    assert out == ""


def test_attack_factor_from_roots_reference(reference_keys, tmp_path, capsys):
    pub, _ = reference_keys
    roots = tmp_path / "roots.txt"
    roots.write_text(
        "".join(f"v{i + 1} = {r}\n" for i, r in enumerate(vectors.ROOTS16))
    )
    assert run("attack", "--kind", "factor-from-roots", "--pub", str(pub),
               "--roots", str(roots)) == 0
    report = parse_report_text(capsys.readouterr().out)
    assert report["verdict"] == "recovered"
    assert report["recovered.p"] == hex(vectors.P16)
    assert report["recovered.q"] == hex(vectors.Q16)


def test_report_text_round_trip():
    report = euclid_division_check(
        vectors.public_key(), vectors.ciphertext(), vectors.U16, vectors.V16
    )
    text = report_to_text(report, 1.5)
    parsed = parse_report_text(text)
    assert list(parsed)[:3] == ["attack", "verdict", "elapsed_ms"]
    assert parsed["attack"] == "euclid"
    assert parsed["verdict"] == "not-recovered"
    assert parsed["elapsed_ms"] == "1.500"
    assert parsed["param.n"] == "0x10"
    assert parsed["diag.floor_hits_u"] == "False"
    assert parse_report_text(report_to_text(report, 1.5)) == parsed


_REPORT_KEYS = st.text(string.ascii_lowercase + string.digits + "_", min_size=1, max_size=12)
_VISIBLE = st.text(string.ascii_letters + string.digits + string.punctuation, min_size=1, max_size=8)
# ints up to 2^64, and 2^k +- up to 2^64 for k < 20000 (4300 decimal digits is about 2^14284)
_REPORT_INTS = st.integers(0, 1 << 64) | st.builds(
    lambda k, low: (1 << k) + low, st.integers(64, 19999), st.integers(-(1 << 64), 1 << 64)
)
_REPORT_VALUES = (
    _REPORT_INTS
    | st.booleans()
    | st.floats()
    | st.builds(" ".join, st.lists(_VISIBLE, min_size=1, max_size=3))
    | st.tuples(st.floats(), st.integers(-(1 << 70), 1 << 70))
)


@settings(deadline=None)
@given(sections=st.tuples(*[st.dictionaries(_REPORT_KEYS, _REPORT_VALUES, max_size=6)] * 3))
@example(sections=({"n": 1 << 20000}, {"flag": True, "norms": (1.5, 2.25)}, {"u": 0}))
def test_report_text_round_trips_every_field(sections):
    # ints are written in 0x hex, which parse_uint reads at any size
    params, diagnostics, recovered = sections
    report = AttackReport("lattice", "recovered", params, diagnostics, recovered)
    text = report_to_text(report, 0.25)
    parsed = parse_report_text(text)
    fields = {
        f"{name}.{key}": value
        for name, data in (("param", params), ("diag", diagnostics), ("recovered", recovered))
        for key, value in data.items()
    }
    assert len(text.splitlines()) == 3 + len(fields)
    assert set(parsed) == {"attack", "verdict", "elapsed_ms", *fields}
    for key, value in fields.items():
        if type(value) is int:
            assert parse_uint(parsed[key]) == value
        else:
            assert parsed[key] == str(value)


def test_attack_coppersmith_writes_report_integers_in_hex(tmp_path, capsys):
    # v_min = 2^14398 has 4,335 decimal digits, past CPython's str() limit of 4,300
    pub = tmp_path / "pub.txt"
    pub.write_text(f"n = 7200\neA1 = {(1 << 21600) + 1:#x}\neA2 = {(1 << 21605) + 1:#x}\n")
    t0 = time.perf_counter()
    assert run("attack", "--kind", "coppersmith", "--pub", str(pub)) == 0
    assert time.perf_counter() - t0 < 1.0
    report = parse_report_text(capsys.readouterr().out)
    assert report["param.n"] == "0x1c20"
    assert report["diag.v_min"] == hex(1 << 14398)
    assert report["diag.v_attack_feasible"] == "False"


@pytest.mark.parametrize(
    "command",
    [("validate",), ("validate", "--relaxed"), ("decrypt", "--in", "{ct}", "--out", "{out}")],
    ids=["validate", "validate-relaxed", "decrypt"],
)
@pytest.mark.parametrize("zero", ["p", "q"])
def test_zero_prime_key_exits_4(reference_keys, tmp_path, zero, command):
    # p*q = 0, so the d-inverse check must not reduce e_a2*d modulo it
    pub, priv = reference_keys
    p, q = (0, vectors.Q16) if zero == "p" else (vectors.P16, 0)
    priv.write_text(f"n = 16\np = {p}\nq = {q}\nd = {vectors.D16}\n")
    ct = tmp_path / "ct.txt"
    ct.write_text(f"{vectors.C16}\n")
    paths = {"ct": str(ct), "out": str(tmp_path / "out")}
    options = (arg.format(**paths) for arg in command[1:])
    assert run(command[0], "--pub", str(pub), "--priv", str(priv), *options) == 4


def test_attack_requires_ct_when_needed(reference_keys):
    pub, _ = reference_keys
    assert run("attack", "--kind", "congruence", "--pub", str(pub)) == 2


def test_bench_csv_stdout(capsys):
    assert run("bench", "--schemes", "rabin", "--n-list", "16", "--reps", "5") == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "scheme,n,keygen_ms,encrypt_ms,decrypt_ms,reps,payload_bytes"
    assert lines[1].startswith("rabin,16,")


def test_rabin_round_trip_both_schemes(tmp_path):
    pub = tmp_path / "rpub.txt"
    priv = tmp_path / "rpriv.txt"
    assert run("rabin", "keygen", "--n", "24", "--seed", "5",
               "--out-pub", str(pub), "--out-priv", str(priv)) == 0
    payload = tmp_path / "m.bin"
    payload.write_bytes(b"\x00ab")  # leading zero survives the sentinel
    for scheme in ("redundant", "extrabits"):
        ct = tmp_path / f"ct-{scheme}"
        out = tmp_path / f"out-{scheme}"
        assert run("rabin", "encrypt", "--pub", str(pub), "--in", str(payload),
                   "--out", str(ct), "--scheme", scheme) == 0
        assert run("rabin", "decrypt", "--priv", str(priv), "--in", str(ct),
                   "--out", str(out), "--scheme", scheme) == 0
        assert out.read_bytes() == b"\x00ab"
    for path in (pub, priv, tmp_path / "ct-extrabits"):
        assert all(" = 0x" in line for line in path.read_text().splitlines())


def test_rabin_ambiguity_experiment(capsys):
    assert run("rabin", "ambiguity", "--l", "8", "--trials", "300",
               "--n", "16", "--seed", "0") == 0
    out = capsys.readouterr().out
    assert "trials = 300" in out
    assert "rate = " in out


def test_rabin_ambiguity_zero_trials_exit_2(capsys):
    assert run("rabin", "ambiguity", "--trials", "0", "--n", "16") == 2
    assert "trials must be at least 1" in capsys.readouterr().err


def _subprocess_env():
    # the subprocess does not see pytest's sys.path, so point it at the
    # directory that holds the aabeta package imported here
    src = str(Path(aabeta.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "aabeta.cli", "--help"],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0
    assert "keygen" in proc.stdout


def test_importing_the_cli_loads_neither_the_attack_lab_nor_the_bench():
    # a module count, not a timing: the modules `import aabeta.cli` adds to
    # those the interpreter (and site) loaded before it
    probe = ("import sys; before = set(sys.modules); import aabeta.cli; "
             "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_subprocess_env(), check=True, timeout=60)
    added = set(proc.stdout.split())
    assert "aabeta.cli" in added
    assert added.isdisjoint({"aabeta.attacks", "aabeta.bench", "dataclasses", "statistics", "csv"})


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def test_key_file_non_ascii_digits_exit_2(reference_keys):
    pub, _ = reference_keys
    pub.write_text(pub.read_text().replace("n = 16", "n = 16".translate(_ARABIC_INDIC)))
    assert run("attack", "--kind", "coppersmith", "--pub", str(pub)) == 2


def test_ciphertext_non_ascii_digits_exit_2(keys16, tmp_path):
    pub, priv = keys16
    payload = tmp_path / "p.bin"
    ct = tmp_path / "ct.txt"
    payload.write_bytes(b"abc")
    assert run("encrypt", "--pub", str(pub), "--in", str(payload),
               "--out", str(ct), "--seed", "2") == 0
    ct.write_text(ct.read_text().translate(_ARABIC_INDIC), encoding="utf-8")
    assert run("decrypt", "--pub", str(pub), "--priv", str(priv),
               "--in", str(ct), "--out", str(tmp_path / "o")) == 2


def test_known_answer_rejects_signed_value(reference_keys, tmp_path):
    pub, _ = reference_keys
    ct = tmp_path / "ct.txt"
    ct.write_text(f"{vectors.C16}\n")
    ka = tmp_path / "ka.txt"
    ka.write_text(f"u = -5\nv = {vectors.V16}\n")
    assert run("attack", "--kind", "euclid", "--pub", str(pub), "--ct", str(ct),
               "--known-answer", str(ka)) == 2


def test_roots_file_rejects_plus_sign(reference_keys, tmp_path):
    pub, _ = reference_keys
    roots = tmp_path / "roots.txt"
    values = [f"+{r}" if i == 0 else str(r) for i, r in enumerate(vectors.ROOTS16)]
    roots.write_text("".join(f"v{i + 1} = {v}\n" for i, v in enumerate(values)))
    assert run("attack", "--kind", "factor-from-roots", "--pub", str(pub),
               "--roots", str(roots)) == 2


@pytest.fixture
def rabin_files(tmp_path):
    pub = tmp_path / "rpub.txt"
    priv = tmp_path / "rpriv.txt"
    assert run("rabin", "keygen", "--n", "24", "--seed", "5",
               "--out-pub", str(pub), "--out-priv", str(priv)) == 0
    payload = tmp_path / "m.bin"
    payload.write_bytes(b"ab")
    ct = tmp_path / "rct.txt"
    assert run("rabin", "encrypt", "--pub", str(pub), "--in", str(payload),
               "--out", str(ct), "--scheme", "redundant") == 0
    return priv, ct


def rabin_decrypt(priv, ct, out):
    return run("rabin", "decrypt", "--priv", str(priv), "--in", str(ct),
               "--out", str(out), "--scheme", "redundant")


@pytest.mark.parametrize("scheme", ["redundant", "extrabits"])
def test_rabin_decrypt_root_without_payload_sentinel_exits_4(rabin_files, tmp_path, capsys,
                                                             scheme):
    # rabin encrypt never writes the message 2: its leading byte is not the 0x01 sentinel
    priv, ct = rabin_files
    key = parse_fields(priv.read_text(), ("n", "p", "q"))
    modulus = key["p"] * key["q"]
    if scheme == "redundant":
        ct.write_text(format_ciphertext(Ciphertext(rabin.encrypt_redundant(modulus, 2, 8))))
    else:
        ct.write_text(format_fields(zip(("c", "parity", "jacobi"),
                                        rabin.encrypt_extrabits(modulus, 2))))
    assert run("rabin", "decrypt", "--priv", str(priv), "--in", str(ct),
               "--out", str(tmp_path / "o"), "--scheme", scheme) == 4
    assert capsys.readouterr() == ("", "error: recovered integer has no payload sentinel\n")


def test_rabin_private_key_rejects_underscored_value(rabin_files, tmp_path):
    priv, ct = rabin_files
    lines = priv.read_text().splitlines()
    p = int(lines[1].partition("=")[2], 16)
    priv.write_text("\n".join([lines[0], f"p = {p:_}", lines[2]]) + "\n")
    assert rabin_decrypt(priv, ct, tmp_path / "o") == 2


def test_rabin_ciphertext_uses_ciphertext_grammar(rabin_files, tmp_path):
    priv, ct = rabin_files
    c = int(ct.read_text(), 16)
    ct.write_text(f"{c}\n")  # decimal input is still read
    assert rabin_decrypt(priv, ct, tmp_path / "dec") == 0
    assert (tmp_path / "dec").read_bytes() == b"ab"
    for bad in (f"{c:_}", str(c).translate(_ARABIC_INDIC), f"+{c}"):
        ct.write_text(bad + "\n", encoding="utf-8")
        assert rabin_decrypt(priv, ct, tmp_path / "o") == 2


@pytest.mark.parametrize("scheme", ["redundant", "extrabits"])
@pytest.mark.parametrize("bad_p", ["0x15", "q"], ids=["p-1mod4", "p-equals-q"])
def test_rabin_decrypt_inconsistent_key_exits_4(tmp_path, scheme, bad_p):
    pub = tmp_path / "rpub.txt"
    priv = tmp_path / "rpriv.txt"
    assert run("rabin", "keygen", "--n", "24", "--seed", "5",
               "--out-pub", str(pub), "--out-priv", str(priv)) == 0
    payload = tmp_path / "m.bin"
    payload.write_bytes(b"ab")
    ct = tmp_path / "rct.txt"
    assert run("rabin", "encrypt", "--pub", str(pub), "--in", str(payload),
               "--out", str(ct), "--scheme", scheme) == 0
    decrypt = ("rabin", "decrypt", "--priv", str(priv), "--in", str(ct),
               "--out", str(tmp_path / "o"), "--scheme", scheme)
    if scheme == "redundant":
        assert run(*decrypt, "--l", "64") == 2  # N has under 64 bits
    n_line, _, q_line = priv.read_text().splitlines()
    p = q_line.partition(" = ")[2] if bad_p == "q" else bad_p
    priv.write_text(f"{n_line}\np = {p}\n{q_line}\n")
    assert run(*decrypt) == 4


@pytest.mark.parametrize("scheme", ["redundant", "extrabits"])
def test_rabin_decrypt_ciphertext_not_below_modulus_exits_4(tmp_path, capsys, scheme):
    pub, priv, ct = (tmp_path / name for name in ("rpub.txt", "rpriv.txt", "rct.txt"))
    assert run("rabin", "keygen", "--n", "24", "--seed", "5",
               "--out-pub", str(pub), "--out-priv", str(priv)) == 0
    c = parse_fields(pub.read_text(), ("n", "N"))["N"] + 5
    if scheme == "redundant":
        ct.write_text(format_ciphertext(Ciphertext(c)))
    else:
        ct.write_text(format_fields([("c", c), ("parity", 1), ("jacobi", 1)]))
    assert run("rabin", "decrypt", "--priv", str(priv), "--in", str(ct),
               "--out", str(tmp_path / "o"), "--scheme", scheme) == 4
    assert "ciphertext must lie in [0, N)" in capsys.readouterr().err


def test_strict_validate_rejects_a_key_sized_strong_pseudoprime(tmp_path, capsys):
    # 90751 = 151 * 601 is the only strong base-2 pseudoprime = 3 (mod 4) in
    # (2^16, 2^17); the key on it is otherwise consistent and in range
    n, p, q = 16, 90751, 65539
    assert p % 4 == 3 and pow(2, (p - 1) // 2, p) in (1, p - 1)
    pq = p * q
    d = pq - 2
    e_a2 = pow(d, -1, pq) + pq * ((1 << 3 * n + 4) // pq + 1)
    kp = KeyPair(PublicKey(n, p * p * q, e_a2), PrivateKey(p, q, d))
    pub, priv = tmp_path / "pub.txt", tmp_path / "priv.txt"
    pub.write_text(format_public_key(kp.public))
    priv.write_text(format_private_key(kp.private, n))
    assert run("validate", "--pub", str(pub), "--priv", str(priv)) == 4
    assert capsys.readouterr().err == "p-prime: p is not prime\n"
    assert run("validate", "--pub", str(pub), "--priv", str(priv), "--relaxed") == 0


def _n4_key_files(tmp_path):
    # consistent and in range for n = 4, which the generator refuses
    pub, priv = tmp_path / "pub.txt", tmp_path / "priv.txt"
    pub.write_text("n = 4\neA1 = 0x206f\neA2 = 0x1019c\n")
    priv.write_text("n = 4\np = 19\nq = 23\nd = 56\n")
    return pub, priv


def test_strict_validate_rejects_n_below_8(tmp_path, capsys):
    pub, priv = _n4_key_files(tmp_path)
    assert run("validate", "--pub", str(pub), "--priv", str(priv)) == 4
    assert capsys.readouterr().err == "n-range: n below 8\n"
    assert run("validate", "--pub", str(pub), "--priv", str(priv), "--relaxed") == 0


def test_encrypt_names_both_public_key_size_conditions(tmp_path, capsys):
    # e_a1 has 14 bits, above 3n = 12, so only n < 8 fails here
    pub, _ = _n4_key_files(tmp_path)
    payload = tmp_path / "m.bin"
    payload.write_bytes(b"hi")
    assert run("encrypt", "--pub", str(pub), "--in", str(payload),
               "--out", str(tmp_path / "ct.txt")) == 4
    assert capsys.readouterr().err == (
        "error: public key too small: need n >= 8 and e_a1, e_a2 of 3n bits or more\n"
    )


def test_key_files_disagreeing_on_n_exit_4(keys16, tmp_path, capsys):
    pub, priv = keys16
    priv.write_text(priv.read_text().replace("n = 0x10", "n = 0x11"))
    ct = tmp_path / "ct.txt"
    ct.write_text(f"{vectors.C16:#x}\n")
    assert run("validate", "--pub", str(pub), "--priv", str(priv)) == 4
    assert run("decrypt", "--pub", str(pub), "--priv", str(priv),
               "--in", str(ct), "--out", str(tmp_path / "o")) == 4
    assert capsys.readouterr().err.count("key files disagree on n") == 2


def test_keys_whose_p_and_q_share_a_factor_exit_4(tmp_path, capsys):
    # p = 3 * 13^2 and q = 3^2 * 5 * 11 are both 3 (mod 4) and of n + 1 bits, and the
    # AA-beta key on them is otherwise consistent; four_roots would need q^-1 mod p
    n, p, q = 8, 507, 495
    pq, e_a1 = p * q, p * p * q
    e_a2 = (1 << 24) + 1
    while math.gcd(e_a2, e_a1 * pq) != 1:
        e_a2 += 2
    key = PublicKey(n, e_a1, e_a2)
    pub, priv, ct = (tmp_path / name for name in ("pub.txt", "priv.txt", "ct.txt"))
    pub.write_text(format_public_key(key))
    priv.write_text(format_private_key(PrivateKey(p, q, pow(e_a2, -1, pq)), n))
    c_lo = ciphertext_range(key)[0]
    ct.write_text(format_ciphertext(Ciphertext((c_lo // pq + 1) * pq)))  # W = 0
    assert run("decrypt", "--pub", str(pub), "--priv", str(priv),
               "--in", str(ct), "--out", str(tmp_path / "o")) == 4
    assert run("validate", "--pub", str(pub), "--priv", str(priv), "--relaxed") == 4
    assert capsys.readouterr().err.count("p-q-coprime") == 2
    rpriv = tmp_path / "rpriv.txt"
    rpriv.write_text(format_fields([("n", 24), ("p", p), ("q", q)]))
    ct.write_text(format_ciphertext(Ciphertext(0)))
    assert run("rabin", "decrypt", "--priv", str(rpriv), "--in", str(ct),
               "--out", str(tmp_path / "o"), "--scheme", "redundant") == 4
    assert "share a factor" in capsys.readouterr().err


def test_n_beyond_the_decimal_digit_limit_exits_4(keys16, tmp_path, capsys):
    # 4,000 hex digits are about 4,816 decimal ones, past CPython's 4,300;
    # the key-size rule refuses such an n before any arithmetic on it
    pub, priv = keys16
    huge = "0x" + "f" * 4000
    first, rest = priv.read_text().split("\n", 1)
    priv.write_text(f"n = {huge}\n{rest}")
    ct = tmp_path / "ct.txt"
    ct.write_text(f"{vectors.C16:#x}\n")
    t0 = time.perf_counter()
    assert run("decrypt", "--pub", str(pub), "--priv", str(priv),
               "--in", str(ct), "--out", str(tmp_path / "o")) == 4
    assert run("validate", "--pub", str(pub), "--priv", str(priv)) == 4
    assert run("attack", "--kind", "coppersmith", "--pub", str(pub), "--priv", str(priv)) == 4
    assert capsys.readouterr().err.count("private key too large") == 3
    first, rest = pub.read_text().split("\n", 1)
    pub.write_text(f"n = {huge}\n{rest}")
    assert run("validate", "--pub", str(pub), "--priv", str(priv)) == 4
    assert run("validate", "--pub", str(pub), "--priv", str(priv), "--relaxed") == 4
    assert capsys.readouterr().err.count("public key too large") == 2
    assert time.perf_counter() - t0 < 1.0


def _crafted_key_files(tmp_path, n, rng):
    """Key files at n that relaxed validation accepts: p, q = 3 (mod 4) of n + 1 bits, not
    tested for primality, with an in-range ciphertext and the attacks' input files."""
    p, q = ((1 << n) | rng.getrandbits(n) | 3 for _ in range(2))
    pq = p * q
    d = rng.getrandbits(2 * n) | 1
    e_a2 = pow(d, -1, pq)
    e_a2 += (((1 << (3 * n + 4)) - e_a2) // pq + 1) * pq
    pub = PublicKey(n, p * p * q, e_a2)
    trace = encrypt_trace(pub, encode(b"", n), sample_ephemerals(n, rng))
    paths = {name: tmp_path / name for name in ("pub", "priv", "ct", "ka", "roots", "payload")}
    paths["pub"].write_text(format_public_key(pub))
    paths["priv"].write_text(format_private_key(PrivateKey(p, q, d), n))
    paths["ct"].write_text(format_ciphertext(trace.ciphertext))
    paths["ka"].write_text(format_fields([("u", trace.u), ("v", trace.v)]))
    paths["roots"].write_text(format_fields((f"v{i}", trace.v + i) for i in range(1, 5)))
    paths["payload"].write_bytes(b"hi")
    return paths


_KEY_COMMANDS = [
    ("encrypt", "--pub", "{pub}", "--in", "{payload}", "--out", "{out}"),
    ("decrypt", "--pub", "{pub}", "--priv", "{priv}", "--in", "{ct}", "--out", "{out}"),
    ("validate", "--pub", "{pub}", "--priv", "{priv}"),
    ("validate", "--pub", "{pub}", "--priv", "{priv}", "--relaxed"),
    *(("attack", "--kind", kind, "--pub", "{pub}", "--priv", "{priv}", "--ct", "{ct}",
       "--known-answer", "{ka}", "--roots", "{roots}") for kind in _ATTACK_KINDS),
]


@pytest.mark.parametrize("argv", _KEY_COMMANDS, ids=lambda argv: "-".join(argv[:3]))
def test_key_above_the_size_bound_exits_4_at_once(tmp_path, capsys, argv):
    # Relaxed validation accepts this key, and without the bound decrypt would
    # spend seconds in pow modulo its 16,386-bit p and q
    paths = _crafted_key_files(tmp_path, _MAX_N + 1, random.Random(0))
    t0 = time.perf_counter()
    assert run(*(arg.format(out=tmp_path / "out", **paths) for arg in argv)) == 4
    assert time.perf_counter() - t0 < 1.0
    assert "public key too large: n above 16384" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", _KEY_COMMANDS, ids=lambda argv: "-".join(argv[:3]))
def test_coefficient_above_32n_bits_exits_4_at_once(tmp_path, capsys, argv):
    # e_a2 raised by p*q*2^400000 at n = 64 still inverts d mod p*q, so relaxed validation
    # accepts it; without the 32n-bit cap, attack --kind lattice took seconds on it
    paths = _crafted_key_files(tmp_path, 64, random.Random(0))
    pub = parse_public_key(paths["pub"].read_text())
    pq = parse_private_key(paths["priv"].read_text())[0].pq
    paths["pub"].write_text(format_public_key(pub._replace(e_a2=pub.e_a2 + (pq << 400_000))))
    t0 = time.perf_counter()
    assert run(*(arg.format(out=tmp_path / "out", **paths) for arg in argv)) == 4
    assert time.perf_counter() - t0 < 0.5
    assert "public key too large" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_attack_lattice_out_of_range_ciphertext_exits_4_at_once(tmp_path, capsys):
    # an n = 1024 key with an odd 32n-bit e_a2 passes the size checks, and C = e_a2 // 2 lies
    # below its C_lo; before the range check the lattice attack ran for about 40 s on it and
    # exited 0
    n, rng = 1024, random.Random(2)
    e_a1 = rng.getrandbits(3 * n) | (1 << (3 * n - 1)) | 1
    e_a2 = rng.getrandbits(32 * n) | (1 << (32 * n - 1)) | 1
    pub, ct = tmp_path / "pub.txt", tmp_path / "ct.txt"
    pub.write_text(format_public_key(PublicKey(n, e_a1, e_a2)))
    ct.write_text(format_ciphertext(Ciphertext(e_a2 // 2)))
    t0 = time.perf_counter()
    assert run("attack", "--kind", "lattice", "--pub", str(pub), "--ct", str(ct)) == 4
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr() == ("", "error: ciphertext outside the range of the public key\n")


def test_rabin_ambiguity_message_prints_no_root_in_decimal(tmp_path, capsys):
    # Mersenne primes, both 3 (mod 4): the roots have over 1,000 decimal digits
    p, q = (1 << 1279) - 1, (1 << 2203) - 1
    c = rabin.encrypt_redundant(p * q, 1, 1)
    assert len(rabin.decrypt_redundant(rabin.RabinKeyPair(p * q, p, q), c, 1)) == 2
    priv, ct = tmp_path / "rpriv.txt", tmp_path / "rct.txt"
    priv.write_text(format_fields([("n", 2202), ("p", p), ("q", q)]))
    ct.write_text(format_ciphertext(Ciphertext(c)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # CPython's lowest limit
    try:
        code = run("rabin", "decrypt", "--priv", str(priv), "--in", str(ct),
                   "--out", str(tmp_path / "o"), "--scheme", "redundant", "--l", "1")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 4
    assert "ambiguous decryption: 2 roots carry the tag" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("p", "0x" + "f" * 5000), ("n", hex(_MAX_N + 1))],
                         ids=["p-2^20000-1", "n-above-bound"])
def test_rabin_key_larger_than_its_n_exits_4(rabin_files, tmp_path, capsys, field, value):
    priv, ct = rabin_files
    values = parse_fields(priv.read_text(), ("n", "p", "q"))
    values[field] = parse_uint(value)
    priv.write_text(format_fields(values.items()))
    t0 = time.perf_counter()
    assert rabin_decrypt(priv, ct, tmp_path / "o") == 4
    assert time.perf_counter() - t0 < 1.0
    assert "Rabin key too large" in capsys.readouterr().err


def test_rabin_decrypt_without_a_tagged_root_exits_4(tmp_path, capsys):
    # the roots of 1 mod 77 are 1, 34, 43 and 76: none repeats its low 2 bits
    priv, ct = tmp_path / "rpriv.txt", tmp_path / "rct.txt"
    priv.write_text(format_fields([("n", 8), ("p", 7), ("q", 11)]))
    ct.write_text(format_ciphertext(Ciphertext(1)))
    assert run("rabin", "decrypt", "--priv", str(priv), "--in", str(ct),
               "--out", str(tmp_path / "o"), "--scheme", "redundant", "--l", "2") == 4
    assert "no root carries the replicated tag" in capsys.readouterr().err


def test_generation_failure_exits_3(monkeypatch, tmp_path, capsys):
    def exhausted(n, rng):
        raise GenerationFailure("no prime found")

    monkeypatch.setattr(aabeta.rabin, "keygen", exhausted)
    outs = ("--out-pub", str(tmp_path / "pub"), "--out-priv", str(tmp_path / "priv"))
    assert run("keygen", "--n", "16", *outs) == 3
    assert run("rabin", "keygen", "--n", "16", *outs) == 3
    assert capsys.readouterr().err.count("no prime found") == 2


@pytest.mark.parametrize(
    "kind, given, missing",
    [
        ("euclid", ("--ct",), "known-answer"),
        ("euclid", ("--known-answer",), "ct"),
        ("factor-from-roots", (), "roots"),
        ("congruence", (), "ct"),
        ("lattice", (), "ct"),
    ],
    ids=["euclid-known-answer", "euclid-ct", "factor-from-roots-roots", "congruence-ct",
         "lattice-ct"],
)
def test_attack_names_the_missing_input(reference_keys, tmp_path, capsys, kind, given, missing):
    pub, _ = reference_keys
    files = {"--ct": tmp_path / "ct.txt", "--known-answer": tmp_path / "ka.txt"}
    files["--ct"].write_text(f"{vectors.C16:#x}\n")
    files["--known-answer"].write_text(format_fields([("u", vectors.U16), ("v", vectors.V16)]))
    options = [arg for option in given for arg in (option, str(files[option]))]
    assert run("attack", "--kind", kind, "--pub", str(pub), *options) == 2
    assert capsys.readouterr() == ("", f"error: --{missing} is required for --kind {kind}\n")


def _attack_input_files(directory, n, seed):
    """A seeded key pair's public key, private key, ciphertext, (u, v) and roots files."""
    rng = random.Random(seed)
    kp = generate_keypair(n, rng)
    trace = encrypt_trace(kp.public, encode(b"hi", n), sample_ephemerals(n, rng))
    texts = {
        "--pub": format_public_key(kp.public),
        "--priv": format_private_key(kp.private, n),
        "--ct": format_ciphertext(trace.ciphertext),
        "--known-answer": format_fields([("u", trace.u), ("v", trace.v)]),
        "--roots": format_fields(zip(("v1", "v2", "v3", "v4"),
                                     unmasked_roots(kp, trace.ciphertext.c)[1])),
    }
    directory.mkdir()
    for option, text in texts.items():
        (directory / option.strip("-")).write_text(text)
    return {option: str(directory / option.strip("-")) for option in texts}


# The pinned digest of every run test_attack_cli_digest makes.
_ATTACK_CLI_DIGEST = "9e9880cbb897956553dcf1201f8f2d76b1fd409cafc98ab1f133e1d768dd08b4"


def test_attack_cli_digest(tmp_path, capsys):
    # Each kind runs on seeded n=16 and n=64 inputs, and at n=16 with each of
    # --ct, --priv, --known-answer and --roots given, omitted or an absent file
    # (so every missing required input and every unreadable file, in any
    # mix), then with an absent --pub and with a directory as --report. The
    # digest covers each run's exit code, stdout, stderr and report text, with
    # elapsed_ms and the temporary directory masked.
    absent, report = str(tmp_path / "absent"), tmp_path / "report.txt"
    runs = []
    for n in (16, 64):
        files = _attack_input_files(tmp_path / f"n{n}", n, seed=n)
        for kind in _ATTACK_KINDS:
            given = [arg for option, path in files.items() for arg in (option, path)]
            runs.append((kind, *given, "--budget", "4096"))
            runs.append((kind, *given, "--budget", "4096", "--report", str(report)))
    files = _attack_input_files(tmp_path / "n16-inputs", 16, seed=1)
    inputs = ("--ct", "--priv", "--known-answer", "--roots")
    for kind in _ATTACK_KINDS:
        for states in itertools.product(("given", "omitted", "absent"), repeat=len(inputs)):
            options = [arg for option, state in zip(inputs, states) if state != "omitted"
                       for arg in (option, files[option] if state == "given" else absent)]
            runs.append((kind, "--pub", files["--pub"], *options, "--report", str(report)))
        everything = [arg for option in inputs for arg in (option, files[option])]
        runs.append((kind, "--pub", absent, *everything))
        runs.append((kind, "--pub", files["--pub"], *everything, "--report", str(tmp_path)))
    digest = hashlib.sha256()
    for argv in runs:
        report.unlink(missing_ok=True)
        code = run("attack", "--kind", *argv)
        out, err = capsys.readouterr()
        text = report.read_text() if report.exists() else ""
        record = repr((argv, code, out, err, text)).replace(str(tmp_path), "TMP")
        digest.update(re.sub(r"elapsed_ms: [0-9.]+", "elapsed_ms: *", record).encode())
    assert digest.hexdigest() == _ATTACK_CLI_DIGEST


def test_each_exit_code_row_prints_one_error_line(keys16, tmp_path, capsys, monkeypatch):
    def exhausted(n, rng):
        raise GenerationFailure("no prime found")

    monkeypatch.setattr(aabeta.rabin, "keygen", exhausted)
    pub, priv = keys16
    big, absent, other_n = tmp_path / "big.bin", tmp_path / "absent", tmp_path / "priv17.txt"
    big.write_bytes(b"x" * 8)
    other_n.write_text(priv.read_text().replace("n = 0x10", "n = 0x11"))
    out = str(tmp_path / "out")
    rows = [
        (("encrypt", "--pub", str(pub), "--in", str(big), "--out", out), 2,
         "payload of 8 bytes exceeds capacity 7 at n=16"),
        (("keygen", "--n", "16", "--out-pub", out, "--out-priv", out), 3, "no prime found"),
        (("validate", "--pub", str(pub), "--priv", str(other_n)), 4,
         "key files disagree on n: 0x10 vs 0x11"),
        (("decrypt", "--pub", str(pub), "--priv", str(priv), "--in", str(absent), "--out", out),
         5, f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{absent}'"),
    ]
    for argv, code, message in rows:
        assert run(*argv) == code
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_bench_without_schemes_writes_every_scheme(capsys):
    assert run("bench", "--n-list", "16") == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["aabeta", "rabin", "rsa"]


def test_bench_out_writes_what_bench_prints(monkeypatch, tmp_path, capsys):
    rows = aabeta.bench.run_bench(["rabin"], [16], reps=5, seed=0)
    monkeypatch.setattr(aabeta.bench, "run_bench", lambda *args, **kwargs: rows)
    assert run("bench") == 0
    printed = capsys.readouterr().out
    out = tmp_path / "bench.csv"
    assert run("bench", "--out", str(out)) == 0
    assert capsys.readouterr() == ("", "")
    assert out.read_bytes() == printed.encode("utf-8")


def test_record_files_skip_blank_lines(keys16, tmp_path):
    pub, priv = keys16
    for path in (pub, priv):
        path.write_text("\n" + path.read_text().replace("\n", "\n  \n\t\n"))
    assert run("validate", "--pub", str(pub), "--priv", str(priv)) == 0


def _cap_address_space():
    # 2 GiB: a 2^(2^40) shift fails at once with MemoryError, not by exhausting the host
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize(
    "argv, code",
    [
        (("validate", "--pub", "{pub}", "--priv", "{priv}"), 4),
        (("validate", "--pub", "{pub}", "--priv", "{priv}", "--relaxed"), 4),
        (("decrypt", "--pub", "{pub}", "--priv", "{priv}", "--in", "{ct}", "--out", "{out}"), 4),
        (("rabin", "encrypt", "--pub", "{rpub}", "--in", "{payload}", "--out", "{out}",
          "--scheme", "redundant", "--l", "{huge}"), 2),
        (("rabin", "decrypt", "--priv", "{rpriv}", "--in", "{rct}", "--out", "{out}",
          "--scheme", "redundant", "--l", "{huge}"), 2),
    ],
    ids=["validate", "validate-relaxed", "decrypt", "rabin-encrypt-l", "rabin-decrypt-l"],
)
def test_claimed_sizes_build_no_power_of_two(keys16, rabin_files, tmp_path, argv, code):
    # A valid n = 16 key pair whose files both claim n = 2^40, and a Rabin
    # --l of 2^40: 1 << n or 1 << l would need 128 GiB.
    huge = 1 << 40
    pub, priv = keys16
    for path in (pub, priv):
        first, rest = path.read_text().split("\n", 1)
        assert first.startswith("n = ")
        path.write_text(f"n = {huge:#x}\n{rest}")
    rpriv, rct = rabin_files
    ct = tmp_path / "ct.txt"
    ct.write_text(f"{vectors.C16:#x}\n")
    payload = tmp_path / "m.bin"
    payload.write_bytes(b"ab")
    paths = {"pub": pub, "priv": priv, "ct": ct, "out": tmp_path / "out", "payload": payload,
             "rpub": tmp_path / "rpub.txt", "rpriv": rpriv, "rct": rct, "huge": huge}
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "aabeta.cli", *(arg.format(**paths) for arg in argv)],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        preexec_fn=_cap_address_space,
        timeout=60,
    )
    assert time.perf_counter() - t0 < 1.0
    assert "Traceback" not in proc.stderr
    assert proc.returncode == code


@pytest.mark.parametrize(
    "argv",
    [
        ("keygen", "--n", "{n}", "--out-pub", "{out}", "--out-priv", "{out}"),
        ("rabin", "keygen", "--n", "{n}", "--out-pub", "{out}", "--out-priv", "{out}"),
        ("rabin", "ambiguity", "--n", "{n}", "--trials", "1"),
        ("bench", "--schemes", "aabeta", "--n-list", "16,{n}"),
    ],
    ids=["keygen", "rabin-keygen", "rabin-ambiguity", "bench"],
)
@pytest.mark.parametrize("n", [1 << 40, _MAX_N + 1], ids=["2^40", "bound+1"])
def test_generation_sizes_above_the_bound_exit_2(tmp_path, argv, n):
    # Without the bound, n = 2^40 dies in 1 << (n - 2) with a MemoryError traceback.
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "aabeta.cli",
         *(arg.format(n=hex(n), out=tmp_path / "out") for arg in argv)],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        preexec_fn=_cap_address_space,
        timeout=60,
    )
    assert time.perf_counter() - t0 < 1.0
    assert "Traceback" not in proc.stderr
    assert f"n must be at most {_MAX_N}" in proc.stderr
    assert proc.returncode == 2
    assert not (tmp_path / "out").exists()


def test_generation_size_bound_is_inclusive():
    assert _MAX_N >= 2048  # the largest size the README and tests use
    bound = str(_MAX_N)
    parser = build_parser()
    outs = ["--out-pub", "p", "--out-priv", "q"]
    assert parser.parse_args(["keygen", "--n", bound, *outs]).n == _MAX_N
    assert parser.parse_args(["rabin", "keygen", "--n", bound, *outs]).n == _MAX_N
    assert parser.parse_args(["rabin", "ambiguity", "--n", bound]).n == _MAX_N
    assert parser.parse_args(["bench", "--n-list", f"16,{bound}"]).n_list == [16, _MAX_N]


def exit_code(*argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


# every attack kind, the rabin commands and an argparse error, on files named
# relative to the working directory so that every message is the same in each pass
_PARSER_REUSE_SEQUENCE = [
    ("keygen", "--n", "16", "--seed", "1", "--out-pub", "pub", "--out-priv", "priv"),
    ("encrypt", "--pub", "pub", "--in", "payload", "--out", "ct", "--seed", "3"),
    ("decrypt", "--pub", "pub", "--priv", "priv", "--in", "ct", "--out", "dec"),
    ("validate", "--pub", "pub", "--priv", "priv"),
    ("validate", "--pub", "ref_pub", "--priv", "ref_priv"),
    ("attack", "--kind", "congruence", "--pub", "pub", "--ct", "ct", "--budget", "1000",
     "--report", "report"),
    ("attack", "--kind", "coppersmith", "--pub", "pub", "--priv", "priv"),
    ("attack", "--kind", "euclid", "--pub", "ref_pub", "--ct", "ref_ct",
     "--known-answer", "ref_ka"),
    ("attack", "--kind", "lattice", "--pub", "ref_pub", "--ct", "ref_ct"),
    ("attack", "--kind", "factor-from-roots", "--pub", "ref_pub", "--roots", "ref_roots"),
    ("rabin", "keygen", "--n", "24", "--seed", "2", "--out-pub", "rpub", "--out-priv", "rpriv"),
    ("rabin", "encrypt", "--pub", "rpub", "--in", "payload", "--out", "rct",
     "--scheme", "redundant"),
    ("rabin", "decrypt", "--priv", "rpriv", "--in", "rct", "--out", "rdec",
     "--scheme", "redundant"),
    ("decrypt", "--pub", "pub", "--priv", "priv", "--in", "absent", "--out", "dec"),
    ("keygen", "--n", "16", "--nope"),
]


def _masked(text):
    return re.sub(r"elapsed_ms: .*", "elapsed_ms: -", text)


def test_main_gives_the_same_results_with_its_one_parser(reference_keys, tmp_path, monkeypatch,
                                                          capsys):
    assert build_parser() is build_parser()
    attacked = {argv[2] for argv in _PARSER_REUSE_SEQUENCE if argv[0] == "attack"}
    assert attacked == set(_ATTACK_KINDS)
    ref_pub, ref_priv = reference_keys
    inputs = {
        "payload": b"hi",
        "ref_pub": ref_pub.read_bytes(),
        "ref_priv": ref_priv.read_bytes(),
        "ref_ct": f"{vectors.C16:#x}\n".encode(),
        "ref_ka": format_fields([("u", vectors.U16), ("v", vectors.V16)]).encode(),
        "ref_roots": format_fields(zip(("v1", "v2", "v3", "v4"), vectors.ROOTS16)).encode(),
    }
    build_parser.cache_clear()  # so the first pass builds the parser and the second reuses it
    passes = []
    for name in ("first", "second"):
        workdir = tmp_path / name
        workdir.mkdir()
        for file, content in inputs.items():
            (workdir / file).write_bytes(content)
        monkeypatch.chdir(workdir)
        results = []
        for argv in _PARSER_REUSE_SEQUENCE:
            code = exit_code(*argv)
            out, err = capsys.readouterr()
            results.append((argv, code, _masked(out), err))
        files = {path.name: _masked(path.read_text(encoding="latin-1"))
                 for path in sorted(workdir.iterdir())}
        passes.append((results, files))
    assert passes[0] == passes[1]
    codes = [code for _, code, _, _ in passes[0][0]]
    assert codes == [0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 5, 2]
    assert passes[0][1]["dec"] == "hi" == passes[0][1]["rdec"]


@pytest.mark.parametrize(
    "argv",
    [
        ("keygen", "--n", "١٦", "--out-pub", "{out}", "--out-priv", "{out}"),
        ("rabin", "ambiguity", "--trials", "1_0"),
        ("rabin", "ambiguity", "--l", "+8", "--trials", "10"),
        ("bench", "--schemes", "rabin", "--n-list", " 16"),
        ("keygen", "--n", "16", "--seed", "-4", "--out-pub", "{out}", "--out-priv", "{out}"),
    ],
    ids=["n-non-ascii", "trials-underscore", "l-plus", "n-list-space", "seed-negative"],
)
def test_numeric_options_use_the_integer_grammar(argv, tmp_path):
    assert exit_code(*(arg.format(out=tmp_path / "out") for arg in argv)) == 2


def test_key_files_accept_hex_values(keys16, tmp_path):
    pub, priv = keys16
    dec_pub, dec_priv = tmp_path / "dec-pub.txt", tmp_path / "dec-priv.txt"
    for src, dst in ((pub, dec_pub), (priv, dec_priv)):
        lines = [line.partition(" = ") for line in src.read_text().splitlines()]
        assert all(value.startswith("0x") for _, _, value in lines)  # keygen writes hex
        dst.write_text("".join(f"{name} = {int(value, 16)}\n" for name, _, value in lines))
    assert parse_public_key(dec_pub.read_text()) == parse_public_key(pub.read_text())
    assert parse_private_key(dec_priv.read_text()) == parse_private_key(priv.read_text())
    assert run("validate", "--pub", str(pub), "--priv", str(priv)) == 0
    assert run("validate", "--pub", str(dec_pub), "--priv", str(dec_priv)) == 0


# Small constants, 2^k + {-1, 0, 1} for k <= 60, and anything up to 2^64.
_FUZZ_INTS = (
    st.integers(min_value=0, max_value=16)
    | st.builds(lambda k, d: max(0, (1 << k) + d), st.integers(0, 60), st.sampled_from((-1, 0, 1)))
    | st.integers(min_value=0, max_value=1 << 64)
)
_FUZZ_COMMANDS = (
    ("encrypt", "--in", "{payload}", "--out", "{out}", "--seed", "0"),
    ("encrypt", "--insecure-known-answer", "{record}", "--out", "{out}"),
    ("decrypt", "--priv", "{priv}", "--in", "{ct}", "--out", "{out}"),
    ("validate", "--priv", "{priv}"),
    ("validate", "--priv", "{priv}", "--relaxed"),
    *(
        ("attack", "--kind", kind, "--priv", "{priv}", "--ct", "{ct}", "--known-answer", "{ka}",
         "--roots", "{roots}", "--budget", "64")
        for kind in _ATTACK_KINDS
    ),
)


@settings(deadline=None)
@given(
    command=st.sampled_from(_FUZZ_COMMANDS),
    n=st.integers(min_value=0, max_value=20),
    key=st.tuples(*[_FUZZ_INTS] * 5),
    values=st.tuples(*[_FUZZ_INTS] * 11),
)
@example(  # the reference known-answer record
    command=_FUZZ_COMMANDS[1],
    n=16,
    key=(vectors.E_A1_16, vectors.E_A2_16, vectors.P16, vectors.Q16, vectors.D16),
    values=(vectors.C16, vectors.U16, vectors.V16, *vectors.ROOTS16,
            vectors.M1_16, vectors.M2_16, vectors.K1_16, vectors.K2_16),
)
@example(  # the reference public key with p = 0
    command=_FUZZ_COMMANDS[2],
    n=16,
    key=(vectors.E_A1_16, vectors.E_A2_16, 0, vectors.Q16, vectors.D16),
    values=(vectors.C16, vectors.U16, vectors.V16, *vectors.ROOTS16,
            vectors.M1_16, vectors.M2_16, vectors.K1_16, vectors.K2_16),
)
def test_cli_input_files_end_in_a_documented_exit_code(command, n, key, values):
    e_a1, e_a2, p, q, d = key
    c, u, v, *roots, m1, m2, k1, k2 = values
    with tempfile.TemporaryDirectory() as tmp:
        names = ("pub", "priv", "ct", "ka", "roots", "record", "payload", "out")
        paths = {name: Path(tmp, name) for name in names}
        paths["pub"].write_text(f"n = {n}\neA1 = {e_a1}\neA2 = {e_a2}\n")
        paths["priv"].write_text(f"n = {n}\np = {p}\nq = {q}\nd = {d}\n")
        paths["ct"].write_text(f"{c}\n")
        paths["ka"].write_text(f"u = {u}\nv = {v}\n")
        paths["roots"].write_text("".join(f"v{i + 1} = {r}\n" for i, r in enumerate(roots)))
        paths["record"].write_text(f"m1 = {m1}\nm2 = {m2}\nk1 = {k1}\nk2 = {k2}\n")
        paths["payload"].write_bytes(b"hi")
        options = (arg.format(**paths) for arg in command[1:])
        assert run(command[0], "--pub", str(paths["pub"]), *options) in (0, 2, 4, 5)


# Every record file the CLI reads, by name: its fields, or None for a ciphertext.
_RECORD_FIELDS = {
    "pub": ("n", "eA1", "eA2"),
    "priv": ("n", "p", "q", "d"),
    "ct": None,
    "record": ("m1", "m2", "k1", "k2"),
    "ka": ("u", "v"),
    "roots": ("v1", "v2", "v3", "v4"),
    "rpub": ("n", "N"),
    "rpriv": ("n", "p", "q"),
    "rct": None,
    "rct_ext": ("c", "parity", "jacobi"),
}
# The record file of each attack input option.
_ATTACK_INPUT_FILES = {"ct": "ct", "priv": "priv", "known-answer": "ka", "roots": "roots"}
_MUTATION_COMMANDS = (
    ("encrypt", "--pub", "{pub}", "--in", "{payload}", "--out", "{out}", "--seed", "0"),
    ("encrypt", "--pub", "{pub}", "--insecure-known-answer", "{record}", "--out", "{out}"),
    ("decrypt", "--pub", "{pub}", "--priv", "{priv}", "--in", "{ct}", "--out", "{out}"),
    ("validate", "--pub", "{pub}", "--priv", "{priv}"),
    ("validate", "--pub", "{pub}", "--priv", "{priv}", "--relaxed"),
    # each attack kind with the inputs its row reads
    *(
        ("attack", "--kind", kind, "--pub", "{pub}", "--budget", "64",
         *(arg for option, _ in _ATTACK_KINDS[kind][0]
           for arg in (f"--{option}", f"{{{_ATTACK_INPUT_FILES[option]}}}")))
        for kind in _ATTACK_KINDS
    ),
    *(
        ("rabin", "encrypt", "--pub", "{rpub}", "--in", "{payload}", "--out", "{out}",
         "--scheme", scheme)
        for scheme in ("redundant", "extrabits")
    ),
    ("rabin", "decrypt", "--priv", "{rpriv}", "--in", "{rct}", "--out", "{out}",
     "--scheme", "redundant"),
    ("rabin", "decrypt", "--priv", "{rpriv}", "--in", "{rct_ext}", "--out", "{out}",
     "--scheme", "extrabits"),
)
# (command, the one input file it reads that gets mutated)
_MUTATION_TARGETS = [
    (argv, name)
    for argv in _MUTATION_COMMANDS
    for name in re.findall(r"{(\w+)}", " ".join(argv))
    if name != "out"
]


@functools.cache
def _valid_record_files():
    """Each file of _RECORD_FIELDS for a seeded n=16 key pair and an n=24 Rabin key, and the
    payload "ab", as bytes."""
    rng = random.Random(0)
    kp = generate_keypair(16, rng)
    msg = encode(b"hi", 16)
    eph = sample_ephemerals(16, rng)
    trace = encrypt_trace(kp.public, msg, eph)
    rkp = rabin.keygen(24, rng)
    m = int.from_bytes(b"\x01ab", "big")  # the payload "ab" after the CLI's sentinel byte
    values = {
        "pub": (16, kp.public.e_a1, kp.public.e_a2),
        "priv": (16, kp.private.p, kp.private.q, kp.private.d),
        "record": (msg.m1, msg.m2, eph.k1, eph.k2),
        "ka": (trace.u, trace.v),
        "roots": unmasked_roots(kp, trace.ciphertext.c)[1],
        "rpub": (24, rkp.N),
        "rpriv": (24, rkp.p, rkp.q),
        "rct_ext": rabin.encrypt_extrabits(rkp.N, m),
    }
    files = {name: format_fields(zip(_RECORD_FIELDS[name], v)) for name, v in values.items()}
    files["ct"] = format_ciphertext(trace.ciphertext)
    files["rct"] = format_ciphertext(Ciphertext(rabin.encrypt_redundant(rkp.N, m, 8)))
    return {"payload": b"ab", **{name: text.encode() for name, text in files.items()}}


def _reads_as_record(name, path):
    """Whether the CLI's reader and parser for this file accept it (any bytes are a payload)."""
    if name == "payload":
        return True
    try:
        text = path.read_text(encoding="utf-8")
        if _RECORD_FIELDS[name] is None:
            parse_ciphertext(text)
        else:
            parse_fields(text, _RECORD_FIELDS[name])
    except ValueError:  # UnicodeDecodeError included
        return False
    return True


# The zero of each digit set a mutation swaps in for ASCII digits: Arabic-Indic,
# Devanagari and fullwidth.
_NON_ASCII_ZEROS = (0x660, 0x966, 0xFF10)


@settings(deadline=None)
@given(target=st.sampled_from(_MUTATION_TARGETS), data=st.data())
def test_mutated_input_files_end_in_a_documented_exit_code(target, data):
    # runs in-process, so a traceback would be an exception out of main
    argv, name = target
    files = _valid_record_files()
    lines = files[name].splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[i]
    mutation = data.draw(st.sampled_from(
        ("insert", "digits", "duplicate", "truncate", "bom", "crlf", "non-ascii", "random")))
    if mutation == "insert":
        at = data.draw(st.integers(0, len(line)), label="at")
        byte = data.draw(st.sampled_from((b"\x00", b"\xff\xfe", b"\r", b"\xc3", b"\xef\xbb\xbf")))
        lines[i] = line[:at] + byte + line[at:]
    elif mutation == "digits":  # the value becomes 5,000 decimal digits
        lines[i] = b"".join(line.rpartition(b"= ")[:2]) + b"9" * 5000 + b"\n"
    elif mutation == "duplicate":
        lines.insert(i, line)
    elif mutation == "truncate":
        lines[i] = line[: data.draw(st.integers(0, len(line) - 2), label="keep")] + b"\n"
    elif mutation == "bom":  # a UTF-8 byte order mark before the first line
        lines[0] = b"\xef\xbb\xbf" + lines[0]
    elif mutation == "crlf":  # Windows line ends throughout
        lines = [x.replace(b"\n", b"\r\n") for x in lines]
    elif mutation == "non-ascii":  # the line's digits in another script
        zero = data.draw(st.sampled_from(_NON_ASCII_ZEROS))
        lines[i] = re.sub(rb"[0-9]", lambda m: chr(zero + int(m[0])).encode(), line)
    else:
        lines[i] = data.draw(st.binary(max_size=64), label="bytes")
    with tempfile.TemporaryDirectory() as tmp:
        paths = {key: Path(tmp, key) for key in (*files, "out")}
        for key, content in files.items():
            paths[key].write_bytes(content)
        paths[name].write_bytes(b"".join(lines))
        code = run(*(arg.format(**paths) for arg in argv))
        assert code in ((0, 2, 4, 5) if _reads_as_record(name, paths[name]) else (2, 4, 5))
