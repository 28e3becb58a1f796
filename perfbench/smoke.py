"""Smoke check of the benchmark itself: toy sizes, well under a minute.

    python3 perfbench/smoke.py

1. Every workload, untraced and traced, at --tiny sizes: the result line
   has exactly the keys correct, attempted, failed and metrics; its metrics
   are exactly those BENCHMARK.json lists for the mode, with their units;
   the report names every metric of the workload; nothing fails.
2. Deliberately corrupted library outputs (patched in this process only)
   are counted as failed steps charged to the right layer, never as passed.
3. The LLL checker rejects bases that break each of its conditions.
4. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero without a result line.

Exits 0 when every check holds; prints each failed check otherwise.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COMMON = ("setup_s", "peak_rss_mb", "error_rate", "ops_per_s", "step_ms_p50", "step_ms_tail")
problems = []


def expect(ok, what):
    if not ok:
        problems.append(what)
        print(f"FAIL {what}", flush=True)


def bench(workload, trace, seconds=0.5):
    """One tiny in-process run; returns (record, stdout lines, log lines)."""
    args = run.parse_args(
        ["--workload", workload, "--seed", "7", "--seconds", str(seconds),
         "--trace", str(trace), "--tiny"]
    )
    log = []
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        record = run.run_workload(args, log.append)
    return record, out.getvalue().splitlines(), log


def check_contract(workload, trace):
    record, lines, log = bench(workload, trace)
    result = json.loads(lines[-1])
    label = f"{workload} trace={trace}"
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
    expect(result["correct"] and result["failed"] == 0, f"{label}: failures {log}")
    expect(result["attempted"] >= 1, f"{label}: nothing attempted")
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {m: v["unit"] for m, v in result["metrics"].items()}
    expect(got == want, f"{label}: metrics {sorted(set(got) ^ set(want))} or units differ")
    expect(
        all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
        f"{label}: non-numeric value",
    )
    if not trace:
        from workloads import WORKLOADS

        named = COMMON + tuple(m for m, *_ in WORKLOADS[workload].report)
        for metric in named:
            expect(
                any(line.startswith(f"{workload} {metric} = ") for line in lines),
                f"{label}: report lacks {metric}",
            )
        expect(record["report"]["error_rate"][0] == 0, f"{label}: error_rate is not 0")
    for key in ("python", "platform", "nproc", "int_max_str_digits", "seed"):
        expect(key in record["environment"], f"{label}: environment lacks {key}")


@contextlib.contextmanager
def patched(module, name, replacement):
    original = getattr(module, name)
    setattr(module, name, replacement(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def corrupt_decode(orig):
    return lambda msg: orig(msg) + b"!"


def accept_tampered(orig):
    from aabeta.errors import InvalidCiphertext

    def decrypt(kp, ct):
        try:
            return orig(kp, ct)
        except InvalidCiphertext:
            return None

    return decrypt


def reject_every_key(orig):
    def validate(kp, strict=True):
        report = orig(kp, strict=strict)
        report.violations.append("injected")
        return report

    return validate


def off_by_one(orig):
    return lambda *args: orig(*args) + 1


def empty_cli_output(orig):
    def main(argv):
        code = orig(argv)
        if argv[0] == "decrypt":
            Path(argv[argv.index("--out") + 1]).write_bytes(b"")
        return code

    return main


def swapped_factors(orig):
    return lambda e_a1, roots: orig(e_a1, roots)[::-1]


def unreduced(orig):
    return lambda basis, *args: [list(row) for row in basis]


def wrong_root(orig):
    return lambda *args: (orig(*args)[0] + 1,) + orig(*args)[1:]


def check_corruption(module, name, replacement, workload, trace, layer):
    with patched(module, name, replacement):
        record, lines, _ = bench(workload, trace, seconds=0.3)
    label = f"corrupted {module.__name__}.{name} on {workload} trace={trace}"
    expect(not record["correct"] and record["failed"] > 0, f"{label}: counted as passed")
    expect(record["failures_by_layer"].get(layer, 0) > 0, f"{label}: not charged to {layer}")
    if trace:
        expect(record["metrics"][f"{layer}.failed"]["value"] > 0, f"{label}: {layer}.failed is 0")


def check_lll_checker():
    from checks import lll_violation
    from aabeta import attacks

    basis = [[1, 0, 10**6], [0, 1, 7 * 10**6], [0, 0, -(10**9 + 7)]]
    reduced = attacks.lll_reduce(basis)
    expect(lll_violation(basis, reduced) is None, "LLL checker rejects lll_reduce output")
    expect(lll_violation(basis, basis) is not None, "LLL checker accepts an unreduced basis")
    unit = [[1, 0], [0, 1]]
    expect(lll_violation(unit, unit) is None, "LLL checker rejects the identity")
    for given, output, reason in (
        (unit, [[1, 0], [0, 2]], "determinant"),
        (unit, [[1, 0], [3, 1]], "size-reduced"),
        ([[0, 1], [2, 0]], [[2, 0], [0, 1]], "Lovasz"),
        (unit, [[1, 1], [2, 2]], "dependent"),
    ):
        why = lll_violation(given, output) or ""
        expect(reason in why, f"LLL checker misses a basis that is not {reason}: {why!r}")


def check_refuses_without_source():
    """The benchmark alone (no src/) must fail without printing a result."""
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        args = ["--workload", "keygen", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(
            SPEC["command"] + args, cwd=bare, capture_output=True, text=True, timeout=180
        )
    expect(done.returncode != 0, "runs without the package source")
    expect(not done.stdout.strip(), "prints a result without the package source")


def main():
    run._import_package()
    from aabeta import attacks, cipher, cli, codec, keys, numtheory, rabin

    run.OUT.mkdir(exist_ok=True)
    for workload in run.WORKLOAD_NAMES:
        for trace in (0, 1):
            check_contract(workload, trace)
    check_corruption(codec, "decode", corrupt_decode, "msg-small", 0, "codec")
    check_corruption(cipher, "decrypt", accept_tampered, "msg-small", 0, "cipher")
    check_corruption(keys, "validate_keypair", reject_every_key, "keygen", 1, "keys")
    check_corruption(rabin, "decrypt_extrabits", off_by_one, "msg-small", 1, "rabin")
    check_corruption(cli, "main", empty_cli_output, "msg-large", 0, "cli")
    check_corruption(attacks, "factor_from_roots", swapped_factors, "attack", 0, "attacks")
    check_corruption(attacks, "lll_reduce", unreduced, "attack", 1, "attacks")
    check_corruption(numtheory, "four_roots", wrong_root, "msg-small", 1, "numtheory")
    check_lll_checker()
    check_refuses_without_source()
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
