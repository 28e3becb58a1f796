"""Benchmark of the aabeta package's public paths.

One process, one thread, one closed-loop client: each step starts when the
previous one has finished. Run from the repository root:

    python3 perfbench/run.py --workload msg-large --seed 1 --seconds 30 --trace 0

--workload is one of keygen, msg-small, msg-large, attack, or all (each in
turn, in its own process). --trace 0 measures the end-to-end metrics;
--trace 1 replays seeded steps with a span around every library call and
reports the per-layer metrics and the tracing overhead. --tiny shrinks key
sizes for a quick smoke run whose figures are not comparable.

Every metric is printed as a line "name = value unit (how measured)". The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Results and spans are also written under
.bench_out/ in the repository root. See README.md in this directory.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from checks import CheckFailed, layer_of
from layers import OVERHEAD, layer_metrics
from spans import NullTracer, Tracer, span_stats, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "aabeta"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("keygen", "msg-small", "msg-large", "attack")
SETUP_REPS = 5
TAIL_CAP = 99
# The end-to-end metrics every workload reports in its result line.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("step_ms_p50", "ms"),
    ("step_ms_tail", "ms"),
)
_PER_SECOND = {"s": 1.0, "ms": 1e3, "us": 1e6}
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import aabeta.cli; "
    "print(time.perf_counter() - t)"
)

perf = time.perf_counter


def _import_package():
    """Import aabeta from this checkout's src/, or exit without a result."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        sys.exit("error: src/aabeta not found beside perfbench/; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import aabeta

    if Path(aabeta.__file__).resolve().parent != PACKAGE_DIR:
        sys.exit(f"error: aabeta was imported from {aabeta.__file__}, not src/aabeta")


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "tiny" if args.tiny else "full",
    }


def import_seconds():
    """Time `import aabeta.cli` in a fresh interpreter (as a user pays it)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(done.stdout.strip())


def tail(values):
    """(value, percentile): the highest percentile that has at least ten
    samples beyond it, capped at p99, by nearest rank (the median when there
    are too few samples for either)."""
    xs = sorted(values)
    rank = min(math.ceil(TAIL_CAP / 100 * len(xs)), len(xs) - 10)
    if rank < (len(xs) + 1) // 2:
        return statistics.median(xs), 50.0
    return xs[rank - 1], 100.0 * rank / len(xs)


class Tally:
    """Step outcomes: latency samples per timed region and per step,
    extras, failures."""

    def __init__(self, workload, log):
        self.workload = workload
        self.samples = {r: [] for r in workload.timed}
        self.extras = {}
        self.steps = []
        self.attempted = 0
        self.failures = {}
        self.peak_rss_mb = None
        self._log = log

    @property
    def failed(self):
        return sum(self.failures.values())

    def attempt(self, label, fn, *args):
        """Count one attempted operation; return fn's result, or None when
        it raised. A failed check is charged to the layer it names, any
        other error to the library module it came from."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed as exc:
            self._fail(label, exc.layer, exc)
        except Exception as exc:  # a library error fails the step, not the run
            self._fail(label, layer_of(exc, PACKAGE_DIR), exc)
        return None

    def _step(self, i, t):
        with t.span("step", op=i):
            return self.workload.step(i, t)

    def run(self, i, t):
        """Run step i; return its latency in seconds, or None if it failed."""
        timings = self.attempt(i, self._step, i, t)
        if timings is None:
            return None
        latency = 0.0
        for region, seconds in timings.items():
            if region in self.samples:
                self.samples[region].append(seconds)
                latency += seconds
            else:
                self.extras[region] = self.extras.get(region, 0) + seconds
        self.steps.append(latency)
        return latency

    def _fail(self, label, layer, exc):
        self.failures[layer] = self.failures.get(layer, 0) + 1
        if self.failed <= 5:
            self._log(f"{label} failed in {layer}: {type(exc).__name__}: {exc}")


def measure_setup(workload, t):
    """Set up SETUP_REPS times; each takes a fresh-interpreter import plus
    the workload's key and input generation. The steps use the first."""
    totals = []
    states = []
    for rep in range(SETUP_REPS):
        imported = import_seconds()
        with t.span("setup", op=f"setup{rep}"):
            t0 = perf()
            states.append(workload.build(rep, t))
            totals.append(imported + perf() - t0)
    workload.state = states[0]
    return totals


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def closed_loop(tally, t, seconds):
    """Run steps until the time is spent. Peak memory is read after the
    first pass_steps steps: later growth is only the benchmark's own sample
    lists, which would make a faster program look bigger."""
    deadline = perf() + seconds
    i = 0
    while True:
        tally.run(i, t)
        i += 1
        if i == tally.workload.pass_steps:
            tally.peak_rss_mb = peak_rss_mb()
        if perf() >= deadline:
            break
    if tally.peak_rss_mb is None:
        tally.peak_rss_mb = peak_rss_mb()


def traced_loop(tally, tracer, seconds):
    """Alternate an untraced and a traced pass over the same seeded steps
    until the time is spent (at least one pair).

    Returns the span statistics of all traced passes, the spans of the
    first one (with the set-up before it), its counters, and the tracing
    overhead: traced minus untraced time of the steps, in % of untraced.
    """
    null = NullTracer()
    k = tally.workload.pass_steps
    stats = {}
    kept = counters = None
    base = traced = 0.0
    start = perf()
    while True:
        pair_start = perf()
        base += sum(tally.run(i, null) or 0.0 for i in range(k))
        traced += sum(tally.run(i, tracer) or 0.0 for i in range(k))
        spans = tracer.drain()
        span_stats(spans, stats)
        if kept is None:
            kept, counters = spans, dict(tracer.counters)
        now = perf()
        if now - start + (now - pair_start) > seconds:
            break
    return stats, kept, counters, (traced - base) / base * 100.0 if base else 0.0


def end_to_end(tally, setup_totals):
    """Named end-to-end metrics: {name: (value, unit, how measured)}."""
    wl = tally.workload
    steps = tally.steps
    named = {
        "setup_s": (
            statistics.median(setup_totals),
            "s",
            f"median of {len(setup_totals)} set-ups",
        ),
        "peak_rss_mb": (
            tally.peak_rss_mb,
            "MB",
            f"peak resident set after set-up and {min(wl.pass_steps, len(steps))} steps",
        ),
        "error_rate": (
            tally.failed / tally.attempted,
            "ratio",
            f"{tally.failed} failed of {tally.attempted} operations (steps and set-up check)",
        ),
    }
    if steps:
        how = f"{len(steps)} steps / their {sum(steps):.3f} timed seconds"
        named["ops_per_s"] = (len(steps) / sum(steps), "1/s", how)
        how = f"median of {len(steps)} steps"
        named["step_ms_p50"] = (statistics.median(steps) * 1e3, "ms", how)
        value, q = tail(steps)
        named["step_ms_tail"] = (value * 1e3, "ms", f"p{q:.4g} of {len(steps)} steps")
    for metric, region, stat, unit in wl.report:
        xs = tally.samples[region]
        if not xs:
            continue
        if stat == "p50":
            value = statistics.median(xs)
            how = f"median of {len(xs)} samples"
        elif stat == "tail":
            value, q = tail(xs)
            how = f"p{q:.4g} of {len(xs)} samples"
        else:  # "rate:<extra>": the extra's total per second spent in the region
            extra = stat.split(":", 1)[1]
            total = tally.extras.get(extra, 0)
            how = f"{total} {extra} in {sum(xs):.3f} s over {len(xs)} calls"
            named[metric] = (total / sum(xs), unit, how)
            continue
        named[metric] = (value * _PER_SECOND[unit], unit, how)
    return named


def run_workload(args, log):
    from workloads import SIZES, WORKLOADS  # imports aabeta

    OUT.mkdir(exist_ok=True)
    env = environment(args)
    tracer = Tracer() if args.trace else NullTracer()
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](
            args.seed, SIZES["tiny" if args.tiny else "full"], Path(workdir)
        )
        setup_totals = measure_setup(workload, tracer)
        tally = Tally(workload, log)
        tally.attempt("set-up check", workload.check_setup, tracer)
        if args.trace:
            stats, spans, counters, overhead = traced_loop(tally, tracer, args.seconds)
        else:
            closed_loop(tally, tracer, args.seconds)

    if args.trace:
        metrics = layer_metrics(stats, counters, tally.failures)
        metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
        lines = [(m, v["value"], v["unit"], "traced run") for m, v in metrics.items()]
        spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        write_spans(spans, spans_path)
        env["spans"] = str(spans_path.relative_to(ROOT))
    else:
        named = end_to_end(tally, setup_totals)
        lines = [(m, v, u, how) for m, (v, u, how) in named.items()]
        metrics = {m: {"value": named[m][0], "unit": u} for m, u in END_TO_END if m in named}

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = dict(result, environment=env, report={m: [v, u, how] for m, v, u, how in lines})
    record["failures_by_layer"] = tally.failures
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for metric, value, unit, how in lines:
        print(f"{args.workload} {metric} = {value:.6g} {unit} ({how})")
    print(json.dumps(result))
    return record


def run_all(args):
    """Each workload in its own process, so none inherits another's memory."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for metric, value in part["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy key sizes for a smoke run")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    _import_package()
    if args.workload == "all":
        return run_all(args)
    run_workload(args, lambda text: print(text, file=sys.stderr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
