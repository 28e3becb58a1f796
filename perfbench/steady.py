"""Run-to-run spread of the end-to-end metrics, as the acceptance check sees it.

    python3 perfbench/steady.py --workload keygen --seeds 1-10

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric of BENCHMARK.json its median over the runs and the
distance between the first and third quartile as a share of that median,
next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()),
              flush=True)
        for metric, v in result["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
    for entry in spec["end_to_end"]:
        xs = values.get(entry["name"], [])
        if len(xs) < 2:
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        print(f"{args.workload} {entry['name']}: median {med:.6g} {entry['unit']}, "
              f"spread {(q3 - q1) / med:.4f} (bound {entry['bound']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
