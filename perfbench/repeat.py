"""Run perfbench/run.py over several seeds and summarise each metric.

    python3 perfbench/repeat.py [--workload NAME ...] [--seeds 1-10] [--trace 1]

Without --workload it runs every workload in BENCHMARK.json. Runs are
sequential, one process at a time, from the repository root. For each
workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), and the quartile spread as a share of
the median; the raw results go to perfbench-out/repeat-NAME.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+",
                        default=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seeds", default="1-10", help='"a-b" (default 1-10)')
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    (ROOT / "perfbench-out").mkdir(exist_ok=True)
    for workload in args.workload:
        _repeat(workload, _seeds(args.seeds), args.seconds, args.trace)
    return 0


def _repeat(workload: str, seeds: list, seconds: int, trace: int) -> None:
    log = ROOT / "perfbench-out" / f"repeat-{workload}.jsonl"
    results = []
    with open(log, "a", encoding="utf-8") as fh:
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            fh.write(json.dumps({"seed": seed, "trace": trace, **result}) + "\n")
            results.append(result)
            print(workload, seed, result["attempted"], result["failed"],
                  result["correct"], flush=True)

    print(f"{workload}: {len(results)} runs of {seconds} s, trace {trace}")
    print(f"{'metric':46} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name + ' (' + first['unit'] + ')':46} {median:12.4f} {q1:12.4f} "
              f"{q3:12.4f} {spread:8.2%}")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}", flush=True)


if __name__ == "__main__":
    sys.exit(main())
