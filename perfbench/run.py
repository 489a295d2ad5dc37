"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The program is imported from ./src, never
from an installed copy. With --trace 0 the result carries the end-to-end
metrics; with --trace 1 the per-layer metrics of a traced run, and the spans
go to perfbench-out/trace-NAME-seedN.json. Exit code 2 means the benchmark
could not run.
"""

from time import perf_counter

START = perf_counter()  # setup_s counts from here, before any import

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
WORKLOAD_NAMES = ("channel-n3", "qudit-n8", "verify-n3-7")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    # One BLAS/OpenMP thread, fixed before numpy loads: two threads spread the
    # per-call median far more than one.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    try:
        import rffqudit
    except ImportError as exc:
        print(f"error: cannot import rffqudit from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(rffqudit.__file__).resolve().parent.parent != SRC:
        print(f"error: rffqudit came from {rffqudit.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from perfbench import workloads
    from perfbench.tracing import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = workloads.measure(args.workload, args.seed, args.seconds,
                                   workdir, START, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
