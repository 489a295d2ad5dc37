"""Compare the CLI's report bytes on the working tree with those of a git ref.

    python3 tools/report_matrix.py REF

Runs one matrix of reports twice: on the working tree's src, and on
`git archive REF` unpacked in a temporary directory. The matrix is verify
JSON and CSV at four seeds and its encoder suite at n = 8..9; channel in
every noise mode at n = 3, 4 and 7, one channel trial at n = 3, and haar
noise at n = 4 on the mixed qutrit with coherences that this script writes
(every other channel row decodes the command's diagonal default state);
census, basis, encode (of that state alone, and of the state and a POVM,
which this script also writes) and every reference case; each in JSON and
CSV. Each report is made by its own `python -m rffqudit` child with one BLAS
thread. For each report whose bytes or exit code differ, or that fails on
both sides, it prints the command and the largest move of a number in it.
Exit 0 when every report matches, 1 when one does not, 2 when the ref cannot
be read. It uses the standard library only and writes nothing in the
repository.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A JSON or CSV number, or the words json and repr write for the float specials.
NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity|inf)|NaN|nan")
THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# rho = 0.7 |psi><psi| + 0.1 I for psi = (1, i, 1) / sqrt(3), d = 3 (n = 4).
_PSI = (1, 1j, 1)
STATE = [[0.7 * a * b.conjugate() / 3 + 0.1 * (i == j) for j, b in enumerate(_PSI)]
         for i, a in enumerate(_PSI)]
POVM = [[[float(i == j == k) for j in range(3)] for i in range(3)] for k in range(3)]


def _matrix_json(rows) -> dict:
    flat = [complex(z) for row in rows for z in row]
    return {"rows": len(rows), "cols": len(rows[0]),
            "data": [[z.real, z.imag] for z in flat]}


def matrix(inputs: Path) -> list:
    """The commands of the matrix, each an argument list for `python -m rffqudit`."""
    state, povm = inputs / "state.json", inputs / "povm.json"
    runs = []
    for seed in (0, 7, 1234, 2 ** 32 - 1):
        runs += [["verify", "--suite", "all", "--n-range", "3..7", "--seed", str(seed),
                  "--format", fmt] for fmt in ("json", "csv")]
    # the encoder rows at sizes where a rotation chunk holds one trial
    runs += [["verify", "--suite", "encoder", "--n-range", "8..9", "--seed", "7",
              "--format", fmt] for fmt in ("json", "csv")]
    noises = (["--noise", "haar"],
              ["--noise", "fixed", "--axis", "0.6,0,0.8", "--angle", "1.3"],
              ["--noise", "dephasing", "--width", "0.7"])
    for n in (3, 4, 7):
        runs += [["channel", "--n", str(n), "--trials", "60", "--seed", "11", *noise,
                  "--format", fmt] for noise in noises for fmt in ("json", "csv")]
    for fmt in ("json", "csv"):
        runs += [["channel", "--n", "3", "--trials", "1", "--format", fmt],
                 ["channel", "--n", "4", "--trials", "60", "--seed", "11", "--state",
                  str(state), "--format", fmt],
                 ["census", "--n", "7", "--format", fmt],
                 ["basis", "--n", "5", "--format", fmt],
                 ["encode", "--n", "4", "--state", str(state), "--format", fmt],
                 ["encode", "--n", "4", "--state", str(state), "--povm", str(povm),
                  "--format", fmt]]
    return runs


def write_inputs(inputs: Path) -> None:
    (inputs / "state.json").write_text(json.dumps(_matrix_json(STATE)))
    (inputs / "povm.json").write_text(json.dumps([_matrix_json(e) for e in POVM]))


def reference_cases(tree: Path) -> list:
    """The reference case ids of a tree, as its own package lists them."""
    out = _run(tree, ["-c", "from rffqudit.reference import REFERENCE_CASES as c; "
                            "print(' '.join(sorted(c)))"])
    return out.stdout.split()


def _run(tree: Path, args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **{var: "1" for var in THREADS})
    return subprocess.run([sys.executable, *args], cwd=tree, env=env,
                          capture_output=True, text=True)


def largest_move(a: str, b: str) -> str:
    """The largest |x - y| over the numbers of two texts that differ only in
    their numbers, or a note that their text differs elsewhere."""
    if NUMBER.split(a) != NUMBER.split(b):
        return "the text differs outside its numbers"
    pairs = [(float(x), float(y)) for x, y in zip(NUMBER.findall(a), NUMBER.findall(b))
             if x != y]
    moves = [abs(x - y) for x, y in pairs if math.isfinite(x - y)]
    if len(moves) < len(pairs):
        return "a number turns non-finite"
    return f"largest move {max(moves, default=0.0):.2g} over {len(moves)} numbers"


def archive(ref: str, into: Path) -> None:
    """Unpack `git archive ref` into a directory."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                          capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(into, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="the git ref to compare with, e.g. HEAD or main~1")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        parent = scratch / "ref"
        try:
            archive(args.ref, parent)
        except subprocess.CalledProcessError as exc:
            print(f"error: git archive {args.ref}: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        write_inputs(scratch)
        runs = matrix(scratch) + [["reference", "--case", case, "--format", fmt]
                                  for case in reference_cases(ROOT) for fmt in ("json", "csv")]
        differ = 0
        for argv_ in runs:
            mine, theirs = (_run(tree, ["-m", "rffqudit", *argv_]) for tree in (ROOT, parent))
            shown = " ".join(argv_).replace(str(scratch) + os.sep, "")
            if mine.returncode == theirs.returncode == 0 and mine.stdout == theirs.stdout:
                continue
            differ += 1
            if mine.returncode == theirs.returncode != 0:
                print(f"{shown}: exit {mine.returncode} on both sides, nothing compared")
            elif mine.returncode != theirs.returncode:
                print(f"{shown}: exit {theirs.returncode} at {args.ref}, {mine.returncode} here")
            else:
                print(f"{shown}: {largest_move(theirs.stdout, mine.stdout)}")
        print(f"{differ} of {len(runs)} reports differ from {args.ref}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
