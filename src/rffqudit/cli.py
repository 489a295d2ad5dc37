"""Command-line frontend.

Subcommands:

    census     sector table (formula cross-checked against per-block J^2 spectra)
    basis      dump the logical-sector isometry's weight-class blocks plus residuals
    encode     encode a logical state (and optionally a POVM) into payloads
    verify     run named invariant suites, exit 0 only if everything passes
    channel    collective-noise Monte Carlo with a seed-deterministic report
    reference  dump a closed-form operator family by case id

Global flags may appear before or after the subcommand; the value closest to
the subcommand wins. main reads them, runs the subcommand, writes its report,
then its failure lines and, with --timings, its stage times to stderr. Exit codes: 0 success, 1 verification/claim failure,
2 usage or validation error, or running out of memory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from math import comb, isfinite
from time import perf_counter

import numpy as np

from .channel import ChannelConfig, run_channel
from .coupling import (
    build_coupled_basis,
    gram_residual,
    multiplicity,
    sector_census,
    sector_index_set,
    sector_membership_residual,
)
from .encoder import QuditPovm, QuditState, encode_povm, encode_state
from .errors import (
    ConsistencyError,
    ContractViolationError,
    RffError,
    SizeLimitError,
    ValidationError,
)
from .linalg import matrix_from_json_dict, matrix_to_json_dict
from .reference import REFERENCE_CASES
from .spinsys import MAX_CONSTITUENTS, SpinRegister
from .verify import DEFAULT_SEED, SUITES, run_suite

DEFAULT_TRIALS = 100
DEFAULT_MAX_N = 12
# Weight-class entries a basis or encode report may write. An operator is written
# as its blocks on the product kets of weight 1 .. n-1: (2**n - 2) d entries for a
# basis, which fits up to the n = 14 cap, and C(2n, n) - 2 for a payload, so encode
# writes one state payload up to n = 11. Its JSON report writes the state payload
# and one per POVM element; CSV the state payload, or only the Born table.
MAX_REPORT_ENTRIES = 4 ** 10
REPORT_LAYOUT = 2  # of basis and encode JSON: each operator as its class blocks


def _add_global_flags(parser: argparse.ArgumentParser) -> None:
    # SUPPRESS keeps a flag parsed before the subcommand from being clobbered
    # by the subparser's defaults.
    parser.add_argument(
        "--tol", type=float, default=argparse.SUPPRESS,
        help="uniform tolerance override for every check "
             "(default: each check's documented tolerance)",
    )
    parser.add_argument(
        "--max-n", type=int, default=argparse.SUPPRESS, dest="max_n",
        help=f"largest register size, 2..{MAX_CONSTITUENTS} (default {DEFAULT_MAX_N})",
    )
    parser.add_argument(
        "--format", choices=("json", "csv"), default=argparse.SUPPRESS,
        help="output format (default json)",
    )
    parser.add_argument(
        "--output", default=argparse.SUPPRESS,
        help="output file path (default stdout)",
    )
    parser.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help=f"random seed for randomized checks and the channel "
             f"(default {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--timings", action="store_true", default=argparse.SUPPRESS,
        help="write each stage's elapsed milliseconds to stderr after the report "
             "(the report is unchanged)",
    )


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rffqudit",
        description="rotation-invariant logical qudits from spin-1/2 registers",
    )
    _add_global_flags(parser)
    # Only the top-level parser has defaults, so a flag is set wherever it appears.
    parser.set_defaults(tol=None, max_n=DEFAULT_MAX_N, format="json", output=None,
                        seed=DEFAULT_SEED, timings=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="sector multiplicities for one register size")
    _add_global_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of constituents")

    p = sub.add_parser("basis", help="dump the logical-sector basis kets")
    _add_global_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of constituents")
    p.add_argument(
        "--coupling", default="fourier",
        help='"fourier" (default) or a path to a coupling matrix in JSON form',
    )

    p = sub.add_parser("encode", help="encode a logical state (and POVM) into payloads")
    _add_global_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of constituents")
    p.add_argument(
        "--state", required=True,
        help="path to the logical density matrix in JSON form",
    )
    p.add_argument(
        "--povm",
        help='path to a logical POVM: JSON array of matrices or {"elements": [...]}',
    )

    p = sub.add_parser("verify", help="run invariant suites")
    _add_global_flags(p)
    p.add_argument(
        "--n-range", default="3..6", dest="n_range",
        help='register sizes as "a..b" (default 3..6)',
    )
    p.add_argument("--suite", choices=SUITES, default="all")

    p = sub.add_parser("channel", help="collective-noise Monte Carlo")
    _add_global_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of constituents")
    p.add_argument(
        "--state",
        help="path to the logical density matrix in JSON form "
             "(default: the first logical basis state)",
    )
    p.add_argument("--noise", choices=("haar", "fixed", "dephasing"), default="haar")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--axis", help='unit vector "x,y,z" for --noise fixed')
    p.add_argument("--angle", type=float, help="rotation angle for --noise fixed")
    p.add_argument("--width", type=float, help="angle spread for --noise dephasing")

    p = sub.add_parser("reference", help="dump a closed-form operator family")
    _add_global_flags(p)
    p.add_argument("--case", required=True, help="case id (see --case help on error)")
    return parser


def _global_opts(ns: argparse.Namespace) -> None:
    if ns.tol is not None and not (isfinite(ns.tol) and ns.tol > 0):
        raise ValidationError(f"--tol must be positive and finite, got {ns.tol}")
    if not 2 <= ns.max_n <= MAX_CONSTITUENTS:
        raise ValidationError(f"--max-n must be in 2..{MAX_CONSTITUENTS}, got {ns.max_n}")


class _Clock:
    """The (label, ms) stages of one command, which --timings writes to stderr."""

    def __init__(self):
        self.stages: list[tuple[str, float]] = []
        self.start()

    def start(self) -> None:
        """Begin the next stage now; what ran since the last one is in no stage."""
        self._begun = perf_counter()

    def lap(self, label: str) -> None:
        """Close the stage begun at the last start, lap or add."""
        self.add(label, (perf_counter() - self._begun) * 1e3)

    def add(self, label: str, ms: float) -> None:
        """Record a stage timed elsewhere; the next stage begins now."""
        self.stages.append((label, ms))
        self.start()


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {output}: {exc}") from exc


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _dump_csv(header: list, rows: list) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _entry_rows(m) -> list:
    """[row, col, repr(re), repr(im)] for each entry of m in row-major order; a
    vector is one column."""
    m = np.asarray(m)
    cols = m.size // len(m)
    return [[idx // cols, idx % cols, repr(float(z.real)), repr(float(z.imag))]
            for idx, z in enumerate(m.reshape(-1).tolist())]


def _require_class_entries(ns: argparse.Namespace, operators: int, each: int) -> None:
    """Refuse, before anything is built, more than MAX_REPORT_ENTRIES class entries."""
    if operators * each > MAX_REPORT_ENTRIES:
        raise SizeLimitError(
            f"{ns.command} --n {ns.n} would write {operators} operator(s) of {each} weight-class "
            f"entries, {operators * each} in all, over the {MAX_REPORT_ENTRIES} a report may "
            "hold; use a smaller --n" + (" or fewer POVM elements" if operators > 1 else ""))


def _classes_json(blocks) -> dict:
    """An operator's weight-class blocks, w = 1 .. n-1, as one report entry."""
    return {"classes": [{"weight": w, "block": matrix_to_json_dict(block)}
                        for w, block in enumerate(blocks, 1)]}


def _classes_csv(operator: str, blocks, records=()) -> str:
    """One row per entry of an operator's class blocks (weight, row, col), then records."""
    rows = [[operator, w, *entry]
            for w, block in enumerate(blocks, 1) for entry in _entry_rows(block)]
    return _dump_csv(["operator", "weight", "row", "col", "re", "im"], rows + list(records))


def _read_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def _require_register_size(n: int, smallest: int, ceiling: int) -> None:
    if not smallest <= n <= ceiling:
        raise ValidationError(
            f"--n must be in {smallest}..{ceiling} (ceiling from --max-n), got {n}"
        )


# ---------------------------------------------------------------------------
# Subcommands: each returns its report text and its failure lines (exit 1 if any)
# ---------------------------------------------------------------------------

def cmd_census(ns: argparse.Namespace, clock: _Clock) -> tuple[str, list]:
    _require_register_size(ns.n, 2, ns.max_n)
    rows = [(str(j), multiplicity(ns.n, j), int(2 * j + 1)) for j in sector_index_set(ns.n)]
    agreement, note = True, None
    try:
        sector_census(SpinRegister(ns.n))
    except ConsistencyError as exc:
        # A J^2 block spectrum disagrees with the formula: still print the
        # formula-side table, flag the disagreement, and exit 1.
        agreement, note = False, str(exc)
    clock.lap("census:build")

    if ns.format == "json":
        payload = {
            "n": ns.n,
            "agreement": agreement,
            "sectors": [
                {"j": j, "multiplicity": m, "dimension": dim} for j, m, dim in rows
            ],
        }
        if note:
            payload["note"] = note
        text = _dump_json(payload)
    else:
        text = _dump_csv(
            ["n", "j", "multiplicity", "dimension", "agreement"],
            [[ns.n, j, m, dim, agreement] for j, m, dim in rows],
        )
    clock.lap("census:serialisation")
    return text, [] if agreement else [f"verification failure: {note}"]


def cmd_basis(ns: argparse.Namespace, clock: _Clock) -> tuple[str, list]:
    _require_register_size(ns.n, 3, ns.max_n)
    _require_class_entries(ns, 1, (2 ** ns.n - 2) * (ns.n - 1))
    coupling = (None if ns.coupling == "fourier"
                else matrix_from_json_dict(_read_json_file(ns.coupling)))
    clock.start()  # reading the coupling file is in no stage
    basis = build_coupled_basis(SpinRegister(ns.n), coupling)
    gram = gram_residual(basis)
    membership = sector_membership_residual(basis)
    clock.lap("basis:build")

    if ns.format == "json":
        text = _dump_json({
            "n": basis.n,
            "j2": str(basis.j2),
            "d": basis.d,
            "coupling_fingerprint": basis.fingerprint,
            "gram_residual": gram,
            "sector_membership_residual": membership,
            "layout": REPORT_LAYOUT,
            "isometry": _classes_json(basis.blocks),
        })
    else:
        text = _classes_csv("isometry", basis.blocks, [
            ["gram_residual", "", "", "", repr(gram), ""],
            ["sector_membership_residual", "", "", "", repr(membership), ""]])
    clock.lap("basis:serialisation")
    return text, []


def _load_povm(path: str, d: int) -> QuditPovm:
    obj = _read_json_file(path)
    if isinstance(obj, dict) and "elements" in obj:
        obj = obj["elements"]
    if not isinstance(obj, list):
        raise ValidationError(
            f'{path} must hold a JSON array of matrices or {{"elements": [...]}}'
        )
    return QuditPovm(d=d, elements=tuple(matrix_from_json_dict(e) for e in obj))


def cmd_encode(ns: argparse.Namespace, clock: _Clock) -> tuple[str, list]:
    _require_register_size(ns.n, 3, ns.max_n)
    d = ns.n - 1
    rho = matrix_from_json_dict(_read_json_file(ns.state))
    state = QuditState(d=d, rho=rho)
    povm = _load_povm(ns.povm, d) if ns.povm else None
    writes_state = ns.format == "json" or not povm  # CSV with a POVM: the Born table alone
    payloads = writes_state + (len(povm.elements) if povm and ns.format == "json" else 0)
    _require_class_entries(ns, payloads, comb(2 * ns.n, ns.n) - 2)
    clock.start()  # reading the input files is in no stage
    qs = build_coupled_basis(SpinRegister(ns.n))
    clock.lap("encode:build")
    encoded_state = encode_state(qs, state)
    encoded = encode_povm(qs, povm) if povm else []
    # The class blocks of each payload counted above, from the A that .payload lifts.
    written = [encoded_state, *encoded][:payloads]
    blocks = [tuple(qs.lift_blocks(e.frame[::d, ::d])) for e in written]
    clock.lap("encode:encode")

    born_rows = []
    if povm:
        # Tr(P_rho P_Pi) = Tr(sum_m2 C_m2 Pi), C the class frames of the state
        # payload's lifted blocks: no 2**n x 2**n array is formed.
        frames = qs.compress_lifted((state.rho / d)[None])
        probabilities = np.einsum("ij,kji->k", frames[0].sum(axis=0),
                                  np.stack(povm.elements)).real
        for k, (element, encoded_p) in enumerate(zip(povm.elements, probabilities.tolist())):
            logical_p = float(np.trace(state.rho @ element).real)
            born_rows.append({
                "element": k,
                "logical": logical_p,
                "encoded": encoded_p,
                "deviation": abs(encoded_p - logical_p),
            })
    clock.lap("encode:born")

    if ns.format == "json":
        payload = {
            "n": ns.n,
            "d": d,
            "coupling_fingerprint": qs.fingerprint,
            "layout": REPORT_LAYOUT,
            "state_payload": _classes_json(blocks[0]),
        }
        if povm:
            payload["povm_payloads"] = [_classes_json(b) for b in blocks[1:]]
            payload["born_table"] = born_rows
            payload["max_deviation"] = max(r["deviation"] for r in born_rows)
        text = _dump_json(payload)
    elif born_rows:
        text = _dump_csv(
            ["element", "logical", "encoded", "deviation"],
            [[r["element"], repr(r["logical"]), repr(r["encoded"]),
              repr(r["deviation"])] for r in born_rows],
        )
    else:
        text = _classes_csv("state_payload", blocks[0])
    clock.lap("encode:serialisation")
    return text, []


def _parse_n_range(text: str, ceiling: int) -> range:
    parts = text.split("..")
    if len(parts) != 2:
        raise ValidationError(f'--n-range must look like "3..6", got {text!r}')
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ValidationError(f'--n-range must look like "3..6", got {text!r}') from exc
    if not 2 <= lo <= hi <= ceiling:
        raise ValidationError(
            f"--n-range must satisfy 2 <= a <= b <= {ceiling}, got {text}"
        )
    return range(lo, hi + 1)


def cmd_verify(ns: argparse.Namespace, clock: _Clock) -> tuple[str, list]:
    n_values = _parse_n_range(ns.n_range, ns.max_n)
    results = run_suite(ns.suite, tol=ns.tol, seed=ns.seed, n_values=n_values)
    for r in results:
        clock.add(r.id, r.elapsed_ms)

    if ns.format == "json":
        text = _dump_json({
            "suite": ns.suite,
            "n_range": ns.n_range,
            "checks": [r.as_dict() for r in results],
            "passed": all(r.passed for r in results),
        })
    else:
        text = _dump_csv(
            ["id", "description", "residual", "tolerance", "passed"],
            [[r.id, r.description, repr(r.residual), repr(r.tolerance), r.passed]
             for r in results],
        )
    clock.lap("verify:serialisation")
    return text, [f"FAILED {r.id}: residual {r.residual:.6e} exceeds tolerance {r.tolerance:g}"
                  for r in results if not r.passed]


def _parse_axis(text: str) -> tuple[float, float, float]:
    try:
        parts = tuple(float(p) for p in text.split(","))
    except ValueError as exc:
        raise ValidationError(f'--axis must look like "0,0,1", got {text!r}') from exc
    if len(parts) != 3:
        raise ValidationError(f"--axis needs exactly three components, got {text!r}")
    return parts


def cmd_channel(ns: argparse.Namespace, clock: _Clock) -> tuple[str, list]:
    _require_register_size(ns.n, 3, ns.max_n)
    d = ns.n - 1
    if ns.state:
        rho = matrix_from_json_dict(_read_json_file(ns.state))
    else:
        rho = np.zeros((d, d), dtype=complex)
        rho[0, 0] = 1.0
    state = QuditState(d=d, rho=rho)
    cfg = ChannelConfig(
        n=ns.n,
        trials=ns.trials,
        seed=ns.seed,
        noise=ns.noise,
        axis=_parse_axis(ns.axis) if ns.axis else None,
        angle=ns.angle,
        width=ns.width,
    )
    report = run_channel(cfg, state)
    for stage, ms in report.elapsed_ms.items():
        clock.add(f"channel:{stage}", ms)
    text = report.to_json() + "\n" if ns.format == "json" else report.to_csv()
    clock.lap("channel:serialisation")
    return text, []


def cmd_reference(ns: argparse.Namespace, clock: _Clock) -> tuple[str, list]:
    if ns.case not in REFERENCE_CASES:
        raise ValidationError(
            f"unknown reference case {ns.case!r}; valid ids: "
            + ", ".join(sorted(REFERENCE_CASES))
        )
    case = REFERENCE_CASES[ns.case]
    matrices = case.build()
    clock.lap("reference:build")

    if ns.format == "json":
        text = _dump_json({
            "case": case.id,
            "description": case.description,
            "formulas": case.formulas,
            "matrices": {
                name: matrix_to_json_dict(m) for name, m in matrices.items()
            },
        })
    else:
        text = _dump_csv(["name", "row", "col", "re", "im"],
                         [[name, *row] for name, m in matrices.items()
                          for row in _entry_rows(m)])
    clock.lap("reference:serialisation")
    return text, []


_DISPATCH = {
    "census": cmd_census,
    "basis": cmd_basis,
    "encode": cmd_encode,
    "verify": cmd_verify,
    "channel": cmd_channel,
    "reference": cmd_reference,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 2 if code is None else int(code)
    clock = _Clock()
    try:
        _global_opts(ns)
        text, failures = _DISPATCH[ns.command](ns, clock)
        _emit(text, ns.output)
    except (ValidationError, ContractViolationError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RffError as exc:  # ConsistencyError, NumericalError: claim failures
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size the machine cannot hold, not a failed claim
        print(f"error: out of memory ({type(exc).__name__}: {exc}); "
              "try a smaller --n", file=sys.stderr)
        return 2
    for line in failures:
        print(line, file=sys.stderr)
    if ns.timings:
        for label, ms in clock.stages:
            print(f"timing {label}: {ms:.1f} ms", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
