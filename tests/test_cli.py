"""Command-line surface: exit codes, output formats, determinism."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from rffqudit import cli
from rffqudit.channel import random_density, random_povm
from rffqudit.coupling import CoupledBasis, build_coupled_basis, fourier_coupling
from rffqudit.encoder import (
    EncodedOperator,
    QuditPovm,
    QuditState,
    build_q_set,
    encode_povm,
    encode_state,
)
from rffqudit.linalg import matrix_from_json_dict, matrix_to_json_dict
from rffqudit.reference import n3_trine
from rffqudit.spinsys import SpinRegister


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def trine_povm_file(tmp_path):
    trine = n3_trine()
    elements = [
        matrix_to_json_dict(trine[f"logical{k}"] * (2 / 3)) for k in (1, 2, 3)
    ]
    return write_json(tmp_path / "povm.json", {"elements": elements})


# A basis or encode report writes each operator as its weight-class blocks: the
# block of weight w sits on the product kets of Hamming weight w, ascending (its
# rows, and a payload block's columns too), and the operator is zero elsewhere.

def class_rows(n, weight):
    """The product-ket indices of one Hamming weight, ascending."""
    return np.array([i for i in range(2 ** n) if bin(i).count("1") == weight])


def json_classes(operator):
    """{weight: block} of one operator of a JSON report."""
    return {c["weight"]: matrix_from_json_dict(c["block"]) for c in operator["classes"]}


def csv_classes(text):
    """({operator: {weight: block}}, the rows that hold no class entry) of a CSV report."""
    cells, records = {}, []
    for row in csv.DictReader(io.StringIO(text)):
        if row["weight"] == "":
            records.append(row)
            continue
        cells.setdefault(row["operator"], {}).setdefault(int(row["weight"]), {})[
            int(row["row"]), int(row["col"])] = complex(float(row["re"]), float(row["im"]))
    operators = {}
    for operator, by_weight in cells.items():
        operators[operator] = {}
        for weight, entries in by_weight.items():
            block = np.zeros(np.max(list(entries), axis=0) + 1, dtype=complex)
            assert len(entries) == block.size  # every entry is written
            for index, z in entries.items():
                block[index] = z
            operators[operator][weight] = block
    return operators, records


def scatter_payload(n, classes):
    """The 2**n x 2**n operator of a payload's class blocks, zeros between them."""
    out = np.zeros((2 ** n,) * 2, dtype=complex)
    for weight, block in classes.items():
        rows = class_rows(n, weight)
        out[np.ix_(rows, rows)] = block
    return out


def scatter_kets(n, classes):
    """{(m2, lambda): ket} of a basis's class blocks: column lambda - 1 of the
    block of weight n/2 - m2 on its rows, zeros elsewhere."""
    kets = {}
    for weight, block in classes.items():
        rows = class_rows(n, weight)
        for lam, column in enumerate(block.T, 1):
            ket = np.zeros(2 ** n, dtype=complex)
            ket[rows] = column
            kets[Fraction(n, 2) - weight, lam] = ket
    return kets


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

def test_census_json_payload(capsys):
    code, out, err = run_cli(capsys, "census", "--n", "4")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["n"] == 4
    assert payload["agreement"] is True
    assert payload["sectors"] == [
        {"j": "2", "multiplicity": 1, "dimension": 5},
        {"j": "1", "multiplicity": 3, "dimension": 3},
        {"j": "0", "multiplicity": 2, "dimension": 1},
    ]


def test_census_half_integer_labels(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert [s["j"] for s in payload["sectors"]] == ["3/2", "1/2"]


def test_census_csv_format(capsys):
    code, out, _ = run_cli(capsys, "census", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.split("\r\n")
    assert lines[0] == "n,j,multiplicity,dimension,agreement"
    assert lines[1] == "3,3/2,1,4,True"
    assert lines[2] == "3,1/2,2,2,True"


def test_census_over_ceiling_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "census", "--n", "13")
    assert code == 2
    assert out == ""
    assert "error:" in err and "13" in err


def test_max_n_flag_moves_the_ceiling(capsys, monkeypatch):
    # Lowering the ceiling turns a normally fine size into a usage error.
    code, _, err = run_cli(capsys, "census", "--n", "5", "--max-n", "4")
    assert code == 2
    assert "error:" in err and "5" in err
    # Raising it admits a size over the default (the census itself is
    # stubbed, so only the size check runs at n = 13).
    seen = []
    monkeypatch.setattr(cli, "sector_census", lambda reg: seen.append(reg.n) or [])
    code, _, err = run_cli(capsys, "census", "--n", "13", "--max-n", "13")
    assert code == 0, err
    assert seen == [13]


@pytest.mark.parametrize("argv, expected", [
    (("census", "--n", "3", "--max-n", "4"), 0),
    (("census", "--n", "5", "--max-n", "4"), 2),
    (("census", "--n", "3", "--max-n", "15"), 2),
])
def test_max_n_flag_lasts_one_call(capsys, argv, expected):
    code, _, _ = run_cli(capsys, *argv)
    assert code == expected
    # The next call in the same process is back on the default ceiling.
    code, _, err = run_cli(capsys, "census", "--n", "5")
    assert code == 0, err


def test_max_n_flag_out_of_range(capsys):
    code, _, err = run_cli(capsys, "census", "--n", "3", "--max-n", "15")
    assert code == 2
    assert "error:" in err


def test_census_disagreement_exits_one(capsys, monkeypatch):
    from rffqudit.errors import ConsistencyError

    def broken(reg):
        raise ConsistencyError("sector j=2: synthetic disagreement")

    monkeypatch.setattr(cli, "sector_census", broken)
    code, out, err = run_cli(capsys, "census", "--n", "4")
    assert code == 1
    payload = json.loads(out)
    assert payload["agreement"] is False
    assert "synthetic disagreement" in payload["note"]
    # The formula-side table still prints.
    assert [s["multiplicity"] for s in payload["sectors"]] == [1, 3, 2]
    assert "verification failure" in err


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def test_basis_json_keys_and_residuals(capsys):
    code, out, _ = run_cli(capsys, "basis", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2 and payload["j2"] == "1/2" and payload["layout"] == 2
    assert payload["gram_residual"] < 1e-12
    assert payload["sector_membership_residual"] < 1e-12
    classes = json_classes(payload["isometry"])
    assert {w: block.shape for w, block in classes.items()} == {1: (3, 2), 2: (3, 2)}
    kets = scatter_kets(3, classes)
    half = Fraction(1, 2)
    assert sorted(kets) == [(-half, 1), (-half, 2), (half, 1), (half, 2)]
    assert np.linalg.norm(kets[half, 1]) == pytest.approx(1.0, abs=1e-12)


def test_basis_accepts_coupling_file(capsys, tmp_path):
    path = write_json(
        tmp_path / "coupling.json", matrix_to_json_dict(fourier_coupling(3))
    )
    code, out, _ = run_cli(capsys, "basis", "--n", "3", "--coupling", path)
    assert code == 0
    default = build_coupled_basis(SpinRegister(3))
    assert json.loads(out)["coupling_fingerprint"] == default.fingerprint


def test_basis_rejects_invalid_coupling_file(capsys, tmp_path):
    path = write_json(
        tmp_path / "bad.json", matrix_to_json_dict(np.eye(3, dtype=complex))
    )
    code, _, err = run_cli(capsys, "basis", "--n", "3", "--coupling", path)
    assert code == 2
    assert "row" in err


def test_basis_missing_coupling_file(capsys):
    code, _, err = run_cli(capsys, "basis", "--n", "3", "--coupling", "/no/such.json")
    assert code == 2
    assert "error:" in err


def test_an_encode_state_payload_over_the_entry_budget_is_refused_before_the_build(
        capsys, tmp_path, monkeypatch):
    # One n = 12 payload has C(24, 12) - 2 class entries; the refusal comes before
    # any basis build.
    built = []
    monkeypatch.setattr(cli, "build_coupled_basis", lambda *args: built.append(args))
    state = write_json(tmp_path / "state.json", matrix_to_json_dict(np.eye(11) / 11))
    code, out, err = run_cli(capsys, "encode", "--n", "12", "--state", state)
    assert code == 2 and out == "" and built == []
    assert err == ("error: encode --n 12 would write 1 operator(s) of 2704154 weight-class "
                   "entries, 2704154 in all, over the 1048576 a report may hold; use a "
                   "smaller --n\n")


def test_basis_report_at_n13_fits_the_entry_budget(capsys, tmp_path):
    # (2**13 - 2) * 12 class entries: every basis report up to the n = 14 cap fits.
    code, out, err = run_cli(capsys, "basis", "--n", "13", "--max-n", "13", "--format", "csv",
                             "--output", str(tmp_path / "basis.csv"))
    assert code == 0 and out == "" and err == ""
    with open(tmp_path / "basis.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + (2 ** 13 - 2) * 12 + 2  # header, class entries, residuals


def _mixed_coupling(n):
    """[W F[:-1]; F[-1]] for a random unitary W: a valid coupling that is not Fourier's."""
    rng = np.random.default_rng([20261021, n])
    w, _ = np.linalg.qr(rng.normal(size=(n - 1, n - 1)) + 1j * rng.normal(size=(n - 1, n - 1)))
    fourier = fourier_coupling(n)
    return np.vstack([w @ fourier[:-1], fourier[-1:]])


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("coupling", ("fourier", "mixed"))
@pytest.mark.parametrize("n", range(3, 9))
def test_basis_class_blocks_rebuild_the_kets_bit_for_bit(capsys, tmp_path, n, coupling, fmt):
    u = _mixed_coupling(n) if coupling == "mixed" else None
    argv = ["basis", "--n", str(n), "--format", fmt]
    if u is not None:
        argv += ["--coupling", write_json(tmp_path / "coupling.json", matrix_to_json_dict(u))]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    if fmt == "json":
        classes = json_classes(json.loads(out)["isometry"])
    else:
        operators, records = csv_classes(out)
        assert [r["operator"] for r in records] == ["gram_residual", "sector_membership_residual"]
        classes = operators.pop("isometry")
        assert operators == {}
    basis = build_coupled_basis(SpinRegister(n), u)
    kets = scatter_kets(n, classes)
    assert sorted(kets) == sorted((m2, lam) for m2 in basis.m2_values() for lam in range(1, n))
    for (m2, lam), ket in kets.items():
        assert same_bits(ket, basis.ket(m2, lam)), (m2, lam)


@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("n", range(3, 9))
def test_encode_class_blocks_rebuild_the_payloads_bit_for_bit(capsys, tmp_path, n, fmt):
    d = n - 1
    rng = np.random.default_rng([20261021, n])
    state, povm = QuditState(d, random_density(rng, d)), random_povm(rng, d, d + 1)
    argv = ["encode", "--n", str(n), "--format", fmt,
            "--state", write_json(tmp_path / "state.json", matrix_to_json_dict(state.rho))]
    if fmt == "json":  # a CSV report given a POVM writes only the Born table
        argv += ["--povm", write_json(tmp_path / "povm.json", {"elements": [
            matrix_to_json_dict(e) for e in povm.elements]})]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    qs = build_coupled_basis(SpinRegister(n))
    if fmt == "json":
        report = json.loads(out)
        written = [json_classes(p) for p in [report["state_payload"], *report["povm_payloads"]]]
        expected = [encode_state(qs, state), *encode_povm(qs, povm)]
    else:
        operators, records = csv_classes(out)
        assert records == [] and list(operators) == ["state_payload"]
        written, expected = [operators["state_payload"]], [encode_state(qs, state)]
    assert len(written) == len(expected)
    for classes, encoded in zip(written, expected):
        assert sorted(classes) == list(range(1, n))
        assert same_bits(scatter_payload(n, classes), encoded.payload)


@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_basis_and_encode_form_no_dense_operator(capsys, tmp_path, monkeypatch, fmt):
    def dense(*_):
        raise AssertionError("a dense operator was formed")

    monkeypatch.setattr(CoupledBasis, "isometry", property(dense))
    monkeypatch.setattr(CoupledBasis, "ket", dense)
    monkeypatch.setattr(CoupledBasis, "lift", dense)
    monkeypatch.setattr(EncodedOperator, "payload", property(dense))
    rng = np.random.default_rng([20261021, 5])
    state = write_json(tmp_path / "state.json", matrix_to_json_dict(random_density(rng, 4)))
    povm = write_json(tmp_path / "povm.json", {"elements": [
        matrix_to_json_dict(e) for e in random_povm(rng, 4, 5).elements]})
    for argv in (["basis", "--n", "5"], ["encode", "--n", "5", "--state", state],
                 ["encode", "--n", "5", "--state", state, "--povm", povm]):
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0 and err == "" and out, argv


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def test_encode_completely_mixed_state(capsys, tmp_path):
    state = write_json(
        tmp_path / "state.json", matrix_to_json_dict(np.eye(2, dtype=complex) / 2)
    )
    code, out, _ = run_cli(capsys, "encode", "--n", "3", "--state", state)
    assert code == 0
    got = scatter_payload(3, json_classes(json.loads(out)["state_payload"]))
    qs = build_q_set(build_coupled_basis(SpinRegister(3)))
    np.testing.assert_allclose(got, qs.sector_projector / 4, atol=1e-13)


def test_encode_trine_povm_born_table(capsys, tmp_path):
    trine = n3_trine()
    state = write_json(
        tmp_path / "state.json", matrix_to_json_dict(trine["logical3"])
    )
    povm = trine_povm_file(tmp_path)
    code, out, _ = run_cli(
        capsys, "encode", "--n", "3", "--state", state, "--povm", povm
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_deviation"] < 1e-12
    probs = [row["encoded"] for row in payload["born_table"]]
    np.testing.assert_allclose(probs, [1 / 6, 1 / 6, 2 / 3], atol=1e-12)


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_encode_born_table_matches_the_dense_traces(capsys, tmp_path, n):
    # The table's Tr(K^dag P_rho K F) against the dense Tr(P_rho P_Pi) of the
    # payloads the same output prints.
    d = n - 1
    rng = np.random.default_rng([20261018, n])
    state = write_json(tmp_path / "state.json", matrix_to_json_dict(random_density(rng, d)))
    povm = write_json(tmp_path / "povm.json", {"elements": [
        matrix_to_json_dict(e) for e in random_povm(rng, d, d + 1).elements]})
    code, out, _ = run_cli(capsys, "encode", "--n", str(n), "--state", state,
                           "--povm", povm)
    assert code == 0
    report = json.loads(out)
    state_payload = scatter_payload(n, json_classes(report["state_payload"]))
    dense = [np.trace(state_payload @ scatter_payload(n, json_classes(p))).real
             for p in report["povm_payloads"]]
    encoded = [row["encoded"] for row in report["born_table"]]
    assert len(encoded) == d + 1
    np.testing.assert_allclose(encoded, dense, rtol=0, atol=1e-12)


def test_encode_report_over_the_entry_budget_is_refused_before_the_build(capsys, tmp_path):
    # 12 payloads of C(22, 11) - 2 class entries in JSON; the refusal comes before any
    # basis build.
    n, d = 11, 10
    rng = np.random.default_rng([20261019, n])
    state = write_json(tmp_path / "state.json", matrix_to_json_dict(random_density(rng, d)))
    povm = write_json(tmp_path / "povm.json", {"elements": [
        matrix_to_json_dict(e) for e in random_povm(rng, d, d + 1).elements]})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "encode", "--n", str(n), "--state", state,
                             "--povm", povm)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: encode --n 11 would write 12 operator(s) of 705430 "
                          "weight-class entries, 8465160 in all")
    assert err.endswith("use a smaller --n or fewer POVM elements\n")
    # One n = 11 state payload, the largest that encode writes, fits.
    assert comb(22, 11) - 2 <= cli.MAX_REPORT_ENTRIES < comb(24, 12) - 2


def _encode_csv_born_table(capsys, tmp_path, n):
    """encode --format csv --povm of a random state and d + 1 element POVM."""
    d = n - 1
    rng = np.random.default_rng([20261019, n])
    state = write_json(tmp_path / "state.json", matrix_to_json_dict(random_density(rng, d)))
    povm = write_json(tmp_path / "povm.json", {"elements": [
        matrix_to_json_dict(e) for e in random_povm(rng, d, d + 1).elements]})
    return run_cli(capsys, "encode", "--n", str(n), "--max-n", str(n), "--format", "csv",
                   "--state", state, "--povm", povm)


def test_a_csv_born_table_writes_no_payload_so_the_budget_admits_it(capsys, tmp_path):
    code, out, err = _encode_csv_born_table(capsys, tmp_path, 11)
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 11  # d + 1 elements
    assert all(float(row["deviation"]) <= 1e-12 for row in rows)


def test_a_csv_born_table_builds_no_dense_payload(capsys, tmp_path):
    tracemalloc.start()
    try:
        code, _, _ = _encode_csv_born_table(capsys, tmp_path, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 4 ** 10  # one 1024 x 1024 complex payload


def test_encode_rejects_non_state(capsys, tmp_path):
    state = write_json(
        tmp_path / "state.json",
        matrix_to_json_dict(np.diag([1.5, -0.5]).astype(complex)),
    )
    code, _, err = run_cli(capsys, "encode", "--n", "3", "--state", state)
    assert code == 2
    assert "PSD" in err


@pytest.mark.parametrize("change", (
    {"rows": True, "cols": 4},  # rows * cols matches the four entries
    {"data": [[True, False], [0, 0], [0, 0], [False, False]]},  # read as diag(1, 0)
))
def test_channel_state_with_json_booleans_exits_two(capsys, tmp_path, change):
    state = {**matrix_to_json_dict(np.diag([1.0, 0.0]).astype(complex)), **change}
    code, out, err = run_cli(capsys, "channel", "--n", "3", "--state",
                             write_json(tmp_path / "state.json", state))
    assert code == 2 and out == ""
    assert "matrix JSON" in err


def test_encode_rejects_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "encode", "--n", "3", "--state", str(path))
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_hws_suite_passes(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "hws", "--n-range", "3..4"
    )
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["suite"] == "hws"
    assert all(c["passed"] for c in payload["checks"])


def test_verify_json_reemits_byte_identically(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "coupling", "--n-range", "3..4"
    )
    assert code == 0
    assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out


def test_verify_rejects_bad_range(capsys):
    for bad in ("6..3", "abc", "3", "1..4", "3..99"):
        code, _, err = run_cli(capsys, "verify", "--n-range", bad)
        assert code == 2, bad
        assert "error:" in err


@pytest.mark.parametrize("suite", ("encoder", "hws"))
def test_verify_with_no_check_for_the_range_is_usage_error(capsys, suite):
    # Both suites start at n = 3, so 2..2 leaves them nothing to check.
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--n-range", "2..2")
    assert code == 2 and out == ""
    assert f"suite '{suite}'" in err and "2..2" in err


def test_verify_absurd_tolerance_fails_checks(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--suite", "coupling", "--n-range", "3..3",
        "--tol", "1e-30",
    )
    assert code == 1
    assert "FAILED" in err
    payload = json.loads(out)
    assert payload["passed"] is False


def test_verify_rejects_nonpositive_tolerance(capsys):
    for tol in ("0", "-1e-9", "nan", "inf"):
        code, _, err = run_cli(capsys, "verify", "--n-range", "3..3", f"--tol={tol}")
        assert code == 2, tol
        assert "--tol must be positive and finite" in err


# ---------------------------------------------------------------------------
# reference
# ---------------------------------------------------------------------------

def test_reference_case_json(capsys):
    code, out, _ = run_cli(capsys, "reference", "--case", "n4-hws")
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "n4-hws"
    assert set(payload["matrices"]) == {"u3", "v3"}
    u3 = matrix_from_json_dict(payload["matrices"]["u3"])
    assert u3.shape == (16, 16)
    assert payload["formulas"]


def test_reference_unknown_case_lists_ids(capsys):
    code, _, err = run_cli(capsys, "reference", "--case", "bogus")
    assert code == 2
    assert "n3-q" in err and "n4-hws" in err


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def test_channel_json_smoke(capsys):
    code, out, _ = run_cli(
        capsys, "channel", "--n", "3", "--trials", "3", "--seed", "8"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["trials"] == 3
    assert payload["config"]["seed"] == 8
    assert len(payload["per_trial"]) == 3
    assert payload["aggregate"]["fidelity"]["min"] > 1 - 1e-9


def test_channel_csv_bytes_are_crlf(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, _, _ = run_cli(
        capsys, "channel", "--n", "3", "--trials", "2",
        "--format", "csv", "--output", str(out_path),
    )
    assert code == 0
    raw = out_path.read_bytes()
    assert raw.startswith(b"trial,fidelity,trace_distance,leakage,bare_fidelity\r\n")
    assert raw.count(b"\r\n") == 3  # header + 2 rows


def test_channel_output_file_matches_stdout(tmp_path, capsys):
    args = ("channel", "--n", "3", "--trials", "2", "--seed", "5")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    out_path = tmp_path / "report.json"
    code2, stdout2, _ = run_cli(capsys, *args, "--output", str(out_path))
    assert code2 == 0 and stdout2 == ""
    assert out_path.read_text() == out


def test_channel_seed_determinism_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(
            capsys, "channel", "--n", "3", "--trials", "4", "--seed", "77",
            "--output", str(path),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    other = tmp_path / "c.json"
    run_cli(
        capsys, "channel", "--n", "3", "--trials", "4", "--seed", "78",
        "--output", str(other),
    )
    assert other.read_bytes() != paths[0].read_bytes()


def test_channel_fixed_noise_flags(capsys):
    code, out, _ = run_cli(
        capsys, "channel", "--n", "3", "--trials", "2", "--noise", "fixed",
        "--axis", "0,0,1", "--angle", "0.9",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["noise"] == {
        "mode": "fixed", "axis": [0.0, 0.0, 1.0], "angle": 0.9
    }


def test_channel_dephasing_requires_width(capsys):
    code, _, err = run_cli(
        capsys, "channel", "--n", "3", "--trials", "2", "--noise", "dephasing"
    )
    assert code == 2
    assert "width" in err


@pytest.mark.parametrize("flag, flags", [
    ("--width", ["--noise", "dephasing", "--width", "nan"]),
    ("--width", ["--noise", "dephasing", "--width", "inf"]),
    ("--angle", ["--noise", "fixed", "--axis", "0,0,1", "--angle", "nan"]),
    ("--axis", ["--noise", "fixed", "--axis", "0,nan,1", "--angle", "1.0"]),
    ("--width", ["--noise", "haar", "--width", "nan", "--angle", "inf"]),
    ("--angle", ["--axis", "0,0,1", "--angle", "0.7"]),  # Haar noise by default
])
def test_channel_rejects_non_finite_noise_parameters(capsys, flag, flags):
    code, _, err = run_cli(capsys, "channel", "--n", "3", "--trials", "2", *flags)
    assert code == 2
    assert flag.lstrip("-") in err and "NaN" not in err


def test_channel_bad_axis_text(capsys):
    code, _, err = run_cli(
        capsys, "channel", "--n", "3", "--trials", "2", "--noise", "fixed",
        "--axis", "0,0", "--angle", "1.0",
    )
    assert code == 2
    assert "axis" in err


# ---------------------------------------------------------------------------
# global flag handling
# ---------------------------------------------------------------------------

STAGES = {
    "census": ("build", "serialisation"),
    "basis": ("build", "serialisation"),
    "encode": ("build", "encode", "born", "serialisation"),
    "channel": ("noise", "rotation", "figures", "serialisation"),
    "reference": ("build", "serialisation"),
}


def _timed_argv(run, tmp_path) -> list:
    state = write_json(tmp_path / "state.json", matrix_to_json_dict(n3_trine()["logical3"]))
    return {
        "census": ["census", "--n", "4"],
        "basis": ["basis", "--n", "3"],
        "encode": ["encode", "--n", "3", "--state", state],
        "encode-povm": ["encode", "--n", "3", "--state", state,
                        "--povm", trine_povm_file(tmp_path)],
        "verify": ["verify", "--suite", "all", "--n-range", "3..4", "--seed", "7"],
        "verify-failing": ["verify", "--suite", "coupling", "--n-range", "3..3",
                           "--tol", "1e-30"],
        "channel": ["channel", "--n", "3", "--trials", "20", "--seed", "7"],
        "reference": ["reference", "--case", "n4-hws"],
    }[run]


@pytest.mark.parametrize("place", ("before", "after"))
@pytest.mark.parametrize("fmt", ("json", "csv"))
@pytest.mark.parametrize("run", ("census", "basis", "encode", "encode-povm", "verify",
                                 "verify-failing", "channel", "reference"))
def test_timings_go_to_stderr_last_and_leave_the_report(capsys, tmp_path, run, fmt, place):
    argv = _timed_argv(run, tmp_path) + ["--format", fmt]
    code, plain, plain_err = run_cli(capsys, *argv)
    timed_argv = ["--timings", *argv] if place == "before" else [*argv, "--timings"]
    timed_code, timed, err = run_cli(capsys, *timed_argv)
    assert code == timed_code == (1 if run == "verify-failing" else 0)
    assert timed == plain
    failures = plain_err.splitlines()
    assert bool(failures) == (code == 1)
    assert all(line.startswith("FAILED ") for line in failures)
    lines = err.splitlines()
    assert lines[:len(failures)] == failures  # the timing lines come last
    if run.startswith("verify"):
        ids = ([check["id"] for check in json.loads(plain)["checks"]] if fmt == "json"
               else [row[0] for row in csv.reader(io.StringIO(plain))][1:])
        expected = [f"timing {i}" for i in ids] + ["timing verify:serialisation"]
    else:
        command = argv[0]
        expected = [f"timing {command}:{stage}" for stage in STAGES[command]]
    timings = lines[len(failures):]
    assert [line.rsplit(": ", 1)[0] for line in timings] == expected
    assert all(line.endswith(" ms") and float(line.rsplit(": ", 1)[1][:-3]) >= 0
               for line in timings)


def test_global_flags_accepted_before_subcommand(capsys):
    code_a, out_a, _ = run_cli(capsys, "--format", "csv", "census", "--n", "3")
    code_b, out_b, _ = run_cli(capsys, "census", "--n", "3", "--format", "csv")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_usage_errors_exit_two(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()
    assert cli.main(["nonsense"]) == 2
    capsys.readouterr()
    assert cli.main(["census"]) == 2  # --n is required
    capsys.readouterr()
    assert cli.main(["verify", "--format", "yaml"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", (["channel", "--n", "3"], ["verify", "--n-range", "3..3"]))
def test_a_negative_seed_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "-5")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "seed must be >= 0, got -5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("data", (None, 5))
def test_matrix_data_that_is_not_a_list_is_a_usage_error(capsys, tmp_path, data):
    state = write_json(tmp_path / "state.json", {"rows": 2, "cols": 2, "data": data})
    code, out, err = run_cli(capsys, "encode", "--n", "3", "--state", state)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "data must be a list" in err
    assert "Traceback" not in err


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    code, out, err = run_cli(capsys, "census", "--n", "3", "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(target) in err
    assert not target.exists()


# ---------------------------------------------------------------------------
# installed entry point and environment ceiling
# ---------------------------------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.skipif(
    shutil.which("rffqudit") is None,
    reason="the rffqudit console script is not installed on PATH",
)
def test_console_script_census_runs():
    proc = subprocess.run(
        ["rffqudit", "census", "--n", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["agreement"] is True


def _env_with_src(**extra) -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])),
                **extra)


def test_python_m_rffqudit_census_runs():
    env = _env_with_src()
    proc = subprocess.run(
        [sys.executable, "-m", "rffqudit", "census", "--n", "3"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["agreement"] is True


def test_one_parser_serves_every_call_in_a_process(capsys):
    calls = [["census"],  # a usage error: --n is required
             ["--format", "csv", "census", "--n", "3"],
             ["census", "--n", "3"],
             ["--max-n", "13", "census", "--n", "13"]]
    cli._build_parser.cache_clear()
    in_process = [run_cli(capsys, *argv)[:2] for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _ in in_process] == [2, 0, 0, 0]
    for argv, (code, out) in zip(calls, in_process):
        alone = subprocess.run([sys.executable, "-m", "rffqudit", *argv],
                               capture_output=True, env=_env_with_src(), timeout=120)
        assert (alone.returncode, alone.stdout.decode()) == (code, out), argv


def test_memory_error_exits_two(capsys, monkeypatch):
    def exhausted(ns, clock):
        raise MemoryError("Unable to allocate 32.0 GiB")

    monkeypatch.setitem(cli._DISPATCH, "channel", exhausted)
    code, out, err = run_cli(capsys, "channel", "--n", "3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "memory" in err
    assert "Traceback" not in err


def test_channel_accepts_a_random_pure_state(capsys, tmp_path):
    rng = np.random.default_rng(20261018)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    rho = np.outer(v, v.conj()) / np.vdot(v, v).real
    state = write_json(tmp_path / "pure.json", matrix_to_json_dict(rho))
    code, out, err = run_cli(
        capsys, "channel", "--n", "3", "--trials", "300", "--state", state
    )
    assert code == 0, err
    fidelity = json.loads(out)["aggregate"]["fidelity"]
    assert 1 - 1e-12 <= fidelity["min"] <= fidelity["max"] <= 1 + 1e-12


def test_ceiling_ignores_the_environment():
    # The ceiling comes from --max-n alone: no environment variable reaches it.
    proc = subprocess.run(
        [sys.executable, "-m", "rffqudit", "census", "--n", "3"],
        capture_output=True, text=True, env=_env_with_src(RFF_MAX_N="abc"), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["agreement"] is True


def test_max_n_does_not_bound_the_fixed_size_closed_forms(capsys):
    code, out, err = run_cli(capsys, "reference", "--case", "n4-q", "--max-n", "3")
    assert code == 0, err
    assert json.loads(out)["case"] == "n4-q"
