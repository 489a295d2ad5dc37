"""Closed-form three- and four-constituent constructions and their registry."""

import numpy as np
import pytest

import rffqudit.reference as reference
from rffqudit.coupling import build_coupled_basis
from rffqudit.encoder import build_hws, build_q_set, decode_payload
from rffqudit.errors import ConsistencyError
from rffqudit.linalg import dagger, identity, max_abs_diff
from rffqudit.reference import (
    REFERENCE_CASES,
    n3_pauli,
    n3_q_operators,
    n3_sector_projector,
    n3_trine,
    n4_akl,
    n4_hws,
    n4_q_operators,
    n4_sector_projectors,
    n4_singlet_layer,
    n4_to_n3_reduction,
)
from rffqudit.spinsys import SpinRegister, swap

# The measured reduction constant and constituent relabelings, frozen.
REDUCTION_CONSTANT = 0.5
REDUCTION_RELABELINGS = {
    1: (3, 2, 1),
    2: (2, 3, 1),
    3: (2, 1, 3),
    4: (1, 2, 3),
}


def comm(a, b):
    return a @ b - b @ a


@pytest.mark.parametrize("case_id", sorted(REFERENCE_CASES))
def test_registry_case_builds_and_is_described(case_id):
    case = REFERENCE_CASES[case_id]
    assert case.id == case_id
    assert case.description
    assert case.formulas
    matrices = case.build()
    assert matrices
    for name, m in matrices.items():
        assert isinstance(m, np.ndarray), name
        assert m.shape[0] == m.shape[1]


def test_n3_q_operators_are_matrix_units():
    q = n3_q_operators()
    np.testing.assert_allclose(dagger(q["q12"]), q["q21"], atol=1e-13)
    np.testing.assert_allclose(q["q12"] @ q["q21"], q["q11"], atol=1e-12)
    np.testing.assert_allclose(q["q21"] @ q["q12"], q["q22"], atol=1e-12)
    np.testing.assert_allclose(q["q11"] @ q["q11"], q["q11"], atol=1e-12)
    for name in ("q11", "q22"):
        assert np.trace(q[name]) == pytest.approx(2.0, abs=1e-12)
    for name in ("q12", "q21"):
        assert np.trace(q[name]) == pytest.approx(0.0, abs=1e-12)


def test_n3_q_operators_match_pipeline():
    qs = build_q_set(build_coupled_basis(SpinRegister(3)))
    q = n3_q_operators()
    for (lam, lamp), name in {
        (1, 1): "q11", (1, 2): "q12", (2, 1): "q21", (2, 2): "q22"
    }.items():
        assert max_abs_diff(qs(lam, lamp), q[name]) < 1e-13


def test_n3_pauli_algebra_on_sector():
    p = n3_pauli()
    x, y, z, eye = p["x"], p["y"], p["z"], p["i_sector"]
    np.testing.assert_allclose(comm(x, y), 2j * z, atol=1e-12)
    np.testing.assert_allclose(comm(y, z), 2j * x, atol=1e-12)
    np.testing.assert_allclose(comm(z, x), 2j * y, atol=1e-12)
    for axis in (x, y, z):
        np.testing.assert_allclose(axis @ axis, eye, atol=1e-12)
        assert np.trace(axis) == pytest.approx(0.0, abs=1e-12)
    np.testing.assert_allclose(eye, n3_sector_projector(), atol=1e-13)


def test_n3_pauli_closed_forms():
    reg = SpinRegister(3)
    p12, p23, p31 = swap(reg, 1, 2), swap(reg, 2, 3), swap(reg, 3, 1)
    p = n3_pauli()
    np.testing.assert_allclose(p["x"], (2 * p12 - p23 - p31) / 3, atol=1e-13)
    np.testing.assert_allclose(p["y"], (p31 - p23) / np.sqrt(3), atol=1e-13)
    np.testing.assert_allclose(
        p["z"], 1j * comm(p31, p12) / np.sqrt(3), atol=1e-13
    )
    proj = n3_sector_projector()
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-13)
    assert np.trace(proj) == pytest.approx(4.0, abs=1e-12)


def test_n3_trine_geometry():
    trine = n3_trine()
    logicals = [trine["logical1"], trine["logical2"], trine["logical3"]]
    for rho in logicals:
        assert np.trace(rho) == pytest.approx(1.0, abs=1e-12)
        # Pure states: rho^2 = rho.
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)
    for i in range(3):
        for j in range(i):
            overlap = np.trace(logicals[i] @ logicals[j]).real
            assert overlap == pytest.approx(0.25, abs=1e-12)
    np.testing.assert_allclose(
        trine["logical3"],
        np.array([[0.5, -0.5], [-0.5, 0.5]]),
        atol=1e-13,
    )


def test_n3_trine_payloads():
    trine = n3_trine()
    reg = SpinRegister(3)
    np.testing.assert_allclose(
        trine["rho3"], (identity(8) - swap(reg, 1, 2)) / 2, atol=1e-13
    )
    total = (trine["rho1"] + trine["rho2"] + trine["rho3"]) * (2 / 3)
    np.testing.assert_allclose(total, n3_sector_projector(), atol=1e-12)
    # Each display operator has trace 2; half of it is the logical payload.
    qs = build_q_set(build_coupled_basis(SpinRegister(3)))
    decoded = decode_payload(qs, trine["rho3"] / 2)
    np.testing.assert_allclose(decoded.rho, trine["logical3"], atol=1e-12)


def test_n4_akl_building_blocks():
    blocks = n4_akl()
    reg = SpinRegister(4)
    np.testing.assert_allclose(
        blocks["a1"], swap(reg, 1, 2) - swap(reg, 3, 4), atol=1e-13
    )
    np.testing.assert_allclose(
        blocks["k4"],
        1j * comm(swap(reg, 1, 2), swap(reg, 1, 3)),
        atol=1e-13,
    )
    np.testing.assert_allclose(
        blocks["l1"], swap(reg, 1, 2) @ swap(reg, 3, 4), atol=1e-13
    )
    for name in ("a1", "a2", "a3", "k1", "k2", "k3", "k4", "l1", "l2", "l3"):
        m = blocks[name]
        np.testing.assert_allclose(m, dagger(m), atol=1e-13)


def test_n4_q_operators_match_pipeline():
    qs = build_q_set(build_coupled_basis(SpinRegister(4)))
    q = n4_q_operators()
    for lam in (1, 2, 3):
        for lamp in (1, 2, 3):
            name = f"q{lam}{lamp}"
            assert max_abs_diff(qs(lam, lamp), q[name]) < 1e-12, name


def test_n4_hws_match_pipeline():
    qs = build_q_set(build_coupled_basis(SpinRegister(4)))
    pair = build_hws(qs)
    printed = n4_hws()
    assert max_abs_diff(pair.u, printed["u3"]) < 1e-12
    assert max_abs_diff(pair.v, printed["v3"]) < 1e-12
    sector = qs.sector_projector
    np.testing.assert_allclose(
        np.linalg.matrix_power(printed["u3"], 3), sector, atol=1e-11
    )
    np.testing.assert_allclose(
        np.linalg.matrix_power(printed["v3"], 3), sector, atol=1e-11
    )


def test_n4_singlet_layer_is_a_logical_qubit():
    layer = n4_singlet_layer()
    x, y, z, eye = (
        layer["pauli_x"], layer["pauli_y"], layer["pauli_z"], layer["i_j0"]
    )
    np.testing.assert_allclose(comm(x, y), 2j * z, atol=1e-12)
    for axis in (x, y, z):
        np.testing.assert_allclose(axis @ axis, eye, atol=1e-12)
    for name in ("proj_lambda1", "proj_lambda2", "cg_proj1", "cg_proj2"):
        p = layer[name]
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(
        layer["proj_lambda1"] + layer["proj_lambda2"], eye, atol=1e-12
    )
    np.testing.assert_allclose(
        layer["cg_proj1"] + layer["cg_proj2"], eye, atol=1e-12
    )


def test_n4_sector_projectors_are_orthogonal():
    projs = n4_sector_projectors()
    j0, j1 = projs["i_j0"], projs["i_j1"]
    np.testing.assert_allclose(j0 @ j1, np.zeros((16, 16)), atol=1e-12)
    assert np.trace(j0).real == pytest.approx(2.0, abs=1e-12)
    assert np.trace(j1).real == pytest.approx(9.0, abs=1e-12)


def test_reduction_report_frozen_values():
    report = n4_to_n3_reduction()
    assert report.holds
    assert report.constant == pytest.approx(REDUCTION_CONSTANT, abs=1e-12)
    assert report.relabelings == REDUCTION_RELABELINGS
    assert report.max_residual < 1e-12
    assert len(report.details) == 4


def test_reference_checks_catch_corruption(monkeypatch):
    # Corrupting the phase constant must trip the internal identity checks.
    monkeypatch.setattr(reference, "W3", np.exp(2j * np.pi / 3) * 1.001)
    with pytest.raises(ConsistencyError):
        n3_q_operators()


@pytest.mark.parametrize("case_id", ("n3-pauli", "n3-trine"))
def test_each_single_site_pauli_is_built_once_per_family(case_id, monkeypatch):
    calls, real = [], reference.sigma
    monkeypatch.setattr(reference, "sigma",
                        lambda reg, site, axis: calls.append((site, axis)) or real(reg, site, axis))
    REFERENCE_CASES[case_id].build()
    assert sorted(calls) == sorted((site, axis) for site in (1, 2, 3) for axis in "xyz")
