"""The closed-form weight blocks and the per-class gate against the dense oracles.

The library builds each block B_k = M_{k+1} u[:d]^T / sqrt(C(n-2, k)) and
checks the blocks one weight class at a time. The ladder build of K and the
gate on the whole dense K (tests/dense_oracle.py) must give the same kets and
the same verdicts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from rffqudit.coupling import (
    block_mixing_residual,
    build_coupled_basis,
    fourier_coupling,
    isometry_residuals,
    sector_membership_residual,
)
from rffqudit.linalg import max_abs_diff
from rffqudit.spinsys import SpinRegister
from rffqudit.verify import rotation_invariance_residual


@pytest.mark.parametrize("n", range(3, 13))
def test_closed_form_equals_the_ladder(n):
    basis = build_coupled_basis(SpinRegister(n))
    assert max_abs_diff(basis.isometry, dense_oracle.ladder_isometry(n, basis.coupling)) <= 1e-14


def test_closed_form_equals_the_ladder_at_n14():
    basis = build_coupled_basis(SpinRegister(14))
    ladder = dense_oracle.ladder_isometry(14, basis.coupling)
    assert max_abs_diff(basis.isometry, ladder) <= 1e-14


@pytest.mark.parametrize("n", range(3, 7))
def test_per_class_residuals_agree_with_the_dense_ones(n):
    basis = build_coupled_basis(SpinRegister(n))
    dense = dense_oracle.isometry_residuals(n, basis.isometry)
    per_class = isometry_residuals(basis)
    assert per_class.keys() == dense.keys()
    for name, value in per_class.items():
        assert abs(value - dense[name]) <= 1e-10, name
    membership = dense_oracle.membership_residual(n, basis.isometry)
    assert abs(sector_membership_residual(basis) - membership) <= 1e-10


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=3, max_value=10), seed=st.integers(0, 2 ** 32 - 1))
def test_any_valid_coupling_gives_the_ladder_kets_and_passes_the_gate(n, seed):
    # [W F[:-1]; F[-1]] for a random unitary W keeps the symmetric last row.
    rng = np.random.default_rng(seed)
    w, _ = np.linalg.qr(rng.normal(size=(n - 1, n - 1)) + 1j * rng.normal(size=(n - 1, n - 1)))
    fourier = fourier_coupling(n)
    coupling = np.vstack([w @ fourier[:-1], fourier[-1:]])
    basis = build_coupled_basis(SpinRegister(n), coupling)  # raises if the gate fails
    assert max_abs_diff(basis.isometry, dense_oracle.ladder_isometry(n, coupling)) <= 1e-14
    dense = dense_oracle.isometry_residuals(n, basis.isometry)
    assert max(abs(basis.gate_residuals[name] - dense[name]) for name in dense) <= 1e-10
    assert sector_membership_residual(basis) <= 1e-10
    assert block_mixing_residual(build_coupled_basis(SpinRegister(n)), basis) <= 1e-10
    # u^(x n) acts as I_d (x) D^j2(u) on the kets of any valid coupling, not only Fourier's.
    assert rotation_invariance_residual(basis, 5, seed) <= 1e-9
