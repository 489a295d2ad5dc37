"""Payload classes as rank-d factors, against the dense class walk.

CoupledBasis.compress_lifted and verify's q-hermitian pairing read each
weight class of a payload as its factors (X_k, Y_k) = (B_k A, B_k), with
P_k = X_k Y_k^dag, and bound |P_k - B_k C_k B_k^dag| or |P_k - P_k^dag| from
row 2-norms. tests/dense_oracle.py forms every C(n, k+1)**2 block instead.
For n = 3..12 the two must give the same frames, and the bounds must never
read below the dense residuals once those rise above rounding.
"""

import tracemalloc
from math import comb

import numpy as np
import pytest

from rffqudit.channel import random_density
from rffqudit.coupling import SECTOR_TOL, CoupledBasis, build_coupled_basis, factor_frames
from rffqudit.errors import ConsistencyError
from rffqudit.linalg import max_abs_diff
from rffqudit.spinsys import SpinRegister, seeded_generator
from rffqudit.verify import DEFAULT_SEED, entropy_defect_residual, q_algebra_residuals

from dense_oracle import dense_class_frames, dense_compress_lifted, dense_hermitian_pairing

SEED = 20261021
# Added to one entry of the middle class's block. The dense residual it
# causes falls with n, from about 0.2 eps at n = 3 to 1e-3 eps at n = 12, so
# each n meets values on both sides of SECTOR_TOL.
EPSILONS = (1e-9, 1e-7, 1e-5, 1e-3)
# Under this, a dense residual is rounding, where the bound may read lower.
FLOOR = 1e-13


@pytest.fixture(scope="module", params=range(3, 13))
def basis(request):
    return build_coupled_basis(SpinRegister(request.param))


def _states(basis, trials):
    rng = np.random.default_rng([SEED, basis.n])
    return np.array([random_density(rng, basis.d) for _ in range(trials)]) / basis.d


def test_frames_and_gate_match_the_dense_walk(basis):
    logical = _states(basis, 2)
    frames = basis.compress_lifted(logical)
    dense_frames, dense = dense_compress_lifted(basis, logical)
    assert max_abs_diff(frames, dense_frames) <= 1e-12
    bounds = np.max([factor_frames(block, x, y)[1]
                     for block, (x, y) in zip(basis.blocks, basis.lift_factors(logical))], axis=0)
    assert (bounds <= SECTOR_TOL).all() and (dense <= SECTOR_TOL).all()
    pairing = q_algebra_residuals(basis)["hermitian-pairing"]
    h = random_density(seeded_generator(DEFAULT_SEED), basis.d)
    assert pairing <= 1e-12 and dense_hermitian_pairing(basis, h) <= 1e-12


def _middle_factors(monkeypatch, basis, corrupt):
    """Patch lift_factors so that the middle class yields corrupt(B, A) in place
    of (B A, B); every other class is the real one."""
    real, middle = CoupledBasis.lift_factors, len(basis.blocks) // 2

    def patched(self, logical):
        factors = list(real(self, logical))
        factors[middle] = corrupt(self.blocks[middle], logical)
        return factors

    monkeypatch.setattr(CoupledBasis, "lift_factors", patched)
    return basis.blocks[middle]


@pytest.mark.parametrize("eps", EPSILONS)
def test_a_stray_block_entry_fails_the_factor_gate_wherever_it_fails_the_dense_one(
        basis, eps, monkeypatch):
    def corrupt(block, logical):
        moved = block.copy()
        moved[0, 0] += eps
        return moved @ logical, moved

    block = _middle_factors(monkeypatch, basis, corrupt)
    logical = _states(basis, 2)
    x, y = corrupt(block, logical)
    bound = factor_frames(block, x, y)[1]
    dense = dense_class_frames(block, x, y)[1]
    assert (dense > FLOOR).all() and (bound >= dense).all()
    if (dense > SECTOR_TOL).any():
        with pytest.raises(ConsistencyError, match="not supported on the logical sector"):
            basis.compress_lifted(logical)
    if eps == EPSILONS[-1]:  # each n meets a stray that the dense gate fails
        assert (dense > SECTOR_TOL).all()


@pytest.mark.parametrize("eps", EPSILONS)
def test_a_stray_factor_entry_reads_at_least_the_dense_pairing(basis, eps, monkeypatch):
    def corrupt(block, logical):
        x = block @ logical
        x[..., 0, 0] += eps
        return x, block

    _middle_factors(monkeypatch, basis, corrupt)
    h = random_density(seeded_generator(DEFAULT_SEED), basis.d)
    dense = dense_hermitian_pairing(basis, h)
    assert dense > FLOOR
    assert q_algebra_residuals(basis)["hermitian-pairing"] >= dense


def test_the_n12_rows_peak_under_one_class_block():
    # One C(12, 6)**2 complex class block is 13.6 MB; the dense walk formed it.
    qs = build_coupled_basis(SpinRegister(12))
    block = 16 * comb(12, 6) ** 2
    for row in (lambda: entropy_defect_residual(qs, 5), lambda: q_algebra_residuals(qs)):
        tracemalloc.start()
        try:
            row()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block
