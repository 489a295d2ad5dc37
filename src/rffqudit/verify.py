"""Named verification suites with per-check tolerances.

Each check compares two independently constructed quantities and reports a
CheckResult carrying the worst residual, the tolerance it was held to, and
the pass/fail verdict. The suites:

    coupling  — sector census, basis orthonormality, sector membership,
                coupling-choice independence (lambda-only unitary remixing)
    encoder   — matrix-unit algebra, collective-rotation invariance,
                encode/decode round trips, probability and entropy fidelity
    reference — closed-form n=3 / n=4 transcriptions against the generic
                pipeline, trine decoding, singlet covariance, the n=4 -> n=3
                partial-trace reduction
    hws       — clock/shift unitarity, periods, omega-commutation, and the
                d=2 identification with the logical Pauli pair
    all       — everything above

Every check has its own default tolerance; passing an explicit ``tol``
overrides all of them uniformly. Every row is made by _check: a
ConsistencyError raised while computing its residual (a failed basis gate, a
corrupted closed form) fails that row alone, so the rows of a report are the
same, in the same order, whether or not a check raised.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from math import isfinite, log2
from time import perf_counter
from typing import Callable

import numpy as np

from . import reference as ref
from .channel import _random_density_of, born_rule_harness, random_density
from .coupling import (
    CoupledBasis,
    block_mixing_residual,
    build_coupled_basis,
    cg_singlets,
    fourier_coupling,
    gram_residual,
    sector_census,
    sector_membership_residual,
    symmetric_singlets,
    transposition_index,
)
from .encoder import (
    HwsPair,
    build_hws,
    decode_payload,
    hws_relations_residual,
    require_decoded,
    require_density,
)
from .errors import ConsistencyError, ContractViolationError, ValidationError, require_integer
from .linalg import dagger, entropy_bits, identity, max_abs_diff
from .spinsys import (
    SpinRegister,
    _permutation_conjugates,
    all_permutations,
    cyclic_permutation,
    haar_su2,
    permutation_indices,
    seeded_generator,
    wigner_d,
)

DEFAULT_SEED = 1234


@dataclass(frozen=True)
class CheckResult:
    id: str
    description: str
    residual: float
    tolerance: float
    passed: bool
    # Wall time of the row, including any basis or closed form it built first;
    # it differs run to run, so it is not part of the report row.
    elapsed_ms: float = field(default=0.0, compare=False, repr=False)

    def as_dict(self) -> dict:
        return {"id": self.id, "description": self.description, "residual": self.residual,
                "tolerance": self.tolerance, "passed": self.passed}


def _check(id: str, description: str, default_tol: float, tol: float | None,
           residual: Callable[[], float],
           detail: Callable[[], str] | None = None) -> CheckResult:
    """One report row: residual() held to tol, or to default_tol when tol is None.

    A ConsistencyError raised by residual() (a failed gate or closed form)
    fails this row alone, whatever the tolerance: residual inf, the error text
    appended to the description. detail, when given, is called after
    residual() succeeds and its text is appended to the description.
    """
    tolerance = float(default_tol if tol is None else tol)
    start = perf_counter()
    try:
        value = float(residual())
    except ConsistencyError as exc:
        description, value, passed = f"{description}: {exc}", float("inf"), False
    else:
        passed = bool(value <= tolerance)
        if detail is not None:
            description += detail()
    return CheckResult(id=id, description=description, residual=value,
                       tolerance=tolerance, passed=passed,
                       elapsed_ms=(perf_counter() - start) * 1e3)


def _built(_) -> float:
    """The residual of a check that passes when its argument was built without raising."""
    return 0.0


def fourier_bases() -> Callable[[int], CoupledBasis]:
    """bases(n): the Fourier-coupled, gated basis of size n, built on first use.

    run_suite makes one per call and hands it to every suite, so each n is
    built once per call. A build that raises is not cached, so every row that
    reads it fails under its own id.
    """
    return functools.cache(lambda n: build_coupled_basis(SpinRegister(n)))


def reference_cases() -> Callable[[str], dict]:
    """cases(case_id): the closed forms of a REFERENCE_CASES id, built on first use.

    run_suite makes one per call and hands it to the reference and hws suites.
    Every case reads one memo of the closed-form factories, so each factory
    runs at most once per call, however many cases rest on it; a factory that
    raises is not cached, so every row that reads it fails.
    """
    forms = ref._ClosedForms()
    return functools.cache(lambda case_id: ref.REFERENCE_CASES[case_id].build(forms))


# ---------------------------------------------------------------------------
# Reusable residual computations
# ---------------------------------------------------------------------------

def q_algebra_residuals(qs: CoupledBasis) -> dict:
    """Worst residual of each matrix-unit property.

    Closure and [Q, J] = 0 are the Gram and covariance checks on K, and the
    trace comes from the Gram blocks: all three are the gate's residuals,
    computed once per basis. The pairing is max |P - P^dag| for P = lift(H) of
    one generic hermitian H drawn from DEFAULT_SEED: P = sum H_{ll'} Q(l,l'),
    so P is hermitian exactly when Q(l,l')^dag = Q(l',l) for all pairs at
    once. P is zero off its weight-class blocks P_k = B_k H B_k^dag, so the
    pairing is max_k |P_k - P_k^dag| over the blocks of lift_blocks.
    """
    blocks = qs.lift_blocks(random_density(seeded_generator(DEFAULT_SEED), qs.d))
    isometry = qs.gate_residuals
    return {"hermitian-pairing": max(max_abs_diff(p, dagger(p)) for p in blocks),
            "trace": isometry["trace"], "closure": isometry["gram"],
            "j-commutation": isometry["covariance"]}


def rotation_invariance_residual(qs: CoupledBasis, trials: int,
                                 seed: int = DEFAULT_SEED) -> float:
    """Worst of |U K - K R| and |R - I_d (x) D^j2(u)| over random collective rotations U.

    R = K^dag U K and the escape come from qs.rotations; D^j2(u) is the spin-j2
    image of u, exp(-i theta n.J^(j2)), built from the spin matrices alone
    (spinsys.wigner_d), so it does not rest on K or on the rotation routine.
    The residual is zero exactly when U keeps K's span and acts on m2 alone
    as the spin-j2 rotation, the same on every lambda, which is when every
    Q(l,l') = K_l K_l'^dag survives U.
    """
    require_integer(trials, "trials", 1)
    u = haar_su2(seeded_generator(seed), trials)
    expected = np.kron(identity(qs.d), wigner_d(qs.j2, u))
    worst, first = 0.0, 0
    for r, escape in qs.rotations(u):
        worst = max(worst, float(escape.max()),
                    max_abs_diff(r, expected[first:first + len(r)]))
        first += len(r)
    return worst


def encoded_random_states(qs: CoupledBasis, trials: int,
                          seed: int = DEFAULT_SEED) -> tuple[np.ndarray, np.ndarray]:
    """(rho, C): trials random logical states drawn from seed, shaped (T, d, d),
    and the class frames C_k = B_k^dag P_k B_k of their payloads' lifted blocks,
    shaped (T, 2 j2 + 1, d, d), from one stacked lift and compression
    (CoupledBasis.compress_lifted), whose gate raises ConsistencyError for a
    payload off the logical sector.
    """
    require_integer(trials, "trials", 1)
    rho = _random_density_of(seeded_generator(seed).standard_normal((trials, 2, qs.d, qs.d)))
    require_density(rho)
    return rho, qs.compress_lifted(rho / qs.d)


def _round_trip(rho: np.ndarray, frames: np.ndarray) -> float:
    """Worst |rho - decoded| with decoded = sum_k C_k, the partial trace over m2
    of the frame, checked by encoder.require_decoded as the channel's are."""
    return max_abs_diff(rho, require_decoded(frames.sum(axis=-3)))


def _entropy_defect(rho: np.ndarray, frames: np.ndarray) -> float:
    """Worst |S(C) - S(rho) - log2 d|: the frame is block-diagonal in m2, so its
    entropy is the sum of those of its class frames C_k, from one stacked eigvalsh.
    Frames that are not hermitian and PSD are a failed encoding (ConsistencyError)."""
    try:
        s_encoded = entropy_bits(frames).sum(axis=-1)
    except ContractViolationError as exc:
        raise ConsistencyError(f"the encoded frame has no entropy: {exc}") from exc
    return float(np.abs(s_encoded - entropy_bits(rho) - log2(rho.shape[-1])).max())


def round_trip_residual(qs: CoupledBasis, trials: int,
                        seed: int = DEFAULT_SEED) -> float:
    """Worst encode -> decode deviation over random logical states, on the
    lifted blocks of their payloads (encoded_random_states)."""
    return _round_trip(*encoded_random_states(qs, trials, seed))


def born_probability_residual(qs: CoupledBasis, trials: int,
                              seed: int = DEFAULT_SEED) -> float:
    """Worst |encoded probability - logical probability| over random pairs,

    with and without a random collective rotation in between."""
    report = born_rule_harness(qs, trials, seed)
    return max(report.max_encoded_deviation, report.max_rotated_deviation)


def entropy_defect_residual(qs: CoupledBasis, trials: int,
                            seed: int = DEFAULT_SEED) -> float:
    """Worst |S(payload) - S(logical) - log2 d| over random logical states, on
    the lifted blocks of their payloads (encoded_random_states)."""
    return _entropy_defect(*encoded_random_states(qs, trials, seed))


def cyclic_invariance_residual(basis: CoupledBasis) -> float:
    """max |C K - K diag(omega_n**-lambda)| for the cyclic shift C.

    With the Fourier coupling, shifting every constituent one slot multiplies
    each ket |j2, m2; lambda> by omega_n**-lambda, the same for every m2.
    """
    n, k = basis.n, basis.isometry
    ck = np.empty_like(k)
    ck[permutation_indices(SpinRegister(n), cyclic_permutation(n))] = k  # rows of C K
    phases = np.repeat(np.exp(-2j * np.pi * np.arange(1, basis.d + 1) / n),
                       len(basis.m2_values()))
    return max_abs_diff(ck, k * phases)


def coupling_independence_residual(basis: CoupledBasis) -> float:
    """Residual of the lambda-only-mixing claim between two couplings.

    The second coupling remixes the first n-1 Fourier rows by an (n-1)-point
    Fourier matrix; the sector bases must then differ by one unitary lambda
    block repeated identically across m2.
    """
    n = basis.n
    mix = np.eye(n, dtype=complex)
    mix[: n - 1, : n - 1] = fourier_coupling(n - 1)
    other = build_coupled_basis(SpinRegister(n), mix @ fourier_coupling(n))
    return block_mixing_residual(basis, other)


def singlet_covariance_residuals(projectors: dict | None = None) -> tuple[float, float]:
    """(worst covariant-pair residual, largest escape of the pairwise singlet).

    All 24 constituent permutations must map the symmetric-coupling singlet
    projectors onto that same pair; the successively-coupled projector
    cg_proj1 must be moved OFF its pair by at least one permutation, so the
    second number should be large (> 1e-3), not small. The projectors are
    proj_lambda1/2 and cg_proj1/2 of projectors, or of ref.n4_singlet_layer().
    The 24 images of proj_lambda1/2 and cg_proj1 are one gather; the distance
    of each image from the two projectors of its pair is one reduction per
    projector.
    """
    layer = ref.n4_singlet_layer() if projectors is None else projectors
    pair = np.array([layer["proj_lambda1"], layer["proj_lambda2"]])
    cg_pair = np.array([layer["cg_proj1"], layer["cg_proj2"]])
    moved = _permutation_conjugates(SpinRegister(4), list(all_permutations(4)),
                                    np.array([*pair, cg_pair[0]]))
    worst = [float(np.abs(images[:, None] - targets).max(axis=(-2, -1)).min(axis=-1).max())
             for images, targets in zip(moved, (pair, pair, cg_pair))]
    return max(worst[:2]), worst[2]


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_coupling(n_values=(3, 4, 5, 6, 7, 8), tol: float | None = None,
                   census_n_values=(2, 3, 4, 5, 6, 7, 8),
                   bases: Callable | None = None) -> list[CheckResult]:
    bases = fourier_bases() if bases is None else bases
    # One transposition index per n for the call, read by the census and the
    # membership check; the census also runs where no basis is built (n = 2).
    indices = functools.cache(lambda n: tuple(transposition_index(n)))
    results = [
        _check(f"coupling:census:n={n}",
               f"sector multiplicities for n={n} match the J^2 spectrum of every "
               "magnetisation block", 0.0, tol,
               lambda: _built(sector_census(SpinRegister(n), indices(n))))
        for n in census_n_values
    ]
    for n in n_values:
        checks = [
            ("gram", f"sector basis for n={n} is orthonormal",
             lambda: gram_residual(bases(n))),
            ("sector-membership",
             f"sector basis for n={n} satisfies the J^2 and Jz eigenvalue equations",
             lambda: sector_membership_residual(bases(n), indices(n))),
            ("independence",
             "changing the coupling only remixes the degeneracy label unitarily",
             lambda: coupling_independence_residual(bases(n))),
            ("cyclic-invariance",
             "the cyclic shift multiplies each Fourier-coupled ket by omega_n^-lambda",
             lambda: cyclic_invariance_residual(bases(n))),
        ]
        results += [_check(f"coupling:{name}:n={n}", desc, 1e-10, tol, residual)
                    for name, desc, residual in checks]
    return results


def suite_encoder(n_values=(3, 4, 5, 6), seed: int = DEFAULT_SEED,
                  tol: float | None = None,
                  bases: Callable | None = None) -> list[CheckResult]:
    require_integer(seed, "seed", 0)
    bases = fourier_bases() if bases is None else bases
    algebra = functools.cache(lambda n: q_algebra_residuals(bases(n)))
    # The round-trip and entropy rows read one stacked lift of the same states.
    encoded = functools.cache(lambda n: encoded_random_states(bases(n), 5, seed))
    results = []
    for n in n_values:
        checks = (
            ("q-hermitian", f"Q(l,l')^dag = Q(l',l) for n={n}", 1e-12,
             lambda: algebra(n)["hermitian-pairing"]),
            ("q-trace", f"Tr Q(l,l') = d delta for n={n}", 1e-10,
             lambda: algebra(n)["trace"]),
            ("q-closure", f"K^dag K = I, so Q(l,l')Q(m,m') = delta Q(l,m') for n={n}",
             1e-10, lambda: algebra(n)["closure"]),
            ("q-commute-J", f"J K = K (I (x) J^(j2)), so [Q, J] = 0 for n={n}", 1e-10,
             lambda: algebra(n)["j-commutation"]),
            ("rotation-invariance",
             "Q operators survive 20 random collective rotations", 1e-9,
             lambda: rotation_invariance_residual(bases(n), 20, seed)),
            ("round-trip", "encode -> decode returns the logical state", 1e-10,
             lambda: _round_trip(*encoded(n))),
            ("born", "encoded probabilities match logical ones, rotated or not", 1e-10,
             lambda: born_probability_residual(bases(n), 5, seed)),
            ("entropy", "encoded entropy exceeds logical entropy by exactly log2(d) bits",
             1e-8, lambda: _entropy_defect(*encoded(n))),
        )
        results += [_check(f"encoder:{name}:n={n}", desc, default_tol, tol, residual)
                    for name, desc, default_tol, residual in checks]
    return results


def _q_residual(q: dict, qs: CoupledBasis) -> float:
    """Worst distance of closed-form matrix units q["q<l><l'>"] from qs(l, l')."""
    return max(max_abs_diff(q[f"q{l}{lp}"], qs(l, lp))
               for l in range(1, qs.d + 1) for lp in range(1, qs.d + 1))


def _n3_pauli_residual(pauli: dict, qs: CoupledBasis) -> float:
    """Worst distance of the closed-form n=3 Paulis from the coupled-basis combinations."""
    return max(
        max_abs_diff(pauli["x"], qs(1, 2) + qs(2, 1)),
        max_abs_diff(pauli["y"], -1j * qs(1, 2) + 1j * qs(2, 1)),
        max_abs_diff(pauli["z"], qs(1, 1) - qs(2, 2)),
        max_abs_diff(pauli["i_sector"], qs.sector_projector),
    )


def _pair_residual(pair: HwsPair, u: np.ndarray, v: np.ndarray) -> float:
    """Distance of a clock/shift pair from the given clock u and shift v."""
    return max(max_abs_diff(pair.u, u), max_abs_diff(pair.v, v))


def _singlet_states_residual(projectors: dict) -> float:
    """Worst distance of the singlet projectors from the explicit states' outer products."""
    reg4 = SpinRegister(4)
    pairs = zip(("proj_lambda1", "proj_lambda2", "cg_proj1", "cg_proj2"),
                symmetric_singlets(reg4) + cg_singlets(reg4))
    return max(max_abs_diff(projectors[name], np.outer(ket, ket.conj()))
               for name, ket in pairs)


def _reduction_residual(report: ref.ReductionReport) -> float:
    """Worst reduction residual, and the distance of the shared constant from 1/2."""
    if not report.holds or report.constant is None:
        return float("inf")
    return max(report.max_residual, abs(report.constant - 0.5))


def suite_reference(tol: float | None = None,
                    bases: Callable | None = None,
                    cases: Callable | None = None) -> list[CheckResult]:
    bases = fourier_bases() if bases is None else bases
    cases = reference_cases() if cases is None else cases
    # The covariance and contrast rows share one pass over the 24 permutations
    # of the n = 4 register.
    singlets = functools.cache(lambda: singlet_covariance_residuals(
        {**cases("n4-singlet-proj"), **cases("n4-cg-proj")}))

    # Internal self-consistency of each closed-form family.
    results = [_check(f"reference:case:{case_id}", case.description, 0.0, tol,
                      lambda: _built(cases(case_id)))
               for case_id, case in ref.REFERENCE_CASES.items()]

    # Cross-checks of the built closed forms against the generic pipeline.
    checks = (
        ("n3-q-vs-pipeline", "n=3 closed-form matrix units equal the coupled-basis ones",
         1e-12, lambda: _q_residual(cases("n3-q"), bases(3))),
        ("n3-pauli-vs-pipeline",
         "n=3 closed-form Paulis equal the coupled-basis combinations", 1e-12,
         lambda: _n3_pauli_residual(cases("n3-pauli"), bases(3))),
        ("trine-decode",
         "pipeline decoding of the third trine payload matches the closed form", 1e-12,
         lambda: max_abs_diff(decode_payload(bases(3), cases("n3-trine")["rho3"] / 2).rho,
                              cases("n3-trine")["logical3"])),
        ("n4-q-vs-pipeline", "n=4 closed-form matrix units equal the coupled-basis ones",
         1e-10, lambda: _q_residual(cases("n4-q"), bases(4))),
        ("n4-hws-vs-pipeline",
         "n=4 closed-form clock/shift pair equals the matrix-unit one", 1e-10,
         lambda: _pair_residual(build_hws(bases(4)), cases("n4-hws")["u3"],
                                cases("n4-hws")["v3"])),
        ("n4-singlet-states",
         "singlet projectors equal the outer products of the explicit states", 1e-10,
         lambda: _singlet_states_residual({**cases("n4-singlet-proj"),
                                           **cases("n4-cg-proj")})),
        ("singlet-covariance",
         "all 24 permutations map the symmetric singlet pair onto itself", 1e-10,
         lambda: singlets()[0]),
    )
    results += [_check(f"reference:{name}", desc, default_tol, tol, residual)
                for name, desc, default_tol, residual in checks]
    results.append(_check(
        "reference:singlet-contrast",
        "some permutation moves the pairwise singlet off its pair", 0.0, tol,
        lambda: max(0.0, 1e-3 - singlets()[1]),
        detail=lambda: f" (escape distance {singlets()[1]:.6f}, needs > 1e-3)",
    ))
    results.append(_check(
        "reference:reduction",
        "tracing any constituent from the n=4 singlet Paulis gives 1/2 times "
        "the relabeled n=3 Paulis", 1e-10, tol,
        lambda: _reduction_residual(ref.n4_to_n3_reduction(
            n4_paulis=cases("n4-pauli"), n3_paulis=cases("n3-pauli"))),
    ))
    return results


def suite_hws(n_values=(3, 4, 5, 6), tol: float | None = None,
              bases: Callable | None = None,
              cases: Callable | None = None) -> list[CheckResult]:
    bases = fourier_bases() if bases is None else bases
    cases = reference_cases() if cases is None else cases
    pairs = functools.cache(lambda n: build_hws(bases(n)))
    results = []
    for n in n_values:
        d = n - 1
        results.append(_check(
            f"hws:relations:d={d}",
            f"clock/shift pair for d={d}: periods and omega-commutation", 1e-10, tol,
            lambda: hws_relations_residual(pairs(n)),
        ))
        if d == 2:
            results.append(_check(
                "hws:d2-pauli-identification",
                "for d=2 the clock is -pauli_z and the shift is pauli_x", 1e-12, tol,
                lambda: _pair_residual(pairs(n), -cases("n3-pauli")["z"],
                                       cases("n3-pauli")["x"]),
            ))
    return results


SUITES = ("all", "coupling", "encoder", "reference", "hws")


def run_suite(name: str, tol: float | None = None, seed: int = DEFAULT_SEED,
              n_values=None) -> list[CheckResult]:
    """Run one named suite, optionally restricted to the given register sizes.

    The reference suite is n-independent and ignores n_values; a call that
    yields no row for the given sizes is a ValidationError. Every suite
    shares one fourier_bases() and one reference_cases(), so each n's basis
    and each closed form is built once per call.
    """
    if name not in SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; expected one of {sorted(SUITES)}"
        )
    if tol is not None and not (isfinite(tol) and tol > 0):
        raise ValidationError(f"tol must be positive and finite, got {tol}")
    require_integer(seed, "seed", 0)
    sized, census = {}, {}
    if n_values is not None:
        sized = {"n_values": tuple(n for n in n_values if n >= 3)}
        census = {"census_n_values": tuple(n for n in n_values if n >= 2)}
    bases, cases = fourier_bases(), reference_cases()
    results = []
    if name in ("all", "coupling"):
        results += suite_coupling(tol=tol, bases=bases, **sized, **census)
    if name in ("all", "encoder"):
        results += suite_encoder(seed=seed, tol=tol, bases=bases, **sized)
    if name in ("all", "reference"):
        results += suite_reference(tol=tol, bases=bases, cases=cases)
    if name in ("all", "hws"):
        results += suite_hws(tol=tol, bases=bases, cases=cases, **sized)
    if not results:
        sizes = sorted(n_values)
        span = f"{sizes[0]}..{sizes[-1]}" if sizes else "(none)"
        raise ValidationError(f"suite {name!r} has no check for register sizes {span}")
    return results
