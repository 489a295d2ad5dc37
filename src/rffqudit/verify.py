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
overrides all of them uniformly.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import reference as ref
from .channel import born_rule_harness, random_density
from .coupling import (
    CoupledBasis,
    block_mixing_residual,
    build_coupled_basis,
    fourier_coupling,
    gram_residual,
    isometry_residuals,
    sector_census,
    sector_membership_residual,
)
from .encoder import (
    QuditState,
    build_hws,
    decode_payload,
    encode_state,
    encoded_entropy_check,
    hws_relations_residual,
)
from .errors import ConsistencyError, ValidationError
from .linalg import dagger, identity, max_abs_diff
from .spinsys import (
    SpinRegister,
    all_permutations,
    collective_product_apply,
    cyclic_permutation,
    haar_su2,
    permutation_indices,
    permutation_operator,
)

DEFAULT_SEED = 1234


@dataclass(frozen=True)
class CheckResult:
    id: str
    description: str
    residual: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _check(id: str, description: str, residual: float, default_tol: float,
           tol: float | None) -> CheckResult:
    tolerance = default_tol if tol is None else tol
    return CheckResult(
        id=id,
        description=description,
        residual=float(residual),
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
    )


def _failure(id: str, description: str, default_tol: float,
             tol: float | None) -> CheckResult:
    tolerance = default_tol if tol is None else tol
    return CheckResult(
        id=id, description=description, residual=float("inf"),
        tolerance=float(tolerance), passed=False,
    )


# ---------------------------------------------------------------------------
# Reusable residual computations
# ---------------------------------------------------------------------------

def q_algebra_residuals(qs: CoupledBasis) -> dict:
    """Worst residual of each matrix-unit property, recomputed from scratch.

    Closure and [Q, J] = 0 are the Gram and covariance checks on K; the trace
    comes from the Gram blocks, and the pairing compares the sector frames
    K^dag Q(l,l') K = G_l G_l'^dag, G_l being the column blocks of G = K^dag K.
    """
    g = np.split(dagger(qs.isometry) @ qs.isometry, qs.d, axis=1)  # G_1 .. G_d
    herm = max(max_abs_diff(dagger(g[l] @ dagger(g[lp])), g[lp] @ dagger(g[l]))
               for l in range(qs.d) for lp in range(qs.d))
    isometry = isometry_residuals(qs.n, qs.isometry)
    return {"hermitian-pairing": herm, "trace": isometry["trace"],
            "closure": isometry["gram"], "j-commutation": isometry["covariance"]}


def rotation_invariance_residual(qs: CoupledBasis, trials: int,
                                 seed: int = DEFAULT_SEED) -> float:
    """Worst |U K - K (I_d (x) r)| over random collective rotations U.

    r is the lambda = 1 block of R = K^dag U K. The residual is zero exactly
    when U acts on m2 alone, the same on every lambda, which is when every
    Q(l,l') = K_l K_l'^dag survives U.
    """
    reg = SpinRegister(qs.n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    k, d = qs.isometry, qs.d
    worst = 0.0
    for _ in range(trials):
        uk = collective_product_apply(reg, haar_su2(rng), k)
        r = (dagger(k) @ uk)[:d, :d]
        worst = max(worst, max_abs_diff(uk, k @ np.kron(identity(d), r)))
    return worst


def _random_states(qs: CoupledBasis, trials: int, seed: int) -> list[QuditState]:
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return [QuditState(d=qs.d, rho=random_density(rng, qs.d)) for _ in range(trials)]


def round_trip_residual(qs: CoupledBasis, trials: int,
                        seed: int = DEFAULT_SEED) -> float:
    """Worst encode -> decode deviation over random logical states."""
    return max((
        max_abs_diff(state.rho, decode_payload(qs, encode_state(qs, state).payload).rho)
        for state in _random_states(qs, trials, seed)
    ), default=0.0)


def born_probability_residual(qs: CoupledBasis, trials: int,
                              seed: int = DEFAULT_SEED) -> float:
    """Worst |encoded probability - logical probability| over random pairs,

    with and without a random collective rotation in between."""
    report = born_rule_harness(qs, trials, seed)
    return max(report.max_encoded_deviation, report.max_rotated_deviation)


def entropy_defect_residual(qs: CoupledBasis, trials: int,
                            seed: int = DEFAULT_SEED) -> float:
    """Worst |S(payload) - S(logical) - log2 d| over random logical states."""
    return max((
        abs(encoded_entropy_check(state, encode_state(qs, state)).defect)
        for state in _random_states(qs, trials, seed)
    ), default=0.0)


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


def singlet_covariance_residuals() -> tuple[float, float]:
    """(worst covariant-pair residual, largest escape of the pairwise singlet).

    All 24 constituent permutations must map the symmetric-coupling singlet
    projectors onto that same pair; the successively-coupled projector
    cg_proj1 must be moved OFF its pair by at least one permutation, so the
    second number should be large (> 1e-3), not small.
    """
    layer = ref.n4_singlet_layer()
    pair = [layer["proj_lambda1"], layer["proj_lambda2"]]
    cg_pair = [layer["cg_proj1"], layer["cg_proj2"]]
    reg = SpinRegister(4)
    worst_pair = 0.0
    best_escape = 0.0
    for perm in all_permutations(4):
        w = permutation_operator(reg, perm)
        w_dag = dagger(w)
        for p in pair:
            moved = w @ p @ w_dag
            worst_pair = max(
                worst_pair, min(max_abs_diff(moved, c) for c in pair)
            )
        moved_cg = w @ cg_pair[0] @ w_dag
        best_escape = max(
            best_escape, min(max_abs_diff(moved_cg, c) for c in cg_pair)
        )
    return worst_pair, best_escape


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def suite_coupling(n_values=(3, 4, 5, 6, 7, 8), tol: float | None = None,
                   census_n_values=(2, 3, 4, 5, 6, 7, 8)) -> list[CheckResult]:
    results = []
    for n in census_n_values:
        cid = f"coupling:census:n={n}"
        desc = (f"sector multiplicities for n={n} match the J^2 spectrum of every "
                "magnetisation block")
        try:
            sector_census(SpinRegister(n))
            results.append(_check(cid, desc, 0.0, 0.0, tol))
        except ConsistencyError as exc:
            results.append(_failure(cid, f"{desc}: {exc}", 0.0, tol))
    for n in n_values:
        basis = build_coupled_basis(SpinRegister(n))
        checks = [
            ("gram", f"sector basis for n={n} is orthonormal", gram_residual(basis)),
            ("sector-membership",
             f"sector basis for n={n} satisfies the J^2 and Jz eigenvalue equations",
             sector_membership_residual(basis)),
            ("independence",
             "changing the coupling only remixes the degeneracy label unitarily",
             coupling_independence_residual(basis)),
            ("cyclic-invariance",
             "the cyclic shift multiplies each Fourier-coupled ket by omega_n^-lambda",
             cyclic_invariance_residual(basis)),
        ]
        results += [_check(f"coupling:{name}:n={n}", desc, residual, 1e-10, tol)
                    for name, desc, residual in checks]
    return results


def suite_encoder(n_values=(3, 4, 5, 6), rotation_trials=20,
                  seed: int = DEFAULT_SEED,
                  tol: float | None = None) -> list[CheckResult]:
    results = []
    for n in n_values:
        qs = build_coupled_basis(SpinRegister(n))
        algebra = q_algebra_residuals(qs)
        checks = (
            ("q-hermitian", f"Q(l,l')^dag = Q(l',l) for n={n}",
             algebra["hermitian-pairing"], 1e-12),
            ("q-trace", f"Tr Q(l,l') = d delta for n={n}", algebra["trace"], 1e-10),
            ("q-closure", f"K^dag K = I, so Q(l,l')Q(m,m') = delta Q(l,m') for n={n}",
             algebra["closure"], 1e-10),
            ("q-commute-J", f"J K = K (I (x) J^(j2)), so [Q, J] = 0 for n={n}",
             algebra["j-commutation"], 1e-10),
            ("rotation-invariance",
             f"Q operators survive {rotation_trials} random collective rotations",
             rotation_invariance_residual(qs, rotation_trials, seed), 1e-9),
            ("round-trip", "encode -> decode returns the logical state",
             round_trip_residual(qs, 5, seed), 1e-10),
            ("born", "encoded probabilities match logical ones, rotated or not",
             born_probability_residual(qs, 5, seed), 1e-10),
            ("entropy", "encoded entropy exceeds logical entropy by exactly log2(d) bits",
             entropy_defect_residual(qs, 5, seed), 1e-8),
        )
        for name, desc, residual, default_tol in checks:
            results.append(_check(f"encoder:{name}:n={n}", desc, residual, default_tol, tol))
    return results


def suite_reference(tol: float | None = None) -> list[CheckResult]:
    results = []

    # Internal self-consistency of each closed-form family.
    for case_id, case in ref.REFERENCE_CASES.items():
        cid = f"reference:case:{case_id}"
        try:
            case.build()
            results.append(_check(cid, case.description, 0.0, 0.0, tol))
        except ConsistencyError as exc:
            results.append(_failure(cid, f"{case.description}: {exc}", 0.0, tol))

    # Cross-checks against the generic pipeline. Any ConsistencyError raised
    # by a corrupted closed form is converted into a named failure, never an
    # abort, so one bad constant cannot hide the rest of the report.
    try:
        results.extend(_reference_cross_checks(tol))
    except ConsistencyError as exc:
        results.append(_failure(
            "reference:cross-check",
            f"closed forms against the generic pipeline: {exc}", 0.0, tol,
        ))
    return results


def _reference_cross_checks(tol: float | None) -> list[CheckResult]:
    results = []

    qs3 = build_coupled_basis(SpinRegister(3))
    q3 = ref.n3_q_operators()
    worst = max(
        max_abs_diff(q3[f"q{l}{lp}"], qs3(l, lp))
        for l in (1, 2) for lp in (1, 2)
    )
    results.append(_check(
        "reference:n3-q-vs-pipeline",
        "n=3 closed-form matrix units equal the coupled-basis ones",
        worst, 1e-12, tol,
    ))

    pauli = ref.n3_pauli()
    results.append(_check(
        "reference:n3-pauli-vs-pipeline",
        "n=3 closed-form Paulis equal the coupled-basis combinations",
        max(
            max_abs_diff(pauli["x"], qs3(1, 2) + qs3(2, 1)),
            max_abs_diff(pauli["y"], -1j * qs3(1, 2) + 1j * qs3(2, 1)),
            max_abs_diff(pauli["z"], qs3(1, 1) - qs3(2, 2)),
            max_abs_diff(pauli["i_sector"], qs3.sector_projector),
        ),
        1e-12, tol,
    ))

    trine = ref.n3_trine()
    decoded = decode_payload(qs3, trine["rho3"] / 2)
    results.append(_check(
        "reference:trine-decode",
        "pipeline decoding of the third trine payload matches the closed form",
        max_abs_diff(decoded.rho, trine["logical3"]),
        1e-12, tol,
    ))

    qs4 = build_coupled_basis(SpinRegister(4))
    q4 = ref.n4_q_operators()
    worst = max(
        max_abs_diff(q4[f"q{l}{lp}"], qs4(l, lp))
        for l in (1, 2, 3) for lp in (1, 2, 3)
    )
    results.append(_check(
        "reference:n4-q-vs-pipeline",
        "n=4 closed-form matrix units equal the coupled-basis ones",
        worst, 1e-10, tol,
    ))

    hws4 = build_hws(qs4)
    forms = ref.n4_hws()
    results.append(_check(
        "reference:n4-hws-vs-pipeline",
        "n=4 closed-form clock/shift pair equals the matrix-unit one",
        max(
            max_abs_diff(forms["u3"], hws4.u),
            max_abs_diff(forms["v3"], hws4.v),
        ),
        1e-10, tol,
    ))

    from .coupling import cg_singlets, symmetric_singlets

    reg4 = SpinRegister(4)
    layer = ref.n4_singlet_layer()
    sym = symmetric_singlets(reg4)
    cg = cg_singlets(reg4)
    results.append(_check(
        "reference:n4-singlet-states",
        "singlet projectors equal the outer products of the explicit states",
        max(
            max_abs_diff(layer["proj_lambda1"], np.outer(sym[0], sym[0].conj())),
            max_abs_diff(layer["proj_lambda2"], np.outer(sym[1], sym[1].conj())),
            max_abs_diff(layer["cg_proj1"], np.outer(cg[0], cg[0].conj())),
            max_abs_diff(layer["cg_proj2"], np.outer(cg[1], cg[1].conj())),
        ),
        1e-10, tol,
    ))

    worst_pair, best_escape = singlet_covariance_residuals()
    results.append(_check(
        "reference:singlet-covariance",
        "all 24 permutations map the symmetric singlet pair onto itself",
        worst_pair, 1e-10, tol,
    ))
    results.append(_check(
        "reference:singlet-contrast",
        "some permutation moves the pairwise singlet off its pair "
        f"(escape distance {best_escape:.6f}, needs > 1e-3)",
        max(0.0, 1e-3 - best_escape), 0.0, tol,
    ))

    report = ref.n4_to_n3_reduction()
    reduction_residual = report.max_residual
    if not report.holds or report.constant is None:
        reduction_residual = float("inf")
    else:
        reduction_residual = max(reduction_residual, abs(report.constant - 0.5))
    results.append(_check(
        "reference:reduction",
        "tracing any constituent from the n=4 singlet Paulis gives 1/2 times "
        "the relabeled n=3 Paulis",
        reduction_residual, 1e-10, tol,
    ))
    return results


def suite_hws(n_values=(3, 4, 5, 6), tol: float | None = None) -> list[CheckResult]:
    results = []
    for n in n_values:
        d = n - 1
        cid = f"hws:relations:d={d}"
        desc = (f"clock/shift pair for d={d}: periods and omega-commutation")
        try:
            qs = build_coupled_basis(SpinRegister(n))
            pair = build_hws(qs)
        except ConsistencyError as exc:
            results.append(_failure(cid, f"{desc}: {exc}", 1e-10, tol))
            continue
        results.append(_check(cid, desc, hws_relations_residual(pair), 1e-10, tol))
        if d == 2:
            pauli = ref.n3_pauli()
            results.append(_check(
                "hws:d2-pauli-identification",
                "for d=2 the clock is -pauli_z and the shift is pauli_x",
                max(
                    max_abs_diff(pair.u, -pauli["z"]),
                    max_abs_diff(pair.v, pauli["x"]),
                ),
                1e-12, tol,
            ))
    return results


SUITES = ("all", "coupling", "encoder", "reference", "hws")


def run_suite(name: str, tol: float | None = None, seed: int = DEFAULT_SEED,
              n_values=None) -> list[CheckResult]:
    """Run one named suite, optionally restricted to the given register sizes.

    The reference suite is n-independent and ignores n_values.
    """
    if name not in SUITES:
        raise ValidationError(
            f"unknown suite {name!r}; expected one of {sorted(SUITES)}"
        )
    sized, census = {}, {}
    if n_values is not None:
        sized = {"n_values": tuple(n for n in n_values if n >= 3)}
        census = {"census_n_values": tuple(n for n in n_values if n >= 2)}
    results = []
    if name in ("all", "coupling"):
        results += suite_coupling(tol=tol, **sized, **census)
    if name in ("all", "encoder"):
        results += suite_encoder(seed=seed, tol=tol, **sized)
    if name in ("all", "reference"):
        results += suite_reference(tol=tol)
    if name in ("all", "hws"):
        results += suite_hws(tol=tol, **sized)
    return results
