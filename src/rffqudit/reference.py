"""Closed-form constructions for n=3 and n=4, written in swap/singlet terms.

Everything in this module is built ONLY from the spinsys primitives (swap
operators, singlet projectors, single-site Paulis) — never from the coupling
module — so it serves as an independent oracle against the generic
coupled-basis pipeline. Each factory cross-checks its own internal algebra
(e.g. the several equivalent closed forms of the n=3 logical Paulis) and
raises ConsistencyError on any transcription slip.

The n=3 logical qubit lives in the j=1/2 sector of three constituents; the
n=4 logical qutrit lives in the j=1 sector of four constituents, and the
n=4 singlet (j=0) sector carries a second logical qubit whose Paulis reduce,
one traced-out constituent at a time, to the n=3 ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Callable

import numpy as np

from .errors import ConsistencyError
from .linalg import dagger, identity, max_abs_diff, partial_trace
from .spinsys import (
    SpinRegister,
    _permutation_conjugates,
    all_permutations,
    sigma,
    singlet_projector,
    swap,
)

W3 = np.exp(2j * np.pi / 3)


def _comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _check(label: str, a: np.ndarray, b: np.ndarray, tol: float = 1e-12) -> None:
    dev = max_abs_diff(a, b)
    if dev > tol:
        raise ConsistencyError(
            f"transcription cross-check {label} failed (deviation {dev:.3e})"
        )


# ---------------------------------------------------------------------------
# n = 3: the logical qubit in the j=1/2 sector
# ---------------------------------------------------------------------------

def n3_q_operators() -> dict:
    """The 8x8 matrix units q11, q12, q21, q22 in swap-operator form.

    Which of the two off-diagonal combinations carries which label is fixed
    by the Fourier coupling convention (lambda-row phases omega_3**(lambda*l)):
    with that convention the combination (P12 + w3 P23 + w3^2 P31)/3 is q21,
    not q12. Swapping the labels throughout is the equally valid mirrored
    convention; everything observable is unchanged.
    """
    reg = SpinRegister(3)
    p12, p23, p31 = swap(reg, 1, 2), swap(reg, 2, 3), swap(reg, 3, 1)
    one = identity(8)

    q21 = (p12 + W3 * p23 + W3**2 * p31) / 3
    q12 = dagger(q21)
    base = one / 2 - (p12 + p23 + p31) / 6
    twist = (1j / sqrt(12)) * _comm(p31, p12)
    q11 = base + twist
    q22 = base - twist

    # The diagonal entries must also be the closure products of the
    # off-diagonal pair; this pins the sign of the commutator term.
    _check("q11 = q12 q21", q11, q12 @ q21)
    _check("q22 = q21 q12", q22, q21 @ q12)
    return {"q11": q11, "q12": q12, "q21": q21, "q22": q22}


def n3_sector_projector(paulis: dict | None = None) -> np.ndarray:
    """Projector onto the j=1/2 sector, 1 - (P12+P23+P31)/3, its dot-product
    form read from paulis (_site_paulis of three constituents, or built)."""
    reg = SpinRegister(3)
    paulis = _site_paulis(reg) if paulis is None else paulis
    p_sum = swap(reg, 1, 2) + swap(reg, 2, 3) + swap(reg, 3, 1)
    proj = identity(8) - p_sum / 3

    # Equivalent dot-product form (3 - s1.s2 - s2.s3 - s3.s1)/6.
    dots = [_sigma_dot(paulis, 1, 2), _sigma_dot(paulis, 2, 3), _sigma_dot(paulis, 3, 1)]
    _check("sector projector forms", proj, (3 * identity(8) - sum(dots)) / 6)
    return proj


def _site_paulis(reg: SpinRegister) -> dict:
    """sigma(reg, site, axis) for every site and axis x, y, z, each built once."""
    return {(site, axis): sigma(reg, site, axis)
            for site in range(1, reg.n + 1) for axis in ("x", "y", "z")}


def _sigma_dot(paulis: dict, j: int, k: int) -> np.ndarray:
    """sigma^(j) . sigma^(k) from the single-site Paulis of _site_paulis."""
    return sum(paulis[j, a] @ paulis[k, a] for a in ("x", "y", "z"))


def _sigma_cross_dot(paulis: dict) -> np.ndarray:
    """(sigma^(1) x sigma^(2)) . sigma^(3), from the single-site Paulis of _site_paulis."""
    axes = ("x", "y", "z")
    total = np.zeros((8, 8), dtype=complex)
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        cross_a = (
            paulis[1, axes[b]] @ paulis[2, axes[c]]
            - paulis[1, axes[c]] @ paulis[2, axes[b]]
        )
        total += cross_a @ paulis[3, axes[a]]
    return total


def n3_pauli(q: dict | None = None, paulis: dict | None = None,
             sector: np.ndarray | None = None) -> dict:
    """Logical Pauli vector of the n=3 qubit, all closed forms cross-checked.

    The signs of sy and sz follow the q-operator labels of n3_q_operators()
    (the Fourier coupling convention); the mirrored label convention flips
    both, which is the same logical qubit with |1> and |2> interchanged.
    Its parts q (n3_q_operators), paulis (_site_paulis) and sector
    (n3_sector_projector) are built when not given.
    """
    reg = SpinRegister(3)
    p12, p23, p31 = swap(reg, 1, 2), swap(reg, 2, 3), swap(reg, 3, 1)
    q = n3_q_operators() if q is None else q

    sx = (2 * p12 - p23 - p31) / 3
    sy = (p31 - p23) / sqrt(3)
    sz = (1j / sqrt(3)) * _comm(p31, p12)

    # Matrix-unit forms.
    _check("sx = q12 + q21", sx, q["q12"] + q["q21"])
    _check("sy = -i q12 + i q21", sy, -1j * q["q12"] + 1j * q["q21"])
    _check("sz = q11 - q22", sz, q["q11"] - q["q22"])

    # Dot-product forms.
    paulis = _site_paulis(reg) if paulis is None else paulis
    d12, d23, d31 = (
        _sigma_dot(paulis, 1, 2),
        _sigma_dot(paulis, 2, 3),
        _sigma_dot(paulis, 3, 1),
    )
    _check("sx dot form", sx, (2 * d12 - d23 - d31) / 6)
    _check("sy dot form", sy, (d31 - d23) / sqrt(12))
    _check("sz triple-product form", sz, _sigma_cross_dot(paulis) / sqrt(12))

    sector = n3_sector_projector(paulis) if sector is None else sector
    _check("sector projector = q11 + q22", sector, q["q11"] + q["q22"])
    return {"x": sx, "y": sy, "z": sz, "i_sector": sector}


def n3_trine(q: dict | None = None, sector: np.ndarray | None = None) -> dict:
    """The trine preparation: pair singlet + maximally mixed third spin.

    The 8x8 operators are kept in their conventional display normalization
    (1 - P)/2, which carries trace 2: the trace-one payload of the logical
    state is half of it. The decoded 2x2 logical forms are produced through
    the reference q operators. Its parts q (n3_q_operators) and sector
    (n3_sector_projector) are built when not given.
    """
    reg = SpinRegister(3)
    rho1 = (identity(8) - swap(reg, 2, 3)) / 2
    rho2 = (identity(8) - swap(reg, 3, 1)) / 2
    rho3 = (identity(8) - swap(reg, 1, 2)) / 2

    q = n3_q_operators() if q is None else q
    _check(
        "rho3 matrix-unit form",
        rho3,
        (q["q11"] + q["q22"] - q["q12"] - q["q21"]) / 2,
    )
    _check(
        "trine completeness",
        (rho1 + rho2 + rho3) * (2 / 3),
        n3_sector_projector() if sector is None else sector,
    )

    def decode(payload8: np.ndarray) -> np.ndarray:
        return np.array(
            [
                [np.trace(q["q11"] @ payload8), np.trace(q["q21"] @ payload8)],
                [np.trace(q["q12"] @ payload8), np.trace(q["q22"] @ payload8)],
            ]
        )

    logical = [decode(r / 2) for r in (rho1, rho2, rho3)]
    _check(
        "decoded trine state",
        logical[2],
        np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex),
    )
    return {
        "rho1": rho1,
        "rho2": rho2,
        "rho3": rho3,
        "logical1": logical[0],
        "logical2": logical[1],
        "logical3": logical[2],
    }


# ---------------------------------------------------------------------------
# n = 4: the logical qutrit in the j=1 sector
# ---------------------------------------------------------------------------

def n4_akl() -> dict:
    """The convenience operators: swap differences A, commutators K, products L."""
    reg = SpinRegister(4)
    p = {
        (j, k): swap(reg, j, k)
        for j in range(1, 5)
        for k in range(1, 5)
        if j != k
    }
    a1 = p[(1, 2)] - p[(3, 4)]
    a2 = p[(1, 3)] - p[(2, 4)]
    a3 = p[(1, 4)] - p[(2, 3)]
    k1 = 1j * _comm(p[(2, 3)], p[(2, 4)])
    k2 = 1j * _comm(p[(3, 4)], p[(1, 3)])
    k3 = 1j * _comm(p[(1, 4)], p[(2, 4)])
    k4 = 1j * _comm(p[(1, 2)], p[(1, 3)])
    l1 = p[(1, 2)] @ p[(3, 4)]
    l2 = p[(1, 3)] @ p[(2, 4)]
    l3 = p[(1, 4)] @ p[(2, 3)]

    out = {
        "a1": a1, "a2": a2, "a3": a3,
        "k1": k1, "k2": k2, "k3": k3, "k4": k4,
        "l1": l1, "l2": l2, "l3": l3,
    }
    for name, m in out.items():
        _check(f"{name} hermitian", m, dagger(m), tol=1e-13)
    return out


def n4_q_operators(akl: dict | None = None) -> dict:
    """The nine 16x16 matrix units of the n=4 qutrit in A/K/L form, from
    akl (n4_akl, built when not given)."""
    op = n4_akl() if akl is None else akl
    one = identity(16)
    a1, a2, a3 = op["a1"], op["a2"], op["a3"]
    k1, k2, k3, k4 = op["k1"], op["k2"], op["k3"], op["k4"]
    l1, l2, l3 = op["l1"], op["l2"], op["l3"]
    ksum = k1 + k2 + k3 + k4

    q11 = (one - ksum / 2 - l2) / 4
    q22 = (one - l1 + l2 - l3) / 4
    q33 = (one + ksum / 2 - l2) / 4
    q12 = ((1 + 1j) * a1 - (1 - 1j) * a3 - 1j * (k1 - k3) - (k2 - k4)) / 8
    q23 = ((1 + 1j) * a1 - (1 - 1j) * a3 + 1j * (k1 - k3) + (k2 - k4)) / 8
    # The (1,3) entry: the sign of the i(l1 - l3) term is fixed by the
    # matrix-unit closure q13 = q12 q23 with the two entries above.
    q13 = (a2 - 1j * (l1 - l3)) / 4

    q = {
        (1, 1): q11, (2, 2): q22, (3, 3): q33,
        (1, 2): q12, (2, 1): dagger(q12),
        (2, 3): q23, (3, 2): dagger(q23),
        (1, 3): q13, (3, 1): dagger(q13),
    }
    _check("q13 = q12 q23", q[(1, 3)], q[(1, 2)] @ q[(2, 3)])
    _check("q11 = q12 q21", q[(1, 1)], q[(1, 2)] @ q[(2, 1)])
    _check("q22 = q23 q32", q[(2, 2)], q[(2, 3)] @ q[(3, 2)])
    _check("q33 = q31 q13", q[(3, 3)], q[(3, 1)] @ q[(1, 3)])
    return {f"q{lam}{lamp}": m for (lam, lamp), m in q.items()}


def n4_hws(akl: dict | None = None, q: dict | None = None) -> dict:
    """The clock (u3) and shift (v3) unitaries of the n=4 qutrit.

    u3 carries the K-sum with coefficient sqrt(3)i/2: that value — and only
    that value — makes u3 equal the clock sum w q11 + w^2 q22 + q33 over the
    diagonal matrix units above, and makes u3 cube to the sector projector.
    Its parts akl (n4_akl) and q (n4_q_operators) are built when not given.
    """
    op = n4_akl() if akl is None else akl
    ksum = op["k1"] + op["k2"] + op["k3"] + op["k4"]
    l1, l2, l3 = op["l1"], op["l2"], op["l3"]
    a1, a2, a3 = op["a1"], op["a2"], op["a3"]

    u3 = (W3**2 / 4) * (-l1 + 2 * l2 - l3 + (sqrt(3) * 1j / 2) * ksum)
    v3 = (1j * (l1 - l3) + (1 + 1j) * a1 + a2 - (1 - 1j) * a3) / 4

    q = n4_q_operators(op) if q is None else q
    _check("u3 clock sum", u3, W3 * q["q11"] + W3**2 * q["q22"] + q["q33"])
    _check("v3 shift sum", v3, q["q12"] + q["q23"] + q["q31"])
    return {"u3": u3, "v3": v3}


# ---------------------------------------------------------------------------
# n = 4: the logical qubit in the j=0 (singlet) sector
# ---------------------------------------------------------------------------

def n4_singlet_layer() -> dict:
    """Projectors and Paulis of the n=4 singlet-sector qubit."""
    reg = SpinRegister(4)
    s = {
        (j, k): singlet_projector(reg, j, k)
        for j in range(1, 5)
        for k in range(1, 5)
        if j != k
    }
    ss_sum = s[(1, 2)] @ s[(3, 4)] + s[(1, 3)] @ s[(2, 4)] + s[(1, 4)] @ s[(2, 3)]
    comm_sum = (
        _comm(s[(1, 2)], s[(1, 3)])
        - _comm(s[(2, 3)], s[(2, 4)])
        + _comm(s[(3, 4)], s[(3, 1)])
        - _comm(s[(4, 1)], s[(4, 2)])
    )

    proj = {}
    for lam in (1, 2):
        proj[lam] = ss_sum / 3 + (1j * (-1) ** lam / sqrt(12)) * comm_sum

    # Successively-coupled singlet projectors. The pair-singlet product
    # S12 S34 is rank one and IS the projector onto the first successive
    # singlet (the state that is a singlet on (1,2) and on (3,4)); the
    # orthogonal combination below is the second.
    cg1 = s[(1, 2)] @ s[(3, 4)]
    cg2 = (-s[(1, 2)] @ s[(3, 4)] + 2 * s[(1, 3)] @ s[(2, 4)] + 2 * s[(1, 4)] @ s[(2, 3)]) / 3

    sx = (-2 / 3) * (
        2 * s[(1, 2)] @ s[(3, 4)] - s[(1, 4)] @ s[(2, 3)] - s[(1, 3)] @ s[(2, 4)]
    )
    sy = (-2 / sqrt(3)) * (s[(1, 3)] @ s[(2, 4)] - s[(1, 4)] @ s[(2, 3)])
    sz = (-1j / sqrt(3)) * comm_sum
    i_j0 = (2 / 3) * ss_sum

    _check("i_j0 completeness", i_j0, proj[1] + proj[2])
    _check("sz = proj(1) - proj(2)", sz, proj[1] - proj[2])
    _check("cg pair resolves the sector", cg1 + cg2, i_j0, tol=1e-12)
    for name, m in (("sx", sx), ("sy", sy), ("sz", sz)):
        _check(f"{name}^2 = i_j0", m @ m, i_j0, tol=1e-12)
    _check("[sx, sy] = 2i sz", _comm(sx, sy), 2j * sz, tol=1e-12)

    return {
        "proj_lambda1": proj[1],
        "proj_lambda2": proj[2],
        "cg_proj1": cg1,
        "cg_proj2": cg2,
        "pauli_x": sx,
        "pauli_y": sy,
        "pauli_z": sz,
        "i_j0": i_j0,
    }


def n4_sector_projectors(q: dict | None = None, layer: dict | None = None) -> dict:
    """The two logical-sector projectors of the four-constituent register, from
    q (n4_q_operators) and layer (n4_singlet_layer), each built when not given."""
    q = n4_q_operators() if q is None else q
    layer = n4_singlet_layer() if layer is None else layer
    return {
        "i_j1": q["q11"] + q["q22"] + q["q33"],
        "i_j0": layer["i_j0"],
    }


# ---------------------------------------------------------------------------
# The n=4 -> n=3 reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionReport:
    """Outcome of tracing single constituents out of the singlet-sector Paulis.

    For each traced constituent the three reduced operators are compared with
    the n=3 logical Paulis after relabeling the remaining constituents; when a
    relabeling reproduces all three axes with one shared constant, it is
    recorded. The claim holds when every constituent admits one and the
    constant is the same throughout.
    """

    holds: bool
    constant: float | None
    relabelings: dict  # traced constituent -> images tuple
    max_residual: float
    details: list


def n4_to_n3_reduction(n4_paulis: dict | None = None,
                       n3_paulis: dict | None = None) -> ReductionReport:
    """Trace each constituent out of the n=4 singlet Paulis (n4_singlet_layer,
    or the given dict with the same pauli_x/y/z) and match the n=3 Paulis
    (n3_pauli, or the given dict with the same x/y/z) within 1e-10."""
    layer = n4_singlet_layer() if n4_paulis is None else n4_paulis
    four = [layer["pauli_x"], layer["pauli_y"], layer["pauli_z"]]
    three_ref = n3_pauli() if n3_paulis is None else n3_paulis
    three = [three_ref["x"], three_ref["y"], three_ref["z"]]
    perms = list(all_permutations(3))
    # relabeled[:, i]: the three n=3 Paulis relabeled by perms[i], one gather
    relabeled = _permutation_conjugates(SpinRegister(3), perms, np.array(three))

    relabelings: dict = {}
    constants: list[float] = []
    worst = 0.0
    details = []
    holds = True
    for traced in (1, 2, 3, 4):
        reduced = [partial_trace(m, 4, traced) for m in four]
        match = None
        for index, perm in enumerate(perms):
            targets = list(relabeled[:, index])
            num = sum(
                np.trace(dagger(t) @ r).real for t, r in zip(targets, reduced)
            )
            den = sum(np.trace(dagger(t) @ t).real for t in targets)
            c = num / den
            residual = max(
                max_abs_diff(r, c * t) for t, r in zip(targets, reduced)
            )
            if residual <= 1e-10:
                match = (perm.images, c, residual)
                break
        if match is None:
            holds = False
            details.append({"traced": traced, "match": None})
            continue
        images, c, residual = match
        relabelings[traced] = images
        constants.append(c)
        worst = max(worst, residual)
        details.append(
            {"traced": traced, "images": images, "constant": c, "residual": residual}
        )

    constant: float | None = None
    if holds and constants:
        spread = max(constants) - min(constants)
        if spread > 1e-10:
            holds = False
        else:
            constant = constants[0]
    return ReductionReport(
        holds=holds,
        constant=constant,
        relabelings=relabelings,
        max_residual=worst,
        details=details,
    )


# ---------------------------------------------------------------------------
# Registry for the CLI
# ---------------------------------------------------------------------------

def _n3_site_paulis() -> dict:
    """The single-site Paulis of three constituents, the part the n=3 dot forms read."""
    return _site_paulis(SpinRegister(3))


# The parts each composite factory takes, by argument name, and the factory
# that builds each part.
_PARTS = {
    "n3_sector_projector": {"paulis": "_n3_site_paulis"},
    "n3_pauli": {"q": "n3_q_operators", "paulis": "_n3_site_paulis",
                 "sector": "n3_sector_projector"},
    "n3_trine": {"q": "n3_q_operators", "sector": "n3_sector_projector"},
    "n4_q_operators": {"akl": "n4_akl"},
    "n4_hws": {"akl": "n4_akl", "q": "n4_q_operators"},
    "n4_sector_projectors": {"q": "n4_q_operators", "layer": "n4_singlet_layer"},
}


class _ClosedForms:
    """forms(name): what the factory of that name in this module builds, run at
    most once per forms, its parts (_PARTS) read from forms.

    One forms serves one call (a verify run, a reference case), so each closed
    form is built and cross-checked once per call and nothing outlives it. A
    factory that raises is not kept: each later read raises again. A class
    rather than a cached closure, which would refer to itself: a cycle keeps
    everything it built alive until the garbage collector runs.
    """

    def __init__(self):
        self._built: dict = {}

    def __call__(self, name: str):
        if name not in self._built:
            parts = {arg: self(part) for arg, part in _PARTS.get(name, {}).items()}
            # read by name at call time, so a factory rebound in this module is the one run
            self._built[name] = globals()[name](**parts)
        return self._built[name]


def _built_by(factory: str, keys: tuple | None = None) -> Callable[..., dict]:
    """A case's build(forms=None): the dict the named factory builds (only its
    entries keys, when given), read from forms (a _ClosedForms), or from a
    fresh one when forms is None."""
    def build(forms: _ClosedForms | None = None) -> dict:
        built = (_ClosedForms() if forms is None else forms)(factory)
        return built if keys is None else {key: built[key] for key in keys}

    return build


@dataclass(frozen=True)
class ReferenceCase:
    id: str
    description: str
    build: Callable[..., dict]  # build(forms=None), see _built_by
    formulas: dict


REFERENCE_CASES: dict[str, ReferenceCase] = {}


def _register(case: ReferenceCase) -> None:
    REFERENCE_CASES[case.id] = case


_register(ReferenceCase(
    id="n3-q",
    description="n=3 logical matrix units in swap-operator form",
    build=_built_by("n3_q_operators"),
    formulas={
        "q21": "(P12 + w3 P23 + w3^2 P31)/3  [label order fixed by the coupling]",
        "q12": "dagger(q21)",
        "q11": "1/2 - (P12+P23+P31)/6 + (i/sqrt(12))[P31,P12]",
        "q22": "1/2 - (P12+P23+P31)/6 - (i/sqrt(12))[P31,P12]",
    },
))
_register(ReferenceCase(
    id="n3-pauli",
    description="n=3 logical Pauli vector and sector projector",
    build=_built_by("n3_pauli"),
    formulas={
        "x": "(2 P12 - P23 - P31)/3",
        "y": "(P31 - P23)/sqrt(3)",
        "z": "(i/sqrt(3))[P31, P12]",
        "i_sector": "1 - (P12+P23+P31)/3",
    },
))
_register(ReferenceCase(
    id="n3-trine",
    description="trine preparations (display normalization, trace 2) and logical forms",
    build=_built_by("n3_trine"),
    formulas={
        "rho1": "(1 - P23)/2",
        "rho2": "(1 - P31)/2",
        "rho3": "(1 - P12)/2",
        "logical1": "decode(rho1 / 2)",
        "logical2": "decode(rho2 / 2)",
        "logical3": "decode(rho3 / 2)",
    },
))
_register(ReferenceCase(
    id="n4-akl",
    description="n=4 convenience operators: swap differences, commutators, products",
    build=_built_by("n4_akl"),
    formulas={
        "a1": "P12 - P34", "a2": "P13 - P24", "a3": "P14 - P23",
        "k1": "i[P23, P24]", "k2": "i[P34, P13]",
        "k3": "i[P14, P24]", "k4": "i[P12, P13]",
        "l1": "P12 P34", "l2": "P13 P24", "l3": "P14 P23",
    },
))
_register(ReferenceCase(
    id="n4-q",
    description="n=4 qutrit matrix units in A/K/L form",
    build=_built_by("n4_q_operators"),
    formulas={
        "q11": "(1 - (k1+k2+k3+k4)/2 - l2)/4",
        "q22": "(1 - l1 + l2 - l3)/4",
        "q33": "(1 + (k1+k2+k3+k4)/2 - l2)/4",
        "q12": "((1+i)a1 - (1-i)a3 - i(k1-k3) - (k2-k4))/8",
        "q23": "((1+i)a1 - (1-i)a3 + i(k1-k3) + (k2-k4))/8",
        "q13": "(a2 - i(l1-l3))/4  [sign fixed by q13 = q12 q23]",
        "q21": "dagger(q12)", "q32": "dagger(q23)", "q31": "dagger(q13)",
    },
))
_register(ReferenceCase(
    id="n4-hws",
    description="n=4 qutrit clock/shift unitaries in A/K/L form",
    build=_built_by("n4_hws"),
    formulas={
        "u3": "(w3^2/4)(-l1 + 2 l2 - l3 + (sqrt(3) i/2)(k1+k2+k3+k4))"
              "  [K coefficient fixed by the clock sum and u3^3 = sector identity]",
        "v3": "(i(l1-l3) + (1+i)a1 + a2 - (1-i)a3)/4",
    },
))
_register(ReferenceCase(
    id="n4-singlet-proj",
    description="n=4 symmetric-coupling singlet projectors (permutation covariant pair)",
    build=_built_by("n4_singlet_layer", ("proj_lambda1", "proj_lambda2")),
    formulas={
        "proj_lambda1": "(S12S34+S13S24+S14S23)/3 - (i/sqrt(12)) commutator sum",
        "proj_lambda2": "(S12S34+S13S24+S14S23)/3 + (i/sqrt(12)) commutator sum",
    },
))
_register(ReferenceCase(
    id="n4-cg-proj",
    description="n=4 successively-coupled singlet projectors (not permutation covariant)",
    build=_built_by("n4_singlet_layer", ("cg_proj1", "cg_proj2")),
    formulas={
        "cg_proj1": "S12 S34  [rank one: singlet on (1,2) and (3,4)]",
        "cg_proj2": "(-S12S34 + 2 S13S24 + 2 S14S23)/3",
    },
))
_register(ReferenceCase(
    id="n4-pauli",
    description="n=4 singlet-sector logical Pauli vector",
    build=_built_by("n4_singlet_layer", ("pauli_x", "pauli_y", "pauli_z")),
    formulas={
        "pauli_x": "(-2/3)(2 S12S34 - S14S23 - S13S24)",
        "pauli_y": "(-2/sqrt(3))(S13S24 - S14S23)",
        "pauli_z": "(-i/sqrt(3))([S12,S13]-[S23,S24]+[S34,S31]-[S41,S42])",
    },
))
_register(ReferenceCase(
    id="n4-sector-projectors",
    description="n=4 logical sector projectors (j=1 and j=0)",
    build=_built_by("n4_sector_projectors"),
    formulas={
        "i_j1": "q11 + q22 + q33",
        "i_j0": "(2/3)(S12S34 + S13S24 + S14S23)",
    },
))
