"""Collective-noise channel simulator.

Both parties hold registers whose orientation conventions may disagree by an
unknown shared rotation: every constituent of a transmitted register suffers
the SAME unknown single-qubit unitary u (the collective noise u tensored n
times). Encoded payloads commute with every collective rotation, so the
decoded logical state is unchanged trial after trial; a bare physical qubit
sent through the same noise is scrambled. This module quantifies both.

Noise modes: "haar" draws u from the rotation-invariant distribution each
trial; "fixed" applies one given axis/angle rotation every trial;
"dephasing" draws a Gaussian collective z-rotation angle per trial (equal
field strength at every site).

Determinism: every trial's noise is drawn from the seed's one stream, so a
report is a pure function of (config, state) and serializes to identical
bytes on every run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isfinite, sqrt
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .coupling import CoupledBasis, build_coupled_basis, partial_trace_m2
from .encoder import (
    QuditPovm,
    QuditState,
    encode_state,
    encoded_frames,
    require_decoded,
    require_density,
)
from .errors import ConsistencyError, ValidationError, require_integer, require_none
from .linalg import (
    dagger,
    matrix_to_json_dict,
    mat_exp_hermitian_generator,
    stack_at_shared,
    trace_distance,
    uhlmann_fidelity,
)
from .spinsys import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SpinRegister,
    _haar_su2_of,
    haar_su2,
    seeded_generator,
)

NOISE_MODES = ("haar", "fixed", "dephasing")
# The figures of each trial: the report's columns, in the order of its CSV header.
_FIGURES = ("fidelity", "trace_distance", "leakage", "bare_fidelity")
# One per_trial row as json.dumps(..., sort_keys=True, indent=2) writes it in
# a report: its keys sorted, at nesting depth two.
_ROW_TEMPLATE = "    {\n" + ",\n".join(
    f'      "{key}": %s' for key in sorted(_FIGURES + ("trial",))) + "\n    }"
# The noise mode each optional parameter belongs to.
_NOISE_PARAMETERS = {"axis": "fixed", "angle": "fixed", "width": "dephasing"}


@dataclass(frozen=True)
class ChannelConfig:
    n: int
    trials: int
    seed: int
    noise: str = "haar"
    axis: tuple[float, float, float] | None = None
    angle: float | None = None
    width: float | None = None

    def __post_init__(self):
        # Kept as Python ints, so a NumPy integer echoes into the report as an int.
        object.__setattr__(self, "n", require_integer(self.n, "n", 1))
        object.__setattr__(self, "trials", require_integer(self.trials, "trials", 1))
        object.__setattr__(self, "seed", require_integer(self.seed, "seed", 0))
        if self.noise not in NOISE_MODES:
            raise ValidationError(
                f"unknown noise mode {self.noise!r}; expected one of {NOISE_MODES}"
            )
        stray = [name for name, mode in _NOISE_PARAMETERS.items()
                 if getattr(self, name) is not None and self.noise != mode]
        if stray:
            raise ValidationError(
                f"{self.noise} noise takes no {' or '.join(stray)}: axis and angle are "
                f"for fixed noise, width for dephasing noise"
            )
        if self.noise == "fixed":
            if self.axis is None or self.angle is None:
                raise ValidationError("fixed noise needs an axis and an angle")
            axis = np.asarray(self.axis, dtype=float)
            if axis.shape != (3,) or not abs(np.linalg.norm(axis) - 1) <= 1e-12:  # NaN fails
                raise ValidationError("fixed-noise axis must be a unit 3-vector")
            if not isfinite(self.angle):
                raise ValidationError(f"fixed-noise angle must be finite, got {self.angle}")
        if self.noise == "dephasing":
            if self.width is None or not (isfinite(self.width) and self.width >= 0):
                raise ValidationError("dephasing noise needs a finite width >= 0")

    def noise_echo(self) -> dict:
        echo: dict = {"mode": self.noise}
        if self.noise == "fixed":
            echo["axis"] = [float(a) for a in self.axis]
            echo["angle"] = float(self.angle)
        if self.noise == "dephasing":
            echo["width"] = float(self.width)
        return echo


@dataclass(frozen=True)
class ChannelReport:
    """A channel run. series maps each of _FIGURES to a read-only float64 column
    of one value per trial, all of one length; bare_fidelity is None for d != 2."""

    config: dict
    series: dict = field(repr=False)
    aggregate: dict
    note: str | None
    # Wall time of the noise draws, the rotation and gate, and the figures;
    # it differs run to run, so the report output leaves it out.
    elapsed_ms: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        if self.series.keys() != set(_FIGURES):
            raise ValidationError(f"a report's series are {_FIGURES}, got {tuple(self.series)}")
        series = dict.fromkeys(_FIGURES)
        for name in _FIGURES:
            column = self.series[name]
            if column is None and name == "bare_fidelity":
                continue
            column = np.asarray(column)
            if column.ndim != 1 or column.dtype.kind not in "iuf":  # a bool is not a number
                raise ValidationError(f"series {name!r} must be a column of numbers, "
                                      f"got {column.dtype} of shape {column.shape}")
            series[name] = column = column.astype(np.float64)
            column.flags.writeable = False
        lengths = {name: len(c) for name, c in series.items() if c is not None}
        if len(set(lengths.values())) > 1:
            raise ValidationError(f"the series differ in length: {lengths}")
        object.__setattr__(self, "series", series)

    def __eq__(self, other):  # equal when they write the same report
        return isinstance(other, ChannelReport) and self.to_json() == other.to_json()

    @property
    def per_trial(self) -> list:
        """One row per trial, {"trial": t, figure: value or None, ...}, built on each read."""
        columns = [[None] * len(self.series["fidelity"]) if c is None else c.tolist()
                   for c in self.series.values()]
        return [{"trial": t, **dict(zip(self.series, row))}
                for t, row in enumerate(zip(*columns))]

    def to_json(self) -> str:
        """json.dumps(report, sort_keys=True, indent=2) of the report with its
        per_trial rows, the rows written from the columns' text."""
        text = self._text(for_json=True)
        lines = [_ROW_TEMPLATE % row for row in zip(*(text[key] for key in sorted(text)))]
        rows = "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"
        rest = json.dumps({"config": self.config, "aggregate": self.aggregate,
                           "note": self.note}, sort_keys=True, indent=2)
        # "per_trial" sorts last, so the rows close the report.
        return f'{rest[:-2]},\n  "per_trial": {rows}\n}}'

    def to_csv(self) -> str:
        """RFC 4180 with CRLF line endings: a header, then one line per trial, each
        number as repr writes it and "" for a None column."""
        text = self._text(for_json=False)
        header = ("trial",) + _FIGURES
        return "".join(",".join(line) + "\r\n" for line in [header, *zip(*map(text.get, header))])

    def _text(self, for_json: bool) -> dict:
        """The trial index and each column as text, one word per trial: one repr of
        the column's .tolist(), split on ", " (no number's repr holds one). JSON
        writes repr's nan and inf as NaN and Infinity, and a None column as null;
        CSV writes "" for it."""
        trials = len(self.series["fidelity"])
        text = {"trial": list(map(str, range(trials)))}
        for name, column in self.series.items():
            if column is None:
                text[name] = ["null" if for_json else ""] * trials
                continue
            words = repr(column.tolist())[1:-1]
            if for_json:  # only nan and inf put an "n" in a float's repr
                words = words.replace("nan", "NaN").replace("inf", "Infinity")
            text[name] = words.split(", ") if trials else []
        return text


def _series_stats(values: np.ndarray) -> dict:
    stderr = float(values.std(ddof=1) / sqrt(len(values))) if len(values) > 1 else 0.0
    return {"mean": float(values.mean()), "min": float(values.min()),
            "max": float(values.max()), "stderr": stderr}


def _noise_unitaries(cfg: ChannelConfig) -> np.ndarray:
    """The (trials, 2, 2) stack of noise draws, all from the seed's one stream.

    Trial t reads the t-th draw of spinsys.seeded_generator(cfg.seed), made in
    one call for every trial, so the draws do not depend on how the trials are
    grouped and a shorter run's draws are a prefix of a longer run's."""
    if cfg.noise == "fixed":
        ax = np.asarray(cfg.axis, dtype=float)
        generator = (ax[0] * SIGMA_X + ax[1] * SIGMA_Y + ax[2] * SIGMA_Z) / 2
        return np.broadcast_to(mat_exp_hermitian_generator(generator, cfg.angle),
                               (cfg.trials, 2, 2))
    rng = seeded_generator(cfg.seed)
    if cfg.noise == "haar":
        return haar_su2(rng, cfg.trials)
    return mat_exp_hermitian_generator(SIGMA_Z / 2, rng.normal(0.0, cfg.width, cfg.trials))


def run_channel(cfg: ChannelConfig, state: QuditState) -> ChannelReport:
    """Send one encoded logical state through cfg.trials noise draws.

    The trials run as stacks: the rotations in chunks of at most coupling.CHUNK_BYTES
    of U K, each gated by basis.rotations, then every check and figure on the
    (trials, d, d) stack of decoded states. Each check holds every trial, and a
    failed one is a failed claim: ConsistencyError naming its trial.
    """
    reg = SpinRegister(cfg.n)
    if state.d != cfg.n - 1:
        raise ValidationError(
            f"state dimension {state.d} does not fit n={cfg.n} (needs d={cfg.n - 1})"
        )
    basis = build_coupled_basis(reg)
    enc = encode_state(basis, state)

    bare_enabled = state.d == 2
    note = None if bare_enabled else (
        "bare-qubit comparison omitted: it is defined only for d=2"
    )

    start = perf_counter()
    u = _noise_unitaries(cfg)
    drawn = perf_counter()
    # F and rho are shared by every trial: R F and u rho are one product each.
    decoded = np.concatenate([partial_trace_m2(basis.d,
                                               stack_at_shared(r, enc.frame) @ dagger(r))
                              for r, _ in basis.rotations(u)])
    rotated = perf_counter()
    decoded = require_decoded(decoded)
    # The bare qubit's states ride in the same stack, so sqrt(rho) is taken once.
    compared = (np.concatenate([decoded, stack_at_shared(u, state.rho) @ dagger(u)])
                if bare_enabled else decoded)
    fidelities = uhlmann_fidelity(state.rho, compared)
    series = {
        "fidelity": fidelities[:cfg.trials],
        "trace_distance": trace_distance(state.rho, decoded),
        # Tr(K K^dag U P U^dag), measured rather than assumed to be one
        "leakage": 1.0 - np.trace(decoded, axis1=1, axis2=2).real,
        "bare_fidelity": fidelities[cfg.trials:] if bare_enabled else None,
    }
    for name, values in series.items():
        if name != "leakage" and values is not None:
            require_none(~((values >= -1e-9) & (values <= 1 + 1e-9)), lambda t: (
                f"{name} = {float(values[t])!r} escapes [0, 1] in trial {t}"), ConsistencyError)

    aggregate = {name: None if series[name] is None else _series_stats(series[name])
                 for name in _FIGURES}
    config_echo = {
        "n": cfg.n,
        "d": state.d,
        "trials": cfg.trials,
        "seed": cfg.seed,
        "noise": cfg.noise_echo(),
        "coupling": "fourier",
        "coupling_fingerprint": basis.fingerprint,
        "state": matrix_to_json_dict(state.rho),
    }
    elapsed_ms = {"noise": (drawn - start) * 1e3, "rotation": (rotated - drawn) * 1e3,
                  "figures": (perf_counter() - rotated) * 1e3}
    return ChannelReport(config=config_echo, series=series, aggregate=aggregate,
                         note=note, elapsed_ms=elapsed_ms)


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random full-rank density matrix (normalized Wishart draw)."""
    return _random_density_of(rng.standard_normal((2, d, d)))


def _random_density_of(z: np.ndarray) -> np.ndarray:
    """random_density's draw from standard normals z (..., 2, d, d): G G^dag / Tr
    for G = z[..., 0, :, :] + i z[..., 1, :, :], one density per leading index."""
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    rho = g @ dagger(g)
    return rho / np.trace(rho, axis1=-2, axis2=-1)[..., None, None]


def random_povm(rng: np.random.Generator, d: int, elements: int) -> QuditPovm:
    """A random POVM: PSD draws A_k whitened by the inverse root of their sum.

    The real and imaginary parts of every G_k come from one standard_normal
    call, in the order of drawing them element by element; A_k = G_k G_k^dag.
    """
    if elements < 1:
        raise ValidationError("a POVM needs at least one element")
    z = rng.standard_normal((elements, 2, d, d))
    return QuditPovm(d=d, elements=tuple(_random_povm_of(z)))


def _random_povm_of(z: np.ndarray) -> np.ndarray:
    """random_povm's elements from standard normals z (..., elements, 2, d, d):
    a stack (..., elements, d, d), one POVM per leading index."""
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    draws = g @ dagger(g)
    w, v = np.linalg.eigh(draws.sum(axis=-3))
    inv_root = (v / np.sqrt(w)[..., None, :]) @ dagger(v)
    elems = inv_root[..., None, :, :] @ draws @ inv_root[..., None, :, :]
    return (elems + dagger(elems)) / 2


class BornReport(NamedTuple):
    d: int
    trials: int
    max_encoded_deviation: float
    max_rotated_deviation: float


def born_rule_harness(qs: CoupledBasis, trials: int, seed: int) -> BornReport:
    """Compare logical vs encoded outcome probabilities on random pairs.

    Each trial draws a random state, then a random POVM, then a random
    collective rotation u, and the probabilities of all elements are checked
    three ways: logical Tr(rho Pi_k); encoded Tr(P_rho P_k) of the state's
    payload, taken as Tr(C Pi_k) with C = sum_m2 C_m2 the partial trace of its
    frame K^dag P_rho K, compressed from the payload's lifted weight-class
    blocks (CoupledBasis.compress_lifted); and encoded after the rotation,
    Tr(Tr_m2(R F R^dag) Pi_k) for the state's frame F = rho/d (x) I_d and
    R = K^dag u^(x n) K. All trials run as stacks, in chunks of at most
    coupling.CHUNK_BYTES: of lifted blocks, and of U K as in the channel.
    A payload off the logical sector, or a rotation that leaves it, fails the gate
    of compress_lifted or of qs.rotations: ConsistencyError naming its trial.
    """
    require_integer(trials, "trials", 1)
    d = qs.d
    # per trial, from one standard_normal call: the state, then the POVM, then u
    z = seeded_generator(seed).standard_normal((trials, 2 * d * d * (d + 2) + 8))
    rho = _random_density_of(z[:, :2 * d * d].reshape(trials, 2, d, d))
    elements = _random_povm_of(z[:, 2 * d * d:-8].reshape(trials, d + 1, 2, d, d))
    u = _haar_su2_of(z[:, -8:].reshape(trials, 2, 2, 2))
    require_density(rho)
    logical = rho / qs.d
    frames = qs.compress_lifted(logical)
    rotations = np.concatenate([r for r, _ in qs.rotations(u)])
    moved = partial_trace_m2(qs.d, rotations @ encoded_frames(logical) @ dagger(rotations))

    def probabilities(states: np.ndarray) -> np.ndarray:
        return np.einsum("tij,tkji->tk", states, elements).real

    expected = probabilities(rho)
    return BornReport(
        d=qs.d,
        trials=trials,
        max_encoded_deviation=float(np.abs(probabilities(frames.sum(axis=1)) - expected).max()),
        max_rotated_deviation=float(np.abs(probabilities(moved) - expected).max()),
    )
