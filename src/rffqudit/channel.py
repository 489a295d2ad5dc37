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

import csv
import io
import json
from dataclasses import dataclass, field
from math import isfinite, sqrt
from operator import itemgetter
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
from .errors import ConsistencyError, ValidationError, require_none
from .linalg import (
    dagger,
    matrix_to_json_dict,
    mat_exp_hermitian_generator,
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
    require_seed,
    seeded_generator,
)

NOISE_MODES = ("haar", "fixed", "dephasing")
# One per_trial row as json.dumps(..., sort_keys=True, indent=2) writes it in
# a report: its keys sorted, at nesting depth two.
_ROW_KEYS = ("bare_fidelity", "fidelity", "leakage", "trace_distance", "trial")
_ROW_TEMPLATE = "    {\n" + ",\n".join(f'      "{key}": %s' for key in _ROW_KEYS) + "\n    }"
# repr writes a float, an int or None as json does, except for these words.
_JSON_WORDS = {"None": "null", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_NUMBER_TYPES = {float, int, type(None)}
# The noise mode each optional parameter belongs to.
_NOISE_PARAMETERS = {"axis": "fixed", "angle": "fixed", "width": "dephasing"}


def require_trials(trials) -> None:
    """ValidationError unless trials is an integer >= 1 (a bool or a float is not)."""
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)):
        raise ValidationError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValidationError(f"trials must be >= 1, got {trials}")


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
        require_trials(self.trials)
        require_seed(self.seed)
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
    config: dict
    per_trial: list = field(repr=False)
    aggregate: dict
    note: str | None
    # Wall time of the noise draws, the rotation and gate, and the figures;
    # it differs run to run, so the report output leaves it out.
    elapsed_ms: dict = field(default_factory=dict, compare=False, repr=False)

    def to_json(self) -> str:
        """json.dumps(report, sort_keys=True, indent=2), the trial rows written directly."""
        rows = _trial_rows_json(self.per_trial)
        rest = json.dumps({"config": self.config, "aggregate": self.aggregate,
                           "note": self.note}, sort_keys=True, indent=2)
        # "per_trial" sorts last, so the rows close the report.
        return f'{rest[:-2]},\n  "per_trial": {rows}\n}}'

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
        writer.writerow(["trial", "fidelity", "trace_distance", "leakage", "bare_fidelity"])
        for row in self.per_trial:
            bare = row.get("bare_fidelity")
            writer.writerow([
                row["trial"],
                repr(row["fidelity"]),
                repr(row["trace_distance"]),
                repr(row["leakage"]),
                "" if bare is None else repr(bare),
            ])
        return buf.getvalue()


def _is_trial_row(row) -> bool:
    return (isinstance(row, dict) and row.keys() == set(_ROW_KEYS)
            and set(map(type, row.values())) <= _NUMBER_TYPES)


def _trial_rows_json(rows: list) -> str:
    """The per_trial array as json.dumps(..., sort_keys=True, indent=2) writes it
    in a report. A row that does not have exactly the _ROW_KEYS, each holding a
    float, an int or None, raises TypeError.

    Each column is written by one repr of a list, the floats formatted in C.
    """
    try:
        ok = all(len(row) == len(_ROW_KEYS) for row in rows)
        columns = list(zip(*map(itemgetter(*_ROW_KEYS), rows)))
    except (KeyError, TypeError):
        ok = False
    if not (ok and all(set(map(type, c)) <= _NUMBER_TYPES for c in columns)):
        bad = next(t for t, row in enumerate(rows) if not _is_trial_row(row))
        raise TypeError(f"per_trial row {bad} needs exactly the keys {_ROW_KEYS}, "
                        f"each a float, an int or None: {rows[bad]!r}")
    cells = []
    for column in columns:
        text = repr(list(column))
        words = text[1:-1].split(", ")  # no number's text holds ", "
        # only None, nan and inf put an "n" in the text
        cells.append([_JSON_WORDS.get(w, w) for w in words] if "n" in text else words)
    lines = [_ROW_TEMPLATE % row for row in zip(*cells)]
    return "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"


def _series_stats(values: np.ndarray) -> dict:
    arr = np.asarray(values, dtype=float)
    stderr = float(arr.std(ddof=1) / sqrt(len(arr))) if len(arr) > 1 else 0.0
    return {
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "stderr": stderr,
    }


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
    decoded = np.concatenate([partial_trace_m2(basis.d, r @ enc.frame @ dagger(r))
                              for r, _ in basis.rotations(u)])
    rotated = perf_counter()
    decoded = require_decoded(decoded)
    # The bare qubit's states ride in the same stack, so sqrt(rho) is taken once.
    compared = np.concatenate([decoded, u @ state.rho @ dagger(u)]) if bare_enabled else decoded
    fidelities = uhlmann_fidelity(state.rho, compared)
    series = {
        "fidelity": fidelities[:cfg.trials],
        "trace_distance": trace_distance(state.rho, decoded),
        # Tr(K K^dag U P U^dag), measured rather than assumed to be one
        "leakage": 1.0 - np.trace(decoded, axis1=1, axis2=2).real,
    }
    if bare_enabled:
        series["bare_fidelity"] = fidelities[cfg.trials:]
    for name, values in series.items():
        if name != "leakage":
            require_none(~((values >= -1e-9) & (values <= 1 + 1e-9)), lambda t: (
                f"{name} = {float(values[t])!r} escapes [0, 1] in trial {t}"), ConsistencyError)

    columns = {name: values.tolist() for name, values in series.items()}
    per_trial = [
        {"trial": index, "bare_fidelity": None, **{name: column[index]
                                                   for name, column in columns.items()}}
        for index in range(cfg.trials)
    ]
    aggregate = {name: _series_stats(series[name]) if name in series else None
                 for name in ("fidelity", "trace_distance", "leakage", "bare_fidelity")}
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
    return ChannelReport(config=config_echo, per_trial=per_trial, aggregate=aggregate,
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
    require_trials(trials)
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
