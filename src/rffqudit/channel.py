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

Determinism: the per-trial random streams are spawned from the seed, so a
report is a pure function of (config, state) and serializes to identical
bytes on every run.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from math import sqrt
from typing import NamedTuple

import numpy as np

from .coupling import CoupledBasis, build_coupled_basis
from .encoder import (
    QuditPovm,
    QuditState,
    decode_frame,
    encode_povm,
    encode_state,
)
from .errors import ConsistencyError, ValidationError
from .linalg import (
    dagger,
    matrix_to_json_dict,
    max_abs_diff,
    mat_exp_hermitian_generator,
    trace_distance,
    uhlmann_fidelity,
)
from .spinsys import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    SpinRegister,
    collective_product_apply,
    haar_su2,
)

NOISE_MODES = ("haar", "fixed", "dephasing")


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
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if self.noise not in NOISE_MODES:
            raise ValidationError(
                f"unknown noise mode {self.noise!r}; expected one of {NOISE_MODES}"
            )
        if self.noise == "fixed":
            if self.axis is None or self.angle is None:
                raise ValidationError("fixed noise needs an axis and an angle")
            axis = np.asarray(self.axis, dtype=float)
            if axis.shape != (3,) or abs(np.linalg.norm(axis) - 1) > 1e-12:
                raise ValidationError("fixed-noise axis must be a unit 3-vector")
        if self.noise == "dephasing":
            if self.width is None or self.width < 0:
                raise ValidationError("dephasing noise needs a width >= 0")

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

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "per_trial": self.per_trial,
            "aggregate": self.aggregate,
            "note": self.note,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

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


def _series_stats(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    stderr = float(arr.std(ddof=1) / sqrt(len(arr))) if len(arr) > 1 else 0.0
    return {
        "mean": float(arr.mean()),
        "min": float(arr.min()),
        "max": float(arr.max()),
        "stderr": stderr,
    }


def _noise_unitary(cfg: ChannelConfig, rng: np.random.Generator) -> np.ndarray:
    if cfg.noise == "haar":
        return haar_su2(rng)
    if cfg.noise == "fixed":
        ax = np.asarray(cfg.axis, dtype=float)
        generator = (ax[0] * SIGMA_X + ax[1] * SIGMA_Y + ax[2] * SIGMA_Z) / 2
        return mat_exp_hermitian_generator(generator, cfg.angle)
    theta = float(rng.normal(loc=0.0, scale=cfg.width))
    return mat_exp_hermitian_generator(SIGMA_Z / 2, theta)


def run_channel(cfg: ChannelConfig, state: QuditState) -> ChannelReport:
    """Send one encoded logical state through cfg.trials noise draws."""
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

    k = basis.isometry
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.trials)
    per_trial = []
    fidelities, distances, leakages, bares = [], [], [], []
    for index, child in enumerate(children):
        rng = np.random.default_rng(child)
        u = _noise_unitary(cfg, rng)
        # u acts on K one constituent at a time; R = K^dag U K is its sector frame.
        uk = collective_product_apply(reg, u, k)
        r = dagger(k) @ uk
        escape = max_abs_diff(uk, k @ r)  # U K = K R keeps the payload on the sector
        if escape > 1e-9:
            raise ConsistencyError(f"the collective rotation leaves the logical sector "
                                   f"(|U K - K R| = {escape:.3e} > 1e-9)")
        decoded = decode_frame(basis.d, r @ enc.frame @ dagger(r))
        leakage = float(1.0 - np.trace(decoded.rho).real)  # Tr(K K^dag U P U^dag)
        fid = uhlmann_fidelity(state.rho, decoded.rho)
        dist = trace_distance(state.rho, decoded.rho)
        _require_unit_interval("fidelity", fid)
        _require_unit_interval("trace_distance", dist)

        row = {
            "trial": index,
            "fidelity": fid,
            "trace_distance": dist,
            "leakage": leakage,
        }
        if bare_enabled:
            bare_out = u @ state.rho @ dagger(u)
            bare_fid = uhlmann_fidelity(state.rho, bare_out)
            _require_unit_interval("bare_fidelity", bare_fid)
            row["bare_fidelity"] = bare_fid
            bares.append(bare_fid)
        else:
            row["bare_fidelity"] = None
        per_trial.append(row)
        fidelities.append(fid)
        distances.append(dist)
        leakages.append(leakage)

    aggregate = {
        "fidelity": _series_stats(fidelities),
        "trace_distance": _series_stats(distances),
        "leakage": _series_stats(leakages),
        "bare_fidelity": _series_stats(bares) if bare_enabled else None,
    }
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
    return ChannelReport(
        config=config_echo, per_trial=per_trial, aggregate=aggregate, note=note
    )


def _require_unit_interval(name: str, value: float) -> None:
    if not -1e-9 <= value <= 1 + 1e-9:
        raise ConsistencyError(f"{name} = {value!r} escapes [0, 1]")


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """A random full-rank density matrix (normalized Wishart draw)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


def random_pure_density(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_povm(rng: np.random.Generator, d: int, elements: int) -> QuditPovm:
    """A random POVM: PSD draws A_k whitened by the inverse root of their sum."""
    if elements < 1:
        raise ValidationError("a POVM needs at least one element")
    draws = []
    for _ in range(elements):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        draws.append(g @ g.conj().T)
    total = sum(draws)
    w, v = np.linalg.eigh(total)
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    elems = [inv_root @ a @ inv_root for a in draws]
    elems = [(e + dagger(e)) / 2 for e in elems]
    return QuditPovm(d=d, elements=tuple(elems))


class BornReport(NamedTuple):
    d: int
    trials: int
    max_encoded_deviation: float
    max_rotated_deviation: float


def born_rule_harness(qs: CoupledBasis, trials: int, seed: int) -> BornReport:
    """Compare logical vs encoded outcome probabilities on random pairs.

    Each trial draws a random state and a random POVM, encodes both, and
    checks the probabilities three ways: logical Tr(rho Pi_k), encoded
    Tr(payload Pi_enc_k), and encoded-after-a-random-collective-rotation,
    Tr(R frame R^dag frame_k) with R = K^dag u^(x n) K.
    """
    reg = SpinRegister(qs.n)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worst_encoded = 0.0
    worst_rotated = 0.0
    for _ in range(trials):
        rho = random_density(rng, qs.d)
        povm = random_povm(rng, qs.d, qs.d + 1)
        state = QuditState(d=qs.d, rho=rho)
        enc = encode_state(qs, state)
        enc_povm = encode_povm(qs, povm)
        r = dagger(qs.isometry) @ collective_product_apply(reg, haar_su2(rng), qs.isometry)
        payload, rotated = enc.payload, r @ enc.frame @ dagger(r)
        for element, enc_element in zip(povm.elements, enc_povm):
            logical_p = float(np.trace(rho @ element).real)
            encoded_p = float(np.trace(payload @ enc_element.payload).real)
            rotated_p = float(np.trace(rotated @ enc_element.frame).real)
            worst_encoded = max(worst_encoded, abs(encoded_p - logical_p))
            worst_rotated = max(worst_rotated, abs(rotated_p - logical_p))
    return BornReport(
        d=qs.d,
        trials=trials,
        max_encoded_deviation=worst_encoded,
        max_rotated_deviation=worst_rotated,
    )
