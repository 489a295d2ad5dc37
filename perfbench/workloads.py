"""The three workloads and the loop that measures them.

Each workload has four steps. ``setup`` builds what the timed loop reuses.
``prepare(stream, index)`` draws one call's inputs from the workload seed,
untimed. ``call`` is the only timed step and reaches the program through its
public functions or ``rffqudit.cli.main``; it raises if the program reports
an error. ``check`` compares the output with an oracle from
perfbench.oracles, untimed, and returns (passed, units of work); the first
call it passes also carries the workload's once-per-run check.

A call fails in one of two ways. It is wrong when an oracle rejects its
output or when the program itself reports that a claim failed (``cli.main``
returns 1, or ConsistencyError or NumericalError is raised); a wrong call
makes the run incorrect. It is an error when the program crashes in any
other way; the run stays correct and counts it as failed.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

# Module attributes, not imported names, so a traced run sees its wrappers.
from rffqudit import cli, coupling, encoder, spinsys
from rffqudit.errors import ConsistencyError, NumericalError

from . import oracles

CALL_STREAM, WARMUP_STREAM = 0, 1
SETUP_UNIT = -1  # the tracer's unit for the set-up; timed call i is unit i


class ClaimFailed(Exception):
    """``cli.main`` returned 1: the program reports that a claim failed."""


class RunFailed(Exception):
    """No timed call passed, so the run has no end-to-end figures."""


CLAIM_FAILURES = (ClaimFailed, ConsistencyError, NumericalError)


def _seed_from(seed: int, stream: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


def run_cli(argv: list) -> None:
    """Call ``cli.main(argv)``; raise unless it returns 0."""
    exit_code = cli.main(argv)
    if exit_code == 1:
        raise ClaimFailed(f"rffqudit {argv[0]} reported a failed claim")
    if exit_code != 0:
        raise RuntimeError(f"rffqudit {argv[0]} exited with code {exit_code}")


class ChannelN3:
    """``rffqudit channel --n 3``: the logical qubit under Haar collective noise.

    The logical state is the command's default, the first logical basis
    state: a pure state, so the bare-qubit fidelity is uniform on [0, 1].
    """

    N = 3
    TRIALS = 300

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.report = workdir / "channel.json"
        self.replay = workdir / "channel-replay.json"
        self.replayed = False

    def setup(self) -> None:
        pass  # every call is a whole CLI invocation; nothing is reused

    def prepare(self, stream: int, index: int) -> int:
        return _seed_from(self.seed, stream, index)

    def _argv(self, channel_seed: int, output: Path) -> list:
        return ["channel", "--n", str(self.N), "--trials", str(self.TRIALS),
                "--seed", str(channel_seed), "--output", str(output)]

    def call(self, channel_seed: int) -> None:
        run_cli(self._argv(channel_seed, self.report))

    def check(self, channel_seed: int, _) -> tuple:
        raw = self.report.read_bytes()
        ok = oracles.channel_report_ok(json.loads(raw), self.TRIALS)
        if ok and not self.replayed:
            # Once per run: the same seed must give identical report bytes.
            self.replayed = True
            ok = (cli.main(self._argv(channel_seed, self.replay)) == 0
                  and self.replay.read_bytes() == raw)
        return ok, self.TRIALS


@dataclass(frozen=True)
class RoundTrip:
    rho: np.ndarray
    povm: list
    u: np.ndarray


class QuditN8:
    """The d = 7 qudit: validate, encode, rotate collectively, decode, measure."""

    N = 8
    D = N - 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.reg = spinsys.SpinRegister(self.N)
        self.qs = None
        self.hws = None
        self.projector_checked = False

    def setup(self) -> None:
        self.qs = encoder.build_q_set(coupling.build_coupled_basis(self.reg))
        # The verified clock/shift pair completes the qudit a user sets up,
        # though the round trip does not use it.
        self.hws = encoder.build_hws(self.qs)

    def prepare(self, stream: int, index: int) -> RoundTrip:
        rng = np.random.default_rng([self.seed, stream, index])
        return RoundTrip(
            rho=oracles.random_density(rng, self.D),
            povm=oracles.random_povm(rng, self.D, self.D + 1),
            u=oracles.haar_su2(rng),
        )

    def call(self, inputs: RoundTrip) -> tuple:
        qs = self.qs
        state = encoder.QuditState(d=self.D, rho=inputs.rho)
        povm = encoder.QuditPovm(d=self.D, elements=tuple(inputs.povm))
        payload = encoder.encode_state(qs, state).payload
        elements = encoder.encode_povm(qs, povm)
        big = spinsys.kron_power(self.reg, inputs.u)
        rotated = big @ payload @ big.conj().T
        decoded = encoder.decode_payload(qs, rotated)
        # Tr(R E) as an entrywise sum: the benchmark's own work stays small.
        probabilities = [float(np.sum(rotated * e.payload.T).real) for e in elements]
        return decoded.rho, probabilities, big

    def check(self, inputs: RoundTrip, output: tuple) -> tuple:
        decoded, probabilities, big = output
        # Every other check holds for any collective rotation, the identity
        # included, so the rotation itself is compared with u^(x8).
        ok = (oracles.collective_rotation_ok(inputs.u, big, self.N)
              and oracles.decoded_state_ok(inputs.rho, decoded)
              and oracles.born_ok(inputs.rho, inputs.povm, probabilities))
        if ok and not self.projector_checked:
            self.projector_checked = True
            ok = oracles.sector_projector_ok(self.qs.sector_projector, self.N)
        return ok, 1


class VerifyN3To7:
    """``rffqudit verify --suite all --n-range 3..7``: every identity, re-derived."""

    N_VALUES = range(3, 8)

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.report = workdir / "verify.json"

    def setup(self) -> None:
        pass  # every call is a whole CLI invocation; nothing is reused

    def prepare(self, stream: int, index: int) -> int:
        return _seed_from(self.seed, stream, index)

    def call(self, verify_seed: int) -> None:
        lo, hi = self.N_VALUES[0], self.N_VALUES[-1]
        run_cli(["verify", "--suite", "all", "--n-range", f"{lo}..{hi}",
                 "--seed", str(verify_seed), "--output", str(self.report)])

    def check(self, verify_seed: int, _) -> tuple:
        report = json.loads(self.report.read_text(encoding="utf-8"))
        return oracles.verify_report_ok(report, self.N_VALUES), len(report["checks"])


WORKLOADS = {
    "channel-n3": ChannelN3,
    "qudit-n8": QuditN8,
    "verify-n3-7": VerifyN3To7,
}


def _direct(unit, fn, *args):
    return fn(*args)


def _attempt(run, workload, inputs, unit):
    """Run and check one call: (seconds, units) if it passed, "wrong" if the

    program reported a failed claim or the oracle rejected its output, or
    "error" if the program crashed otherwise."""
    try:
        start = perf_counter()
        output = run(unit, workload.call, inputs)
        elapsed = perf_counter() - start
    except CLAIM_FAILURES:
        traceback.print_exc(file=sys.stderr)
        return "wrong"
    except Exception:  # a crash fails this call; the run carries on
        traceback.print_exc(file=sys.stderr)
        return "error"
    try:
        ok, units = workload.check(inputs, output)
    except Exception:  # an output the oracle cannot read is a wrong one
        traceback.print_exc(file=sys.stderr)
        ok = False
    return (elapsed, units) if ok else "wrong"


def measure(name: str, seed: int, seconds: float, workdir: Path,
            start: float, tracer=None) -> dict:
    """Set up, warm up, then call the program for ``seconds``; return the result.

    ``start`` is the ``perf_counter`` reading at process start; ``setup_s``
    runs from it to the first timed call. A set-up that raises, or a run in
    which no timed call passed, raises and gives no result.
    """
    workload = WORKLOADS[name](seed, workdir)
    run = _direct if tracer is None else tracer.run_unit

    run(SETUP_UNIT, _setup, workload)
    gc.collect()

    timed, outcomes = [], []  # timed: (seconds, units) of calls that passed
    loop_start = perf_counter()
    setup_s = loop_start - start
    while not outcomes or perf_counter() - loop_start < seconds:
        index = len(outcomes)
        outcome = _attempt(run, workload, workload.prepare(CALL_STREAM, index), index)
        outcomes.append(outcome)
        if isinstance(outcome, tuple):
            timed.append(outcome)
    if not timed:
        raise RunFailed(f"{name}: none of {len(outcomes)} timed calls passed")

    # A call that failed counts in "failed"; one whose output was wrong also
    # makes the run incorrect.
    result = {"correct": "wrong" not in outcomes, "attempted": len(outcomes),
              "failed": len(outcomes) - len(timed)}
    result["metrics"] = (tracer.metrics() if tracer is not None
                         else end_to_end(setup_s, timed))
    return result


def end_to_end(setup_s: float, timed: list) -> dict:
    """The end-to-end metrics from the set-up time and the passed calls."""
    seconds = sum(s for s, _ in timed)
    # Peak resident set: ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "call_p50_ms": {"value": statistics.median(s for s, _ in timed) * 1e3,
                        "unit": "ms"},
        "work_per_s": {"value": sum(u for _, u in timed) / seconds, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }


def _setup(workload) -> None:
    workload.setup()
    workload.call(workload.prepare(WARMUP_STREAM, 0))
