"""Smoke runs of every workload, the traced run and the command contract."""

import json
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

from perfbench import run, workloads
from perfbench.tracing import PER_LAYER_METRICS, Tracer
from rffqudit import cli
from rffqudit.errors import ConsistencyError

from conftest import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_command_offers_every_workload():
    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_fails_no_call(name, tmp_path):
    result = workloads.measure(name, seed=3, seconds=0.01, workdir=tmp_path,
                               start=perf_counter())
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


class _Faulty:
    """Timed call i fails in the way FAULTS[i % 4] names; "none" and the

    warm-up call pass."""

    FAULTS = ("none", "crash", "claim", "none")

    def __init__(self, seed, workdir):
        pass

    def setup(self):
        pass

    def prepare(self, stream, index):
        return index if stream == workloads.CALL_STREAM else -1

    def call(self, index):
        fault = self.FAULTS[index % 4] if index >= 0 else "none"
        if fault == "crash":
            raise RuntimeError("fault")
        if fault == "claim":
            raise ConsistencyError("fault")
        if fault == "exit1":
            workloads.run_cli(["exit1"])
        return index

    def check(self, index, output):
        return self.FAULTS[index % 4] != "wrong", 1


def _measure_faulty(monkeypatch, tmp_path, faults):
    monkeypatch.setattr(_Faulty, "FAULTS", faults)
    monkeypatch.setattr(cli, "main", lambda argv: 1 if argv == ["exit1"] else 0)
    monkeypatch.setitem(workloads.WORKLOADS, "faulty", _Faulty)
    return workloads.measure("faulty", seed=0, seconds=0.05, workdir=tmp_path,
                             start=perf_counter())


@pytest.mark.parametrize("fault, correct", [
    ("crash", True),    # a crash fails the call only
    ("claim", False),   # ConsistencyError: the program says a claim failed
    ("exit1", False),   # cli.main returned 1: the same, through the command
    ("wrong", False),   # the oracle rejected the output
])
def test_failed_calls_count_and_claim_failures_make_the_run_incorrect(
        fault, correct, monkeypatch, tmp_path):
    result = _measure_faulty(monkeypatch, tmp_path, ("none", fault, "none", "none"))
    assert result["failed"] == sum(i % 4 == 1 for i in range(result["attempted"]))
    assert result["correct"] is correct
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_no_passed_call_gives_no_result(monkeypatch, tmp_path):
    with pytest.raises(workloads.RunFailed):
        _measure_faulty(monkeypatch, tmp_path, ("crash", "claim", "wrong", "exit1"))


def test_failed_setup_gives_no_result(monkeypatch, tmp_path):
    def broken(self):
        raise ConsistencyError("fault")
    monkeypatch.setattr(_Faulty, "setup", broken)
    with pytest.raises(ConsistencyError):
        _measure_faulty(monkeypatch, tmp_path, ("none",) * 4)


def test_traced_run_yields_every_per_layer_metric(tmp_path):
    original = cli.main
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main is not original
        result = workloads.measure("channel-n3", seed=3, seconds=0.01,
                                   workdir=tmp_path, start=perf_counter(),
                                   tracer=tracer)
    finally:
        tracer.uninstall()
    assert cli.main is original
    assert result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == list(PER_LAYER_METRICS)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(PER_LAYER_METRICS)
    assert metrics["channel.trials"]["value"] == workloads.ChannelN3.TRIALS
    assert metrics["linalg.hermitian_eig.calls"]["value"] > 0
    # Self times of disjoint layers fit inside the call that contains them.
    selves = sum(v["value"] for k, v in metrics.items()
                 if k.endswith(".self_ms") and not k.startswith("setup."))
    assert 0 < selves <= metrics["call.total_ms"]["value"]


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_command_prints_one_result_line():
    done = _run(ROOT, "--workload", "channel-n3", "--seed", "5",
                "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "channel-n3", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
