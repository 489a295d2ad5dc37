"""Span recorder wrapped around the public functions of each rffqudit layer.

``Tracer.install`` replaces each traced function by a wrapper in every
rffqudit module namespace that holds it, so calls through names another
module imported (``from .linalg import hermitian_eig``) are recorded too.
Spans stay in memory as (layer, unit, parent, start, end) tuples; the unit
is the timed-call index, or -1 for the set-up, or None outside both.
A span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

MB = 1024 * 1024

# (module, attribute, layer). Several attributes may share one layer.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("channel", "run_channel", "channel.run_channel"),
    ("coupling", "build_coupled_basis", "coupling.build_coupled_basis"),
    ("coupling", "sector_census", "coupling.sector_census"),
    ("coupling", "gram_residual", "coupling.gram_residual"),
    ("coupling", "sector_membership_residual", "coupling.sector_membership_residual"),
    ("encoder", "build_q_set", "encoder.build_q_set"),
    ("encoder", "build_hws", "encoder.build_hws"),
    ("encoder", "encode_state", "encoder.encode_state"),
    ("encoder", "encode_povm", "encoder.encode_povm"),
    ("encoder", "decode_payload", "encoder.decode_payload"),
    ("spinsys", "total_J", "spinsys.total_J"),
    ("spinsys", "kron_power", "spinsys.kron_power"),
    ("spinsys", "haar_su2", "spinsys.haar_su2"),
    ("linalg", "hermitian_eig", "linalg.hermitian_eig"),
    ("linalg", "uhlmann_fidelity", "linalg.uhlmann_fidelity"),
    ("linalg", "trace_distance", "linalg.trace_distance"),
    ("linalg", "max_abs_diff", "linalg.max_abs_diff"),
    ("verify", "suite_coupling", "verify.suite_coupling"),
    ("verify", "suite_encoder", "verify.suite_encoder"),
    ("verify", "suite_reference", "verify.suite_reference"),
    ("verify", "suite_hws", "verify.suite_hws"),
    ("verify", "q_algebra_residuals", "verify.q_algebra_residuals"),
    ("verify", "rotation_invariance_residual", "verify.rotation_invariance_residual"),
)

# (module, class, method, layer)
METHODS = (
    ("channel", "ChannelReport", "to_json", "channel.report_to_json"),
    ("encoder", "QuditState", "__post_init__", "encoder.validate"),
    ("encoder", "QuditPovm", "__post_init__", "encoder.validate"),
)

REFERENCE_LAYER = "reference"
ROOT_LAYER = "bench.unit"

# Per-layer metrics. "<layer>.self_ms", "<layer>.total_ms" and
# "<layer>.calls" are the mean per timed call; a "setup." prefix makes them
# the values of the set-up (the build and the warm-up call) instead.
# "call.p50_ms" is the median traced call, to set against the untraced
# call_p50_ms.
PER_LAYER_METRICS = (
    "call.p50_ms",
    "call.total_ms",
    "cli.main.self_ms",
    "channel.report_to_json.self_ms",
    "channel.run_channel.self_ms",
    "channel.trials",
    "coupling.build_coupled_basis.self_ms",
    "coupling.sector_census.self_ms",
    "coupling.gram_residual.self_ms",
    "coupling.sector_membership_residual.self_ms",
    "encoder.build_q_set.self_ms",
    "encoder.build_hws.self_ms",
    "encoder.encode_state.self_ms",
    "encoder.encode_povm.self_ms",
    "encoder.validate.self_ms",
    "encoder.decode_payload.self_ms",
    "encoder.q_set_mb",
    "spinsys.total_J.self_ms",
    "spinsys.kron_power.self_ms",
    "spinsys.haar_su2.self_ms",
    "linalg.hermitian_eig.self_ms",
    "linalg.hermitian_eig.calls",
    "linalg.uhlmann_fidelity.self_ms",
    "linalg.trace_distance.self_ms",
    "linalg.max_abs_diff.self_ms",
    "linalg.max_abs_diff.calls",
    "verify.suite_coupling.total_ms",
    "verify.suite_encoder.total_ms",
    "verify.suite_reference.total_ms",
    "verify.suite_hws.total_ms",
    "verify.q_algebra_residuals.self_ms",
    "verify.rotation_invariance_residual.self_ms",
    "reference.self_ms",
    "setup.total_ms",
    "setup.coupling.build_coupled_basis.self_ms",
    "setup.encoder.build_q_set.self_ms",
    "setup.encoder.build_hws.self_ms",
    "setup.spinsys.total_J.self_ms",
    "setup.linalg.max_abs_diff.self_ms",
    "setup.linalg.max_abs_diff.calls",
)

UNITS = {"calls": "count", "trials": "count", "q_set_mb": "MB"}  # else ms


def metric_unit(name: str) -> str:
    return UNITS.get(name.rsplit(".", 1)[1], "ms")


class Tracer:
    """In-memory span recorder; one per traced benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.unit = None
        self.trials: dict = defaultdict(int)
        self.q_set_bytes = 0
        self._stack: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    def wrap(self, layer: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (layer, self.unit, parent, start, end)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def run_unit(self, unit: int, fn, *args):
        """Call fn(*args) as one traced unit (a timed call or the set-up)."""
        self.unit = unit
        try:
            return self.wrap(ROOT_LAYER, fn)(*args)
        finally:
            self.unit = None

    def _count_trials(self, report) -> None:
        self.trials[self.unit] += len(report.per_trial)

    def _measure_q_set(self, qs) -> None:
        held = sum(a.nbytes for a in qs.q.values()) + qs.sector_projector.nbytes
        self.q_set_bytes = max(self.q_set_bytes, held)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every rffqudit namespace holding it."""
        modules = {
            name.split(".", 1)[1] if "." in name else "": module
            for name, module in list(sys.modules.items())
            if name == "rffqudit" or name.startswith("rffqudit.")
        }
        hooks = {
            "channel.run_channel": self._count_trials,
            "encoder.build_q_set": self._measure_q_set,
        }
        targets = [
            (getattr(modules[mod], attr), layer) for mod, attr, layer in FUNCTIONS
        ]
        reference = modules["reference"]
        targets += [
            (fn, REFERENCE_LAYER)
            for name, fn in vars(reference).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and fn.__module__ == reference.__name__
        ]
        for original, layer in targets:
            wrapper = self.wrap(layer, original, hooks.get(layer))
            for module in modules.values():
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, name, wrapper)
        for case in reference.REFERENCE_CASES.values():
            self._replace(case, "build", self.wrap(REFERENCE_LAYER, case.build))
        for mod, cls, method, layer in METHODS:
            owner = getattr(modules[mod], cls)
            self._replace(owner, method, self.wrap(layer, vars(owner)[method]))

    def _replace(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        _assign(owner, name, value)

    def uninstall(self) -> None:
        """Put back every original the last install replaced."""
        while self._restore:
            _assign(*self._restore.pop())

    # -- aggregation -------------------------------------------------------

    def layer_sums(self) -> dict:
        """{(unit, layer): [self_s, total_s, calls]} over recorded spans."""
        child = [0.0] * len(self.spans)
        for layer, unit, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        sums: dict = defaultdict(lambda: [0.0, 0.0, 0])
        for index, (layer, unit, parent, start, end) in enumerate(self.spans):
            if unit is None:
                continue
            entry = sums[(unit, layer)]
            entry[0] += end - start - child[index]
            entry[1] += end - start
            entry[2] += 1
        return sums

    def metrics(self) -> dict:
        """Every per-layer metric, named as in PER_LAYER_METRICS."""
        sums = self.layer_sums()
        units = {unit for unit, _ in sums}
        calls = sorted(u for u in units if u >= 0)
        setup = [u for u in units if u < 0]

        def value_in(unit, layer, kind):
            self_s, total_s, count = sums.get((unit, layer), (0.0, 0.0, 0))
            return {"self_ms": self_s * 1e3, "total_ms": total_s * 1e3,
                    "calls": count}[kind]

        out = {}
        for name in PER_LAYER_METRICS:
            if name == "channel.trials":
                values, pick = [self.trials[u] for u in calls], statistics.fmean
            elif name == "call.p50_ms":
                values = [value_in(u, ROOT_LAYER, "total_ms") for u in calls]
                pick = statistics.median
            elif name == "encoder.q_set_mb":
                values, pick = [self.q_set_bytes / MB], max
            else:
                layer, kind = name.rsplit(".", 1)
                scope, pick = calls, statistics.fmean
                head, _, rest = layer.partition(".")
                if head == "setup":
                    scope, pick, layer = setup, sum, rest or ROOT_LAYER
                elif layer == "call":
                    layer = ROOT_LAYER
                values = [value_in(u, layer, kind) for u in scope]
            value = pick(values) if values else 0.0
            out[name] = {"value": float(value), "unit": metric_unit(name)}
        return out

    def dump(self, path) -> None:
        """Write every span, times in microseconds from the first span."""
        layers = sorted({s[0] for s in self.spans})
        index = {layer: i for i, layer in enumerate(layers)}
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields":["layer","unit","parent","start_us","end_us"],')
            fh.write(f'"layers":{json.dumps(layers)},"spans":[')
            for i, (layer, unit, parent, start, end) in enumerate(self.spans):
                fh.write(f'{"," if i else ""}[{index[layer]},'
                         f'{"null" if unit is None else unit},{parent},'
                         f'{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f}]')
            fh.write("]}")


def _assign(owner, name: str, value) -> None:
    # Frozen dataclass instances refuse setattr; classes refuse object's.
    if isinstance(owner, type):
        setattr(owner, name, value)
    else:
        object.__setattr__(owner, name, value)
