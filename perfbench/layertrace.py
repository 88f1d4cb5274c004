"""Per-layer tracing with a stdlib ``sys.setprofile`` hook.

The hook is keyed on the code objects of the functions in each module's
``__all__``, so a call is caught whatever name imported the function. For
each one it records calls and inclusive time; for ``lhs_*`` also the number
of points in ``y``, and for the root solvers the roots they returned.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("model", "special", "solver", "profiles", "equivalence", "verification")

# Functions whose calls are pooled under one name; time counts only the
# outermost call of the pool (eval_u calls eval_front, for instance).
POOLS = {"profiles.eval_": "profiles.eval", "profiles.build_": "profiles.build"}

# per-op metrics of the traced run: (name, unit, better)
LAYER_METRICS = (
    ("model.reduce_params.ms", "ms", "lower"),
    ("special.lhs_convective.calls", "count", "lower"),
    ("special.lhs_convective.points", "count", "lower"),
    ("special.lhs_convective.ms", "ms", "lower"),
    ("special.lhs_temperature.calls", "count", "lower"),
    ("special.lhs_temperature.points", "count", "lower"),
    ("special.lhs_temperature.ms", "ms", "lower"),
    ("special.g_eval.calls", "count", "lower"),
    ("special.g_eval.ms", "ms", "lower"),
    ("special.g_partial.calls", "count", "lower"),
    ("special.g_partial.ms", "ms", "lower"),
    ("solver.solve_xi.ms", "ms", "lower"),
    ("solver.scalar_evals_per_root", "count", "lower"),
    ("solver.classify.ms", "ms", "lower"),
    ("solver.smallest_lhs_zero.ms", "ms", "lower"),
    ("solver.solve_omega.ms", "ms", "lower"),
    ("solver.monotonicity_sweep.ms", "ms", "lower"),
    ("equivalence.omega_infinity.ms", "ms", "lower"),
    ("equivalence.temperature_counterpart.ms", "ms", "lower"),
    ("equivalence.h0_from_temperature.ms", "ms", "lower"),
    ("verification.verify_convective.ms", "ms", "lower"),
    ("verification.verify_temperature.ms", "ms", "lower"),
    ("profiles.eval.calls", "count", "lower"),
    ("profiles.eval.ms", "ms", "lower"),
    ("profiles.build.ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.main_ms", "ms", "lower"),
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
)


LHS = ("special.lhs_convective", "special.lhs_temperature")


def _pool(name: str) -> str | None:
    for prefix, pool in POOLS.items():
        if name.startswith(prefix):
            return pool
    return None


class LayerTracer:
    """Aggregate calls, inclusive seconds, lhs points and solver roots."""

    def __init__(self):
        self.names = {}                    # code object -> "layer.function"
        for layer in LAYERS:
            module = importlib.import_module(f"stefan_thaw.{layer}")
            for attr in module.__all__:
                obj = getattr(module, attr)
                if inspect.isfunction(obj):
                    self.names[obj.__code__] = f"{layer}.{attr}"
        self.calls = Counter()
        self.seconds = Counter()
        self.points = Counter()
        self.scalar_lhs = 0
        self.roots = 0
        self._stack = []
        self._depth = Counter()

    def _hook(self, frame, event, arg):
        if event == "call":
            name = self.names.get(frame.f_code)
            if name is None:
                return
            self.calls[name] += 1
            if name in LHS:
                size = np.size(frame.f_locals["y"])
                self.points[name] += size
                self.scalar_lhs += np.ndim(frame.f_locals["y"]) == 0
            pool = _pool(name)
            if pool is not None:
                self.calls[pool] += 1
                self._depth[pool] += 1
            self._stack.append((name, pool, time.perf_counter()))
        elif event == "return" and frame.f_code in self.names:
            name, pool, t0 = self._stack.pop()
            dt = time.perf_counter() - t0
            self.seconds[name] += dt
            if pool is not None:
                self._depth[pool] -= 1
                if self._depth[pool] == 0:
                    self.seconds[pool] += dt
            if arg is not None and name == "solver.solve_xi":
                self.roots += len(arg[0].roots)
            elif arg is not None and name == "solver.solve_omega":
                self.roots += len(arg.roots)

    def start(self):
        sys.setprofile(self._hook)

    def stop(self):
        sys.setprofile(None)

    def to_dict(self) -> dict:
        return {"calls": dict(self.calls), "seconds": dict(self.seconds),
                "points": dict(self.points), "scalar_lhs": self.scalar_lhs,
                "roots": self.roots}


def merge(totals: dict, part: dict) -> dict:
    """Add one ``to_dict`` result into running totals."""
    for key in ("calls", "seconds", "points"):
        bucket = totals.setdefault(key, {})
        for name, value in part[key].items():
            bucket[name] = bucket.get(name, 0) + value
    for key in ("scalar_lhs", "roots"):
        totals[key] = totals.get(key, 0) + part[key]
    return totals


def layer_metrics(totals: dict, ops: int) -> dict:
    """Per-op values of the layer metrics found in ``totals``; a function the
    workload never called reads 0."""
    calls, seconds, points = (totals.get(k, {}) for k in ("calls", "seconds", "points"))
    out = {}
    for name, unit, _ in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if field == "ms" and not base.startswith("cli"):
            out[name] = 1e3 * seconds.get(base, 0.0) / ops
        elif field == "calls":
            out[name] = calls.get(base, 0) / ops
        elif field == "points":
            out[name] = points.get(base, 0) / ops
    roots = totals.get("roots", 0)
    out["solver.scalar_evals_per_root"] = totals.get("scalar_lhs", 0) / roots if roots else 0.0
    return out
