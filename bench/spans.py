"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent).  Spans are opened only by wrappers
defined here, which the traced process binds over eulb's public names in
the module that looks each name up at call time; the program itself is
never edited.  Self time of a span is its duration minus the durations of
its direct children, so self times over a tree add up to the root's
duration.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from array import array

import numpy as np

MODULES = ("reservoir", "channel", "linalg", "bounds", "sweep", "cli")
ROOT = "pass"

# Step rules of the initial eulb oracles, used to count the RK4 work each
# call is asked for from its inputs alone (not from how it is implemented).
KERNEL_ODE_STEP_GAMMA0 = 1e-3
DISCRETE_PHASE_PER_STEP = 0.05


def _rk4_steps(t_grid, max_step: float) -> int:
    grid = np.asarray(t_grid, dtype=float)
    spans = np.diff(np.concatenate(([0.0], grid)))
    spans = spans[spans > 0.0]
    return int(np.sum(np.maximum(1, np.ceil(spans / max_step))))


def _count_points(args, kwargs, result):
    return {"reservoir.decay_amplitude.points": int(np.size(args[1]))}


def _count_kernel_steps(args, kwargs, result):
    params, grid = args[0], args[1]
    return {"reservoir.kernel_ode_oracle.rk4_steps": _rk4_steps(grid, KERNEL_ODE_STEP_GAMMA0 / params.gamma0)}


def _count_mode_steps(args, kwargs, result):
    params, grid, modes = args[0], args[1], args[2]
    scale = max(float(np.max(np.abs(modes.frequencies))), params.lambda_, params.gamma0)
    steps = _rk4_steps(grid, DISCRETE_PHASE_PER_STEP / scale)
    return {"reservoir.discrete_mode_oracle.mode_steps": steps * (modes.n_modes + params.n_qubits)}


def _count_eigen_shape(args, kwargs, result):
    n = len(args[0])
    return {f"linalg.eigenvalues_hermitian.calls_{n}x{n}": 1}


def _count_csv_bytes(args, kwargs, result):
    return {"sweep.csv_bytes": len(result)}


# (module where the caller looks the name up, attribute, span name, counter)
TARGETS = (
    ("eulb.cli", "main", "cli.main", None),
    ("eulb.cli", "run_sweep", "sweep.run_sweep", None),
    ("eulb.cli", "emit_csv", "sweep.emit_csv", _count_csv_bytes),
    ("eulb.cli", "parse_config", "sweep.parse_config", None),
    ("eulb.cli", "oracle_report", "sweep.oracle_report", None),
    ("eulb.cli", "discrepancy_report", "sweep.discrepancy_report", None),
    ("eulb.sweep", "render_csv", "sweep.render_csv", None),
    ("eulb.sweep", "decay_amplitude", "reservoir.decay_amplitude", _count_points),
    ("eulb.sweep", "kernel_ode_oracle", "reservoir.kernel_ode_oracle", _count_kernel_steps),
    ("eulb.sweep", "discrete_mode_oracle", "reservoir.discrete_mode_oracle", _count_mode_steps),
    ("eulb.sweep", "build_mode_grid", "reservoir.build_mode_grid", None),
    ("eulb.sweep", "apply_memory_decay", "channel.apply_memory_decay", None),
    ("eulb.sweep", "bounds_record", "bounds.bounds_record", None),
    ("eulb.sweep", "closed_form_report", "bounds.closed_form_report", None),
    ("eulb.bounds", "apply_memory_decay", "channel.apply_memory_decay", None),
    ("eulb.bounds", "bounds_record", "bounds.bounds_record", None),
    ("eulb.bounds", "eigenvalues_hermitian", "linalg.eigenvalues_hermitian", _count_eigen_shape),
    ("eulb.bounds", "von_neumann_entropy", "linalg.von_neumann_entropy", None),
    ("eulb.linalg", "eigenvalues_hermitian", "linalg.eigenvalues_hermitian", _count_eigen_shape),
    ("eulb.linalg", "hermiticity_defect", "linalg.hermiticity_defect", None),
)

# Per-layer metrics: (span name, field).  Fields: calls, self_s, us_p50 and
# us_p99 of the inclusive per-call time, or a work counter.
LAYER_FIELDS = (
    ("reservoir.decay_amplitude", ("calls", "points", "self_s")),
    ("reservoir.kernel_ode_oracle", ("self_s", "rk4_steps")),
    ("reservoir.discrete_mode_oracle", ("self_s", "mode_steps")),
    ("reservoir.build_mode_grid", ("self_s",)),
    ("channel.apply_memory_decay", ("calls", "self_s", "us_p50", "us_p99")),
    ("linalg.eigenvalues_hermitian", ("calls_2x2", "calls_4x4", "self_s")),
    ("linalg.hermiticity_defect", ("calls", "self_s")),
    ("linalg.von_neumann_entropy", ("self_s",)),
    ("bounds.bounds_record", ("calls", "self_s", "us_p50", "us_p99")),
    ("bounds.closed_form_report", ("calls", "self_s")),
    ("sweep.run_sweep", ("self_s",)),
    ("sweep.render_csv", ("self_s",)),
    ("sweep.emit_csv", ("self_s",)),
    ("sweep", ("csv_bytes",)),
    ("sweep.parse_config", ("self_s",)),
    ("sweep.oracle_report", ("self_s",)),
    ("sweep.discrepancy_report", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
)


def per_layer_names() -> list[str]:
    names = [f"{span}.{f}" for span, fields in LAYER_FIELDS for f in fields]
    names += [f"{m}.share" for m in MODULES]
    return names + ["trace.unattributed_s", "trace.overhead_frac"]


def self_times(parents, starts, ends) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [e - s for s, e in zip(starts, ends)]
    for i, p in enumerate(parents):
        if p >= 0:
            out[p] -= ends[i] - starts[i]
    return out


class SpanRecorder:
    """Keeps every span in compact arrays, and work counters by metric name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: dict[str, float] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.starts.append(0.0)
        self.ends.append(0.0)
        self._stack.append(idx)
        return idx

    def record(self, name: str, fn, counter=None):
        """Return fn wrapped so each call is recorded as a span called name."""
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            self.starts[idx] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced

    def run_root(self, fn):
        """Run fn() as one root span; returns its result."""
        return self.record(ROOT, fn)()

    def install(self) -> None:
        """Bind the recording wrappers over eulb's names where callers look them up."""
        for module_name, attr, span, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # this caller no longer looks the name up here
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self.record(span, original, counter))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def layer_metrics(self, untraced_pass_s: float) -> tuple[dict[str, float], float]:
        """Per-layer metrics per root span, and the mean root span wall time."""
        selfs = self_times(self.parents, self.starts, self.ends)
        by_name: dict[str, dict] = {n: {"calls": 0, "self_s": 0.0, "durations": []} for n in self.names}
        for i, nid in enumerate(self.name_ids):
            entry = by_name[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += selfs[i]
            entry["durations"].append(self.ends[i] - self.starts[i])
        root = by_name.get(ROOT, {"calls": 0, "durations": []})
        passes = max(root["calls"], 1)
        wall = sum(root["durations"]) / passes

        def value(span: str, field: str) -> float:
            entry = by_name.get(span, {"calls": 0, "self_s": 0.0, "durations": []})
            if field == "calls":
                return entry["calls"] / passes
            if field == "self_s":
                return entry["self_s"] / passes
            if field in ("us_p50", "us_p99"):
                return 1e6 * _percentile(entry["durations"], 50 if field == "us_p50" else 99)
            return self.counters.get(f"{span}.{field}", 0) / passes

        out = {f"{span}.{f}": value(span, f) for span, fields in LAYER_FIELDS for f in fields}
        attributed = 0.0
        for module in MODULES:
            module_self = sum(e["self_s"] for n, e in by_name.items() if n.split(".")[0] == module)
            module_self /= passes
            attributed += module_self
            out[f"{module}.share"] = module_self / wall if wall > 0 else 0.0
        out["trace.unattributed_s"] = wall - attributed
        out["trace.overhead_frac"] = wall / untraced_pass_s - 1.0
        return out, wall

    def call_tree(self) -> list[dict]:
        """Spans aggregated by (parent name, name): calls, total and self seconds."""
        selfs = self_times(self.parents, self.starts, self.ends)
        edges: dict[tuple[str, str], list[float]] = {}
        for i, nid in enumerate(self.name_ids):
            p = self.parents[i]
            parent = self.names[self.name_ids[p]] if p >= 0 else ""
            entry = edges.setdefault((parent, self.names[nid]), [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self.ends[i] - self.starts[i]
            entry[2] += selfs[i]
        return [
            {"parent": parent, "name": name, "calls": c, "total_s": tot, "self_s": slf}
            for (parent, name), (c, tot, slf) in sorted(edges.items())
        ]


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return ordered[rank]
