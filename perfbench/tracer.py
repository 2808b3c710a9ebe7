"""Spans and tick timing recorded from outside the program.

Both instruments replace public functions of `voltvar_sim` where their
caller looks them up (e.g. `voltvar_sim.sim.solve_power_flow`, which the
engine calls, not `voltvar_sim.feeder.solve_power_flow`) and put the
originals back on `uninstall()`.  A target that no longer exists is
listed in `missing` and skipped, so a refactor that drops a call site
shows up in the report instead of breaking the benchmark.
"""

from __future__ import annotations

import importlib
import os
from time import perf_counter

import numpy as np

# (module, attribute path, span name).  Attribute paths with a dot name
# a method on a class; class- and static-method wrappers are preserved.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("voltvar_sim.cli", "main", "cli.main"),
    ("voltvar_sim.cli", "get_preset", "presets.get_preset"),
    ("voltvar_sim.cli", "override_scenario", "presets.override_scenario"),
    ("voltvar_sim.cli", "load_feeder", "feeder.load"),
    ("voltvar_sim.presets", "feeder_from_dict", "feeder.load"),
    ("voltvar_sim.cli", "load_scenario", "sim.load_scenario"),
    ("voltvar_sim.cli", "linearize", "sim.linearize"),
    ("voltvar_sim.cli", "run_sim", "sim.run"),
    ("voltvar_sim.cli", "metrics", "sim.metrics"),
    ("voltvar_sim.cli", "write_trace_csv", "sim.write_trace_csv"),
    ("voltvar_sim.cli", "write_params_csv", "sim.write_params_csv"),
    ("voltvar_sim.cli", "solve_power_flow", "feeder.solve_power_flow"),
    ("voltvar_sim.cli", "sensitivity_matrix", "feeder.sensitivity_matrix"),
    ("voltvar_sim.analysis", "stability_report", "analysis.stability_report"),
    ("voltvar_sim.analysis", "outer_b_matrix", "analysis.outer_b_matrix"),
    ("voltvar_sim.sim", "SimulationEngine.__init__", "sim.engine_init"),
    ("voltvar_sim.sim", "SimulationEngine.step_inner", "sim.step_inner"),
    ("voltvar_sim.sim", "solve_power_flow", "feeder.solve_power_flow"),
    ("voltvar_sim.sim", "sensitivity_matrix", "feeder.sensitivity_matrix"),
    ("voltvar_sim.sim", "apply_topology_event", "feeder.apply_topology_event"),
    ("voltvar_sim.feeder", "FeederModel.with_slack_voltage", "feeder.with_slack_voltage"),
    ("voltvar_sim.feeder", "FeederModel.with_scaled_loads", "feeder.with_scaled_loads"),
    ("voltvar_sim.sim", "droop_dispatch", "control.dispatch"),
    ("voltvar_sim.sim", "delayed_dispatch", "control.dispatch"),
    ("voltvar_sim.sim", "adaptive_dispatch", "control.dispatch"),
    ("voltvar_sim.control", "DroopParams.from_slope", "control.params_built"),
    ("voltvar_sim.control", "DroopParams.from_setpoints", "control.params_built"),
    ("voltvar_sim.control", "AdaptiveParams.from_slope", "control.params_built"),
    ("voltvar_sim.sim", "outer_loop_step", "adaptation.outer_loop_step"),
    ("voltvar_sim.sim", "read_trace_csv", "sim.read_trace_csv"),
)

TICK_TARGET = ("voltvar_sim.sim", "SimulationEngine.step_inner")


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self.installed: list[str] = []
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, module: str, path: str, make) -> None:
        """Replace `module.path` by `make(original_function)`."""
        label = f"{module}.{path}"
        try:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(label)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        elif callable(raw):
            new = make(raw)
        else:
            self.missing.append(label)
            return
        setattr(owner, attr, new)
        self._undo.append((owner, attr, raw))
        self.installed.append(label)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)
        self.installed.clear()


class TickTimer(_Patches):
    """The only program instrument of an untraced pass: one `clock()` pair
    around each `SimulationEngine.step_inner` call.  `engine_starts`
    holds the index of the first tick of each engine."""

    def __init__(self, clock=perf_counter) -> None:
        super().__init__()
        self.t0: list[float] = []
        self.t1: list[float] = []
        self.engine_starts: list[int] = []
        self._last = None
        t0s, t1s = self.t0, self.t1

        def make(step):
            def step_inner(engine):
                a = clock()
                r = step(engine)
                b = clock()
                if engine is not self._last:
                    self._last = engine  # the strong reference keeps ids unique
                    self.engine_starts.append(len(t0s))
                t0s.append(a)
                t1s.append(b)
                return r
            return step_inner

        self.patch(*TICK_TARGET, make)

    def uninstall(self) -> None:
        super().uninstall()
        self._last = None


class Tracer(_Patches):
    """In-memory spans (name, start, end, parent, invocation) around every
    target in TARGETS, plus the per-call facts some layer metrics need."""

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.invocation: list[int] = []
        self._stack: list[int] = []
        self.current_invocation = -1
        # facts from arguments and results
        self.newton_iters = 0
        self.cold_starts = 0
        self.outer_steps = 0
        self.qp_moved = 0
        self.slope_moved = 0
        self.trace_bytes = 0
        self.traces: list[object] = []  # SimulationTrace returned by each run
        hooks = {
            "feeder.solve_power_flow": self._on_solve,
            "adaptation.outer_loop_step": self._on_outer,
            "sim.write_trace_csv": self._on_write_trace,
            "sim.run": self._on_run,
        }
        for module, path, name in TARGETS:
            self.patch(module, path, self._maker(name, hooks.get(name)))

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.span_name.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.invocation.append(self.current_invocation)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _maker(self, name: str, hook):
        def make(fn):
            def traced(*args, **kwargs):
                idx = self.open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            traced.__wrapped__ = fn
            return traced
        return make

    def _on_solve(self, args, kwargs, sol) -> None:
        self.newton_iters += int(sol.iterations)
        v_init = kwargs.get("v_init", args[2] if len(args) > 2 else None)
        self.cold_starts += int(v_init is None)

    def _on_outer(self, args, kwargs, new) -> None:
        old = args[0] if args else kwargs["params"]
        self.outer_steps += 1
        self.qp_moved += int(new.q_p != old.q_p)
        self.slope_moved += int(new.m_p != old.m_p)

    def _on_write_trace(self, args, kwargs, _result) -> None:
        path = args[1] if len(args) > 1 else kwargs["path"]
        self.trace_bytes += os.path.getsize(path)

    def _on_run(self, args, kwargs, trace) -> None:
        self.traces.append(trace)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as arrays: name id, start, end, parent index, invocation."""
        return {
            "name": np.asarray(self.span_name, dtype=np.int32),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "invocation": np.asarray(self.invocation, dtype=np.int32),
        }


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time its direct children cover."""
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    return dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))


def span_totals(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    dur = spans["end"] - spans["start"]
    self_time = self_times(spans)
    out = {}
    for i, name in enumerate(names):
        sel = spans["name"] == i
        out[name] = {"calls": int(np.sum(sel)), "s": float(np.sum(dur[sel])),
                     "self_s": float(np.sum(self_time[sel]))}
    return out


def time_under(names: list[str], spans: dict[str, np.ndarray], name: str,
               ancestor: str) -> tuple[int, float]:
    """Calls and seconds of spans `name` whose direct parent is `ancestor`."""
    if name not in names or ancestor not in names:
        return 0, 0.0
    parent = spans["parent"]
    nid, aid = names.index(name), names.index(ancestor)
    sel = spans["name"] == nid
    sel &= parent >= 0
    sel[sel] = spans["name"][parent[sel]] == aid
    dur = spans["end"] - spans["start"]
    return int(np.sum(sel)), float(np.sum(dur[sel]))
