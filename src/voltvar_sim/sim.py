"""Discrete-time simulation engine.

Quasi-static time series: each inner tick every controller computes its
next var dispatch from its own bus voltage of the previous tick, then one
power-flow solve produces the new voltages (dispatch-then-solve).  The
adaptive outer loop fires at every horizon boundary.  Exogenous events
(substation voltage, set-point, cloud cover, intermittency, switching,
load scaling) apply at the start of their tick, so controllers first see
a disturbance one tick later.

Non-converged power-flow ticks are flagged and the previous voltages are
carried forward on the buses still energized (a bus a switch darkened
reads NaN); instability scenarios are themselves study targets, so
the engine never aborts mid-run.  The engine reads a `scenario.Scenario`
and returns a `results.SimulationTrace`; this module keeps only the
engine and the linearized feeder it can run on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping

import numpy as np

from . import adaptation
from .adaptation import capacity_limits
# perfbench's tracer hooks this name, but it never fires: the engine calls `step_matrix`
from .adaptation import outer_loop_step  # noqa: F401
from .control import (AdaptiveParams, ControlError, DroopParams, adaptive_dispatch,
                      delayed_dispatch, droop_dispatch)
from .feeder import (FeederError, FeederModel, PowerFlowSolution, apply_topology_event,
                     solve_power_flow, voltage_sensitivities)
from .feeder import sensitivity_matrix  # noqa: F401 (perfbench's tracer patches it here)
from .results import ParamLog, SimulationTrace, _positions
from .results import read_trace_csv  # noqa: F401 (perfbench's tracer patches it here)
from .scenario import (CloudCover, EventKind, Intermittency, LoadScale, ProfileSpec, Scenario,
                       SetpointChange, SimulationError, SubstationVoltage, SwitchEvent,
                       TelegraphSpec, telegraph_series)


# ---------------------------------------------------------------------------
# linearized feeder


@dataclass(frozen=True, eq=False)
class LinearizedFeeder:
    """First-order feeder model around a solved operating point.

    Load-bus voltages respond linearly to PV real/reactive injections and
    to the substation voltage `v_slack`.  Runs in the engine like the full
    model, except that it has no switch or load-scale events; used for
    convergence studies where the exact geometric behavior matters.
    `dark_pv_buses` are the source feeder's PV buses off the solved
    island, which the model leaves out.
    """

    slack_id: str
    load_bus_ids: tuple[str, ...]
    pv_buses: tuple[str, ...]
    pv_ratings: tuple[float, ...]
    v_base: np.ndarray
    v_slack_base: float
    v_slack: float
    dv_dq: np.ndarray  # (n_load, n_pv)
    dv_dp: np.ndarray  # (n_load, n_pv)
    dv_dslack: np.ndarray  # (n_load,)
    p_base: np.ndarray  # (n_pv,)
    q_base: np.ndarray  # (n_pv,)
    dark_pv_buses: tuple[str, ...] = ()

    @property
    def bus_ids(self) -> tuple[str, ...]:
        return (self.slack_id,) + self.load_bus_ids

    def with_slack_voltage(self, v_pu: float) -> "LinearizedFeeder":
        if not (math.isfinite(v_pu) and v_pu > 0):
            raise FeederError(f"bus {self.slack_id}: v_set must be finite and > 0")
        return replace(self, v_slack=v_pu)

    def voltages(self, p: np.ndarray, q: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Load-bus voltages at PV outputs `p` and var dispatches `q`,
        written into `out` when given (the same bits either way)."""
        out = np.add(self.v_base, self.dv_dq.dot(q - self.q_base), out=out)
        out += self.dv_dp.dot(p - self.p_base)
        out += self._slack_term
        return out

    @cached_property
    def _slack_term(self) -> np.ndarray:
        """The substation voltage's share, once per slack voltage."""
        return self.dv_dslack * (self.v_slack - self.v_slack_base)


def linearize(model: FeederModel) -> LinearizedFeeder:
    """Build the linearized feeder at the model's operating point: one
    power-flow solve, then every derivative from `voltage_sensitivities`:
    on a radial island of more than `feeder.SWEEP_BUSES` buses a leaf-first
    elimination over its tree, with no Ybus and no n x n array, and on any
    other island one dense solve of the linearized power flow."""
    sol = solve_power_flow(model)
    if not sol.converged:
        raise SimulationError("cannot linearize: power flow did not converge")
    load_ids = sol.load_bus_ids
    units = {u.bus: u for u in model.pv_units}
    pv_buses = tuple(b for b in load_ids if b in units)
    dv_dp, dv_dq, dv_dslack = voltage_sensitivities(model, sol)
    on_island = set(pv_buses)
    return LinearizedFeeder(
        slack_id=model.slack_id,
        load_bus_ids=load_ids,
        pv_buses=pv_buses,
        pv_ratings=tuple(units[b].rating_s for b in pv_buses),
        v_base=sol.v_mag[model.network.pq],
        v_slack_base=model.v_slack,
        v_slack=model.v_slack,
        dv_dq=dv_dq,
        dv_dp=dv_dp,
        dv_dslack=dv_dslack,
        p_base=np.array([units[b].p_out for b in pv_buses], dtype=float),
        q_base=np.array([units[b].q_inj for b in pv_buses], dtype=float),
        dark_pv_buses=tuple(b for b in units if b not in on_island),
    )


# ---------------------------------------------------------------------------
# engine


def _materialize_profile(
    spec: ProfileSpec | Mapping[str, ProfileSpec],
    unit_buses: tuple[str, ...],
    horizon: int,
    dark_buses: tuple[str, ...],
) -> np.ndarray:
    """Available PV output per tick and unit.  A per-bus mapping may name
    only units, or `dark_buses` (units the model leaves out)."""
    def expand(one: ProfileSpec) -> np.ndarray:
        if isinstance(one, (int, float)):
            return np.full(horizon, float(one))
        pts = sorted((int(t), float(v)) for t, v in one)
        ticks = [t for t, _ in pts]
        if any(not 0 <= t < horizon for t in ticks):
            raise SimulationError(f"PV profile breakpoint tick outside 0..{horizon - 1}")
        if len(set(ticks)) != len(ticks):
            raise SimulationError("PV profile breakpoint ticks must be distinct")
        # level of the last breakpoint at or before each tick, 0 before any
        last = np.searchsorted(ticks, np.arange(horizon), side="right")
        return np.array([0.0] + [v for _, v in pts])[last]

    prof = np.zeros((horizon, len(unit_buses)))
    if isinstance(spec, Mapping):
        stray = sorted(set(spec) - set(unit_buses) - set(dark_buses))
        if stray:
            raise SimulationError(
                f"PV profile names bus(es) without a PV unit: {', '.join(stray)}"
            )
        for j, b in enumerate(unit_buses):
            if b in spec:
                prof[:, j] = expand(spec[b])
    else:
        prof[:] = expand(spec)[:, None]
    return prof


class SimulationEngine:
    """Stateful runner for one scenario over one feeder model.

    Use `run()` for the whole horizon or `step_inner()` tick by tick.
    Controller state is one matrix with a row per parameter field and a
    column per unit (in `unit_buses` order), and each tick dispatches every
    unit with one elementwise call of its law on the rows, which reads only
    that unit's own bus voltage (locality contract).  Each tick's dispatch
    and voltages go straight into the trace arrays `q_rec` and `voltages`,
    where a unit that does not dispatch keeps its 0 and a dark bus its NaN;
    each horizon boundary steps the matrix in place
    (`adaptation.step_matrix`).  Only the constructor
    tells a full `FeederModel` from a `LinearizedFeeder`: it binds the
    per-tick solve and rejects the events the linear model cannot take.
    """

    def __init__(self, scenario: Scenario, model: FeederModel | LinearizedFeeder):
        self.scenario = scenario
        linear = isinstance(model, LinearizedFeeder)
        if linear:
            self.ratings = np.array(model.pv_ratings, dtype=float)
            self._solve = SimulationEngine._solve_linear
            self._dark_units = model.dark_pv_buses
        else:
            # the profile drives PV output; any stored p_out/q_inj on the
            # model is an analysis operating point, not simulation state.
            # The topology is the model's, so engines on one model share
            # its compiled network
            model = model._copy(("_island",), network=model.network, pv_units=tuple(
                replace(u, p_out=0.0, q_inj=0.0) for u in model.pv_units))
            self.ratings = np.array([u.rating_s for u in model.pv_units], dtype=float)
            self._solve = SimulationEngine._solve_full
            self._dark_units = ()
            self._inj = np.zeros(len(model.bus_ids), dtype=complex)
        self.model = model
        self.bus_ids = model.bus_ids
        self.unit_buses = model.pv_buses
        n = len(self.unit_buses)
        if not n and scenario.controller_kind.name != "none":
            raise SimulationError("model has no PV units to control")

        rng = np.random.default_rng(scenario.seed)
        h = scenario.horizon
        self.p_profile = _materialize_profile(
            scenario.pv_profile, self.unit_buses, h, self._dark_units
        )
        self.mu_arr = np.full((h, n), scenario.mu)
        # one pass over the events, in order: cloud and intermittency
        # multipliers (telegraph draws in event order), set-points, the
        # checks of events the model cannot take, and the table of the
        # events that act at their tick
        mult = np.ones((h, n))
        self.live_events: dict[int, list[EventKind]] = {}
        for tick, ev in scenario.events:
            if isinstance(ev, (CloudCover, Intermittency)):
                scale = ev.scale if isinstance(ev, CloudCover) else (
                    self._resolve_series(ev.series_id, h - tick, rng))
                for j in self._unit_indices(ev.buses):
                    mult[tick:, j] *= scale
                continue
            if isinstance(ev, SetpointChange):
                self.mu_arr[tick:, self._unit_indices(ev.buses)] = ev.mu
            elif linear and isinstance(ev, (SwitchEvent, LoadScale)):
                raise SimulationError(f"{type(ev).__name__} not supported on the linearized model")
            elif isinstance(ev, SwitchEvent):
                try:  # a switch id is checked here, not at its tick
                    model.switch_line(ev.switch_id)
                except FeederError as exc:
                    raise SimulationError(str(exc)) from None
            self.live_events.setdefault(tick, []).append(ev)
        self.p_profile *= mult
        # `PvUnit`'s bounds, after the cloud and intermittency multipliers
        if not np.all((self.p_profile >= 0) & (self.p_profile <= self.ratings * (1 + 1e-9))):
            raise SimulationError("PV profile and series values must be finite and in 0..rating")
        self._generating = self.p_profile > 0

        kind = scenario.controller_kind.name
        mu = np.full(n, scenario.mu)
        params = None
        if kind in ("conventional", "delayed"):
            q_cap = capacity_limits(self.ratings, np.max(self.p_profile, axis=0, initial=0.0))[1]
            if scenario.recompute_droop_capacity and not np.all(q_cap > 0):
                # the var limits would be re-derived from cut-offs pinned at the deadband
                full = [b for b, q in zip(self.unit_buses, q_cap) if not q > 0]
                raise SimulationError(
                    f"PV profile peak leaves no var capacity for droop at {', '.join(full)}"
                )
            q_cap = np.maximum(q_cap, 1e-12)
            params = DroopParams.from_slope(
                mu, np.full(n, scenario.droop_deadband),
                np.full(n, scenario.droop_slope), -q_cap, q_cap,
            )
        elif kind == "adaptive":
            params = AdaptiveParams.from_slope(
                np.full(n, scenario.adaptive.m_init), np.zeros(n),
                -self.ratings, self.ratings, mu,
            )
        # controller state: one row per field of the block and one column per
        # unit; the laws read it through `_rows`, a block of views of the rows
        self._params = self._rows = None
        if params is not None:
            self._params = np.array(list(vars(params).values()))
            self._rows = type(params)(*self._params)
        # column of each unit's bus in `bus_ids` / the voltage rows
        self._unit_cols = np.array(_positions(self.unit_buses, self.bus_ids), dtype=int)

        self.voltages = np.full((h, len(self.bus_ids)), np.nan)
        self.q_rec = np.zeros((h, n))
        self.flags: list[str] = [""] * h
        self._outer_log: list[tuple[int, np.ndarray, np.ndarray]] = []  # (5, k) blocks
        self.tick = 0
        self._last_solution: PowerFlowSolution | None = None
        for ev in self.live_events.get(0, []):
            self._apply_live_event(ev)
        self._solve(self, 0)
        self.tick = 1

    # -- setup helpers

    def _resolve_series(
        self, series_id: str, length: int, rng: np.random.Generator
    ) -> np.ndarray:
        if series_id not in self.scenario.series:
            raise SimulationError(f"unknown intermittency series {series_id!r}")
        spec = self.scenario.series[series_id]
        if isinstance(spec, TelegraphSpec):
            return telegraph_series(length, spec, rng)
        arr = np.asarray(spec, dtype=float)
        if not len(arr):
            raise SimulationError(f"intermittency series {series_id!r} is empty")
        if len(arr) >= length:
            return arr[:length]
        return np.concatenate([arr, np.full(length - len(arr), arr[-1])])

    def _unit_indices(self, buses: tuple[str, ...] | None) -> list[int]:
        """Units an event names; a unit the model leaves out is skipped."""
        if buses is None:
            return list(range(len(self.unit_buses)))
        for b in buses:
            if b not in self.unit_buses and b not in self._dark_units:
                raise SimulationError(f"event references unknown PV bus {b}")
        return [self.unit_buses.index(b) for b in buses if b in self.unit_buses]

    # -- controller state

    @property
    def params(self) -> DroopParams | AdaptiveParams | None:
        """Every unit's parameters as a checked block of copies, built from
        the parameter matrix on each access; None without control."""
        return None if self._params is None else self._take(range(len(self.unit_buses)))

    def _take(self, idx):
        """The checked block of (copies of) the units at `idx`."""
        return type(self._rows)(*self._params[:, idx])

    def _put(self, idx, block) -> None:
        """Store `block` (scalar fields broadcast) as the units at `idx`."""
        for row, value in zip(self._params, vars(block).values()):
            row[idx] = value

    # -- per-tick machinery

    def _apply_live_event(self, ev: EventKind) -> None:
        if isinstance(ev, SetpointChange):
            if self._params is not None:
                idx = self._unit_indices(ev.buses)
                self._put(idx, self._take(idx).with_setpoint(ev.mu))
        elif isinstance(ev, SubstationVoltage):
            self.model = self.model.with_slack_voltage(ev.v_pu)
        elif isinstance(ev, SwitchEvent):
            self.model = apply_topology_event(self.model, ev.switch_id, ev.state)
            self._last_solution = None  # island changed; cold start
            # a unit on a bus the switch darkens dispatches nothing from this tick on
            lit = self.model.network.pos[self._unit_cols] >= 0
            self._generating[self.tick:] = (self.p_profile[self.tick:] > 0) & lit
        elif isinstance(ev, LoadScale):
            self.model = self.model.with_scaled_loads(ev.factor)

    def _dispatch(self, t: int) -> None:
        """Write every unit's var dispatch for tick `t`, from the voltages of
        tick t-1, into `q_rec[t]`; units without real output or on a dark
        bus dispatch nothing and keep the row's 0."""
        kind = self.scenario.controller_kind
        if self._params is None:
            return
        v = self.voltages[t - 1, self._unit_cols]
        active = self._generating[t] & (v == v)  # NaN on dark buses
        if kind.name == "adaptive":
            np.copyto(self.q_rec[t], adaptive_dispatch(self._rows, v), where=active)
            return
        if self.scenario.recompute_droop_capacity:
            # var limits follow the leftover capacity, cut-offs stay pinned
            idx = np.flatnonzero(active)
            d = self._take(idx)
            q_min, q_max = capacity_limits(self.ratings[idx], self.p_profile[t, idx])
            try:
                self._put(idx, DroopParams.from_setpoints(
                    d.mu, d.deadband_d, d.v_min, d.v_max, q_min, q_max))
            except ControlError as exc:  # cut-offs pinned too close to the deadband
                buses = ", ".join(self.unit_buses[j] for j in idx)
                raise SimulationError(f"droop limits at tick {t} for {buses}: {exc}") from exc
        q = (droop_dispatch(self._rows, v) if kind.name == "conventional"
             else delayed_dispatch(self._rows, kind.tau, v, self.q_rec[t - 1]))
        np.copyto(self.q_rec[t], q, where=active)

    # Per-tick solves, at tick `t`'s PV outputs and recorded dispatch,
    # straight into the trace row `voltages[t]`.  Each is kept unbound
    # (`_solve`): a bound method on the engine would be a reference cycle,
    # keeping a finished engine until a full collection.

    def _solve_full(self, t: int) -> None:
        self._inj.real[self._unit_cols] = self.p_profile[t]
        self._inj.imag[self._unit_cols] = self.q_rec[t]
        # through the `sim` namespace: perfbench's tracer patches it here
        sol = solve_power_flow(self.model, injections=self._inj, v_init=self._last_solution)
        cols = self.model.network.cols
        if sol.converged:
            self._last_solution = sol
        else:
            self.flags[t] = "pf_diverged"
            if t:  # the last voltages, on the buses still energized
                self.voltages[t, cols] = self.voltages[t - 1, cols]
                return
        self.voltages[t, cols] = np.abs(sol.v)

    def _solve_linear(self, t: int) -> None:
        row = self.voltages[t]
        row[0] = self.model.v_slack
        self.model.voltages(self.p_profile[t], self.q_rec[t], out=row[1:])

    def _outer_boundary(self, t: int) -> None:
        """Outer-loop step for every unit that was energized and generating
        through the whole window closing at tick `t`."""
        window = slice(t - self.scenario.t_outer + 1, t + 1)
        step = adaptation.step_matrix(self._params, self.voltages[window, self._unit_cols],
                                      self.p_profile[window], self.ratings, self.scenario.adaptive)
        if step is not None:
            self._outer_log.append((t, *step))

    def step_inner(self) -> int:
        """Advance one tick: apply this tick's events, dispatch every
        controller from the previous voltages, solve, then run the outer
        loop if this tick closes a horizon.  Returns the tick index.

        A tick is all or nothing: if any of it raises, the engine is put
        back as the tick found it, so stepping again applies its events
        once.  The model and the last solution are only ever replaced; what
        events write in place (`_generating`, `_params`) is copied first."""
        t = self.tick
        if t >= self.scenario.horizon:
            raise SimulationError("simulation horizon exhausted")
        events = self.live_events.get(t, ())
        model, last = self.model, self._last_solution
        kinds = {type(ev) for ev in events} if events else ()
        generating = self._generating[t:].copy() if SwitchEvent in kinds else None
        params = (self._params.copy() if SetpointChange in kinds and self._params is not None
                  else None)
        try:
            for ev in events:
                self._apply_live_event(ev)
            self._dispatch(t)
            self._solve(self, t)
            if self.scenario.controller_kind.name == "adaptive" and t % self.scenario.t_outer == 0:
                self._outer_boundary(t)  # t >= 1, so a whole window has closed
        except BaseException:
            self.model, self._last_solution = model, last
            if generating is not None:
                self._generating[t:] = generating
            if params is not None:
                self._params[:] = params  # in place: `_rows` views its rows
            self.voltages[t], self.q_rec[t], self.flags[t] = np.nan, 0.0, ""
            raise
        self.tick += 1
        return t

    def run(self) -> SimulationTrace:
        while self.tick < self.scenario.horizon:
            self.step_inner()
        log = ParamLog()
        if self._outer_log:  # the blocks of all outer-loop steps as one array log
            ticks, units, blocks = zip(*self._outer_log)
            log = ParamLog(np.repeat(ticks, list(map(len, units))), np.concatenate(units),
                           np.concatenate([b.T for b in blocks]))
        return SimulationTrace(
            bus_ids=self.bus_ids,
            unit_buses=self.unit_buses,
            voltages=self.voltages,
            q_inj=self.q_rec,
            p_out=self.p_profile,
            mu=self.mu_arr,
            flags=tuple(self.flags),
            param_log=log,
            dt_inner=self.scenario.dt_inner,
            t_outer=self.scenario.t_outer,
        )


def run(scenario: Scenario, model: FeederModel | LinearizedFeeder) -> SimulationTrace:
    """Run a scenario to completion and return the trace."""
    return SimulationEngine(scenario, model).run()
