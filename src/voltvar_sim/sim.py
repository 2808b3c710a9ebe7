"""Discrete-time simulation engine.

Quasi-static time series: each inner tick every controller computes its
next var dispatch from its own bus voltage of the previous tick, then one
power-flow solve produces the new voltages (dispatch-then-solve).  The
adaptive outer loop fires at every horizon boundary.  Exogenous events
(substation voltage, set-point, cloud cover, intermittency, switching,
load scaling) apply at the start of their tick, so controllers first see
a disturbance one tick later.

Non-converged power-flow ticks are flagged and the previous voltages are
carried forward; instability scenarios are themselves study targets, so
the engine never aborts mid-run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import adaptation
from .adaptation import AdaptiveConfig, WindowStats, capacity_limits, window_stats
from .adaptation import outer_loop_step  # noqa: F401 (see _outer_boundary)
from .control import (
    AdaptiveParams,
    ControllerKind,
    DroopParams,
    adaptive_dispatch,
    delayed_dispatch,
    droop_dispatch,
    put_units,
    split_units,
    take_units,
)
from .feeder import (
    BusInjections,
    FeederModel,
    PowerFlowSolution,
    apply_topology_event,
    compile_network,
    sensitivity_matrix,
    solve_power_flow,
)


class SimulationError(ValueError):
    """Invalid scenario, event, or model/scenario mismatch."""


# ---------------------------------------------------------------------------
# events


@dataclass(frozen=True)
class SubstationVoltage:
    v_pu: float

    def __post_init__(self) -> None:
        if not 0.5 <= self.v_pu <= 1.5:
            raise SimulationError("substation voltage outside 0.5-1.5 pu")


@dataclass(frozen=True)
class SetpointChange:
    mu: float
    buses: tuple[str, ...] | None = None  # None = every inverter

    def __post_init__(self) -> None:
        if not 0.5 <= self.mu <= 1.5:
            raise SimulationError("set-point outside 0.5-1.5 pu")


@dataclass(frozen=True)
class CloudCover:
    scale: float
    buses: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise SimulationError("cloud cover scale must be finite and >= 0")


@dataclass(frozen=True)
class Intermittency:
    series_id: str
    buses: tuple[str, ...] | None = None


@dataclass(frozen=True)
class SwitchEvent:
    switch_id: str
    state: str

    def __post_init__(self) -> None:
        if self.state not in ("open", "closed"):
            raise SimulationError(f"bad switch state {self.state!r}")


@dataclass(frozen=True)
class LoadScale:
    factor: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.factor) and self.factor >= 0):
            raise SimulationError("load scale factor must be finite and >= 0")


EventKind = (
    SubstationVoltage | SetpointChange | CloudCover | Intermittency | SwitchEvent | LoadScale
)


@dataclass(frozen=True)
class TelegraphSpec:
    """Synthetic cloud-intermittency series: a seeded random telegraph
    alternating between `high` (clear) and `low` (clouded) with the given
    mean dwell time in ticks."""

    dwell: float = 30.0
    low: float = 0.2
    high: float = 1.0

    def __post_init__(self) -> None:
        if not self.dwell >= 1:
            raise SimulationError("telegraph dwell must be >= 1 tick")
        if not 0 <= self.low <= self.high:
            raise SimulationError("need 0 <= low <= high")


def telegraph_series(
    length: int, spec: TelegraphSpec, rng: np.random.Generator
) -> np.ndarray:
    """Starts high; each tick flips the state with probability 1/dwell."""
    flips = np.cumsum(rng.random(length) < 1.0 / spec.dwell)
    return np.where(flips % 2 == 0, float(spec.high), float(spec.low))


# ---------------------------------------------------------------------------
# scenario

ProfileSpec = float | Sequence[tuple[int, float]]


@dataclass(frozen=True)
class Scenario:
    """Timeline of one simulation run.

    `pv_profile` gives each unit's available real output: a constant, or
    a step profile as ((tick, value), ...) breakpoints, either for all
    units or per bus in a mapping.  `series` holds named intermittency
    inputs (explicit samples or a TelegraphSpec).  `recompute_droop_capacity`
    re-derives conventional/delayed var limits from leftover capacity each
    tick with the voltage cut-offs pinned, reproducing the uncontrolled
    slope growth non-adaptive droop suffers when generation drops.
    """

    horizon: int
    t_outer: int
    controller_kind: ControllerKind
    dt_inner: float = 1.0
    mu: float = 1.0
    droop_slope: float = 1.0
    droop_deadband: float = 0.0
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    pv_profile: ProfileSpec | Mapping[str, ProfileSpec] = 0.0
    series: Mapping[str, TelegraphSpec | Sequence[float]] = field(default_factory=dict)
    events: tuple[tuple[int, EventKind], ...] = ()
    seed: int = 0
    recompute_droop_capacity: bool = False
    name: str = ""

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise SimulationError("horizon must be >= 1")
        if self.t_outer < 2:
            raise SimulationError("t_outer must be >= 2")
        if self.horizon < self.t_outer:
            raise SimulationError("horizon must be >= t_outer")
        if not (math.isfinite(self.dt_inner) and self.dt_inner > 0):
            raise SimulationError("dt_inner must be finite and > 0")
        for name in ("mu", "droop_slope", "droop_deadband"):
            if not math.isfinite(getattr(self, name)):
                raise SimulationError(f"{name} must be finite")
        ticks = [t for t, _ in self.events]
        if ticks != sorted(ticks):
            raise SimulationError("events must be sorted by tick")
        if any(t < 0 or t >= self.horizon for t in ticks):
            raise SimulationError("event tick outside horizon")


# ---------------------------------------------------------------------------
# scenario JSON schema


_EVENT_KINDS = {
    "substation_voltage": SubstationVoltage,
    "setpoint": SetpointChange,
    "cloud_cover": CloudCover,
    "intermittency": Intermittency,
    "switch": SwitchEvent,
    "load_scale": LoadScale,
}


def _event_from_dict(d: dict) -> tuple[int, EventKind]:
    d = dict(d)
    try:
        tick = int(d.pop("tick"))
        kind = d.pop("kind")
    except KeyError as exc:
        raise SimulationError(f"event needs 'tick' and 'kind': {d}") from exc
    if kind not in _EVENT_KINDS:
        raise SimulationError(f"unknown event kind {kind!r}")
    args: dict = {}
    for f in fields(_EVENT_KINDS[kind]):
        if f.name == "buses":
            buses = d.pop("buses", None)
            args["buses"] = tuple(buses) if buses else None
        elif f.name in d:
            args[f.name] = (float if f.type == "float" else str)(d.pop(f.name))
        else:
            raise SimulationError(f"event {kind} missing field {f.name!r}")
    if d:
        raise SimulationError(f"event {kind} has unknown fields: {sorted(d)}")
    return tick, _EVENT_KINDS[kind](**args)


def _event_to_dict(tick: int, ev: EventKind) -> dict:
    name = next(k for k, cls in _EVENT_KINDS.items() if isinstance(ev, cls))
    out: dict = {"tick": tick, "kind": name}
    for f in fields(ev):
        value = getattr(ev, f.name)
        if f.name != "buses":
            out[f.name] = value
        elif value:
            out["buses"] = list(value)
    return out


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from its JSON form (see the README for the schema)."""
    from .control import ControllerKind  # local to avoid re-import cycles in docs

    try:
        ctl = data.get("controller", {})
        kind = ControllerKind(
            str(ctl.get("kind", "none")), tau=float(ctl.get("tau", 0.0))
        )
        t_outer = int(data["t_outer"])
        acfg_fields = dict(data.get("adaptive", {}))
        if acfg_fields.pop("T", t_outer) != t_outer:
            raise SimulationError("adaptive.T must equal t_outer (or be left out)")
        adaptive = AdaptiveConfig(**acfg_fields)
        series: dict[str, TelegraphSpec | tuple[float, ...]] = {}
        for name, spec in data.get("series", {}).items():
            if isinstance(spec, dict) and "telegraph" in spec:
                series[name] = TelegraphSpec(**spec["telegraph"])
            else:
                series[name] = tuple(float(x) for x in spec)
        profile = data.get("pv_profile", 0.0)
        if isinstance(profile, dict):
            profile = {
                b: (p if isinstance(p, (int, float)) else tuple((int(t), float(v)) for t, v in p))
                for b, p in profile.items()
            }
        elif not isinstance(profile, (int, float)):
            profile = tuple((int(t), float(v)) for t, v in profile)
        return Scenario(
            horizon=int(data["horizon"]),
            t_outer=t_outer,
            controller_kind=kind,
            dt_inner=float(data.get("dt_inner", 1.0)),
            mu=float(data.get("mu", 1.0)),
            droop_slope=float(ctl.get("slope", data.get("droop_slope", 1.0))),
            droop_deadband=float(ctl.get("deadband", data.get("droop_deadband", 0.0))),
            adaptive=adaptive,
            pv_profile=profile,
            series=series,
            events=tuple(_event_from_dict(e) for e in data.get("events", ())),
            seed=int(data.get("seed", 0)),
            recompute_droop_capacity=bool(data.get("recompute_droop_capacity", False)),
            name=str(data.get("name", "")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, SimulationError):
            raise
        raise SimulationError(f"malformed scenario: {exc}") from exc


def scenario_to_dict(sc: Scenario) -> dict:
    profile = sc.pv_profile
    if isinstance(profile, Mapping):
        profile_out: object = {
            b: (p if isinstance(p, (int, float)) else [list(x) for x in p])
            for b, p in profile.items()
        }
    elif isinstance(profile, (int, float)):
        profile_out = profile
    else:
        profile_out = [list(x) for x in profile]
    series_out = {}
    for name, spec in sc.series.items():
        if isinstance(spec, TelegraphSpec):
            series_out[name] = {
                "telegraph": {"dwell": spec.dwell, "low": spec.low, "high": spec.high}
            }
        else:
            series_out[name] = list(spec)
    return {
        "name": sc.name,
        "horizon": sc.horizon,
        "t_outer": sc.t_outer,
        "dt_inner": sc.dt_inner,
        "seed": sc.seed,
        "mu": sc.mu,
        "controller": {
            "kind": sc.controller_kind.name,
            "tau": sc.controller_kind.tau,
            "slope": sc.droop_slope,
            "deadband": sc.droop_deadband,
        },
        "adaptive": asdict(sc.adaptive),
        "pv_profile": profile_out,
        "series": series_out,
        "events": [_event_to_dict(t, e) for t, e in sc.events],
        "recompute_droop_capacity": sc.recompute_droop_capacity,
    }


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise SimulationError(f"invalid scenario JSON in {path}: {exc}") from exc
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# linearized feeder

@dataclass(frozen=True, eq=False)
class LinearizedFeeder:
    """First-order feeder model around a solved operating point.

    Load-bus voltages respond linearly to PV real/reactive injections and
    to the substation voltage `v_slack`.  Runs in the engine like the full
    model, except that it has no switch or load-scale events; used for
    convergence studies where the exact geometric behavior matters.
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

    @property
    def bus_ids(self) -> tuple[str, ...]:
        return (self.slack_id,) + self.load_bus_ids

    def a_matrix(self) -> np.ndarray:
        """Square dV/dQ over the PV buses (the analysis sensitivity)."""
        rows = [self.load_bus_ids.index(b) for b in self.pv_buses]
        return self.dv_dq[rows, :]

    def with_slack_voltage(self, v_pu: float) -> "LinearizedFeeder":
        return replace(self, v_slack=v_pu)

    def voltages(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Load-bus voltages at PV outputs `p` and var dispatches `q`."""
        return (
            self.v_base
            + self.dv_dq @ (q - self.q_base)
            + self.dv_dp @ (p - self.p_base)
            + self.dv_dslack * (self.v_slack - self.v_slack_base)
        )


def linearize(
    model: FeederModel,
    injections: Mapping[str, tuple[float, float]] | None = None,
    slack_step: float = 1e-6,
) -> LinearizedFeeder:
    """Build the linearized feeder at the operating point implied by the
    model plus optional extra injections."""
    sol = solve_power_flow(model, injections=injections)
    if not sol.converged:
        raise SimulationError("cannot linearize: power flow did not converge")
    load_ids = sol.load_bus_ids
    pq = compile_network(model).pq  # island positions of `load_ids`
    pv_buses = tuple(b for b in load_ids if b in set(model.pv_buses))
    n = len(load_ids)
    a_full_q = sensitivity_matrix(model, sol, buses=load_ids)

    # dV/dP from the same Jacobian, via one finite difference per PV bus
    # (cheap at desk scale and independent of Jacobian block bookkeeping)
    dv_dp = np.zeros((n, len(pv_buses)))
    h = 1e-6
    for j, b in enumerate(pv_buses):
        inj = dict(injections or {})
        p0, q0 = inj.get(b, (0.0, 0.0))
        inj[b] = (p0 + h, q0)
        s_p = solve_power_flow(model, injections=inj, v_init=sol)
        inj[b] = (p0 - h, q0)
        s_m = solve_power_flow(model, injections=inj, v_init=sol)
        dv_dp[:, j] = (s_p.v_mag[pq] - s_m.v_mag[pq]) / (2 * h)

    stepped = model.with_slack_voltage(model.slack.v_set + slack_step)
    s_up = solve_power_flow(stepped, injections=injections, v_init=sol)
    dv_dslack = (s_up.v_mag[pq] - sol.v_mag[pq]) / slack_step

    pv_cols = [load_ids.index(b) for b in pv_buses]
    p_base = np.zeros(len(pv_buses))
    q_base = np.zeros(len(pv_buses))
    for j, b in enumerate(pv_buses):
        unit = model.pv_at(b)
        extra = (injections or {}).get(b, (0.0, 0.0))
        p_base[j] = unit.p_out + extra[0]
        q_base[j] = unit.q_inj + extra[1]
    return LinearizedFeeder(
        slack_id=model.slack_id,
        load_bus_ids=load_ids,
        pv_buses=pv_buses,
        pv_ratings=tuple(model.pv_at(b).rating_s for b in pv_buses),
        v_base=sol.v_mag[pq],
        v_slack_base=model.slack.v_set,
        v_slack=model.slack.v_set,
        dv_dq=a_full_q[:, pv_cols],
        dv_dp=dv_dp,
        dv_dslack=dv_dslack,
        p_base=p_base,
        q_base=q_base,
    )


# ---------------------------------------------------------------------------
# trace and engine


@dataclass(frozen=True)
class ParamDispatch:
    tick: int
    bus: str
    params: AdaptiveParams


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    bus_ids: tuple[str, ...]
    unit_buses: tuple[str, ...]
    voltages: np.ndarray  # (horizon, n_bus); NaN where de-energized
    q_inj: np.ndarray  # (horizon, n_units)
    p_out: np.ndarray  # (horizon, n_units)
    mu: np.ndarray  # (horizon, n_units)
    flags: tuple[str, ...]  # "" or "pf_diverged" per tick
    param_dispatches: tuple[ParamDispatch, ...]
    dt_inner: float
    t_outer: int
    name: str = ""
    seed: int = 0

    @property
    def horizon(self) -> int:
        return self.voltages.shape[0]

    def bus_voltage(self, bus: str) -> np.ndarray:
        return self.voltages[:, self.bus_ids.index(bus)]

    def window_stats(self, width: int, mu: np.ndarray | None = None) -> WindowStats:
        """Statistics of the complete windows of `width` ticks that the
        outer loop sees (ticks 1..width, width+1..2*width, ...) per unit,
        as arrays of shape (n_windows, n_units); window k closes at tick
        (k + 1) * width.  `mu` overrides the trace's set-point series."""
        k = (self.horizon - 1) // width
        mu = self.mu if mu is None else mu

        def windows(x: np.ndarray) -> np.ndarray:  # (horizon,) -> (width, k)
            return x[1 : 1 + k * width].reshape(k, width).T

        units = [
            window_stats(windows(self.bus_voltage(b)), windows(mu[:, j]), windows(self.p_out[:, j]))
            for j, b in enumerate(self.unit_buses)
        ]
        return WindowStats(*(
            np.array([getattr(u, f) for u in units]).reshape(len(units), k).T
            for f in ("sse_avg", "vf", "p_pv_avg")
        ))


def _materialize_profile(
    spec: ProfileSpec | Mapping[str, ProfileSpec],
    unit_buses: tuple[str, ...],
    horizon: int,
) -> np.ndarray:
    def expand(one: ProfileSpec) -> np.ndarray:
        if isinstance(one, (int, float)):
            return np.full(horizon, float(one))
        pts = sorted((int(t), float(v)) for t, v in one)
        # level of the last breakpoint at or before each tick, 0 before any
        last = np.searchsorted([t for t, _ in pts], np.arange(horizon), side="right")
        return np.array([0.0] + [v for _, v in pts])[last]

    prof = np.zeros((horizon, len(unit_buses)))
    if isinstance(spec, Mapping):
        for j, b in enumerate(unit_buses):
            if b in spec:
                prof[:, j] = expand(spec[b])
    else:
        prof[:] = expand(spec)[:, None]
    return prof


class SimulationEngine:
    """Stateful runner for one scenario over one feeder model.

    Use `run()` for the whole horizon or `step_inner()` tick by tick.
    Controller state is one array per parameter with an entry per unit
    (in `unit_buses` order), and each tick dispatches every unit with one
    elementwise call of its law, which reads only that unit's own bus
    voltage (locality contract).  Only the constructor tells a full
    `FeederModel` from a `LinearizedFeeder`: it binds the per-tick solve
    and rejects the events the linear model cannot take.
    """

    def __init__(self, scenario: Scenario, model: FeederModel | LinearizedFeeder):
        self.scenario = scenario
        if isinstance(model, LinearizedFeeder):
            for _, ev in scenario.events:
                if isinstance(ev, (SwitchEvent, LoadScale)):
                    raise SimulationError(
                        f"{type(ev).__name__} not supported on the linearized model"
                    )
            self.ratings = np.array(model.pv_ratings, dtype=float)
            self._solve = _solve_linear
        else:
            # the profile drives PV output; any stored p_out/q_inj on the
            # model is an analysis operating point, not simulation state
            model = replace(
                model,
                pv_units=tuple(
                    replace(u, p_out=0.0, q_inj=0.0) for u in model.pv_units
                ),
            )
            self.ratings = np.array([u.rating_s for u in model.pv_units], dtype=float)
            self._solve = _solve_full
        self.model = model
        self.bus_ids = model.bus_ids
        self.unit_buses = model.pv_buses
        n = len(self.unit_buses)
        if not n and scenario.controller_kind.name != "none":
            raise SimulationError("model has no PV units to control")

        rng = np.random.default_rng(scenario.seed)
        h = scenario.horizon
        self.p_profile = _materialize_profile(scenario.pv_profile, self.unit_buses, h)
        self.mu_arr = np.full((h, n), scenario.mu)
        self._apply_profile_events(rng)
        if not np.all(np.isfinite(self.p_profile)):
            raise SimulationError("PV profile and series values must be finite")

        self.live_events: dict[int, list[EventKind]] = {}
        for tick, ev in scenario.events:
            if isinstance(ev, (SubstationVoltage, SwitchEvent, LoadScale, SetpointChange)):
                self.live_events.setdefault(tick, []).append(ev)

        kind = scenario.controller_kind.name
        mu = np.full(n, scenario.mu)
        self.params: DroopParams | AdaptiveParams | None = None
        if kind in ("conventional", "delayed"):
            p_peak = np.max(self.p_profile, axis=0, initial=0.0)
            q_cap = np.maximum(capacity_limits(self.ratings, p_peak)[1], 1e-12)
            self.params = DroopParams.from_slope(
                mu, np.full(n, scenario.droop_deadband),
                np.full(n, scenario.droop_slope), -q_cap, q_cap,
            )
        elif kind == "adaptive":
            self.params = AdaptiveParams.from_slope(
                np.full(n, scenario.adaptive.m_init), np.zeros(n),
                -self.ratings, self.ratings, mu,
            )
        # column of each unit's bus in `bus_ids` / the voltage rows
        self._unit_cols = np.array(
            [self.bus_ids.index(b) for b in self.unit_buses], dtype=int
        )

        self.voltages = np.full((h, len(self.bus_ids)), np.nan)
        self.q_rec = np.zeros((h, n))
        self.flags: list[str] = [""] * h
        self._outer_log: list[tuple[int, np.ndarray, AdaptiveParams]] = []
        self.tick = 0
        self._last_solution: PowerFlowSolution | None = None
        for ev in self.live_events.get(0, []):
            self._apply_live_event(ev)
        self._solve_and_record(0)
        self.tick = 1

    # -- setup helpers

    def _apply_profile_events(self, rng: np.random.Generator) -> None:
        h = self.scenario.horizon
        mult = np.ones((h, len(self.unit_buses)))
        for tick, ev in self.scenario.events:
            if isinstance(ev, CloudCover):
                for j in self._unit_indices(ev.buses):
                    mult[tick:, j] *= ev.scale
            elif isinstance(ev, Intermittency):
                series = self._resolve_series(ev.series_id, h - tick, rng)
                for j in self._unit_indices(ev.buses):
                    mult[tick:, j] *= series
            elif isinstance(ev, SetpointChange):
                for j in self._unit_indices(ev.buses):
                    self.mu_arr[tick:, j] = ev.mu
        self.p_profile *= mult

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
        if buses is None:
            return list(range(len(self.unit_buses)))
        for b in buses:
            if b not in self.unit_buses:
                raise SimulationError(f"event references unknown PV bus {b}")
        return [self.unit_buses.index(b) for b in buses]

    # -- per-tick machinery

    def _apply_live_event(self, ev: EventKind) -> None:
        if isinstance(ev, SetpointChange):
            if self.params is not None:
                idx = self._unit_indices(ev.buses)
                moved = take_units(self.params, idx).with_setpoint(ev.mu)
                self.params = put_units(self.params, idx, moved)
        elif isinstance(ev, SubstationVoltage):
            self.model = self.model.with_slack_voltage(ev.v_pu)
        elif isinstance(ev, SwitchEvent):
            self.model = apply_topology_event(self.model, ev.switch_id, ev.state)
            self._last_solution = None  # island changed; cold start
        elif isinstance(ev, LoadScale):
            self.model = self.model.with_scaled_loads(ev.factor)

    def _dispatch(self, t: int) -> np.ndarray:
        """Every unit's var dispatch for tick `t` from the voltages of tick
        t-1; units without real output or on a dark bus dispatch nothing."""
        kind = self.scenario.controller_kind
        if kind.name == "none":
            return np.zeros(len(self.unit_buses))
        v = self.voltages[t - 1, self._unit_cols]
        p = self.p_profile[t]
        active = (p > 0) & ~np.isnan(v)
        if kind.name == "adaptive":
            return np.where(active, adaptive_dispatch(self.params, v), 0.0)
        if self.scenario.recompute_droop_capacity:
            # var limits follow the leftover capacity, cut-offs stay pinned
            idx = np.flatnonzero(active)
            d = take_units(self.params, idx)
            q_min, q_max = capacity_limits(self.ratings[idx], p[idx])
            self.params = put_units(self.params, idx, DroopParams.from_setpoints(
                d.mu, d.deadband_d, d.v_min, d.v_max, q_min, q_max
            ))
        if kind.name == "conventional":
            return np.where(active, droop_dispatch(self.params, v), 0.0)
        q_prev = self.q_rec[t - 1]
        return np.where(active, delayed_dispatch(self.params, kind.tau, v, q_prev), 0.0)

    def _solve_and_record(self, t: int, q: np.ndarray | None = None) -> None:
        if q is None:
            q = np.zeros(len(self.unit_buses))
        p = self.p_profile[t]
        inj = BusInjections(self.bus_ids, self._unit_cols, p, q)
        row, converged, self._last_solution = self._solve(
            self.model, inj, self._last_solution
        )
        if converged or t == 0:
            self.voltages[t] = row
        if not converged:
            self.flags[t] = "pf_diverged"
            if t > 0:
                self.voltages[t] = self.voltages[t - 1]
        self.q_rec[t] = q

    def _outer_boundary(self, t: int) -> None:
        """Outer-loop step for every unit that was energized and generating
        through the whole window closing at tick `t`."""
        T = self.scenario.t_outer
        v = self.voltages[t - T + 1 : t + 1, self._unit_cols]
        p = self.p_profile[t - T + 1 : t + 1]
        idx = np.flatnonzero(~np.any(np.isnan(v), axis=0) & (np.min(p, axis=0) > 0))
        if len(idx):
            # perfbench's tracer wraps `sim.outer_loop_step` with a hook for
            # one unit per call, so the fleet-wide call goes through `adaptation`
            new = adaptation.outer_loop_step(
                take_units(self.params, idx), v[:, idx], p[:, idx],
                self.ratings[idx], self.scenario.adaptive,
            )
            self.params = put_units(self.params, idx, new)
            self._outer_log.append((t, idx, new))

    def step_inner(self) -> int:
        """Advance one tick: apply this tick's events, dispatch every
        controller from the previous voltages, solve, then run the outer
        loop if this tick closes a horizon.  Returns the tick index."""
        t = self.tick
        if t >= self.scenario.horizon:
            raise SimulationError("simulation horizon exhausted")
        for ev in self.live_events.get(t, []):
            self._apply_live_event(ev)
        q = self._dispatch(t)
        self._solve_and_record(t, q)
        if (
            self.scenario.controller_kind.name == "adaptive"
            and t % self.scenario.t_outer == 0
            and t >= self.scenario.t_outer
        ):
            self._outer_boundary(t)
        self.tick += 1
        return t

    def run(self) -> SimulationTrace:
        while self.tick < self.scenario.horizon:
            self.step_inner()
        # one record, and one validated parameter block, per updated unit
        dispatches = tuple(
            ParamDispatch(tick=t, bus=self.unit_buses[j], params=unit)
            for t, idx, new in self._outer_log
            for j, unit in zip(idx, split_units(new))
        )
        return SimulationTrace(
            bus_ids=self.bus_ids,
            unit_buses=self.unit_buses,
            voltages=self.voltages,
            q_inj=self.q_rec,
            p_out=self.p_profile,
            mu=self.mu_arr,
            flags=tuple(self.flags),
            param_dispatches=dispatches,
            dt_inner=self.scenario.dt_inner,
            t_outer=self.scenario.t_outer,
            name=self.scenario.name,
            seed=self.scenario.seed,
        )


# Per-tick solves: (model, PV injections, warm start) -> (voltage row over
# the injections' bus order, converged, warm start for the next tick).


def _solve_full(
    model: FeederModel, inj: BusInjections, warm: PowerFlowSolution | None
) -> tuple[np.ndarray, bool, PowerFlowSolution | None]:
    sol = solve_power_flow(model, injections=inj, v_init=warm)
    row = np.full(len(inj.bus_ids), np.nan)  # dark buses stay NaN
    row[compile_network(model).cols] = sol.v_mag
    return row, sol.converged, sol if sol.converged else warm


def _solve_linear(
    model: LinearizedFeeder, inj: BusInjections, warm: None
) -> tuple[np.ndarray, bool, None]:
    return np.concatenate(([model.v_slack], model.voltages(inj.p, inj.q))), True, None


def run(scenario: Scenario, model: FeederModel | LinearizedFeeder) -> SimulationTrace:
    """Run a scenario to completion and return the trace."""
    return SimulationEngine(scenario, model).run()


# ---------------------------------------------------------------------------
# metrics


@dataclass(frozen=True)
class MetricsLimits:
    """Thresholds for the trace metrics: flicker limit (percent/window),
    flicker window length in ticks, ANSI instantaneous and sustained
    voltage bands, and the sustain duration in seconds."""

    vf_lim: float = 0.03
    window: int = 10
    ansi_a: tuple[float, float] = (0.9, 1.06)
    ansi_b: tuple[float, float] = (0.95, 1.05)
    sustain_seconds: float = 300.0


@dataclass(frozen=True, eq=False)
class MetricsReport:
    msse: float  # percent
    fc: int
    vvi: int
    msse_per_inverter: dict[str, float]
    fc_per_inverter: dict[str, int]
    vvi_per_bus: dict[str, int]


def metrics(
    trace: SimulationTrace,
    mu: float | np.ndarray | None = None,
    limits: MetricsLimits | None = None,
) -> MetricsReport:
    """Trace metrics: MSSE (percent, PV buses only), flicker count over
    non-overlapping windows, and the count of ANSI band violations
    (instantaneous range A or range B sustained past the limit)."""
    limits = limits or MetricsLimits(window=trace.t_outer)
    n_units = len(trace.unit_buses)
    h = trace.horizon
    if mu is None:
        mu_arr = trace.mu
    else:
        mu_arr = np.full((h, n_units), 0.0) + np.asarray(mu, dtype=float)

    msse_per: dict[str, float] = {}
    for j, b in enumerate(trace.unit_buses):
        v = trace.voltages[:, trace.bus_ids.index(b)]
        dev = np.abs(v - mu_arr[:, j])
        dev = dev[~np.isnan(dev)]
        msse_per[b] = float(np.mean(dev) * 100.0) if len(dev) else 0.0
    msse = float(np.mean(list(msse_per.values()))) if msse_per else 0.0

    # windows with a dark tick have NaN flicker, which never counts
    over = trace.window_stats(limits.window, mu_arr).vf > limits.vf_lim
    fc_per = {b: int(n) for b, n in zip(trace.unit_buses, np.sum(over, axis=0))}
    fc = sum(fc_per.values())

    lo_a, hi_a = limits.ansi_a
    lo_b, hi_b = limits.ansi_b
    sustain_ticks = max(int(math.ceil(limits.sustain_seconds / trace.dt_inner)), 1)
    vvi_per: dict[str, int] = {}
    for i, b in enumerate(trace.bus_ids):
        v = trace.voltages[:, i]
        viol_a = (v > hi_a) | (v < lo_a)
        out_b = (v > hi_b) | (v < lo_b)
        viol_b = np.zeros(h, dtype=bool)
        t = 0
        while t < h:
            if out_b[t] and not np.isnan(v[t]):
                run_start = t
                while t < h and out_b[t]:
                    t += 1
                if t - run_start >= sustain_ticks:
                    viol_b[run_start:t] = True
            else:
                t += 1
        count = int(np.sum((viol_a | viol_b) & ~np.isnan(v)))
        if count:
            vvi_per[b] = count
    vvi = sum(vvi_per.values())

    return MetricsReport(
        msse=msse,
        fc=fc,
        vvi=vvi,
        msse_per_inverter=msse_per,
        fc_per_inverter=fc_per,
        vvi_per_bus=vvi_per,
    )


# ---------------------------------------------------------------------------
# trace CSV round-trip


def _fmt(x: float) -> str:
    return repr(float(x))


_TRACE_HEADER = ["tick", "bus", "V_pu", "q_inj_pu", "p_out_pu", "mu_pu", "flags"]


def write_trace_csv(trace: SimulationTrace, path: str | Path) -> None:
    """Long-format trace: one row per (tick, bus); the PV columns (var
    dispatch, real output, set-point) are empty on buses without a unit.
    Floats keep full round-trip precision."""
    unit_of = {b: j for j, b in enumerate(trace.unit_buses)}
    cols = [unit_of.get(b) for b in trace.bus_ids]
    no_unit = ("", "", "")
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(_TRACE_HEADER)
        for t in range(trace.horizon):
            units = [
                tuple(map(repr, x))
                for x in zip(trace.q_inj[t].tolist(), trace.p_out[t].tolist(),
                             trace.mu[t].tolist())
            ]
            writer.writerows(
                [t, b, repr(v), *(no_unit if j is None else units[j]), trace.flags[t]]
                for b, v, j in zip(trace.bus_ids, trace.voltages[t].tolist(), cols)
            )


def write_params_csv(trace: SimulationTrace, path: str | Path) -> None:
    """Per-outer-loop dispatched adaptive parameters."""
    cols = ["tick", "bus", "m_p", "q_p", "q_min_p", "q_max_p", "v_min_p", "v_max_p", "mu"]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(cols)
        for d in trace.param_dispatches:
            p = d.params
            writer.writerow(
                [d.tick, d.bus]
                + [_fmt(x) for x in (p.m_p, p.q_p, p.q_min_p, p.q_max_p, p.v_min_p, p.v_max_p, p.mu)]
            )


def read_trace_csv(
    path: str | Path, dt_inner: float = 1.0, t_outer: int = 10
) -> SimulationTrace:
    """Rebuild a trace from its CSV (voltages, var dispatches, real
    outputs, set-points, flags); metrics on it equal those of the trace
    that was written.  Parameter dispatches are not part of the CSV."""
    rows: list[tuple[int, str, float, str, str, str, str]] = []
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        if header[:3] != _TRACE_HEADER[:3]:
            raise SimulationError(f"not a trace CSV: {path}")
        if header != _TRACE_HEADER:
            raise SimulationError(
                f"trace CSV {path} needs the columns {','.join(_TRACE_HEADER)}"
            )
        for rec in reader:
            rows.append((int(rec[0]), rec[1], float(rec[2]), *rec[3:7]))
    if not rows:
        raise SimulationError(f"empty trace CSV: {path}")
    bus_ids = tuple(dict.fromkeys(r[1] for r in rows))
    horizon = max(r[0] for r in rows) + 1
    unit_buses = tuple(dict.fromkeys(r[1] for r in rows if r[3] != ""))
    voltages = np.full((horizon, len(bus_ids)), np.nan)
    q_inj = np.zeros((horizon, len(unit_buses)))
    p_out = np.zeros((horizon, len(unit_buses)))
    mu = np.zeros((horizon, len(unit_buses)))
    flags = [""] * horizon
    bus_index = {b: i for i, b in enumerate(bus_ids)}
    unit_index = {b: i for i, b in enumerate(unit_buses)}
    for t, b, v, qs, ps, ms, fl in rows:
        voltages[t, bus_index[b]] = v
        if qs != "":
            j = unit_index[b]
            q_inj[t, j], p_out[t, j], mu[t, j] = float(qs), float(ps), float(ms)
        if fl:
            flags[t] = fl
    return SimulationTrace(
        bus_ids=bus_ids,
        unit_buses=unit_buses,
        voltages=voltages,
        q_inj=q_inj,
        p_out=p_out,
        mu=mu,
        flags=tuple(flags),
        param_dispatches=(),
        dt_inner=dt_inner,
        t_outer=t_outer,
    )
