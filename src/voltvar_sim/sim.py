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
import io
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, compress, islice
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import adaptation
from .adaptation import AdaptiveConfig, WindowStats, capacity_limits, window_stats
from .adaptation import outer_loop_step  # noqa: F401 (see _outer_boundary)
from .codec import SchemaError, decode, encode, within
from .control import (
    AdaptiveParams,
    ControlError,
    ControllerKind,
    DroopParams,
    adaptive_dispatch,
    delayed_dispatch,
    droop_dispatch,
    slope_to_cutoffs,
)
from .feeder import (
    FeederModel,
    PowerFlowSolution,
    apply_topology_event,
    solve_power_flow,
    voltage_sensitivities,
)
from .feeder import sensitivity_matrix  # noqa: F401 (perfbench's tracer patches it here)


class SimulationError(ValueError):
    """Invalid scenario, event, or model/scenario mismatch."""


# ---------------------------------------------------------------------------
# events


def _check_buses(buses: tuple[str, ...] | None) -> None:
    """An event's bus list: None (every unit), or buses named once each."""
    if buses is not None and not buses:
        raise SimulationError("event names no bus; leave buses out for every unit")
    for i, b in enumerate(buses or ()):
        if b in buses[:i]:
            raise SimulationError(f"event names bus {b} twice")


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
        _check_buses(self.buses)


@dataclass(frozen=True)
class CloudCover:
    scale: float
    buses: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.scale) and self.scale >= 0):
            raise SimulationError("cloud cover scale must be finite and >= 0")
        _check_buses(self.buses)


@dataclass(frozen=True)
class Intermittency:
    series_id: str
    buses: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        _check_buses(self.buses)


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


_EVENT_KINDS = {
    "substation_voltage": SubstationVoltage,
    "setpoint": SetpointChange,
    "cloud_cover": CloudCover,
    "intermittency": Intermittency,
    "switch": SwitchEvent,
    "load_scale": LoadScale,
}


def _decode_event(doc: object) -> tuple[int, EventKind]:
    """An event object: its tick, its kind and the fields of that kind."""
    if not isinstance(doc, dict) or doc.get("kind") not in _EVENT_KINDS:
        raise SchemaError(f"needs a kind, one of {', '.join(_EVENT_KINDS)}")
    rest = {k: v for k, v in doc.items() if k not in ("tick", "kind")}
    tick = within("tick", decode, int, doc.get("tick"))
    return tick, decode(_EVENT_KINDS[doc["kind"]], rest)


def _decode_events(docs: object) -> tuple[tuple[int, EventKind], ...]:
    if not isinstance(docs, list):
        raise SchemaError(f"must be a list, not {docs!r}")
    return tuple(within(i, _decode_event, doc) for i, doc in enumerate(docs))


def _encode_events(events: tuple[tuple[int, EventKind], ...]) -> list[dict]:
    return [
        # an unset bus list (every unit) is left out
        {"tick": tick, "kind": next(k for k, cls in _EVENT_KINDS.items() if isinstance(ev, cls)),
         **{k: v for k, v in encode(ev).items() if v is not None}}
        for tick, ev in events
    ]


@dataclass(frozen=True)
class TelegraphSpec:
    """Synthetic cloud-intermittency series: a seeded random telegraph
    alternating between `high` (clear) and `low` (clouded) with the given
    mean dwell time in ticks."""

    dwell: float = 30.0
    low: float = 0.2
    high: float = 1.0
    _json_keys = {f: f"telegraph.{f}" for f in ("dwell", "low", "high")}

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


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Timeline of one simulation run.

    `pv_profile` gives each unit's available real output: a constant, or
    a step profile as ((tick, value), ...) breakpoints, either for all
    units or per bus in a mapping.  `series` holds named intermittency
    inputs (explicit samples or a TelegraphSpec).  `recompute_droop_capacity`
    re-derives conventional/delayed var limits from leftover capacity each
    tick with the voltage cut-offs pinned, reproducing the uncontrolled
    slope growth non-adaptive droop suffers when generation drops.  The
    fields are in the order of the JSON document.
    """

    name: str = ""
    horizon: int
    t_outer: int
    dt_inner: float = 1.0
    seed: int = 0
    mu: float = 1.0
    controller_kind: ControllerKind
    droop_slope: float = 1.0
    droop_deadband: float = 0.0
    adaptive: AdaptiveConfig = field(default_factory=AdaptiveConfig)
    pv_profile: ProfileSpec | Mapping[str, ProfileSpec] = 0.0
    series: Mapping[str, TelegraphSpec | Sequence[float]] = field(default_factory=dict)
    events: tuple[tuple[int, EventKind], ...] = ()
    recompute_droop_capacity: bool = False
    _json_keys = {
        "controller_kind": "controller",
        "droop_slope": "controller.slope",
        "droop_deadband": "controller.deadband",
    }
    _json_coders = {"events": (_decode_events, _encode_events)}

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise SimulationError("horizon must be >= 1")
        if self.t_outer < 2:
            raise SimulationError("t_outer must be >= 2")
        if self.horizon < self.t_outer:
            raise SimulationError("horizon must be >= t_outer")
        if not (math.isfinite(self.dt_inner) and self.dt_inner > 0):
            raise SimulationError("dt_inner must be finite and > 0")
        if not 0.5 <= self.mu <= 1.5:
            raise SimulationError("mu: set-point outside 0.5-1.5 pu")
        for name in ("droop_slope", "droop_deadband"):
            if not math.isfinite(getattr(self, name)):
                raise SimulationError(f"{name} must be finite")
        ticks = [t for t, _ in self.events]
        if ticks != sorted(ticks):
            raise SimulationError("events must be sorted by tick")
        if any(t < 0 or t >= self.horizon for t in ticks):
            raise SimulationError("event tick outside horizon")


# ---------------------------------------------------------------------------
# scenario JSON schema


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from its JSON form (see the README for the schema).
    A `feeder` key, which `presets --show` writes, is accepted and not
    read; an `adaptive.T` must equal `t_outer`."""
    try:
        if not isinstance(data, dict):
            raise SchemaError(f"must be an object, not {data!r}")
        doc = {k: v for k, v in data.items() if k != "feeder"}
        adaptive = doc.get("adaptive")
        if isinstance(adaptive, dict) and "T" in adaptive:
            doc["adaptive"] = {k: v for k, v in adaptive.items() if k != "T"}
        sc = decode(Scenario, doc)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, SimulationError):
            raise
        raise SimulationError(f"malformed scenario: {exc}") from exc
    if isinstance(adaptive, dict) and adaptive.get("T", sc.t_outer) != sc.t_outer:
        raise SimulationError("adaptive.T must equal t_outer (or be left out)")
    return sc


def scenario_to_dict(sc: Scenario) -> dict:
    return encode(sc)


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise SimulationError(f"invalid scenario JSON in {path}: {exc}") from exc
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# linearized feeder


def _positions(keys: tuple[str, ...], order: tuple[str, ...]) -> list[int]:
    """Index of each of `keys` in `order`, through one dict rather than a
    scan per key."""
    at = {b: i for i, b in enumerate(order)}
    return [at[b] for b in keys]


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
        return replace(self, v_slack=v_pu)

    def voltages(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        """Load-bus voltages at PV outputs `p` and var dispatches `q`."""
        return (
            self.v_base
            + self.dv_dq @ (q - self.q_base)
            + self.dv_dp @ (p - self.p_base)
            + self._slack_term
        )

    @cached_property
    def _slack_term(self) -> np.ndarray:
        """The substation voltage's share, once per slack voltage."""
        return self.dv_dslack * (self.v_slack - self.v_slack_base)


def linearize(model: FeederModel) -> LinearizedFeeder:
    """Build the linearized feeder at the model's operating point: one
    power-flow solve, then every derivative from one solve against its
    Jacobian (`voltage_sensitivities`)."""
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
        v_slack_base=model.slack.v_set,
        v_slack=model.slack.v_set,
        dv_dq=dv_dq,
        dv_dp=dv_dp,
        dv_dslack=dv_dslack,
        p_base=np.array([units[b].p_out for b in pv_buses], dtype=float),
        q_base=np.array([units[b].q_inj for b in pv_buses], dtype=float),
        dark_pv_buses=tuple(b for b in units if b not in on_island),
    )


# ---------------------------------------------------------------------------
# trace and engine

# the trace's windows and band runs are worked out for a block of units or
# buses at a time, sized so that no temporary array of a block exceeds this
_BLOCK_BYTES = 1 << 14


class ParamLog(NamedTuple):
    """Outer-loop updates, one per updated unit in tick, then unit order:
    closing tick, index into `unit_buses`, and the five `AdaptiveParams`
    fields in order.  `ParamLog()` is the empty log."""

    ticks: np.ndarray = np.zeros(0, dtype=np.intp)
    units: np.ndarray = np.zeros(0, dtype=np.intp)
    values: np.ndarray = np.zeros((0, 5))


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    bus_ids: tuple[str, ...]
    unit_buses: tuple[str, ...]
    voltages: np.ndarray  # (horizon, n_bus); NaN where de-energized
    q_inj: np.ndarray  # (horizon, n_units)
    p_out: np.ndarray  # (horizon, n_units)
    mu: np.ndarray  # (horizon, n_units)
    flags: tuple[str, ...]  # "" or "pf_diverged" per tick
    param_log: ParamLog
    dt_inner: float
    t_outer: int

    @property
    def horizon(self) -> int:
        return self.voltages.shape[0]

    def bus_voltage(self, bus: str) -> np.ndarray:
        return self.voltages[:, self.bus_ids.index(bus)]

    def window_stats(self) -> WindowStats:
        """Statistics of the complete windows of `t_outer` ticks that the
        outer loop sees (ticks 1..T, T+1..2*T, ...) per unit, against the
        trace's set-points, as arrays of shape (n_windows, n_units); window
        k closes at tick (k + 1) * T."""
        width = self.t_outer
        k = (self.horizon - 1) // width

        cols = _positions(self.unit_buses, self.bus_ids)

        def windows(x: np.ndarray) -> np.ndarray:  # (horizon, n) -> (width, k, n)
            return x[1 : 1 + k * width].reshape(k, width, x.shape[1]).swapaxes(0, 1)

        per = max(_BLOCK_BYTES // (24 * self.horizon), 1)  # units per call: 3 sums each
        out = np.empty((3, k, len(cols)))
        for i in range(0, len(cols), per):
            s = window_stats(windows(self.voltages[:, cols[i : i + per]]),
                             windows(self.mu[:, i : i + per]), windows(self.p_out[:, i : i + per]))
            out[..., i : i + per] = (s.sse_avg, s.vf, s.p_pv_avg)
        return WindowStats(*out)


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
    that unit's own bus voltage (locality contract).  Only the constructor
    tells a full `FeederModel` from a `LinearizedFeeder`: it binds the
    per-tick solve and rejects the events the linear model cannot take.
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
            self._solve = SimulationEngine._solve_linear
            self._dark_units = model.dark_pv_buses
            self._row = np.empty(len(model.bus_ids))
        else:
            # the profile drives PV output; any stored p_out/q_inj on the
            # model is an analysis operating point, not simulation state
            model = model._copy((), pv_units=tuple(
                replace(u, p_out=0.0, q_inj=0.0) for u in model.pv_units))
            self.ratings = np.array([u.rating_s for u in model.pv_units], dtype=float)
            self._solve = SimulationEngine._solve_full
            self._dark_units = ()
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
        self._apply_profile_events(rng)
        # `PvUnit`'s bounds, after the cloud and intermittency multipliers
        if not np.all((self.p_profile >= 0) & (self.p_profile <= self.ratings * (1 + 1e-9))):
            raise SimulationError("PV profile and series values must be finite and in 0..rating")
        self._generating = self.p_profile > 0

        self.live_events: dict[int, list[EventKind]] = {}
        for tick, ev in scenario.events:
            if isinstance(ev, (SubstationVoltage, SwitchEvent, LoadScale, SetpointChange)):
                self.live_events.setdefault(tick, []).append(ev)

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
        self._solve_and_record(0, self.q_rec[0])
        self.tick = 1

    # -- setup helpers

    def _apply_profile_events(self, rng: np.random.Generator) -> None:
        h = self.scenario.horizon
        mult = np.ones((h, len(self.unit_buses)))
        for tick, ev in self.scenario.events:
            if isinstance(ev, (CloudCover, Intermittency)):
                scale = ev.scale if isinstance(ev, CloudCover) else (
                    self._resolve_series(ev.series_id, h - tick, rng))
                for j in self._unit_indices(ev.buses):
                    mult[tick:, j] *= scale
            elif isinstance(ev, SetpointChange):
                self.mu_arr[tick:, self._unit_indices(ev.buses)] = ev.mu
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
        elif isinstance(ev, LoadScale):
            self.model = self.model.with_scaled_loads(ev.factor)

    def _dispatch(self, t: int) -> np.ndarray:
        """Every unit's var dispatch for tick `t` from the voltages of tick
        t-1; units without real output or on a dark bus dispatch nothing."""
        kind = self.scenario.controller_kind
        if self._params is None:
            return np.zeros(len(self.unit_buses))
        v = self.voltages[t - 1, self._unit_cols]
        active = self._generating[t] & ~np.isnan(v)
        if kind.name == "adaptive":
            return np.where(active, adaptive_dispatch(self._rows, v), 0.0)
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
        return np.where(active, q, 0.0)

    def _solve_and_record(self, t: int, q: np.ndarray) -> None:
        # `_solve` is kept unbound: a bound method on the engine would be a
        # reference cycle, keeping a finished engine until a full collection
        row, converged = self._solve(self, self.p_profile[t], q)
        self.voltages[t] = row if converged or t == 0 else self.voltages[t - 1]
        if not converged:
            self.flags[t] = "pf_diverged"
        self.q_rec[t] = q

    # Per-tick solves: (PV outputs, var dispatches) -> (voltage row in
    # `bus_ids` order, converged).

    def _solve_full(self, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, bool]:
        inj = np.zeros(len(self.bus_ids), dtype=complex)
        inj[self._unit_cols] = p + 1j * q
        # through the `sim` namespace: perfbench's tracer patches it here
        sol = solve_power_flow(self.model, injections=inj, v_init=self._last_solution)
        if sol.converged:
            self._last_solution = sol
        row = np.full(len(self.bus_ids), np.nan)  # dark buses stay NaN
        row[self.model.network.cols] = sol.v_mag
        return row, sol.converged

    def _solve_linear(self, p: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, bool]:
        self._row[0] = self.model.v_slack  # the caller copies the row out
        self._row[1:] = self.model.voltages(p, q)
        return self._row, True

    def _outer_boundary(self, t: int) -> None:
        """Outer-loop step for every unit that was energized and generating
        through the whole window closing at tick `t`."""
        window = slice(t - self.scenario.t_outer + 1, t + 1)
        v = self.voltages[window, self._unit_cols]
        p = self.p_profile[window]
        idx = np.flatnonzero(~np.isnan(v).any(axis=0) & (p.min(axis=0) > 0))
        if len(idx):
            # perfbench's tracer wraps `sim.outer_loop_step` with a hook for
            # one unit per call, so the fleet-wide call goes through `adaptation`
            new = adaptation.outer_loop_step(
                self._take(idx), v[:, idx], p[:, idx], self.ratings[idx], self.scenario.adaptive,
            )
            self._put(idx, new)
            # the stored columns, a copy that holds no view of the step's arrays
            self._outer_log.append((t, idx, self._params[:, idx]))

    def step_inner(self) -> int:
        """Advance one tick: apply this tick's events, dispatch every
        controller from the previous voltages, solve, then run the outer
        loop if this tick closes a horizon.  Returns the tick index."""
        t = self.tick
        if t >= self.scenario.horizon:
            raise SimulationError("simulation horizon exhausted")
        for ev in self.live_events.get(t, []):
            self._apply_live_event(ev)
        self._solve_and_record(t, self._dispatch(t))
        if self.scenario.controller_kind.name == "adaptive" and t % self.scenario.t_outer == 0:
            self._outer_boundary(t)  # t >= 1, so a whole window has closed
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


# ---------------------------------------------------------------------------
# metrics


# ANSI C84.1 service voltage bands (pu): every tick outside range A counts,
# and every tick of a run outside range B that lasts the sustain time
ANSI_RANGE_A = (0.9, 1.06)
ANSI_RANGE_B = (0.95, 1.05)
ANSI_SUSTAIN_S = 300.0


@dataclass(frozen=True, eq=False)
class MetricsReport:
    msse: float  # percent
    fc: int
    vvi: int
    msse_per_inverter: dict[str, float]
    fc_per_inverter: dict[str, int]
    vvi_per_bus: dict[str, int]


def metrics(trace: SimulationTrace, vf_lim: float = 0.03) -> MetricsReport:
    """Trace metrics: MSSE (percent, PV buses only), the count of outer-loop
    windows (`trace.t_outer` ticks) whose flicker exceeds `vf_lim`, and the
    count of ANSI band violations (outside `ANSI_RANGE_A`, or outside
    `ANSI_RANGE_B` for at least `ANSI_SUSTAIN_S` seconds)."""
    h = trace.horizon

    msse_per: dict[str, float] = {}
    # unit by unit: np.mean's pairwise order depends on which dark ticks drop out
    cols = _positions(trace.unit_buses, trace.bus_ids)
    for j, (b, c) in enumerate(zip(trace.unit_buses, cols)):
        dev = np.abs(trace.voltages[:, c] - trace.mu[:, j])
        dev = dev[~np.isnan(dev)]
        msse_per[b] = float(np.mean(dev) * 100.0) if len(dev) else 0.0
    msse = float(np.mean(list(msse_per.values()))) if msse_per else 0.0

    # windows with a dark tick have NaN flicker, which never counts
    over = trace.window_stats().vf > vf_lim
    fc_per = {b: int(n) for b, n in zip(trace.unit_buses, np.sum(over, axis=0))}

    sustain_ticks = max(int(math.ceil(ANSI_SUSTAIN_S / trace.dt_inner)), 1)
    vvi_per: dict[str, int] = {}
    per = max(_BLOCK_BYTES // (h + 2), 1)  # buses per block of bool masks
    for i in range(0, len(trace.bus_ids), per):
        counts = _band_violations(trace.voltages[:, i : i + per], ANSI_RANGE_A,
                                  ANSI_RANGE_B, sustain_ticks)
        vvi_per.update((b, n) for b, n in zip(trace.bus_ids[i:], counts.tolist()) if n)

    return MetricsReport(
        msse=msse,
        fc=sum(fc_per.values()),
        vvi=sum(vvi_per.values()),
        msse_per_inverter=msse_per,
        fc_per_inverter=fc_per,
        vvi_per_bus=vvi_per,
    )


def _band_violations(
    v: np.ndarray, band_a: tuple[float, float], band_b: tuple[float, float],
    sustain_ticks: int,
) -> np.ndarray:
    """Per column of `v` (ticks x buses): the ticks outside band A or inside
    a run of at least `sustain_ticks` ticks outside band B.  NaN (dark)
    ticks are never out of band."""
    viol = (v > band_a[1]) | (v < band_a[0])
    out_b = np.zeros((v.shape[0] + 2, v.shape[1]), dtype=bool)
    out_b[1:-1] = (v > band_b[1]) | (v < band_b[0])
    # run starts and ends alternate among each column's edges of the padded mask
    cols, ticks = np.nonzero((out_b[1:] != out_b[:-1]).T)
    cols, t0, t1 = cols[::2], ticks[::2], ticks[1::2]
    long = t1 - t0 >= sustain_ticks
    # +1 where a long run starts, -1 where it ends: the running sum marks it
    mark = np.zeros((v.shape[0] + 1, v.shape[1]), dtype=np.int8)
    mark[t0[long], cols[long]] = 1
    mark[t1[long], cols[long]] = -1
    viol |= np.cumsum(mark, axis=0, dtype=np.int8)[:-1] > 0
    return np.count_nonzero(viol, axis=0)


# ---------------------------------------------------------------------------
# trace CSV round-trip


_TRACE_HEADER = ["tick", "bus", "V_pu", "q_inj_pu", "p_out_pu", "mu_pu", "flags"]
_PARAMS_HEADER = ["tick", "bus", "m_p", "q_p", "q_min_p", "q_max_p", "v_min_p", "v_max_p", "mu"]
# rows per CSV block; writing linear150's trace (151 buses, 3000 ticks) peaks at ~180 KB
_BLOCK_ROWS = 512


def _csv_cell(s: str) -> str:
    """`s` as a non-first field of a `csv.writer` row: comma, then the
    field, quoted where csv quotes it."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", s])
    return buf.getvalue().removesuffix("\r\n")


def _float_cells(x: np.ndarray) -> np.ndarray:
    """Comma plus `repr` of every float in `x`, flat, as an object array.
    Each distinct bit pattern is formatted once; keying on the bits, not
    the value, keeps -0.0 apart from 0.0."""
    bits, inv = np.unique(np.ascontiguousarray(x, dtype=float).view(np.int64),
                          return_inverse=True)
    cells = np.array([f",{v!r}" for v in bits.view(np.float64).tolist()], dtype=object)
    return cells[inv.ravel()]


def write_trace_csv(trace: SimulationTrace, path: str | Path) -> None:
    """Long-format trace: one row per (tick, bus); the PV columns (var
    dispatch, real output, set-point) are empty on buses without a unit.
    Floats keep full round-trip precision.  Rows are built and written a
    block of ticks at a time."""
    unit_of = {b: j for j, b in enumerate(trace.unit_buses)}
    has_unit = np.array([b in unit_of for b in trace.bus_ids], dtype=bool)
    cols = [unit_of[b] for b in trace.bus_ids if b in unit_of]
    step = max(1, _BLOCK_ROWS // len(trace.bus_ids))
    ends = {fl: _csv_cell(fl) + "\r\n" for fl in set(trace.flags)}
    # one cell per csv field, each but the tick with its leading comma
    rows = np.empty((step, len(trace.bus_ids), len(_TRACE_HEADER)), dtype=object)
    rows[:, :, 1] = [_csv_cell(b) for b in trace.bus_ids]
    rows[:, ~has_unit, 3:6] = (",,,", "", "")
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(_TRACE_HEADER)
        for t0 in range(0, trace.horizon, step):
            t1 = min(t0 + step, trace.horizon)
            v = trace.voltages[t0:t1]
            units = np.stack([a[t0:t1, cols] for a in (trace.q_inj, trace.p_out, trace.mu)],
                             axis=-1)
            cells = _float_cells(np.concatenate([v.ravel(), units.ravel()]))
            block = rows[: t1 - t0]
            block[:, :, 0] = np.array([str(t) for t in range(t0, t1)], dtype=object)[:, None]
            block[:, :, 2] = cells[: v.size].reshape(v.shape)
            block[:, has_unit, 3:6] = cells[v.size :].reshape(units.shape)
            block[:, :, 6] = np.array([ends[fl] for fl in trace.flags[t0:t1]],
                                      dtype=object)[:, None]
            f.write("".join(block.ravel().tolist()))


def write_params_csv(trace: SimulationTrace, path: str | Path) -> None:
    """The parameter log, one row per updated unit, a block of rows at a
    time; the two cut-off columns are derived from the logged fields."""
    ticks, units, values = trace.param_log
    bus_cells = np.array([_csv_cell(b) for b in trace.unit_buses], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(_PARAMS_HEADER)
        for r0 in range(0, len(ticks), _BLOCK_ROWS):
            part = slice(r0, r0 + _BLOCK_ROWS)
            cells = np.empty((len(ticks[part]), len(_PARAMS_HEADER) - 1), dtype=object)
            cells[:, 0] = ticks[part].astype(str).astype(object) + bus_cells[units[part]]
            logged = values[part]
            cols = np.column_stack([logged[:, :4], *slope_to_cutoffs(*logged.T), logged[:, 4]])
            cells[:, 1:] = _float_cells(cols).reshape(len(cells), -1)
            cells[:, -1] += "\r\n"
            f.write("".join(cells.ravel().tolist()))


def read_trace_csv(
    path: str | Path, dt_inner: float = 1.0, t_outer: int = 10
) -> SimulationTrace:
    """Rebuild a trace from its CSV (voltages, var dispatches, real
    outputs, set-points, flags); metrics on it equal those of the trace
    that was written.  Parameter dispatches are not part of the CSV."""
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        if header[:3] != _TRACE_HEADER[:3]:
            raise SimulationError(f"not a trace CSV: {path}")
        if header != _TRACE_HEADER:
            raise SimulationError(
                f"trace CSV {path} needs the columns {','.join(_TRACE_HEADER)}"
            )
        # fields in one flat list, read a block of rows at a time: the row
        # lists die young, which spares the garbage collector walking them
        flat: list[str] = []
        for rows in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
            if set(map(len, rows)) != {len(header)}:
                raise SimulationError(f"trace CSV {path}: every row needs {len(header)} fields")
            flat.extend(chain.from_iterable(rows))
    ticks_s, buses, vs, qs, ps, ms, fls = (flat[k :: len(header)] for k in range(len(header)))
    if not ticks_s:
        raise SimulationError(f"empty trace CSV: {path}")
    n = len(ticks_s)
    ticks = np.fromiter(map(int, ticks_s), dtype=np.intp, count=n)
    horizon = int(ticks.max()) + 1
    bus_ids = tuple(dict.fromkeys(buses))
    bus_index = {b: i for i, b in enumerate(bus_ids)}
    cols = np.fromiter(map(bus_index.__getitem__, buses), dtype=np.intp, count=n)
    voltages = np.full((horizon, len(bus_ids)), np.nan)
    voltages[ticks, cols] = np.fromiter(map(float, vs), dtype=float, count=n)
    # rows with a var dispatch are the unit rows
    has_unit = list(map(bool, qs))
    unit_buses = tuple(dict.fromkeys(compress(buses, has_unit)))
    unit_of = np.zeros(len(bus_ids), dtype=np.intp)
    unit_of[[bus_index[b] for b in unit_buses]] = range(len(unit_buses))
    unit_rows = np.flatnonzero(has_unit)
    at = ticks[unit_rows], unit_of[cols[unit_rows]]
    q_inj, p_out, mu = (np.zeros((horizon, len(unit_buses))) for _ in range(3))
    for arr, col in ((q_inj, qs), (p_out, ps), (mu, ms)):
        arr[at] = np.fromiter(map(float, compress(col, has_unit)), dtype=float,
                              count=len(unit_rows))
    flags = [""] * horizon
    for r in np.flatnonzero(list(map(bool, fls))):
        flags[ticks[r]] = fls[r]
    return SimulationTrace(
        bus_ids=bus_ids,
        unit_buses=unit_buses,
        voltages=voltages,
        q_inj=q_inj,
        p_out=p_out,
        mu=mu,
        flags=tuple(flags),
        param_log=ParamLog(),
        dt_inner=dt_inner,
        t_outer=t_outer,
    )
