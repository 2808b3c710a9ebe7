"""The scenario language: what happens during a run, and its JSON form.

A `Scenario` is the timeline of one run: its horizon and outer-loop
period, the controller, the PV profile, named intermittency series and
the disturbance events, each a frozen dataclass checked where it is
built.  `scenario_from_dict` and `scenario_to_dict` derive the JSON
schema from those dataclasses (`codec`); the engine (`sim`) reads a
scenario and never writes one.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .adaptation import AdaptiveConfig
from .codec import SchemaError, VoltVarError, decode, encode, within
from .control import ControllerKind


class SimulationError(VoltVarError):
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
        if not 1 <= self.dwell < math.inf:
            raise SimulationError("telegraph dwell must be finite and >= 1 tick")
        if not 0 <= self.low <= self.high < math.inf:
            raise SimulationError("need 0 <= low <= high, all finite")


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
        if self.seed < 0:
            raise SimulationError("seed must be >= 0")
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


def scenario_from_dict(data: dict) -> Scenario:
    """Build a scenario from its JSON form (see the README for the schema).
    A `feeder` key, which `presets --show` writes, is accepted and not
    read."""
    try:
        if not isinstance(data, dict):
            raise SchemaError(f"must be an object, not {data!r}")
        return decode(Scenario, {k: v for k, v in data.items() if k != "feeder"})
    except (TypeError, ValueError) as exc:
        if isinstance(exc, SimulationError):
            raise
        raise SimulationError(f"malformed scenario: {exc}") from exc


def scenario_to_dict(sc: Scenario) -> dict:
    return encode(sc)


def load_scenario(path: str | Path) -> Scenario:
    with open(path, "r", encoding="utf-8") as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise SimulationError(f"invalid scenario JSON in {path}: {exc}") from exc
    return scenario_from_dict(data)
