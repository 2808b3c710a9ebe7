"""Bundled feeders and scenario presets.

Two feeders ship as package data: `ieee4_mod`, the small 4-bus example
(600 kW load and 900 kW PV at node 3, a twin node 4 behind a normally
open switch), and `feeder30`, a 30-bus radial feeder with 10 PV units.
The presets encode the study scenarios used throughout the test suite:
the fig3/fig10 disturbance set on the 4-bus feeder (non-adaptive versus
adaptive controller) and the set-point, intermittency, cloud-cover, and
substation-surge studies on the medium feeder.

Everything is self-contained: no network access, no external data; all
randomness flows from the scenario seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cache
from importlib.resources import files
from typing import Callable

from .adaptation import AdaptiveConfig
from .codec import VoltVarError, field_type, replace_path
from .control import ControllerKind
from .feeder import FeederModel, feeder_from_dict
from .scenario import (CloudCover, Intermittency, Scenario, SetpointChange, SimulationError,
                       SubstationVoltage, SwitchEvent, TelegraphSpec)

BUILTIN_FEEDERS = ("ieee4_mod", "feeder30")


@cache
def load_builtin_feeder(name: str) -> FeederModel:
    """The bundled feeder `name`, decoded and checked once per process and
    shared read-only by every caller, so its graph index, compiled network
    and base injections are built once for every run on it."""
    if name not in BUILTIN_FEEDERS:
        raise SimulationError(
            f"unknown builtin feeder {name!r}; have {', '.join(BUILTIN_FEEDERS)}"
        )
    text = files("voltvar_sim").joinpath(f"data/{name}.json").read_text("utf-8")
    return feeder_from_dict(json.loads(text))


# outer-loop constants used by the 4-bus adaptive presets
_ADAPTIVE_4BUS = AdaptiveConfig(
    k_d=4.0,
    eps_sse=0.005,
    eps_vf=0.2,
    vf_lim=1.0,
    vf_lim_bar=3.0,
    delta_vf=0.5,
    delta_vf_bar=1.0,
    m_init=1.0,
    m_floor=0.1,
)

# outer-loop constants tuned for the medium feeder (stronger coupling,
# smaller critical slopes)
_ADAPTIVE_30 = AdaptiveConfig(
    k_d=2.0,
    eps_sse=0.005,
    eps_vf=0.4,
    vf_lim=1.0,
    vf_lim_bar=2.0,
    delta_vf=0.1,
    delta_vf_bar=0.25,
    m_init=0.8,
    m_floor=0.1,
)

# 4-bus base: solar up at t=20 on both PV buses, adaptive control
_BASE_4BUS = Scenario(
    horizon=200,
    t_outer=10,
    controller_kind=ControllerKind("adaptive"),
    droop_slope=6.0,
    adaptive=_ADAPTIVE_4BUS,
    pv_profile={"bus3": ((20, 0.9),), "bus4": ((20, 0.9),)},
)
_FIG3A = replace(
    _BASE_4BUS, horizon=130, controller_kind=ControllerKind("conventional"), droop_slope=1.0,
    events=((80, SubstationVoltage(1.05)),), name="fig3a",
)
_FIG3B = replace(
    _BASE_4BUS, controller_kind=ControllerKind("delayed", 0.9), recompute_droop_capacity=True,
    events=((80, CloudCover(0.2, ("bus3",))),), name="fig3b",
)
_FIG3C = replace(
    _BASE_4BUS, controller_kind=ControllerKind("delayed", 0.9),
    events=((80, SwitchEvent("switch1", "closed")),), name="fig3c",
)

# 30-bus base: every unit at 0.15 pu, adaptive control
_BASE_30 = Scenario(
    horizon=400,
    t_outer=10,
    controller_kind=ControllerKind("adaptive"),
    droop_slope=3.0,
    adaptive=_ADAPTIVE_30,
    pv_profile=0.15,
)


def _intermittency(feeder: FeederModel) -> Scenario:
    """One seeded telegraph cloud series per PV unit of `feeder`."""
    return replace(
        _BASE_30,
        horizon=700,
        seed=7,
        series={f"tel{i}": TelegraphSpec(dwell=30.0, low=0.2, high=1.0)
                for i in range(len(feeder.pv_buses))},
        events=tuple((30, Intermittency(f"tel{i}", (b,))) for i, b in enumerate(feeder.pv_buses)),
        name="intermittency",
    )


@dataclass(frozen=True)
class PresetDef:
    description: str
    feeder: str
    build: Callable[[FeederModel], Scenario]  # from the loaded `feeder`


def _fixed(scenario: Scenario) -> Callable[[FeederModel], Scenario]:
    return lambda _feeder: scenario


def _adaptive(scenario: Scenario, name: str) -> Callable[[FeederModel], Scenario]:
    return _fixed(replace(scenario, controller_kind=ControllerKind("adaptive"), name=name))


PRESETS: dict[str, PresetDef] = {
    "fig3a": PresetDef(
        "4-bus, conventional droop m=1, substation 1.03->1.05 at t=80",
        "ieee4_mod",
        _fixed(_FIG3A),
    ),
    "fig3b": PresetDef(
        "4-bus, delayed droop m=6 tau=0.9, sudden cloud cover at t=80",
        "ieee4_mod",
        _fixed(_FIG3B),
    ),
    "fig3c": PresetDef(
        "4-bus, delayed droop m=6 tau=0.9, switch closes at t=80",
        "ieee4_mod",
        _fixed(_FIG3C),
    ),
    "fig10a": PresetDef(
        "4-bus, adaptive control, substation 1.03->1.05 at t=80",
        "ieee4_mod",
        _adaptive(_FIG3A, "fig10a"),
    ),
    "fig10b": PresetDef(
        "4-bus, adaptive control, sudden cloud cover at t=80",
        "ieee4_mod",
        _adaptive(_FIG3B, "fig10b"),
    ),
    "fig10c": PresetDef(
        "4-bus, adaptive control, switch closes at t=80",
        "ieee4_mod",
        _adaptive(_FIG3C, "fig10c"),
    ),
    "setpoint_step": PresetDef(
        "30-bus, adaptive control, set-point 1.0->0.96 at t=150",
        "feeder30",
        _fixed(replace(_BASE_30, horizon=300, events=((150, SetpointChange(0.96)),),
                       name="setpoint_step")),
    ),
    "intermittency": PresetDef(
        "30-bus, adaptive control, per-unit telegraph cloud intermittency",
        "feeder30",
        _intermittency,
    ),
    "cloud_cover": PresetDef(
        "30-bus, adaptive control, fleet-wide cloud cover at t=150",
        "feeder30",
        _fixed(replace(_BASE_30, events=((150, CloudCover(0.15)),), recompute_droop_capacity=True,
                       name="cloud_cover")),
    ),
    "substation_surge": PresetDef(
        "30-bus, adaptive control, substation 1.02->1.07 at t=150",
        "feeder30",
        _fixed(replace(_BASE_30, events=((150, SubstationVoltage(1.07)),),
                       name="substation_surge")),
    ),
}


def list_presets() -> list[tuple[str, str]]:
    return [(name, p.description) for name, p in PRESETS.items()]


def get_preset(name: str, feeder: FeederModel | None = None) -> tuple[FeederModel, Scenario]:
    """The preset's feeder and its scenario; given `feeder`, the scenario
    is built for that feeder in place of the preset's own."""
    key = name.removeprefix("presets/")
    if key not in PRESETS:
        raise SimulationError(
            f"unknown preset {name!r}; run the presets command for the catalog"
        )
    p = PRESETS[key]
    if feeder is None:
        feeder = load_builtin_feeder(p.feeder)
    return feeder, p.build(feeder)


# `--set` key -> the scenario fields it sets (dotted below nested blocks)
_OVERRIDES: dict[str, tuple[str, ...]] = {
    "controller": ("controller_kind.name",),
    "m": ("droop_slope", "adaptive.m_init"),
    "tau": ("controller_kind.tau",),
    "deadband": ("droop_deadband",),
    "T": ("t_outer",),
    **{key: (f"adaptive.{key}",) for key in (
        "k_d", "eps_sse", "eps_vf", "vf_lim", "vf_lim_bar", "delta_vf", "delta_vf_bar",
        "m_init", "m_floor",
    )},
    **{key: (key,) for key in ("horizon", "seed", "mu", "dt_inner", "recompute_droop_capacity")},
}


def _parse_bool(value: str) -> bool:
    if value.lower() not in ("true", "false", "0", "1"):
        raise ValueError("expected a boolean")
    return value.lower() in ("true", "1")


_PARSE = {float: float, int: int, bool: _parse_bool, str: str}


def override_scenario(scenario: Scenario, key: str, value: str) -> Scenario:
    """Apply one documented `key=value` override (a key of `_OVERRIDES`,
    as the README lists them) to a scenario; the value is parsed as the
    type of the field it sets."""
    if key not in _OVERRIDES:
        raise SimulationError(f"unknown override key {key!r}")
    try:
        if key == "controller":  # a delayed controller keeps its tau, another takes 0.5
            kind = scenario.controller_kind
            tau = (kind.tau if kind.name == "delayed" else 0.5) if value == "delayed" else 0.0
            return replace(scenario, controller_kind=ControllerKind(value, tau))
        for path in _OVERRIDES[key]:
            parsed = _PARSE[field_type(Scenario, path)](value)
            scenario = replace_path(scenario, path, parsed)
        return scenario
    except SimulationError:
        raise
    except VoltVarError as exc:  # a value of the right type that the scenario's parts reject
        raise SimulationError(f"bad value for override {key}: {value!r} ({exc})") from exc
    except ValueError as exc:
        raise SimulationError(f"bad value for override {key}: {value!r}") from exc
