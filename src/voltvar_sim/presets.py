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
from dataclasses import dataclass, fields, replace
from importlib.resources import files
from typing import Callable

from .adaptation import AdaptiveConfig
from .control import ControllerKind
from .feeder import FeederModel, feeder_from_dict
from .sim import (
    CloudCover,
    Intermittency,
    Scenario,
    SetpointChange,
    SimulationError,
    SubstationVoltage,
    SwitchEvent,
    TelegraphSpec,
)

BUILTIN_FEEDERS = ("ieee4_mod", "feeder30")


def load_builtin_feeder(name: str) -> FeederModel:
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

_SOLAR_AT_20 = {"bus3": ((20, 0.9),), "bus4": ((20, 0.9),)}


def _fig3a(kind: ControllerKind, name: str = "fig3a") -> Scenario:
    return Scenario(
        horizon=130,
        t_outer=10,
        controller_kind=kind,
        mu=1.0,
        droop_slope=1.0,
        adaptive=_ADAPTIVE_4BUS,
        pv_profile=_SOLAR_AT_20,
        events=((80, SubstationVoltage(1.05)),),
        name=name,
    )


def _fig3b(kind: ControllerKind, name: str = "fig3b") -> Scenario:
    return Scenario(
        horizon=200,
        t_outer=10,
        controller_kind=kind,
        mu=1.0,
        droop_slope=6.0,
        adaptive=_ADAPTIVE_4BUS,
        pv_profile=_SOLAR_AT_20,
        events=((80, CloudCover(0.2, ("bus3",))),),
        recompute_droop_capacity=True,
        name=name,
    )


def _fig3c(kind: ControllerKind, name: str = "fig3c") -> Scenario:
    return Scenario(
        horizon=200,
        t_outer=10,
        controller_kind=kind,
        mu=1.0,
        droop_slope=6.0,
        adaptive=_ADAPTIVE_4BUS,
        pv_profile=_SOLAR_AT_20,
        events=((80, SwitchEvent("switch1", "closed")),),
        name=name,
    )


def _setpoint_step(kind: ControllerKind) -> Scenario:
    return Scenario(
        horizon=300,
        t_outer=10,
        controller_kind=kind,
        mu=1.0,
        droop_slope=3.0,
        adaptive=_ADAPTIVE_30,
        pv_profile=0.15,
        events=((150, SetpointChange(0.96)),),
        name="setpoint_step",
    )


def _intermittency(kind: ControllerKind) -> Scenario:
    feeder = load_builtin_feeder("feeder30")
    series = {f"tel{i}": TelegraphSpec(dwell=30.0, low=0.2, high=1.0) for i in range(10)}
    events = tuple(
        (30, Intermittency(f"tel{i}", (feeder.pv_buses[i],))) for i in range(10)
    )
    return Scenario(
        horizon=700,
        t_outer=10,
        controller_kind=kind,
        mu=1.0,
        droop_slope=3.0,
        adaptive=_ADAPTIVE_30,
        pv_profile=0.15,
        series=series,
        events=events,
        seed=7,
        name="intermittency",
    )


def _cloud_cover(kind: ControllerKind) -> Scenario:
    return Scenario(
        horizon=400,
        t_outer=10,
        controller_kind=kind,
        mu=1.0,
        droop_slope=3.0,
        adaptive=_ADAPTIVE_30,
        pv_profile=0.15,
        events=((150, CloudCover(0.15)),),
        recompute_droop_capacity=True,
        name="cloud_cover",
    )


def _substation_surge(kind: ControllerKind) -> Scenario:
    return Scenario(
        horizon=400,
        t_outer=10,
        controller_kind=kind,
        mu=1.0,
        droop_slope=3.0,
        adaptive=_ADAPTIVE_30,
        pv_profile=0.15,
        events=((150, SubstationVoltage(1.07)),),
        name="substation_surge",
    )


@dataclass(frozen=True)
class PresetDef:
    description: str
    feeder: str
    build: Callable[[], Scenario]


PRESETS: dict[str, PresetDef] = {
    "fig3a": PresetDef(
        "4-bus, conventional droop m=1, substation 1.03->1.05 at t=80",
        "ieee4_mod",
        lambda: _fig3a(ControllerKind.conventional()),
    ),
    "fig3b": PresetDef(
        "4-bus, delayed droop m=6 tau=0.9, sudden cloud cover at t=80",
        "ieee4_mod",
        lambda: _fig3b(ControllerKind.delayed(0.9)),
    ),
    "fig3c": PresetDef(
        "4-bus, delayed droop m=6 tau=0.9, switch closes at t=80",
        "ieee4_mod",
        lambda: _fig3c(ControllerKind.delayed(0.9)),
    ),
    "fig10a": PresetDef(
        "4-bus, adaptive control, substation 1.03->1.05 at t=80",
        "ieee4_mod",
        lambda: _fig3a(ControllerKind.adaptive(), name="fig10a"),
    ),
    "fig10b": PresetDef(
        "4-bus, adaptive control, sudden cloud cover at t=80",
        "ieee4_mod",
        lambda: _fig3b(ControllerKind.adaptive(), name="fig10b"),
    ),
    "fig10c": PresetDef(
        "4-bus, adaptive control, switch closes at t=80",
        "ieee4_mod",
        lambda: _fig3c(ControllerKind.adaptive(), name="fig10c"),
    ),
    "setpoint_step": PresetDef(
        "30-bus, adaptive control, set-point 1.0->0.96 at t=150",
        "feeder30",
        lambda: _setpoint_step(ControllerKind.adaptive()),
    ),
    "intermittency": PresetDef(
        "30-bus, adaptive control, per-unit telegraph cloud intermittency",
        "feeder30",
        lambda: _intermittency(ControllerKind.adaptive()),
    ),
    "cloud_cover": PresetDef(
        "30-bus, adaptive control, fleet-wide cloud cover at t=150",
        "feeder30",
        lambda: _cloud_cover(ControllerKind.adaptive()),
    ),
    "substation_surge": PresetDef(
        "30-bus, adaptive control, substation 1.02->1.07 at t=150",
        "feeder30",
        lambda: _substation_surge(ControllerKind.adaptive()),
    ),
}


def list_presets() -> list[tuple[str, str]]:
    return [(name, p.description) for name, p in PRESETS.items()]


def get_preset(name: str) -> tuple[FeederModel, Scenario]:
    key = name.removeprefix("presets/")
    if key not in PRESETS:
        raise SimulationError(
            f"unknown preset {name!r}; run the presets command for the catalog"
        )
    p = PRESETS[key]
    return load_builtin_feeder(p.feeder), p.build()


_CONTROLLER_NAMES = ("none", "conventional", "delayed", "adaptive")


def override_scenario(scenario: Scenario, key: str, value: str) -> Scenario:
    """Apply one documented `key=value` override to a scenario.

    Keys: controller, m, tau, deadband, k_d, T, eps_sse, eps_vf, vf_lim,
    vf_lim_bar, delta_vf, delta_vf_bar, m_init, m_floor, horizon, seed,
    mu, dt_inner, recompute_droop_capacity.
    """
    try:
        if key == "controller":
            if value not in _CONTROLLER_NAMES:
                raise SimulationError(f"unknown controller {value!r}")
            tau = scenario.controller_kind.tau if value == "delayed" else 0.0
            if value == "delayed" and tau == 0.0:
                tau = 0.5
            return replace(scenario, controller_kind=ControllerKind(value, tau=tau))
        if key == "m":
            v = float(value)
            cfg = replace(scenario.adaptive, m_init=v)
            return replace(scenario, droop_slope=v, adaptive=cfg)
        if key == "tau":
            kind = scenario.controller_kind
            return replace(
                scenario, controller_kind=ControllerKind(kind.name, tau=float(value))
            )
        if key == "deadband":
            return replace(scenario, droop_deadband=float(value))
        if key == "T":
            return replace(scenario, t_outer=int(value))
        if key in [f.name for f in fields(AdaptiveConfig) if f.type == "float"]:
            cfg = replace(scenario.adaptive, **{key: float(value)})
            return replace(scenario, adaptive=cfg)
        if key == "horizon":
            return replace(scenario, horizon=int(value))
        if key == "seed":
            return replace(scenario, seed=int(value))
        if key == "mu":
            return replace(scenario, mu=float(value))
        if key == "dt_inner":
            return replace(scenario, dt_inner=float(value))
        if key == "recompute_droop_capacity":
            if value.lower() not in ("true", "false", "0", "1"):
                raise SimulationError("expected a boolean")
            return replace(
                scenario, recompute_droop_capacity=value.lower() in ("true", "1")
            )
    except SimulationError:
        raise
    except ValueError as exc:
        raise SimulationError(f"bad value for override {key}: {value!r}") from exc
    raise SimulationError(f"unknown override key {key!r}")
