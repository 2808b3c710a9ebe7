"""Seeded inputs for the benchmark workloads.

`ladder_feeder` builds a radial feeder of about `n` buses with the
per-unit values of the bundled `feeder30`: trunk and lateral segments,
0.05+j0.0175 pu loads (0.075+j0.025 on every fourth bus), PV units of
0.165 pu rating on every third bus.  Loads, PV ratings and segment
impedances are all scaled by 30/n, so the path impedance and the total
load stay those of `feeder30` and the voltage profile stays in band as
n grows.  A few normally-open laterals hang off the trunk for switch
events.  Every generated feeder is solved once with no control; one
whose base case does not converge or leaves 0.95-1.05 pu raises.

The workload builders return plain dicts (feeder JSON, scenario JSON);
the program under test only ever sees those files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

# feeder30 per-unit values
TRUNK_Z = (0.0024, 0.0072)
LATERAL_Z = (0.0032, 0.008)
LOAD = (0.05, 0.0175)
HEAVY_LOAD = (0.075, 0.025)
PV_RATING = 0.165
PV_OUTPUT = 0.15
V_SUB = 1.02
V_BAND = (0.95, 1.05)

# outer-loop constants of the feeder30 presets
ADAPTIVE_30 = {
    "k_d": 2.0, "eps_sse": 0.005, "eps_vf": 0.4, "vf_lim": 1.0,
    "vf_lim_bar": 2.0, "delta_vf": 0.1, "delta_vf_bar": 0.25,
    "m_init": 0.8, "m_floor": 0.1,
}


class GeneratorError(RuntimeError):
    """A generated feeder failed its no-control base-case check."""


def ladder_feeder(n: int, seed: int, open_laterals: int = 0) -> dict:
    """Radial feeder JSON with about `n` buses (exactly `n` energized
    buses plus the slack, and `open_laterals` dark laterals of 4 buses
    behind normally-open switches)."""
    rng = np.random.default_rng(seed)
    scale = 30.0 / n
    buses = [{"id": "sub", "kind": "slack", "base_voltage": 12470.0, "v_set": V_SUB}]
    lines = []
    pv_units = []

    def add_bus(bus_id: str, heavy: bool) -> None:
        p, q = HEAVY_LOAD if heavy else LOAD
        jitter = rng.uniform(0.8, 1.2)
        buses.append({
            "id": bus_id, "kind": "load", "base_voltage": 12470.0,
            "load_p": p * jitter * scale, "load_q": q * jitter * scale,
        })

    def add_line(a: str, b: str, z: tuple[float, float], **extra) -> None:
        jitter = rng.uniform(0.9, 1.1)
        lines.append({"from": a, "to": b, "resistance": z[0] * jitter * scale,
                      "reactance": z[1] * jitter * scale, **extra})

    # half the buses on the trunk, the rest on laterals of 3-7 buses
    # branching from random trunk buses
    n_trunk = n // 2
    trunk = [f"t{i:04d}" for i in range(1, n_trunk + 1)]
    prev = "sub"
    for i, b in enumerate(trunk):
        add_bus(b, heavy=(i % 4 == 3))
        add_line(prev, b, TRUNK_Z)
        prev = b
    placed = n_trunk
    k = 0
    while placed < n:
        length = min(int(rng.integers(3, 8)), n - placed)
        prev = trunk[int(rng.integers(0, n_trunk))]
        for i in range(length):
            b = f"l{k:03d}_{i}"
            add_bus(b, heavy=False)
            add_line(prev, b, LATERAL_Z)
            prev = b
        placed += length
        k += 1

    load_ids = [b["id"] for b in buses[1:]]
    for i, b in enumerate(load_ids):
        if i % 3 == 2:
            pv_units.append({"bus": b, "rating_s": PV_RATING * scale,
                             "p_out": PV_OUTPUT * scale})

    # normally-open laterals: dark as built, energized by switch events
    for s in range(open_laterals):
        root = trunk[(s + 1) * n_trunk // (open_laterals + 1)]
        prev = root
        for i in range(4):
            b = f"nol{s}_{i}"
            add_bus(b, heavy=False)
            if i == 0:
                add_line(prev, b, LATERAL_Z, id=f"sw{s}", switch_state="open")
            else:
                add_line(prev, b, LATERAL_Z)
            prev = b

    feeder = {"name": f"ladder{n}_s{seed}", "buses": buses, "lines": lines,
              "pv_units": pv_units}
    check_base_case(feeder, [f"sw{s}" for s in range(open_laterals)])
    return feeder


def check_base_case(feeder: dict, switches: list[str]) -> None:
    """Solve the feeder with PV at its file output and no var control,
    as built and with every normally-open switch closed; raise unless
    each converges with every energized bus in the 0.95-1.05 pu band."""
    from voltvar_sim.feeder import apply_topology_event, feeder_from_dict, solve_power_flow

    model = feeder_from_dict(feeder)
    models = [model]
    closed = model
    for sw in switches:
        closed = apply_topology_event(closed, sw, "closed")
    if switches:
        models.append(closed)
    for m in models:
        sol = solve_power_flow(m)
        if not sol.converged:
            raise GeneratorError(f"{feeder['name']}: base case did not converge")
        lo, hi = float(np.min(sol.v_mag)), float(np.max(sol.v_mag))
        if lo < V_BAND[0] or hi > V_BAND[1]:
            raise GeneratorError(
                f"{feeder['name']}: base-case voltage {lo:.4f}-{hi:.4f} pu "
                f"outside {V_BAND[0]}-{V_BAND[1]}"
            )


def _telegraph_events(pv_buses: list[str], tick: int) -> tuple[dict, list[dict]]:
    series = {f"tel{i}": {"telegraph": {"dwell": 30.0, "low": 0.2, "high": 1.0}}
              for i in range(len(pv_buses))}
    events = [{"tick": tick, "kind": "intermittency", "series_id": f"tel{i}",
               "buses": [b]} for i, b in enumerate(pv_buses)]
    return series, events


def ladder_scenario(feeder: dict, seed: int, horizon: int, switch_every: int,
                    load_steps: tuple[tuple[int, float], ...]) -> dict:
    """Adaptive-control scenario on a ladder: per-unit telegraph
    intermittency from tick 5, a normally-open lateral closed and
    reopened in turn every `switch_every` ticks, and load-scale steps."""
    pv_buses = [u["bus"] for u in feeder["pv_units"]]
    switches = sorted(ln["id"] for ln in feeder["lines"] if ln.get("switch_state") == "open")
    scale = feeder["pv_units"][0]["rating_s"] / PV_RATING
    series, events = _telegraph_events(pv_buses, 5)
    state = {sw: "open" for sw in switches}
    for i, tick in enumerate(range(switch_every, horizon, switch_every)):
        sw = switches[(i // 2) % len(switches)]
        state[sw] = "closed" if state[sw] == "open" else "open"
        events.append({"tick": tick, "kind": "switch", "switch_id": sw, "state": state[sw]})
    for tick, factor in load_steps:
        events.append({"tick": tick, "kind": "load_scale", "factor": factor})
    events.sort(key=lambda e: e["tick"])
    return {
        "name": f"ladder_s{seed}", "horizon": horizon, "t_outer": 10, "seed": seed,
        "mu": 1.0,
        "controller": {"kind": "adaptive", "slope": 3.0},
        "adaptive": ADAPTIVE_30,
        "pv_profile": PV_OUTPUT * scale,
        "series": series, "events": events,
    }


def linear_scenario(feeder: dict, seed: int, horizon: int) -> dict:
    """Adaptive-control scenario for the linearized engine: per-unit
    telegraph intermittency from tick 5, a set-point step at a third of
    the horizon and a substation step at two thirds."""
    pv_buses = [u["bus"] for u in feeder["pv_units"]]
    scale = feeder["pv_units"][0]["rating_s"] / PV_RATING
    series, events = _telegraph_events(pv_buses, 5)
    events.append({"tick": horizon // 3, "kind": "setpoint", "mu": 0.99})
    events.append({"tick": 2 * horizon // 3, "kind": "substation_voltage", "v_pu": 1.03})
    events.sort(key=lambda e: e["tick"])
    return {
        "name": f"linear_s{seed}", "horizon": horizon, "t_outer": 10, "seed": seed,
        "mu": 1.0,
        "controller": {"kind": "adaptive", "slope": 3.0},
        "adaptive": ADAPTIVE_30,
        "pv_profile": PV_OUTPUT * scale,
        "series": series, "events": events,
    }


def write_json(doc: dict, path: Path) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n", "utf-8")
    return path
