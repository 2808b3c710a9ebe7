"""Property over whole scenarios: a random scenario document on the 4-bus
feeder either raises SimulationError or runs to its horizon, on the full
model and on its linearized twin.  A completed run is finite on every
energized bus, NaN on dark ones, unless the tick is flagged pf_diverged."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voltvar_sim.sim import SimulationError, linearize, run, scenario_from_dict

PV_BUSES = ("bus3", "bus4")
ALWAYS_ENERGIZED = ("bus1", "bus2", "bus3")

floats = st.floats


def _buses():
    return st.none() | st.lists(st.sampled_from(PV_BUSES + ("bus9",)), min_size=1,
                                max_size=2, unique=True)


def _event(horizon: int):
    tick = st.integers(0, horizon - 1)
    kinds = [
        st.fixed_dictionaries({"kind": st.just("substation_voltage"),
                               "v_pu": floats(0.45, 1.2)}),
        st.fixed_dictionaries({"kind": st.just("setpoint"), "mu": floats(0.9, 1.1)},
                              optional={"buses": _buses()}),
        st.fixed_dictionaries({"kind": st.just("cloud_cover"), "scale": floats(0.0, 1.5)},
                              optional={"buses": _buses()}),
        st.fixed_dictionaries({"kind": st.just("intermittency"),
                               "series_id": st.sampled_from(["tel", "raw", "none"])},
                              optional={"buses": _buses()}),
        st.fixed_dictionaries({"kind": st.just("switch"), "switch_id": st.just("switch1"),
                               "state": st.sampled_from(["open", "closed"])}),
        st.fixed_dictionaries({"kind": st.just("load_scale"), "factor": floats(0.0, 3.0)}),
    ]
    return st.tuples(tick, st.one_of(kinds)).map(lambda te: {"tick": te[0], **te[1]})


@st.composite
def scenario_docs(draw) -> dict:
    t_outer = draw(st.integers(2, 12))
    horizon = draw(st.integers(t_outer, 50))
    steps = st.lists(st.tuples(st.integers(0, horizon), floats(0.0, 1.2)), max_size=3)
    profile = draw(floats(0.0, 1.2) | steps | st.dictionaries(
        st.sampled_from(PV_BUSES), floats(0.0, 1.2) | steps, max_size=2))
    events = sorted(draw(st.lists(_event(horizon), max_size=6)), key=lambda e: e["tick"])
    return {
        "horizon": horizon,
        "t_outer": t_outer,
        "seed": draw(st.integers(0, 2**16)),
        "mu": draw(floats(0.95, 1.05)),
        "controller": {
            "kind": draw(st.sampled_from(["none", "conventional", "delayed", "adaptive"])),
            "tau": draw(floats(0.0, 0.95)),
            "slope": draw(floats(0.0, 8.0)),
            "deadband": draw(floats(0.0, 0.05)),
        },
        "adaptive": {
            "k_d": draw(floats(0.1, 8.0)),
            "m_init": draw(floats(0.1, 4.0)),
            "signed_flicker": draw(st.booleans()),
        },
        "recompute_droop_capacity": draw(st.booleans()),
        "pv_profile": profile,
        "series": {
            "tel": {"telegraph": {"dwell": draw(floats(1.0, 20.0)),
                                  "low": draw(floats(0.0, 0.5)),
                                  "high": draw(floats(0.5, 1.0))}},
            "raw": draw(st.lists(floats(0.0, 1.2), max_size=8)),
        },
        "events": events,
    }


@pytest.fixture(scope="module")
def ieee4_linear(ieee4):
    return linearize(ieee4)


def _energized(doc: dict, bus_ids: tuple[str, ...]) -> np.ndarray:
    """Per tick and bus: energized under the document's switch events."""
    closed, out = False, np.zeros((doc["horizon"], len(bus_ids)), dtype=bool)
    pending = [e for e in doc["events"] if e["kind"] == "switch"]
    for t in range(doc["horizon"]):
        for e in (e for e in pending if e["tick"] == t):
            closed = e["state"] == "closed"
        out[t] = [b in ALWAYS_ENERGIZED or closed for b in bus_ids]
    return out


@settings(max_examples=60, deadline=None)
@given(doc=scenario_docs())
def test_scenario_raises_or_runs_to_horizon(doc, ieee4, ieee4_linear):
    for model in (ieee4, ieee4_linear):
        try:
            trace = run(scenario_from_dict(doc), model)
        except SimulationError:
            continue
        assert trace.horizon == doc["horizon"]
        assert np.all(np.isfinite(trace.q_inj)) and np.all(np.isfinite(trace.p_out))
        ok = np.array([f == "" for f in trace.flags])
        live = _energized(doc, trace.bus_ids)
        v = trace.voltages
        assert np.all(np.isfinite(v[ok][live[ok]]))
        assert np.all(np.isnan(v[ok][~live[ok]]))
