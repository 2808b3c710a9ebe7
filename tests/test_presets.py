"""Preset regression: every bundled preset on the full engine reproduces
the metrics and outer-loop dispatches recorded before the engine moved to
array controller state.  Compared at rel 1e-9, not bit for bit, so the
check does not depend on the BLAS build.  The trace's parameter log, read
back as records, equals the records split unit by unit from the blocks
the engine stores, bit for bit, in the order of updates recorded before
the log became arrays.  A `controller` override keeps a delayed
controller's tau."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from voltvar_sim.control import ControllerKind
from voltvar_sim.presets import PRESETS, get_preset, override_scenario
from voltvar_sim.sim import metrics, run

from oracles import param_dispatches, param_records_per_unit

# preset: (MSSE %, FC, VVI, diverged ticks, param dispatches,
#          last dispatch as (tick, bus, (m_p, q_p, q_min_p, q_max_p,
#          v_min_p, v_max_p, mu)) or None); FC counts against vf_lim_bar
# over t_outer windows, as the `run` command does
RECORDED = {
    "fig3a": (1.7747648599062427, 0, 0, 0, 0, None),
    "fig3b": (5.3443912727044545, 14, 241, 0, 0, None),
    "fig3c": (12.255538425770611, 25, 357, 0, 0, None),
    "fig10a": (0.42925803850987754, 0, 0, 0, 10,
               (120, "bus3", (2.0, -0.19168877134003948, -0.41243181254602523,
                              0.41243181254602523, 0.6979397080569676,
                              1.110371520602993, 1.0))),
    "fig10b": (0.38600603172437553, 0, 0, 0, 17,
               (190, "bus3", (2.0, -0.025729780501658472, -0.9734988443752771,
                              0.9734988443752771, 0.5003856875615322,
                              1.4738845319368092, 1.0))),
    "fig10c": (0.5136386400921724, 0, 0, 0, 28,
               (190, "bus4", (1.0, -0.038413240300894366, -0.41243181254602523,
                              0.41243181254602523, 0.5491549471530803,
                              1.3740185722451308, 1.0))),
    "setpoint_step": (0.25403886397315034, 7, 0, 0, 290,
                      (290, "l14", (0.75, -0.017838061294252278, -0.0687386354243377,
                                    0.0687386354243377, 0.8445644043752133,
                                    1.0278674321734471, 0.96))),
    "intermittency": (0.35831067444345094, 0, 0, 0, 690,
                      (690, "l14", (1.0, 0.042992869720216854, -0.13829316685939333,
                                    0.13829316685939333, 0.9046997028608235,
                                    1.18128603657961, 1.0))),
    "cloud_cover": (0.26869536934377025, 0, 0, 0, 390,
                    (390, "l14", (0.9, 0.064270720075373, -0.16345871038277526,
                                  0.16345871038277526, 0.8897911218806641,
                                  1.2530327005090536, 1.0))),
    "substation_surge": (0.35439808931425454, 0, 501, 0, 390,
                         (390, "l14", (0.7000000000000001, -0.03164554651162192,
                                       -0.0687386354243377, 0.0687386354243377,
                                       0.856594025805772, 1.0529901270181654, 1.0))),
}


# preset: the first 16 hex digits of the SHA-256 of the repr of the list
# of (tick, bus) of its outer-loop dispatches, recorded when the engine
# still built one record per unit as it ran
DISPATCH_ORDER = {
    "cloud_cover": "a226138f53810b0b",
    "fig10a": "60627c6779232e1f",
    "fig10b": "0e853f2178732979",
    "fig10c": "7d6c85cabf9f76a6",
    "fig3a": "4f53cda18c2baa0c",
    "fig3b": "4f53cda18c2baa0c",
    "fig3c": "4f53cda18c2baa0c",
    "intermittency": "b9294eac23eb33c3",
    "setpoint_step": "07ba22f2cac1a0d7",
    "substation_surge": "a226138f53810b0b",
}


def test_every_preset_recorded():
    assert sorted(RECORDED) == sorted(PRESETS) == sorted(DISPATCH_ORDER)


@pytest.mark.parametrize("name", sorted(DISPATCH_ORDER))
def test_param_dispatches_match_per_unit_records(name):
    # the array log read back as records equals the records split unit by
    # unit from the engine's blocks, to the bit (repr tells -0.0 from 0.0);
    # the values depend on the BLAS build, the order of updates does not
    feeder, scenario = get_preset(name)
    want, trace = param_records_per_unit(scenario, feeder)
    got = param_dispatches(trace)
    assert got == tuple(want)
    assert repr(got) == repr(tuple(want))
    order = repr([(d.tick, d.bus) for d in got]).encode()
    assert hashlib.sha256(order).hexdigest()[:16] == DISPATCH_ORDER[name]


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_preset_matches_recorded(name):
    msse, fc, vvi, diverged, n_dispatches, last = RECORDED[name]
    feeder, scenario = get_preset(name)
    trace = run(scenario, feeder)
    rep = metrics(trace, scenario.adaptive.vf_lim_bar)
    assert rep.msse == pytest.approx(msse, rel=1e-9)
    assert (rep.fc, rep.vvi) == (fc, vvi)
    assert sum(1 for f in trace.flags if f) == diverged
    assert len(param_dispatches(trace)) == n_dispatches
    if last is None:
        return
    tick, bus, values = last
    d = param_dispatches(trace)[-1]
    assert (d.tick, d.bus) == (tick, bus)
    p = d.params
    got = (p.m_p, p.q_p, p.q_min_p, p.q_max_p, p.v_min_p, p.v_max_p, p.mu)
    assert got == pytest.approx(values, rel=1e-9)


@pytest.mark.parametrize("kind, tau", [
    (ControllerKind("delayed", 0.0), 0.0),
    (ControllerKind("delayed", 0.9), 0.9),
    (ControllerKind("adaptive"), 0.5),
    (ControllerKind("conventional"), 0.5),
])
def test_controller_override_keeps_a_delayed_tau(kind, tau):
    _, scenario = get_preset("fig3b")
    switched = override_scenario(replace(scenario, controller_kind=kind), "controller", "delayed")
    assert switched.controller_kind == ControllerKind("delayed", tau)
