"""Preset regression: every bundled preset on the full engine reproduces
the metrics and outer-loop dispatches recorded before the engine moved to
array controller state.  Compared at rel 1e-9, not bit for bit, so the
check does not depend on the BLAS build."""

from __future__ import annotations

import pytest

from voltvar_sim.presets import PRESETS, get_preset
from voltvar_sim.sim import MetricsLimits, metrics, run

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


def test_every_preset_recorded():
    assert sorted(RECORDED) == sorted(PRESETS)


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_preset_matches_recorded(name):
    msse, fc, vvi, diverged, n_dispatches, last = RECORDED[name]
    feeder, scenario = get_preset(name)
    trace = run(scenario, feeder)
    rep = metrics(trace, limits=MetricsLimits(vf_lim=scenario.adaptive.vf_lim_bar,
                                              window=scenario.t_outer))
    assert rep.msse == pytest.approx(msse, rel=1e-9)
    assert (rep.fc, rep.vvi) == (fc, vvi)
    assert sum(1 for f in trace.flags if f) == diverged
    assert len(trace.param_dispatches) == n_dispatches
    if last is None:
        return
    tick, bus, values = last
    d = trace.param_dispatches[-1]
    assert (d.tick, d.bus) == (tick, bus)
    p = d.params
    got = (p.m_p, p.q_p, p.q_min_p, p.q_max_p, p.v_min_p, p.v_max_p, p.mu)
    assert got == pytest.approx(values, rel=1e-9)
