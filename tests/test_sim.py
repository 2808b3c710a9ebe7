from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voltvar_sim import adaptation
from voltvar_sim import feeder as feeder_module
from voltvar_sim import results as results_module
from voltvar_sim import sim as sim_module
from voltvar_sim.adaptation import AdaptiveConfig
from voltvar_sim.control import (
    AdaptiveParams,
    ControlError,
    ControllerKind,
    DroopParams,
    droop_dispatch,
    delayed_dispatch,
)
from voltvar_sim.feeder import (
    Bus,
    FeederError,
    FeederModel,
    Line,
    PvUnit,
    apply_topology_event,
    feeder_from_dict,
    feeder_to_dict,
    sensitivity_matrix,
    solve_power_flow,
    voltage_sensitivities,
)
from voltvar_sim.presets import PRESETS, get_preset
from voltvar_sim.results import (
    ANSI_RANGE_A,
    ANSI_RANGE_B,
    ParamLog,
    SimulationTrace,
    _band_violations,
    metrics,
    read_trace_csv,
    write_params_csv,
    write_trace_csv,
)
from voltvar_sim.scenario import (
    CloudCover,
    Intermittency,
    LoadScale,
    Scenario,
    SetpointChange,
    SimulationError,
    SubstationVoltage,
    SwitchEvent,
    TelegraphSpec,
    scenario_from_dict,
    scenario_to_dict,
    telegraph_series,
)
from voltvar_sim.sim import SimulationEngine, _materialize_profile, linearize, run

from oracles import (
    band_violation_counts,
    band_violation_runs,
    fd_sensitivities,
    injection_array,
    outer_boundary_reference,
    param_dispatches,
    voltage_at,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py)
import tracer  # noqa: E402  (perfbench/tracer.py)


def _scenario(kind, horizon=100, slope=1.0, events=(), profile=0.9, **kw):
    return Scenario(
        horizon=horizon,
        t_outer=10,
        controller_kind=kind,
        mu=1.0,
        droop_slope=slope,
        adaptive=AdaptiveConfig(k_d=4.0, eps_vf=0.2, vf_lim=1.0, vf_lim_bar=3.0),
        pv_profile=profile,
        events=events,
        **kw,
    )


class TestEngineBasics:
    def test_no_controller_no_events_constant_voltages(self, ieee4):
        trace = run(_scenario(ControllerKind("none"), horizon=20), ieee4)
        v3 = trace.bus_voltage("bus3")
        assert np.all(np.abs(v3 - v3[0]) < 1e-12)
        assert np.all(trace.q_inj == 0.0)

    def test_none_controller_equals_repeated_base_solve(self, ieee4):
        trace = run(_scenario(ControllerKind("none"), horizon=10), ieee4)
        base = solve_power_flow(ieee4)  # file stores p_out=0.9 on both units
        # only bus3 generates in the trace (bus4 dark), same injection as file
        assert trace.bus_voltage("bus3")[0] == pytest.approx(
            voltage_at(base, "bus3"), abs=1e-9
        )

    def test_conservative_slope_settles(self, ieee4):
        trace = run(_scenario(ControllerKind("conventional"), slope=1.0), ieee4)
        dq = np.abs(np.diff(trace.q_inj[:, 0]))
        assert np.all(dq[60:] < 1e-8)
        # fixed-point certificate: q = f(h(q)) at the recorded equilibrium
        q_bar = trace.q_inj[-1, 0]
        sol = solve_power_flow(ieee4, injections=injection_array(ieee4, {"bus3": (0.0, q_bar)}))
        params = DroopParams.from_slope(1.0, 0.0, 1.0, -0.4124, 0.4124)
        assert droop_dispatch(params, voltage_at(sol, "bus3")) == pytest.approx(
            q_bar, abs=1e-6
        )

    def test_supercritical_slope_oscillates(self, ieee4):
        trace = run(_scenario(ControllerKind("conventional"), slope=6.0), ieee4)
        v3 = trace.bus_voltage("bus3")[-20:]
        assert v3.max() - v3.min() > 0.01

    def test_inverters_idle_until_generating(self, ieee4):
        trace = run(
            _scenario(ControllerKind("conventional"), profile={"bus3": ((20, 0.9),)}),
            ieee4,
        )
        assert np.all(trace.q_inj[:20, 0] == 0.0)
        assert np.any(trace.q_inj[25:, 0] != 0.0)

    @pytest.mark.parametrize(
        "points",
        [(), ((20, 0.9),), ((0, 0.2), (5, 0.7), (29, 1.0)), ((8, 0.5), (2, 0.3))],
    )
    def test_step_profile_matches_loop_reference(self, points):
        # the loop form: walk the sorted breakpoints tick by tick
        def reference(points, horizon):
            out, level, pts, k = np.zeros(horizon), 0.0, sorted(points), 0
            for t in range(horizon):
                while k < len(pts) and pts[k][0] <= t:
                    level, k = pts[k][1], k + 1
                out[t] = level
            return out

        prof = _materialize_profile(points, ("a", "b"), 30, ())
        assert prof[:, 0].tobytes() == reference(points, 30).tobytes()
        assert prof[:, 1].tobytes() == prof[:, 0].tobytes()

    def test_horizon_exhaustion_raises(self, ieee4):
        eng = SimulationEngine(_scenario(ControllerKind("none"), horizon=12), ieee4)
        for _ in range(11):
            eng.step_inner()
        with pytest.raises(SimulationError):
            eng.step_inner()


class TestEvents:
    def test_substation_step_shifts_voltage(self, ieee4):
        trace = run(
            _scenario(
                ControllerKind("none"), events=((50, SubstationVoltage(1.05)),)
            ),
            ieee4,
        )
        v3 = trace.bus_voltage("bus3")
        assert v3[49] < v3[50]
        assert v3[50] - v3[49] == pytest.approx(0.02, abs=0.005)

    def test_switch_event_energizes_bus4(self, ieee4):
        trace = run(
            _scenario(
                ControllerKind("none"), events=((30, SwitchEvent("switch1", "closed")),)
            ),
            ieee4,
        )
        v4 = trace.bus_voltage("bus4")
        assert np.all(np.isnan(v4[:30]))
        assert np.all(np.isfinite(v4[30:]))

    @pytest.mark.parametrize("kind", [
        ControllerKind("conventional"), ControllerKind("delayed", 0.5), ControllerKind("adaptive"),
    ], ids=lambda k: k.name)
    def test_unit_stops_dispatching_on_the_tick_its_bus_goes_dark(self, ieee4_closed, kind):
        # the tick's voltages are read before the switch acts, so on tick 5
        # bus4's unit still sees a lit bus; it must dispatch nothing there
        events = ((5, SwitchEvent("switch1", "open")), (9, SwitchEvent("switch1", "closed")))
        trace = run(_scenario(kind, horizon=16, events=events, profile=0.5), ieee4_closed)
        v4, q4 = trace.bus_voltage("bus4"), trace.q_inj[:, trace.unit_buses.index("bus4")]
        assert np.all(np.isnan(v4[5:9])) and np.all(np.isfinite(v4[9:]))
        assert np.all(q4[1:5] != 0.0)
        assert np.all(q4[5:10] == 0.0)  # dark, then lit but not yet measured
        assert np.all(q4[10:] != 0.0)

    def test_tick0_substation_event_applies(self):
        model, sc = get_preset("intermittency")
        sc = replace(sc, events=((0, SubstationVoltage(1.05)),) + sc.events)
        v_slack = run(sc, model).bus_voltage(model.slack_id)
        assert np.all(v_slack[:3] == 1.05)

    def test_tick0_switch_event_compiles_before_solving(self, ieee4):
        trace = run(
            _scenario(
                ControllerKind("none"), events=((0, SwitchEvent("switch1", "closed")),)
            ),
            ieee4,
        )
        assert np.all(np.isfinite(trace.bus_voltage("bus4")))

    @pytest.mark.parametrize("switch_id, message", [
        ("nope", "no such switch: nope"),
        ("bus1-bus2", "line bus1-bus2 is not a switch"),  # a plain line's name
    ])
    def test_bad_switch_id_fails_before_the_first_solve(self, ieee4, monkeypatch,
                                                         switch_id, message):
        calls = []
        monkeypatch.setattr(sim_module, "solve_power_flow", lambda *a, **kw: calls.append(a))
        scenario = _scenario(ControllerKind("none"), events=((99, SwitchEvent(switch_id, "open")),))
        with pytest.raises(SimulationError, match=f"^{message}$"):
            SimulationEngine(scenario, ieee4)
        assert calls == []
        with pytest.raises(FeederError, match=f"^{message}$"):  # the text the tick would raise
            apply_topology_event(ieee4, switch_id, "open")

    def test_network_compiled_once_per_topology(self, ieee4, monkeypatch):
        model = feeder_from_dict(feeder_to_dict(ieee4))  # not compiled yet
        builds = []
        compile_ = feeder_module._compile
        monkeypatch.setattr(feeder_module, "_compile", lambda m: builds.append(m) or compile_(m))
        events = (
            (5, SubstationVoltage(1.03)),
            (10, LoadScale(1.2)),
            (15, SwitchEvent("switch1", "closed")),
            (20, SubstationVoltage(1.0)),
            (25, SwitchEvent("switch1", "open")),
        )
        engine = SimulationEngine(
            _scenario(ControllerKind("none"), horizon=30, events=events), model
        )
        assert len(builds) == 1
        assert engine.model.network is model.network  # the engine's copy shares it
        while engine.tick < 15:
            engine.step_inner()
        assert len(builds) == 1
        engine.step_inner()
        assert len(builds) == 2
        trace = engine.run()
        assert len(builds) == 3
        assert np.all(np.isnan(trace.bus_voltage("bus4")[25:]))

    def test_one_solve_per_tick_through_sim_namespace(self, ieee4, monkeypatch):
        # perfbench's tracer wraps `sim.solve_power_flow` by name and reads
        # `v_init` from its keywords to count cold starts
        calls = []
        solve = sim_module.solve_power_flow
        monkeypatch.setattr(
            sim_module, "solve_power_flow",
            lambda *a, **kw: calls.append(kw) or solve(*a, **kw),
        )
        events = ((10, SwitchEvent("switch1", "closed")),)
        trace = run(_scenario(ControllerKind("conventional"), horizon=20, events=events), ieee4)
        assert len(calls) == trace.horizon
        assert all("v_init" in kw for kw in calls)
        assert [t for t, kw in enumerate(calls) if kw["v_init"] is None] == [0, 10]

    def test_every_tracer_target_resolves(self):
        # a name the tracer wraps that a refactor moves would leave its
        # spans empty in a traced pass; here it fails
        step_inner = SimulationEngine.step_inner
        for make in (tracer.Tracer, tracer.TickTimer):
            instrument = make()
            try:
                assert instrument.missing == []
                assert instrument.installed
            finally:
                instrument.uninstall()
        assert SimulationEngine.step_inner is step_inner
        assert sim_module.read_trace_csv is results_module.read_trace_csv

    def test_load_scale_drops_voltage(self, ieee4):
        trace = run(
            _scenario(ControllerKind("none"), events=((40, LoadScale(2.0)),)), ieee4
        )
        v3 = trace.bus_voltage("bus3")
        assert v3[40] < v3[39]

    def test_cloud_cover_scales_profile(self, ieee4):
        trace = run(
            _scenario(
                ControllerKind("none"),
                events=((25, CloudCover(0.5, ("bus3",))),),
            ),
            ieee4,
        )
        assert trace.p_out[24, 0] == pytest.approx(0.9)
        assert trace.p_out[25, 0] == pytest.approx(0.45)

    def test_setpoint_event_rebuilds_droop_curve(self, ieee4):
        trace = run(
            _scenario(
                ControllerKind("conventional"),
                events=((60, SetpointChange(0.98)),),
                horizon=140,
            ),
            ieee4,
        )
        v3 = trace.bus_voltage("bus3")
        assert v3[130] < v3[59]  # lower set-point pulls the equilibrium down

    def test_intermittency_uses_named_series(self, ieee4):
        sc = _scenario(
            ControllerKind("none"),
            events=((10, Intermittency("cloud", ("bus3",))),),
            seed=5,
        )
        sc = Scenario(
            **{
                **{f: getattr(sc, f) for f in (
                    "horizon", "t_outer", "controller_kind", "dt_inner", "mu",
                    "droop_slope", "droop_deadband", "adaptive", "pv_profile",
                    "events", "seed", "recompute_droop_capacity", "name",
                )},
                "series": {"cloud": TelegraphSpec(dwell=10.0, low=0.2, high=1.0)},
            }
        )
        trace = run(sc, ieee4)
        levels = set(np.round(trace.p_out[10:, 0] / 0.9, 6))
        assert levels <= {0.2, 1.0}
        assert len(levels) == 2

    @pytest.mark.parametrize("seed", [0, 5])
    def test_event_tables_match_a_scan_per_kind(self, feeder30, seed):
        # the constructor's one pass over the events against a scan of the
        # list per kind: the same multipliers in the same order, the same
        # telegraph draws, the same set-points and table of live events
        units, h = feeder30.pv_buses, 30
        events = (
            (0, SubstationVoltage(1.01)),
            (3, Intermittency("tel", units[:4])),
            (5, CloudCover(0.7)),
            (5, SetpointChange(1.01, units[2:5])),
            (9, Intermittency("tel")),
            (9, LoadScale(1.1)),
            (12, CloudCover(0.5, units[3:])),
            (12, Intermittency("list", units[::2])),
            (20, SetpointChange(0.99)),
            (20, SubstationVoltage(1.02)),
        )
        sc = Scenario(horizon=h, t_outer=10, seed=seed, controller_kind=ControllerKind("adaptive"),
                      pv_profile=0.15, series={"tel": TelegraphSpec(3.0), "list": [0.9, 0.5, 1.0]},
                      events=events)
        engine = SimulationEngine(sc, feeder30)
        rng = np.random.default_rng(seed)
        mult = np.ones((h, len(units)))
        mu = np.full((h, len(units)), sc.mu)
        for tick, ev in events:
            if isinstance(ev, (CloudCover, Intermittency)):
                scale = ev.scale if isinstance(ev, CloudCover) else (
                    engine._resolve_series(ev.series_id, h - tick, rng))
                for j in engine._unit_indices(ev.buses):
                    mult[tick:, j] *= scale
            elif isinstance(ev, SetpointChange):
                mu[tick:, engine._unit_indices(ev.buses)] = ev.mu
        live = {}
        for tick, ev in events:
            if isinstance(ev, (SubstationVoltage, SwitchEvent, LoadScale, SetpointChange)):
                live.setdefault(tick, []).append(ev)
        assert engine.p_profile.tobytes() == (np.full((h, len(units)), 0.15) * mult).tobytes()
        assert engine.mu_arr.tobytes() == mu.tobytes()
        assert engine.live_events == live
        assert len(set(engine.p_profile[3:, 0])) > 2  # the telegraph flipped

    def test_unknown_series_rejected(self, ieee4):
        sc = _scenario(
            ControllerKind("none"), events=((10, Intermittency("nope", ("bus3",))),)
        )
        with pytest.raises(SimulationError, match="series"):
            run(sc, ieee4)

    @pytest.mark.parametrize("series, scale", [
        ([0.5, 0.5, 0.25, 0.1, 0.1] + [0.9] * 8, [0.5, 0.5, 0.25, 0.1, 0.1]),
        ([0.5, 0.5, 0.25], [0.5, 0.5, 0.25, 0.25, 0.25]),
    ], ids=["longer", "shorter"])
    def test_explicit_series_fits_the_ticks_left(self, ieee4, series, scale):
        # cut to the 5 ticks left from tick 15, or held at its last value
        sc = _scenario(ControllerKind("none"), horizon=20, series={"s": series},
                       events=((15, Intermittency("s", ("bus3",))),))
        p3 = run(sc, ieee4).p_out[:, 0]
        assert p3.tolist() == [0.9] * 15 + [0.9 * x for x in scale]

    def test_event_on_unknown_pv_bus_rejected(self, ieee4):
        sc = _scenario(
            ControllerKind("none"), events=((10, CloudCover(0.5, ("bus9",))),)
        )
        with pytest.raises(SimulationError, match="unknown PV bus"):
            run(sc, ieee4)


class TestScenarioValidation:
    def test_events_must_be_sorted(self):
        with pytest.raises(SimulationError, match="sorted"):
            _scenario(
                ControllerKind("none"),
                events=((50, SubstationVoltage(1.05)), (10, LoadScale(1.1))),
            )

    def test_horizon_bounds_events(self):
        with pytest.raises(SimulationError, match="horizon"):
            _scenario(ControllerKind("none"), events=((500, LoadScale(1.1)),))

    def test_horizon_at_least_one_outer_period(self):
        with pytest.raises(SimulationError):
            _scenario(ControllerKind("none"), horizon=5)

    def test_t_outer_at_least_two(self):
        with pytest.raises(SimulationError, match="t_outer"):
            Scenario(horizon=20, t_outer=1, controller_kind=ControllerKind("adaptive"))

    def test_adaptive_T_is_an_unknown_key(self):
        # the outer-loop horizon is `t_outer` alone, even where an
        # `adaptive.T` would agree with it
        doc = {"horizon": 20, "t_outer": 10, "controller": {"kind": "adaptive"},
               "adaptive": {"T": 10}}
        with pytest.raises(SimulationError, match=r"adaptive: unknown key\(s\) T"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "kw",
        [
            pytest.param({"profile": math.nan}, id="pv_profile"),
            pytest.param({"series": {"s": ()},
                          "events": ((5, Intermittency("s")),)}, id="empty_series"),
            pytest.param({"series": {"s": (0.5, math.inf)},
                          "events": ((5, Intermittency("s")),)}, id="series_value"),
            # `PvUnit.p_out`'s bounds (0 to the 0.99 pu rating here), after
            # the cloud and intermittency multipliers
            pytest.param({"profile": -0.1}, id="negative"),
            pytest.param({"profile": 1e308}, id="overflowing"),
            pytest.param({"events": ((5, CloudCover(1.2)),)}, id="cloud_above_rating"),
        ],
    )
    def test_profile_inputs_checked(self, ieee4, kw):
        for model in (ieee4, linearize(ieee4)):
            with pytest.raises(SimulationError, match="series|finite"):
                run(_scenario(ControllerKind("conventional"), horizon=20, **kw), model)

    @pytest.mark.parametrize("points", [((-5, 0.9),), ((20, 0.9),), ((500, 0.9),)])
    def test_profile_tick_outside_horizon_rejected(self, ieee4, points):
        with pytest.raises(SimulationError, match="outside 0..19"):
            run(_scenario(ControllerKind("none"), horizon=20, profile=points), ieee4)

    def test_profile_repeated_tick_rejected(self, ieee4):
        with pytest.raises(SimulationError, match="distinct"):
            run(_scenario(ControllerKind("none"), horizon=20,
                          profile={"bus3": ((10, 0.5), (10, 0.9))}), ieee4)

    def test_profile_bus_without_unit_rejected(self, ieee4):
        with pytest.raises(SimulationError, match="without a PV unit: bus2"):
            run(_scenario(ControllerKind("none"), horizon=20,
                          profile={"bus3": 0.9, "bus2": 0.5}), ieee4)

    def test_profile_may_name_unit_the_linear_twin_leaves_out(self, ieee4):
        # bus4 sits behind an open switch: a unit on the feeder, not on the twin
        lin = linearize(ieee4)
        assert lin.dark_pv_buses == ("bus4",)
        sc = _scenario(ControllerKind("none"), horizon=20, profile={"bus3": 0.9, "bus4": 0.5})
        assert run(sc, lin).p_out[0].tolist() == [0.9]

    @pytest.mark.parametrize(
        "event", [CloudCover(0.5, ("bus4",)), SetpointChange(0.98, ("bus4",))],
        ids=["cloud", "setpoint"],
    )
    def test_event_may_name_unit_the_linear_twin_leaves_out(self, ieee4, event):
        plain = _scenario(ControllerKind("conventional"), horizon=20)
        moved = replace(plain, events=((5, event),))
        # the feeder keeps its bus4 unit, so the event reaches it there
        full, full_moved = run(plain, ieee4), run(moved, ieee4)
        assert not (np.array_equal(full.p_out, full_moved.p_out)
                    and np.array_equal(full.mu, full_moved.mu))
        # the twin has no bus4 unit: the event changes nothing there
        lin = linearize(ieee4)
        base, got = run(plain, lin), run(moved, lin)
        for name in ("voltages", "q_inj", "p_out", "mu"):
            assert getattr(got, name).tobytes() == getattr(base, name).tobytes()
        assert (got.flags, param_dispatches(got)) == (base.flags, param_dispatches(base))

    @pytest.mark.parametrize("edit, match", [
        pytest.param(lambda d: d["events"].append({"tick": 8, "kind": "setpoint", "mu": 1.6}),
                     "set-point outside 0.5-1.5", id="setpoint-high"),
        pytest.param(lambda d: d["events"].append({"tick": 8, "kind": "setpoint", "mu": 0.4}),
                     "set-point outside 0.5-1.5", id="setpoint-low"),
        # the scenario's own set-point takes the same range
        pytest.param(lambda d: d.update(mu=0.0), "set-point outside 0.5-1.5", id="mu-zero"),
        pytest.param(lambda d: d.update(mu=1.6), "set-point outside 0.5-1.5", id="mu-high"),
        pytest.param(lambda d: d.update(series={"s": {"telegraph": {"low": 0.9, "high": 0.5}}}),
                     "low <= high", id="telegraph-low-above-high"),
        pytest.param(lambda d: d.update(horizon=0), "horizon must be >= 1", id="horizon-zero"),
        # numpy's generator takes no negative seed
        pytest.param(lambda d: d.update(seed=-1), "seed must be >= 0", id="seed-negative"),
    ])
    def test_scenario_document_rejected(self, edit, match):
        doc = {"horizon": 40, "t_outer": 10, "controller": {"kind": "conventional"},
               "events": [{"tick": 5, "kind": "cloud_cover", "scale": 0.5}]}
        scenario_from_dict(doc)
        edit(doc)
        with pytest.raises(SimulationError, match=match):
            scenario_from_dict(doc)

    def test_integral_float_tick_decodes_to_int(self):
        doc = {"horizon": 40, "t_outer": 10, "controller": {"kind": "none"},
               "events": [{"tick": 5.0, "kind": "load_scale", "factor": 1.1}]}
        tick, _ = scenario_from_dict(doc).events[0]
        assert tick == 5 and type(tick) is int

    def test_event_parameter_ranges(self):
        with pytest.raises(SimulationError):
            SubstationVoltage(1.6)
        with pytest.raises(SimulationError):
            CloudCover(-0.1)
        with pytest.raises(SimulationError):
            LoadScale(-1.0)
        with pytest.raises(SimulationError):
            SwitchEvent("s", "ajar")

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda buses: SetpointChange(1.02, buses), id="setpoint"),
            pytest.param(lambda buses: CloudCover(0.2, buses), id="cloud_cover"),
            pytest.param(lambda buses: Intermittency("s", buses), id="intermittency"),
        ],
    )
    def test_event_bus_list_names_each_bus_once(self, make):
        # a repeated bus would apply the event to it twice (a 0.2 cloud
        # cover as 0.04), and an empty list would silently do nothing
        with pytest.raises(SimulationError, match="bus3 twice"):
            make(("bus3", "bus4", "bus3"))
        with pytest.raises(SimulationError, match="no bus"):
            make(())
        assert make(None).buses is None
        assert make(("bus3", "bus4")).buses == ("bus3", "bus4")
        # the scenario JSON reports the same error
        doc = scenario_to_dict(_scenario(ControllerKind("none"), horizon=20,
                                         events=((5, make(("bus3",))),)))
        doc["events"][0]["buses"] = ["bus3", "bus3"]
        with pytest.raises(SimulationError, match="bus3 twice"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: CloudCover(scale=math.nan), id="CloudCover.scale"),
            pytest.param(lambda: LoadScale(math.nan), id="LoadScale.factor"),
            pytest.param(lambda: TelegraphSpec(dwell=math.nan), id="TelegraphSpec.dwell"),
            pytest.param(lambda: AdaptiveConfig(k_d=math.nan), id="AdaptiveConfig.k_d"),
            pytest.param(lambda: AdaptiveConfig(eps_sse=math.nan), id="AdaptiveConfig.eps_sse"),
            pytest.param(lambda: AdaptiveConfig(m_floor=math.nan), id="AdaptiveConfig.m_floor"),
            pytest.param(
                lambda: _scenario(ControllerKind("none"), dt_inner=math.nan),
                id="Scenario.dt_inner",
            ),
            pytest.param(
                lambda: _scenario(ControllerKind("none"), slope=math.nan),
                id="Scenario.droop_slope",
            ),
        ],
    )
    def test_nan_rejected(self, build):
        with pytest.raises(ValueError, match="must be|need"):
            build()

    @pytest.mark.parametrize("kw", [{"dwell": math.inf}, {"high": math.inf},
                                    {"low": math.inf, "high": math.inf}], ids=str)
    def test_telegraph_constants_finite(self, kw):
        # an infinite dwell never flips; an infinite level would reach the
        # engine's PV bounds as a generic error
        with pytest.raises(SimulationError, match="finite"):
            TelegraphSpec(**kw)

    def test_json_round_trip(self, ieee4):
        for name in PRESETS:
            feeder, sc = get_preset(name)
            assert scenario_from_dict(scenario_to_dict(sc)) == sc, name
            assert feeder_from_dict(feeder_to_dict(feeder)) == feeder, name
        feeder, sc = get_preset("intermittency")
        again = scenario_from_dict(scenario_to_dict(sc))
        # round-tripped scenario drives an identical simulation
        t1 = run(sc, feeder)
        t2 = run(again, feeder)
        assert t1.voltages.tobytes() == t2.voltages.tobytes()

    @pytest.mark.parametrize(
        "which, edit",
        [
            pytest.param("scenario", lambda d: d.update(recompute_droop_capacity="false"),
                         id="bool-as-string"),
            pytest.param("scenario", lambda d: d["adaptive"].update(k_d="4.0"),
                         id="nested-string-as-float"),
            pytest.param("scenario", lambda d: d.update(horizon=40.7), id="fractional-horizon"),
            pytest.param("scenario", lambda d: d.update(seed=3.9), id="fractional-seed"),
            pytest.param("scenario", lambda d: d["events"][0].update(tick=5.9),
                         id="fractional-tick"),
            pytest.param("scenario", lambda d: d["events"][0].update(buses=[]),
                         id="empty-buses"),
            pytest.param("scenario", lambda d: d.update(droop_slope=2.0), id="unknown-key"),
            pytest.param("scenario", lambda d: d.update(mu="1.0"), id="string-as-float"),
            pytest.param("scenario", lambda d: d.update(series={"s": {}}),
                         id="series-without-telegraph"),
            pytest.param("feeder", lambda d: d["lines"][2].update(
                             swtich_state=d["lines"][2].pop("switch_state")),
                         id="misspelled-line-key"),
        ],
    )
    def test_document_value_not_rewritten(self, ieee4, which, edit):
        load, doc = {
            "scenario": (scenario_from_dict, {
                "horizon": 40, "t_outer": 10, "seed": 3, "controller": {"kind": "adaptive"},
                "adaptive": {"k_d": 4.0}, "pv_profile": 0.5,
                "events": [{"tick": 5, "kind": "cloud_cover", "scale": 0.5, "buses": ["bus3"]}],
            }),
            "feeder": (feeder_from_dict, feeder_to_dict(ieee4)),
        }[which]
        load(doc)
        edit(doc)
        with pytest.raises((SimulationError, FeederError), match="malformed"):
            load(doc)

    def test_readme_examples_load(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        docs = [json.loads(block) for block in re.findall(r"```json\n(.*?)```", readme, re.S)]
        assert [type(feeder_from_dict(d) if "buses" in d else scenario_from_dict(d)).__name__
                for d in docs] == ["FeederModel", "Scenario"]

    @pytest.mark.parametrize("peak, slope, match", [
        # bus3 starts at its 0.99 rating, which leaves no var capacity
        (0.99, 1.0, "no var capacity .*bus3"),
        (0.99, 3.0, "no var capacity .*bus3"),
        # one ulp of headroom pins the cut-offs within rounding of the deadband
        (np.nextafter(0.99, 0), 3.0, "droop limits at tick 1 for bus3"),
    ])
    def test_droop_needs_var_headroom_at_profile_peak(self, ieee4, peak, slope, match):
        sc = _scenario(ControllerKind("conventional"), slope=slope,
                       profile={"bus3": ((0, peak), (40, 0.5))},
                       recompute_droop_capacity=True)
        with pytest.raises(SimulationError, match=match):
            run(sc, ieee4)
        # plain droop keeps its near-zero var limits and runs
        run(replace(sc, recompute_droop_capacity=False), ieee4)


class TestAdaptiveLoop:
    def test_outer_dispatches_at_boundaries(self, ieee4):
        trace = run(
            _scenario(ControllerKind("adaptive"), profile={"bus3": ((20, 0.9),)}, horizon=80),
            ieee4,
        )
        ticks = sorted({d.tick for d in param_dispatches(trace)})
        assert ticks == [30, 40, 50, 60, 70]  # first full generating window ends at 30

    def test_outer_skips_idle_windows(self, ieee4):
        trace = run(_scenario(ControllerKind("adaptive"), profile=0.0), ieee4)
        assert param_dispatches(trace) == ()

    def test_qp_persists_across_topology_events(self, ieee4):
        sc = _scenario(
            ControllerKind("adaptive"),
            events=((55, SwitchEvent("switch1", "closed")),),
            horizon=120,
        )
        trace = run(sc, ieee4)
        before = [d for d in param_dispatches(trace) if d.tick == 50 and d.bus == "bus3"]
        after = [d for d in param_dispatches(trace) if d.tick == 60 and d.bus == "bus3"]
        assert before and after
        # q_p evolves from its pre-event value, not from a reset
        assert abs(after[0].params.q_p - before[0].params.q_p) < 0.1
        assert after[0].params.q_p != 0.0

    def test_bad_block_raises_at_the_boundary_that_makes_it(self, ieee4, monkeypatch):
        # var limits with q_min > q_max: the outer loop's new block fails
        # its check, and the first boundary tick raises
        monkeypatch.setattr(adaptation, "capacity_limits",
                            lambda rating, p: (np.abs(rating) + 1.0, -np.abs(rating) - 1.0))
        engine = SimulationEngine(_scenario(ControllerKind("adaptive")), ieee4)
        while engine.tick < 10:
            engine.step_inner()
        with pytest.raises(ControlError, match="q_min_p <= q_p <= q_max_p"):
            engine.step_inner()
        assert engine.tick == 10

    @pytest.mark.parametrize("fixture", ["ieee4", "ieee4_closed"])
    @pytest.mark.parametrize("bad", ["new", "old", "old-qp", "old-slope", "retry",
                                     "retry-switch"])
    def test_failing_boundary_changes_nothing(self, fixture, bad, request, monkeypatch):
        # with bus4 dark (`ieee4`) the boundary steps a column subset, with
        # both units live (`ieee4_closed`) the whole matrix; a block that
        # fails its check leaves the matrix, the params and the log as the
        # tick before left them.  The step itself would repair the last two
        # old columns (q_p clamped into the fresh limits, the slope floored
        # at m_floor > 0), so only the check of the old columns catches them.
        # The retries fail the tick-20 boundary as `new` does, on a tick with
        # events, and then step on: the failed tick's events act once
        model = request.getfixturevalue(fixture)
        stop, events = 30, ()
        if bad == "retry":
            stop, events = 20, ((20, LoadScale(1.5)), (20, SetpointChange(1.01)))
        elif bad == "retry-switch":
            state = "closed" if fixture == "ieee4" else "open"
            stop, events = 20, ((20, SwitchEvent("switch1", state)),)
        scenario = _scenario(ControllerKind("adaptive"), events=events)
        engine = SimulationEngine(scenario, model)
        while engine.tick < stop:
            engine.step_inner()
        assert len(engine._outer_log) == stop // 10 - 1
        if bad in ("new", "retry", "retry-switch"):  # var limits with q_min > q_max
            monkeypatch.setattr(adaptation, "capacity_limits",
                                lambda rating, p: (np.abs(rating) + 1.0, -np.abs(rating) - 1.0))
            match = "q_min_p <= q_p <= q_max_p"
        elif bad == "old":  # a stored slope that is no longer valid
            engine._params[0, 0] = np.nan
            match = "m_p must be finite and >= 0"
        elif bad == "old-qp":  # a stored offset above its var limit
            engine._params[1, 0] = engine._params[3, 0] + 0.5
            match = "q_min_p <= q_p <= q_max_p"
        else:  # a stored negative slope
            assert engine.scenario.adaptive.m_floor > 0
            engine._params[0, 0] = -0.5
            match = "m_p must be finite and >= 0"
        matrix = engine._params.copy()
        log = list(engine._outer_log)
        before = (engine.model, engine._last_solution, engine._generating.copy())
        with pytest.raises(ControlError, match=match):
            engine.step_inner()
        assert engine.tick == stop
        assert engine._params.tobytes() == matrix.tobytes()
        assert engine._outer_log == log
        assert engine.model is before[0] and engine._last_solution is before[1]
        assert engine._generating.tobytes() == before[2].tobytes()
        assert np.isnan(engine.voltages[stop:]).all() and not engine.q_rec[stop:].any()
        assert not any(engine.flags[stop:])
        if not bad.startswith("old"):
            params = engine.params
            assert np.array([getattr(params, f) for f in vars(params)]).tobytes() == \
                matrix.tobytes()
        else:  # the stored column is still the bad one the tick before left
            with pytest.raises(ControlError, match=match):
                engine.params
        if bad.startswith("retry"):  # stepped on, the run is one that never failed
            monkeypatch.undo()
            never = SimulationEngine(scenario, model)
            got, want = engine.run(), never.run()
            assert engine.model.loads.tobytes() == never.model.loads.tobytes()
            for a, b in zip((got.voltages, got.q_inj, *got.param_log),
                            (want.voltages, want.q_inj, *want.param_log)):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert got.flags == want.flags

    @pytest.mark.parametrize("case", ["feeder30-intermittency", "twin150"])
    def test_adaptive_run_matches_reference_composition(self, case, monkeypatch):
        # a whole adaptive run, every boundary through the engine's matrix
        # step, against the same run with each boundary composed from the
        # reference step (`outer_boundary_reference`), byte for byte
        if case == "twin150":
            doc = gen.ladder_feeder(150, 11)
            model = linearize(feeder_from_dict(doc))
            scenario = scenario_from_dict(gen.linear_scenario(doc, 11, 600))
        else:
            model, scenario = get_preset("intermittency")
        got = run(scenario, model)
        monkeypatch.setattr(SimulationEngine, "_outer_boundary", outer_boundary_reference)
        want = run(scenario, model)
        assert len(got.param_log.ticks) == len(want.param_log.ticks) > 0
        for a, b in zip((got.voltages, got.q_inj, *got.param_log),
                        (want.voltages, want.q_inj, *want.param_log)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_params_are_the_last_logged_blocks(self, ieee4_closed, monkeypatch):
        sc = _scenario(ControllerKind("adaptive"), profile={"bus3": 0.9, "bus4": ((30, 0.5),)},
                       horizon=80)
        engine = SimulationEngine(sc, ieee4_closed)
        trace = engine.run()
        built = []
        check = AdaptiveParams.__post_init__
        monkeypatch.setattr(AdaptiveParams, "__post_init__",
                            lambda self: built.append(self) or check(self))
        params = engine.params
        assert len(built) == 1 and built[0] is params  # a checked block
        ticks, units, values = trace.param_log
        assert sorted(set(units.tolist())) == [0, 1]
        for j in (0, 1):
            last = values[np.flatnonzero(units == j)[-1]]
            assert np.array([getattr(params, f)[j] for f in vars(params)]).tobytes() == \
                last.tobytes()
        params.q_p[:] = 5.0  # a copy: the engine's state stays as it was
        assert engine.params.q_p.tolist() == [values[units == j][-1, 1] for j in (0, 1)]

    def test_params_kind_follows_the_controller(self, ieee4):
        for kind, want in ((ControllerKind("none"), type(None)),
                           (ControllerKind("conventional"), DroopParams),
                           (ControllerKind("delayed", 0.5), DroopParams),
                           (ControllerKind("adaptive"), AdaptiveParams)):
            assert type(SimulationEngine(_scenario(kind), ieee4).params) is want

    def test_locality_dispatch_depends_on_own_bus_only(self, ieee4_closed):
        sc = _scenario(ControllerKind("delayed", 0.5), slope=1.0, horizon=60)
        trace = run(sc, ieee4_closed)
        params = {
            b: DroopParams.from_slope(1.0, 0.0, 1.0, -q, q)
            for b, q in (("bus3", 0.4124318125460256), ("bus4", 0.4124318125460256))
        }
        for t in range(1, 60):
            for j, b in enumerate(trace.unit_buses):
                v_own = trace.voltages[t - 1, trace.bus_ids.index(b)]
                q_prev = trace.q_inj[t - 1, j]
                expect = delayed_dispatch(params[b], 0.5, v_own, q_prev)
                assert trace.q_inj[t, j] == pytest.approx(expect, abs=1e-12)


class TestDivergenceHandling:
    def test_diverged_tick_flagged_and_carried(self):
        model = FeederModel(
            buses=(
                Bus("src", "slack", v_set=1.0),
                Bus("b2", "load", load_p=0.4, load_q=0.1),
            ),
            lines=(Line("src", "b2", 0.02, 0.2),),
            pv_units=(PvUnit("b2", 0.3, p_out=0.0),),
        )
        sc = _scenario(
            ControllerKind("none"),
            horizon=20,
            profile=0.0,
            events=((8, LoadScale(40.0)),),
        )
        trace = run(sc, model)
        assert trace.flags[7] == ""
        assert trace.flags[8] == "pf_diverged"
        assert trace.voltages[8, 1] == trace.voltages[7, 1]
        assert trace.flags[19] == "pf_diverged"

    def test_diverged_tick_after_a_switch_keeps_dark_buses_dark(self, ieee4_closed):
        # the load step diverges the tick that also opens switch1: the
        # carried row must not light bus4 again, nor its unit dispatch
        events = ((5, LoadScale(20.0)), (5, SwitchEvent("switch1", "open")))
        trace = run(_scenario(ControllerKind("conventional"), horizon=12, events=events),
                    ieee4_closed)
        assert trace.flags[5:8] == ("pf_diverged",) * 3
        lit = [trace.bus_ids.index(b) for b in ("bus1", "bus2", "bus3")]
        assert np.all(trace.voltages[5:, lit] == trace.voltages[4, lit])
        assert np.all(np.isnan(trace.bus_voltage("bus4")[5:]))
        assert np.all(trace.q_inj[6:, trace.unit_buses.index("bus4")] == 0.0)


def _diverging_two_bus() -> FeederModel:
    return FeederModel(
        buses=(Bus("src", "slack", v_set=1.0), Bus("b2", "load", load_p=0.4, load_q=0.1)),
        lines=(Line("src", "b2", 0.02, 0.2),),
        pv_units=(PvUnit("b2", 0.3, p_out=0.0),),
    )


def _switch_pair(ieee4, feeder30):
    switched = ((15, SwitchEvent("switch1", "closed")), (25, SwitchEvent("switch1", "open")))
    return ieee4, [_scenario(ControllerKind("conventional"), horizon=40, events=switched),
                   _scenario(ControllerKind("conventional"), horizon=40)]


def _intermittency_pair(ieee4, feeder30):
    _, sc = get_preset("intermittency", feeder30)
    sc = replace(sc, horizon=200)
    return feeder30, [replace(sc, controller_kind=ControllerKind("conventional")), sc]


def _divergence_pair(ieee4, feeder30):
    # 40x load diverges at ticks 8-10; scaled back, tick 11 converges again
    diverge = ((8, LoadScale(40.0)), (11, LoadScale(1 / 40)))
    return _diverging_two_bus(), [
        _scenario(ControllerKind("conventional"), horizon=20, profile=0.2, events=diverge),
        _scenario(ControllerKind("none"), horizon=20, profile=0.2, events=((8, LoadScale(9.0)),)),
    ]


def _twin_pair(ieee4, feeder30):
    lin = linearize(ieee4)
    return lin, [_scenario(ControllerKind("conventional"), horizon=40),
                 _scenario(ControllerKind("adaptive"), horizon=40)]


class TestEngineBuffers:
    """Each engine solves into its own injection array and writes each tick
    straight into its own trace arrays; engines on one model share its
    compiled network and nothing else."""

    @pytest.mark.parametrize("case", [
        pytest.param(_switch_pair, id="ieee4-switch"),
        pytest.param(_intermittency_pair, id="feeder30-intermittency"),
        pytest.param(_divergence_pair, id="two-bus-diverged-tick"),
        pytest.param(_twin_pair, id="ieee4-twin"),
    ])
    def test_alternating_engines_match_solo_runs(self, case, ieee4, feeder30, monkeypatch):
        model, scenarios = case(ieee4, feeder30)
        alone = [run(sc, model) for sc in scenarios]
        # the injection arrays and recorded voltage rows of every solve, per engine
        used: dict[int, list[np.ndarray]] = {}
        solving, engines = [], []
        solve = sim_module.solve_power_flow

        def spy_on(solve_tick):
            def spy(engine, t):
                solving[:] = [engine]
                everyone = engines + [engine] * (engine not in engines)
                before = [(e.voltages.copy(), e.q_rec.copy()) for e in everyone]
                solve_tick(engine, t)
                row = engine.voltages[t]
                assert row.base is engine.voltages  # a view of its own trace
                used.setdefault(id(engine), []).append(row)
                # the solve wrote its engine's row `t` and nothing else
                for e, (v, q) in zip(everyone, before):
                    kept = np.arange(len(v)) != t if e is engine else slice(None)
                    assert e.voltages[kept].tobytes() == v[kept].tobytes()
                    assert e.q_rec.tobytes() == q.tobytes()
            return spy

        def spy(m, injections=None, v_init=None):
            used.setdefault(id(solving[0]), []).append(injections)
            return solve(m, injections=injections, v_init=v_init)

        for name in ("_solve_full", "_solve_linear"):
            monkeypatch.setattr(SimulationEngine, name, spy_on(getattr(SimulationEngine, name)))
        monkeypatch.setattr(sim_module, "solve_power_flow", spy)
        for sc in scenarios:
            engines.append(SimulationEngine(sc, model))
        if case is not _twin_pair:
            assert engines[0].model.network is engines[1].model.network
        for _ in range(1, scenarios[0].horizon):
            for engine in engines:
                engine.step_inner()
        for engine, want in zip(engines, alone):
            got = engine.run()
            assert got.voltages.tobytes() == want.voltages.tobytes()
            assert got.q_inj.tobytes() == want.q_inj.tobytes()
            assert got.flags == want.flags
        # no array of one engine's solves is (part of) another engine's
        mine, theirs = ({id(x): x for x in used[id(e)]}.values() for e in engines)
        assert not any(np.shares_memory(x, y) for x in mine for y in theirs)
        for engine in engines:  # one injection array per full engine, and a row per tick
            inj = [x for x in used[id(engine)] if x.dtype == complex]
            assert len({id(x) for x in inj}) == (case is not _twin_pair)
            assert len(used[id(engine)]) - len(inj) == engine.scenario.horizon
        if case is _switch_pair:  # bus4 is lit only while switch1 is closed
            lit = ~np.isnan(alone[0].bus_voltage("bus4"))
            assert np.flatnonzero(lit).tolist() == list(range(15, 25))

    def test_diverged_ticks_carry_the_last_row(self):
        model, (diverging, _) = _divergence_pair(None, None)
        trace = run(diverging, model)
        assert trace.flags[8:11] == ("pf_diverged",) * 3
        assert trace.flags[11:] == ("",) * 9
        assert np.all(trace.voltages[8:11] == trace.voltages[7])
        # the first converged tick after them is its own solve, not the carried row
        back = model.with_scaled_loads(40.0).with_scaled_loads(1 / 40)
        fresh = solve_power_flow(back, injection_array(back, {"b2": (0.2, trace.q_inj[11, 0])}))
        assert trace.voltages[11, 1] == pytest.approx(fresh.v_mag[1], abs=1e-8)
        assert trace.voltages[11, 1] != trace.voltages[7, 1]


class TestDeterminism:
    def test_identical_seed_bit_identical_trace(self):
        feeder, sc = get_preset("intermittency")
        t1 = run(sc, feeder)
        t2 = run(sc, feeder)
        assert t1.voltages.tobytes() == t2.voltages.tobytes()
        assert t1.q_inj.tobytes() == t2.q_inj.tobytes()
        assert t1.p_out.tobytes() == t2.p_out.tobytes()
        assert t1.flags == t2.flags

    def test_different_seed_differs(self):
        feeder, sc = get_preset("intermittency")
        from dataclasses import replace

        t1 = run(sc, feeder)
        t2 = run(replace(sc, seed=8), feeder)
        assert t1.p_out.tobytes() != t2.p_out.tobytes()

    @pytest.mark.parametrize("dwell", [1.0, 2.5, 30.0])
    def test_telegraph_series_matches_loop_reference(self, dwell):
        # the loop form: one draw per tick, flip on a draw below 1/dwell
        def reference(length, spec, rng):
            out, state = [], True
            for _ in range(length):
                if rng.random() < 1.0 / spec.dwell:
                    state = not state
                out.append(spec.high if state else spec.low)
            return np.array(out, dtype=float)

        spec = TelegraphSpec(dwell=dwell, low=0.2, high=1.0)
        r1, r2 = np.random.default_rng(4), np.random.default_rng(4)
        for length in (0, 1, 257):
            assert telegraph_series(length, spec, r1).tobytes() == \
                reference(length, spec, r2).tobytes()
        assert r1.random() == r2.random()  # same draws consumed

    def test_telegraph_series_levels_and_determinism(self):
        spec = TelegraphSpec(dwell=5.0, low=0.2, high=1.0)
        s1 = telegraph_series(200, spec, np.random.default_rng(3))
        s2 = telegraph_series(200, spec, np.random.default_rng(3))
        assert s1.tobytes() == s2.tobytes()
        assert set(np.unique(s1)) == {0.2, 1.0}


class TestStabilityConcordance:
    @pytest.mark.parametrize("fixture,slope", [("ieee4", 1.0), ("feeder30", 0.8)])
    def test_sufficient_condition_settles_fast(self, fixture, slope, request):
        from voltvar_sim.analysis import stability_report
        from voltvar_sim.feeder import sensitivity_matrix

        model = request.getfixturevalue(fixture)
        sol = solve_power_flow(model)
        a = sensitivity_matrix(model, sol)
        n = a.shape[0]
        rep = stability_report(a, np.full(n, slope))
        assert rep.stable_sufficient
        profile = 0.9 if fixture == "ieee4" else 0.15
        trace = run(
            _scenario(ControllerKind("conventional"), slope=slope, profile=profile,
                      horizon=max(10 * n + 20, 100)),
            model,
        )
        dq = np.max(np.abs(np.diff(trace.q_inj, axis=0)), axis=1)
        assert np.all(dq[10 * n :] < 1e-6)


class TestMetrics:
    def _trace(self, volts, unit_buses=("b",), bus_ids=("s", "b"), t_outer=4):
        h = len(volts)
        v = np.column_stack([np.full(h, 1.0), np.asarray(volts, dtype=float)])
        return SimulationTrace(
            bus_ids=bus_ids,
            unit_buses=unit_buses,
            voltages=v,
            q_inj=np.zeros((h, 1)),
            p_out=np.full((h, 1), 0.5),
            mu=np.ones((h, 1)),
            flags=tuple([""] * h),
            param_log=ParamLog(),
            dt_inner=1.0,
            t_outer=t_outer,
        )

    def test_pinned_at_setpoint_all_zero(self):
        rep = metrics(self._trace([1.0] * 40), 0.03)
        assert rep.msse == 0.0 and rep.fc == 0 and rep.vvi == 0

    def test_constant_high_voltage_counts_every_tick(self):
        rep = metrics(self._trace([1.07] * 40), 0.03)
        assert rep.vvi_per_bus["b"] == 40
        assert rep.msse == pytest.approx(7.0)

    def test_sustained_band_b_needs_five_minutes(self):
        # 1.055 pu violates only range B; short runs do not count
        volts = [1.0] * 10 + [1.055] * 20 + [1.0] * 10
        rep = metrics(self._trace(volts), 0.03)
        assert rep.vvi == 0
        volts_long = [1.0] * 5 + [1.055] * 320 + [1.0] * 5
        rep2 = metrics(self._trace(volts_long), 0.03)
        assert rep2.vvi_per_bus["b"] == 320

    @pytest.mark.parametrize("dt_inner", [1e-320, 5e-324, 1.0 / 3])
    def test_sustain_longer_than_the_horizon_counts_no_run(self, dt_inner):
        # 300 s over a tiny dt_inner is inf ticks, which once raised
        # OverflowError; a run of the whole horizon is still too short
        volts = [1.055] * 40
        rep = metrics(replace(self._trace(volts), dt_inner=dt_inner), 0.03)
        assert rep.vvi == 0

    def test_square_wave_window_counts_one_flicker(self):
        # +/-0.5% square wave; hand evaluation puts its window VF at ~5%,
        # far over any default limit, so each complete window counts once
        base = [1.005 if i % 2 else 0.995 for i in range(8)]
        volts = [1.0] + base + [1.0] * 3
        rep = metrics(self._trace(volts, t_outer=4), vf_lim=0.03)
        assert rep.fc_per_inverter["b"] >= 1

    def test_never_energized_unit_has_no_msse(self):
        # unit c is dark on every tick: it has no entry, and the fleet MSSE
        # is the mean over the lit units b (2%) and d (3%)
        h = 12
        volts = np.column_stack([np.ones(h), np.full(h, 1.02), np.full(h, np.nan),
                                 np.full(h, 0.97)])
        trace = SimulationTrace(
            bus_ids=("s", "b", "c", "d"), unit_buses=("b", "c", "d"), voltages=volts,
            q_inj=np.zeros((h, 3)), p_out=np.full((h, 3), 0.5), mu=np.ones((h, 3)),
            flags=("",) * h, param_log=ParamLog(), dt_inner=1.0, t_outer=4,
        )
        rep = metrics(trace, 0.03)
        assert list(rep.msse_per_inverter) == ["b", "d"]
        assert rep.msse == np.mean([rep.msse_per_inverter["b"], rep.msse_per_inverter["d"]])
        assert rep.msse == pytest.approx(2.5)

    def test_dark_bus_ignored(self):
        volts = [float("nan")] * 12
        rep = metrics(self._trace(volts), 0.03)
        assert rep.msse == 0.0 and rep.vvi == 0 and rep.fc == 0

    @staticmethod
    def _vvi(trace, band_b, sustain_ticks):
        """`_band_violations` over the whole trace, per bus as `metrics`
        reports it."""
        counts = _band_violations(trace.voltages, ANSI_RANGE_A, band_b, sustain_ticks)
        return {b: c for b, c in zip(trace.bus_ids, counts.tolist()) if c}

    @staticmethod
    def _loop_vvi(trace, band_b, sustain_ticks):
        counts = band_violation_counts(trace.voltages, ANSI_RANGE_A, band_b, sustain_ticks)
        return {b: c for b, c in zip(trace.bus_ids, counts) if c}

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_band_violations_match_loop_oracle_on_presets(self, name):
        feeder, sc = get_preset(name)
        trace = run(sc, feeder)  # dt_inner 1 s: a sustain of 300 s is 300 ticks
        assert metrics(trace, 0.03).vvi_per_bus == self._loop_vvi(trace, ANSI_RANGE_B, 300)
        assert self._vvi(trace, (0.99, 1.01), 5) == self._loop_vvi(trace, (0.99, 1.01), 5)
        # and the bus-by-bus run search, over sustain lengths and a narrow band B
        for sustain in (1, 5, 300):
            for band_b in (ANSI_RANGE_B, (0.995, 1.005)):
                want = band_violation_runs(trace, ANSI_RANGE_A, band_b, sustain)
                assert self._vvi(trace, band_b, sustain) == want

    def test_blocked_metrics_match_one_block(self, monkeypatch):
        # a block of one bus (band runs) and one unit (windows) at a time
        feeder, sc = get_preset("intermittency")
        trace = run(sc, feeder)
        # a narrow band B held for 5 s, so that band runs occur
        monkeypatch.setattr(results_module, "ANSI_RANGE_B", (0.995, 1.005))
        monkeypatch.setattr(results_module, "ANSI_SUSTAIN_S", 5.0)
        mu = np.linspace(0.99, 1.01, len(trace.unit_buses))  # one set point per unit
        trace = replace(trace, mu=np.broadcast_to(mu, trace.mu.shape))
        whole = metrics(trace, 0.03), trace.window_stats()
        monkeypatch.setattr(results_module, "_BLOCK_BYTES", 1)
        blocked = metrics(trace, 0.03), trace.window_stats()
        assert repr(vars(blocked[0])) == repr(vars(whole[0]))
        for got, want in zip(vars(blocked[1]).values(), vars(whole[1]).values()):
            assert got.tobytes() == want.tobytes()
        assert whole[0].vvi > 0 and whole[0].fc > 0
        assert whole[1].vf.shape == ((trace.horizon - 1) // 10, len(trace.unit_buses))

    @settings(max_examples=100, deadline=None)
    @given(
        h=st.integers(1, 60),
        n_bus=st.integers(1, 4),
        sustain=st.integers(1, 12),
        data=st.data(),
    )
    def test_band_violations_match_loop_oracle_on_random_masks(self, h, n_bus, sustain, data):
        levels = st.sampled_from([0.85, 0.93, 0.97, 1.0, 1.055, 1.07, math.nan])
        volts = data.draw(st.lists(levels, min_size=h * n_bus, max_size=h * n_bus))
        trace = SimulationTrace(
            bus_ids=tuple(f"b{i}" for i in range(n_bus)), unit_buses=(),
            voltages=np.array(volts).reshape(h, n_bus), q_inj=np.zeros((h, 0)),
            p_out=np.zeros((h, 0)), mu=np.zeros((h, 0)), flags=("",) * h,
            param_log=ParamLog(), dt_inner=1.0, t_outer=4,
        )
        assert metrics(trace, 0.03).vvi_per_bus == self._loop_vvi(trace, ANSI_RANGE_B, 300)
        want = self._loop_vvi(trace, ANSI_RANGE_B, sustain)
        assert self._vvi(trace, ANSI_RANGE_B, sustain) == want


class TestCsvRoundTrip:
    def test_metrics_bit_identical(self, tmp_path, ieee4):
        sc = _scenario(ControllerKind("adaptive"), profile={"bus3": ((20, 0.9),)},
                       events=((50, SubstationVoltage(1.05)),), horizon=90)
        trace = run(sc, ieee4)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        again = read_trace_csv(path, dt_inner=sc.dt_inner, t_outer=sc.t_outer)
        a = metrics(trace, vf_lim=1.0)
        b = metrics(again, vf_lim=1.0)
        assert a.msse == b.msse
        assert a.fc == b.fc and a.vvi == b.vvi
        assert a.msse_per_inverter == b.msse_per_inverter

    def test_reread_trace_metrics_equal_in_memory(self, tmp_path):
        # the set-point series travels in the CSV: no mu argument needed
        feeder, sc = get_preset("setpoint_step")
        trace = run(sc, feeder)
        write_trace_csv(trace, tmp_path / "trace.csv")
        again = read_trace_csv(tmp_path / "trace.csv", dt_inner=sc.dt_inner,
                               t_outer=sc.t_outer)
        assert again.mu.tobytes() == trace.mu.tobytes()
        a, b = metrics(trace, 0.03), metrics(again, 0.03)
        assert (a.msse, a.fc, a.vvi) == (b.msse, b.fc, b.vvi)
        assert a.msse_per_inverter == b.msse_per_inverter

    def test_csv_without_mu_column_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("tick,bus,V_pu,q_inj_pu,p_out_pu,flags\n0,bus1,1.03,,,\n")
        with pytest.raises(SimulationError, match="mu_pu"):
            read_trace_csv(path, 1.0, 10)

    def test_params_csv_written(self, tmp_path, ieee4):
        sc = _scenario(ControllerKind("adaptive"), profile=0.9, horizon=40)
        trace = run(sc, ieee4)
        path = tmp_path / "params.csv"
        write_params_csv(trace, path)
        text = path.read_text()
        assert text.splitlines()[0] == "tick,bus,m_p,q_p,q_min_p,q_max_p,v_min_p,v_max_p,mu"
        assert len(text.splitlines()) == len(trace.param_log.ticks) + 1


class TestLinearizedEngine:
    @pytest.mark.parametrize("fixture", ["ieee4", "feeder30"])
    def test_unit_order_and_sensitivity_columns(self, fixture, request):
        # PV buses in island order, dark units in model order, the derivatives
        # those of `voltage_sensitivities` and the PV rows of dV/dQ the
        # sensitivity matrix, bit for bit
        model = request.getfixturevalue(fixture)
        lin = linearize(model)
        sol = solve_power_flow(model)
        energized = [b for b in sol.load_bus_ids if b in model.pv_buses]
        assert lin.pv_buses == tuple(energized)
        assert lin.dark_pv_buses == tuple(b for b in model.pv_buses if b not in energized)
        ratings = {u.bus: u.rating_s for u in model.pv_units}
        assert lin.pv_ratings == tuple(ratings[b] for b in energized)
        derivatives = voltage_sensitivities(model, sol)
        for got, want in zip((lin.dv_dp, lin.dv_dq, lin.dv_dslack), derivatives):
            assert got.tobytes() == want.tobytes()
        rows = [sol.load_bus_ids.index(b) for b in energized]
        assert sensitivity_matrix(model, sol).tobytes() == lin.dv_dq[rows].tobytes()

    @pytest.mark.parametrize("fixture", ["ieee4", "feeder30"])
    def test_derivatives_match_finite_differences(self, fixture, request):
        model = request.getfixturevalue(fixture)
        lin = linearize(model)
        for got, want in zip((lin.dv_dp, lin.dv_dq, lin.dv_dslack), fd_sensitivities(model)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))

    @pytest.mark.parametrize("fixture", ["ieee4", "feeder30"])
    def test_voltages_into_out_match_the_allocating_call(self, fixture, request):
        lin = linearize(request.getfixturevalue(fixture)).with_slack_voltage(1.02)
        rng = np.random.default_rng(5)
        k = len(lin.pv_buses)
        for _ in range(5):
            p, q = rng.uniform(0, 0.5, k), rng.uniform(-0.3, 0.3, k)
            want = lin.voltages(p, q)
            row = np.full(len(lin.bus_ids), np.nan)
            got = lin.voltages(p, q, out=row[1:])
            assert got.base is row and np.isnan(row[0])
            assert got.tobytes() == want.tobytes()

    def test_one_power_flow_solve(self, feeder30, monkeypatch):
        solves = []
        solve = sim_module.solve_power_flow
        monkeypatch.setattr(sim_module, "solve_power_flow",
                            lambda *a, **k: solves.append(a) or solve(*a, **k))
        linearize(feeder30)
        assert len(solves) == 1

    def test_matches_full_engine_near_linearization_point(self, ieee4):
        lin = linearize(ieee4)
        sc = _scenario(ControllerKind("conventional"), slope=1.0, profile=0.9, horizon=60)
        full = run(sc, ieee4)
        approx = run(sc, lin)
        v_full = full.bus_voltage("bus3")[-1]
        v_lin = approx.bus_voltage("bus3")[-1]
        assert v_lin == pytest.approx(v_full, abs=2e-3)

    def test_substation_event_supported(self, ieee4):
        lin = linearize(ieee4)
        sc = _scenario(ControllerKind("none"), profile=0.9, horizon=30,
                       events=((10, SubstationVoltage(1.05)),))
        tr = run(sc, lin)
        v3 = tr.bus_voltage("bus3")
        assert v3[10] - v3[9] == pytest.approx(0.02, abs=1e-3)

    def test_switch_event_rejected(self, ieee4):
        lin = linearize(ieee4)
        sc = _scenario(ControllerKind("none"), profile=0.9, horizon=30,
                       events=((10, SwitchEvent("switch1", "closed")),))
        with pytest.raises(SimulationError, match="not supported"):
            run(sc, lin)

    def test_load_scale_rejected_when_engine_is_built(self, ieee4):
        lin = linearize(ieee4)
        sc = _scenario(ControllerKind("none"), profile=0.9, horizon=30,
                       events=((25, LoadScale(1.2)),))
        with pytest.raises(SimulationError, match="not supported"):
            SimulationEngine(sc, lin)
