from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from voltvar_sim import feeder as feeder_module
from voltvar_sim.adaptation import AdaptiveConfig
from voltvar_sim.control import ControllerKind, DroopParams, droop_dispatch, delayed_dispatch
from voltvar_sim.feeder import Bus, FeederModel, Line, PvUnit, solve_power_flow
from voltvar_sim.presets import get_preset
from voltvar_sim.sim import (
    CloudCover,
    Intermittency,
    LoadScale,
    MetricsLimits,
    Scenario,
    SetpointChange,
    SimulationEngine,
    SimulationError,
    SubstationVoltage,
    SwitchEvent,
    TelegraphSpec,
    _materialize_profile,
    linearize,
    metrics,
    read_trace_csv,
    run,
    scenario_from_dict,
    scenario_to_dict,
    telegraph_series,
    write_params_csv,
    write_trace_csv,
)


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
        trace = run(_scenario(ControllerKind.none(), horizon=20), ieee4)
        v3 = trace.bus_voltage("bus3")
        assert np.all(np.abs(v3 - v3[0]) < 1e-12)
        assert np.all(trace.q_inj == 0.0)

    def test_none_controller_equals_repeated_base_solve(self, ieee4):
        trace = run(_scenario(ControllerKind.none(), horizon=10), ieee4)
        base = solve_power_flow(ieee4)  # file stores p_out=0.9 on both units
        # only bus3 generates in the trace (bus4 dark), same injection as file
        assert trace.bus_voltage("bus3")[0] == pytest.approx(
            base.voltage("bus3"), abs=1e-9
        )

    def test_conservative_slope_settles(self, ieee4):
        trace = run(_scenario(ControllerKind.conventional(), slope=1.0), ieee4)
        dq = np.abs(np.diff(trace.q_inj[:, 0]))
        assert np.all(dq[60:] < 1e-8)
        # fixed-point certificate: q = f(h(q)) at the recorded equilibrium
        q_bar = trace.q_inj[-1, 0]
        sol = solve_power_flow(ieee4, injections={"bus3": (0.0, q_bar)})
        params = DroopParams.from_slope(1.0, 0.0, 1.0, -0.4124, 0.4124)
        assert droop_dispatch(params, sol.voltage("bus3")) == pytest.approx(
            q_bar, abs=1e-6
        )

    def test_supercritical_slope_oscillates(self, ieee4):
        trace = run(_scenario(ControllerKind.conventional(), slope=6.0), ieee4)
        v3 = trace.bus_voltage("bus3")[-20:]
        assert v3.max() - v3.min() > 0.01

    def test_inverters_idle_until_generating(self, ieee4):
        trace = run(
            _scenario(ControllerKind.conventional(), profile={"bus3": ((20, 0.9),)}),
            ieee4,
        )
        assert np.all(trace.q_inj[:20, 0] == 0.0)
        assert np.any(trace.q_inj[25:, 0] != 0.0)

    @pytest.mark.parametrize(
        "points",
        [(), ((20, 0.9),), ((-3, 0.2), (5, 0.7), (5, 0.4), (99, 1.0)), ((8, 0.5), (2, 0.3))],
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

        prof = _materialize_profile(points, ("a", "b"), 30)
        assert prof[:, 0].tobytes() == reference(points, 30).tobytes()
        assert prof[:, 1].tobytes() == prof[:, 0].tobytes()

    def test_horizon_exhaustion_raises(self, ieee4):
        eng = SimulationEngine(_scenario(ControllerKind.none(), horizon=12), ieee4)
        for _ in range(11):
            eng.step_inner()
        with pytest.raises(SimulationError):
            eng.step_inner()


class TestEvents:
    def test_substation_step_shifts_voltage(self, ieee4):
        trace = run(
            _scenario(
                ControllerKind.none(), events=((50, SubstationVoltage(1.05)),)
            ),
            ieee4,
        )
        v3 = trace.bus_voltage("bus3")
        assert v3[49] < v3[50]
        assert v3[50] - v3[49] == pytest.approx(0.02, abs=0.005)

    def test_switch_event_energizes_bus4(self, ieee4):
        trace = run(
            _scenario(
                ControllerKind.none(), events=((30, SwitchEvent("switch1", "closed")),)
            ),
            ieee4,
        )
        v4 = trace.bus_voltage("bus4")
        assert np.all(np.isnan(v4[:30]))
        assert np.all(np.isfinite(v4[30:]))

    def test_tick0_substation_event_applies(self):
        model, sc = get_preset("intermittency")
        sc = replace(sc, events=((0, SubstationVoltage(1.05)),) + sc.events)
        v_slack = run(sc, model).bus_voltage(model.slack_id)
        assert np.all(v_slack[:3] == 1.05)

    def test_tick0_switch_event_compiles_before_solving(self, ieee4):
        trace = run(
            _scenario(
                ControllerKind.none(), events=((0, SwitchEvent("switch1", "closed")),)
            ),
            ieee4,
        )
        assert np.all(np.isfinite(trace.bus_voltage("bus4")))

    def test_network_compiled_once_per_topology(self, ieee4, monkeypatch):
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
            _scenario(ControllerKind.none(), horizon=30, events=events), ieee4
        )
        assert len(builds) == 1
        while engine.tick < 15:
            engine.step_inner()
        assert len(builds) == 1
        engine.step_inner()
        assert len(builds) == 2
        trace = engine.run()
        assert len(builds) == 3
        assert np.all(np.isnan(trace.bus_voltage("bus4")[25:]))

    def test_load_scale_drops_voltage(self, ieee4):
        trace = run(
            _scenario(ControllerKind.none(), events=((40, LoadScale(2.0)),)), ieee4
        )
        v3 = trace.bus_voltage("bus3")
        assert v3[40] < v3[39]

    def test_cloud_cover_scales_profile(self, ieee4):
        trace = run(
            _scenario(
                ControllerKind.none(),
                events=((25, CloudCover(0.5, ("bus3",))),),
            ),
            ieee4,
        )
        assert trace.p_out[24, 0] == pytest.approx(0.9)
        assert trace.p_out[25, 0] == pytest.approx(0.45)

    def test_setpoint_event_rebuilds_droop_curve(self, ieee4):
        trace = run(
            _scenario(
                ControllerKind.conventional(),
                events=((60, SetpointChange(0.98)),),
                horizon=140,
            ),
            ieee4,
        )
        v3 = trace.bus_voltage("bus3")
        assert v3[130] < v3[59]  # lower set-point pulls the equilibrium down

    def test_intermittency_uses_named_series(self, ieee4):
        sc = _scenario(
            ControllerKind.none(),
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

    def test_unknown_series_rejected(self, ieee4):
        sc = _scenario(
            ControllerKind.none(), events=((10, Intermittency("nope", ("bus3",))),)
        )
        with pytest.raises(SimulationError, match="series"):
            run(sc, ieee4)

    def test_event_on_unknown_pv_bus_rejected(self, ieee4):
        sc = _scenario(
            ControllerKind.none(), events=((10, CloudCover(0.5, ("bus9",))),)
        )
        with pytest.raises(SimulationError, match="unknown PV bus"):
            run(sc, ieee4)


class TestScenarioValidation:
    def test_events_must_be_sorted(self):
        with pytest.raises(SimulationError, match="sorted"):
            _scenario(
                ControllerKind.none(),
                events=((50, SubstationVoltage(1.05)), (10, LoadScale(1.1))),
            )

    def test_horizon_bounds_events(self):
        with pytest.raises(SimulationError, match="horizon"):
            _scenario(ControllerKind.none(), events=((500, LoadScale(1.1)),))

    def test_horizon_at_least_one_outer_period(self):
        with pytest.raises(SimulationError):
            _scenario(ControllerKind.none(), horizon=5)

    def test_t_outer_at_least_two(self):
        with pytest.raises(SimulationError, match="t_outer"):
            Scenario(horizon=20, t_outer=1, controller_kind=ControllerKind.adaptive())

    def test_adaptive_T_must_equal_t_outer(self):
        doc = {"horizon": 20, "t_outer": 10, "controller": {"kind": "adaptive"},
               "adaptive": {"T": 10}}
        assert scenario_from_dict(doc).t_outer == 10
        doc["adaptive"]["T"] = 5
        with pytest.raises(SimulationError, match="t_outer"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize(
        "kw",
        [
            pytest.param({"profile": math.nan}, id="pv_profile"),
            pytest.param({"series": {"s": ()},
                          "events": ((5, Intermittency("s")),)}, id="empty_series"),
            pytest.param({"series": {"s": (0.5, math.inf)},
                          "events": ((5, Intermittency("s")),)}, id="series_value"),
        ],
    )
    def test_profile_inputs_checked(self, ieee4, kw):
        with pytest.raises(SimulationError, match="series|finite"):
            run(_scenario(ControllerKind.conventional(), horizon=20, **kw), ieee4)

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
        "build",
        [
            pytest.param(lambda: CloudCover(scale=math.nan), id="CloudCover.scale"),
            pytest.param(lambda: LoadScale(math.nan), id="LoadScale.factor"),
            pytest.param(lambda: TelegraphSpec(dwell=math.nan), id="TelegraphSpec.dwell"),
            pytest.param(lambda: AdaptiveConfig(k_d=math.nan), id="AdaptiveConfig.k_d"),
            pytest.param(lambda: AdaptiveConfig(eps_sse=math.nan), id="AdaptiveConfig.eps_sse"),
            pytest.param(lambda: AdaptiveConfig(m_floor=math.nan), id="AdaptiveConfig.m_floor"),
            pytest.param(
                lambda: _scenario(ControllerKind.none(), dt_inner=math.nan),
                id="Scenario.dt_inner",
            ),
            pytest.param(
                lambda: _scenario(ControllerKind.none(), slope=math.nan),
                id="Scenario.droop_slope",
            ),
        ],
    )
    def test_nan_rejected(self, build):
        with pytest.raises(ValueError, match="must be|need"):
            build()

    def test_json_round_trip(self, ieee4):
        feeder, sc = get_preset("intermittency")
        doc = scenario_to_dict(sc)
        again = scenario_from_dict(doc)
        assert scenario_to_dict(again) == doc
        # round-tripped scenario drives an identical simulation
        t1 = run(sc, feeder)
        t2 = run(again, feeder)
        assert t1.voltages.tobytes() == t2.voltages.tobytes()


class TestAdaptiveLoop:
    def test_outer_dispatches_at_boundaries(self, ieee4):
        trace = run(
            _scenario(ControllerKind.adaptive(), profile={"bus3": ((20, 0.9),)}, horizon=80),
            ieee4,
        )
        ticks = sorted({d.tick for d in trace.param_dispatches})
        assert ticks == [30, 40, 50, 60, 70]  # first full generating window ends at 30

    def test_outer_skips_idle_windows(self, ieee4):
        trace = run(_scenario(ControllerKind.adaptive(), profile=0.0), ieee4)
        assert trace.param_dispatches == ()

    def test_qp_persists_across_topology_events(self, ieee4):
        sc = _scenario(
            ControllerKind.adaptive(),
            events=((55, SwitchEvent("switch1", "closed")),),
            horizon=120,
        )
        trace = run(sc, ieee4)
        before = [d for d in trace.param_dispatches if d.tick == 50 and d.bus == "bus3"]
        after = [d for d in trace.param_dispatches if d.tick == 60 and d.bus == "bus3"]
        assert before and after
        # q_p evolves from its pre-event value, not from a reset
        assert abs(after[0].params.q_p - before[0].params.q_p) < 0.1
        assert after[0].params.q_p != 0.0

    def test_locality_dispatch_depends_on_own_bus_only(self, ieee4_closed):
        sc = _scenario(ControllerKind.delayed(0.5), slope=1.0, horizon=60)
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
            ControllerKind.none(),
            horizon=20,
            profile=0.0,
            events=((8, LoadScale(40.0)),),
        )
        trace = run(sc, model)
        assert trace.flags[7] == ""
        assert trace.flags[8] == "pf_diverged"
        assert trace.voltages[8, 1] == trace.voltages[7, 1]
        assert trace.flags[19] == "pf_diverged"


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
            _scenario(ControllerKind.conventional(), slope=slope, profile=profile,
                      horizon=max(10 * n + 20, 100)),
            model,
        )
        dq = np.max(np.abs(np.diff(trace.q_inj, axis=0)), axis=1)
        assert np.all(dq[10 * n :] < 1e-6)


class TestMetrics:
    def _trace(self, volts, unit_buses=("b",), bus_ids=("s", "b"), t_outer=4):
        from voltvar_sim.sim import SimulationTrace

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
            param_dispatches=(),
            dt_inner=1.0,
            t_outer=t_outer,
        )

    def test_pinned_at_setpoint_all_zero(self):
        rep = metrics(self._trace([1.0] * 40), mu=1.0)
        assert rep.msse == 0.0 and rep.fc == 0 and rep.vvi == 0

    def test_constant_high_voltage_counts_every_tick(self):
        rep = metrics(self._trace([1.07] * 40), mu=1.0)
        assert rep.vvi_per_bus["b"] == 40
        assert rep.msse == pytest.approx(7.0)

    def test_sustained_band_b_needs_five_minutes(self):
        # 1.055 pu violates only range B; short runs do not count
        volts = [1.0] * 10 + [1.055] * 20 + [1.0] * 10
        rep = metrics(self._trace(volts), mu=1.0, limits=MetricsLimits(sustain_seconds=300))
        assert rep.vvi == 0
        volts_long = [1.0] * 5 + [1.055] * 320 + [1.0] * 5
        rep2 = metrics(self._trace(volts_long), mu=1.0)
        assert rep2.vvi_per_bus["b"] == 320

    def test_square_wave_window_counts_one_flicker(self):
        # +/-0.5% square wave; hand evaluation puts its window VF at ~5%,
        # far over any default limit, so each complete window counts once
        base = [1.005 if i % 2 else 0.995 for i in range(8)]
        volts = [1.0] + base + [1.0] * 3
        rep = metrics(self._trace(volts, t_outer=4), mu=1.0,
                      limits=MetricsLimits(vf_lim=0.03, window=4))
        assert rep.fc_per_inverter["b"] >= 1

    def test_dark_bus_ignored(self):
        volts = [float("nan")] * 12
        rep = metrics(self._trace(volts), mu=1.0)
        assert rep.msse == 0.0 and rep.vvi == 0 and rep.fc == 0


class TestCsvRoundTrip:
    def test_metrics_bit_identical(self, tmp_path, ieee4):
        sc = _scenario(ControllerKind.adaptive(), profile={"bus3": ((20, 0.9),)},
                       events=((50, SubstationVoltage(1.05)),), horizon=90)
        trace = run(sc, ieee4)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        again = read_trace_csv(path, dt_inner=sc.dt_inner, t_outer=sc.t_outer)
        lim = MetricsLimits(vf_lim=1.0, window=10)
        a = metrics(trace, mu=1.0, limits=lim)
        b = metrics(again, mu=1.0, limits=lim)
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
        a, b = metrics(trace), metrics(again)
        assert (a.msse, a.fc, a.vvi) == (b.msse, b.fc, b.vvi)
        assert a.msse_per_inverter == b.msse_per_inverter

    def test_csv_without_mu_column_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("tick,bus,V_pu,q_inj_pu,p_out_pu,flags\n0,bus1,1.03,,,\n")
        with pytest.raises(SimulationError, match="mu_pu"):
            read_trace_csv(path)

    def test_params_csv_written(self, tmp_path, ieee4):
        sc = _scenario(ControllerKind.adaptive(), profile=0.9, horizon=40)
        trace = run(sc, ieee4)
        path = tmp_path / "params.csv"
        write_params_csv(trace, path)
        text = path.read_text()
        assert text.splitlines()[0] == "tick,bus,m_p,q_p,q_min_p,q_max_p,v_min_p,v_max_p,mu"
        assert len(text.splitlines()) == len(trace.param_dispatches) + 1


class TestLinearizedEngine:
    def test_matches_full_engine_near_linearization_point(self, ieee4):
        lin = linearize(ieee4)
        sc = _scenario(ControllerKind.conventional(), slope=1.0, profile=0.9, horizon=60)
        full = run(sc, ieee4)
        approx = run(sc, lin)
        v_full = full.bus_voltage("bus3")[-1]
        v_lin = approx.bus_voltage("bus3")[-1]
        assert v_lin == pytest.approx(v_full, abs=2e-3)

    def test_substation_event_supported(self, ieee4):
        lin = linearize(ieee4)
        sc = _scenario(ControllerKind.none(), profile=0.9, horizon=30,
                       events=((10, SubstationVoltage(1.05)),))
        tr = run(sc, lin)
        v3 = tr.bus_voltage("bus3")
        assert v3[10] - v3[9] == pytest.approx(0.02, abs=1e-3)

    def test_switch_event_rejected(self, ieee4):
        lin = linearize(ieee4)
        sc = _scenario(ControllerKind.none(), profile=0.9, horizon=30,
                       events=((10, SwitchEvent("switch1", "closed")),))
        with pytest.raises(SimulationError, match="not supported"):
            run(sc, lin)

    def test_load_scale_rejected_when_engine_is_built(self, ieee4):
        lin = linearize(ieee4)
        sc = _scenario(ControllerKind.none(), profile=0.9, horizon=30,
                       events=((25, LoadScale(1.2)),))
        with pytest.raises(SimulationError, match="not supported"):
            SimulationEngine(sc, lin)
