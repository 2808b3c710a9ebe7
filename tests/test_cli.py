from __future__ import annotations

import csv
import importlib
import inspect
import json
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import voltvar_sim
from voltvar_sim import cli
from voltvar_sim.analysis import AnalysisError, outer_b_matrix
from voltvar_sim.cli import main
from voltvar_sim.feeder import Bus, FeederModel, Line, PvUnit, feeder_to_dict, solve_power_flow
from voltvar_sim.presets import _OVERRIDES, get_preset
from voltvar_sim.results import metrics, read_trace_csv
from voltvar_sim.scenario import scenario_to_dict
from voltvar_sim.sim import run

ALL_PRESETS = (
    "fig3a", "fig3b", "fig3c", "fig10a", "fig10b", "fig10c",
    "setpoint_step", "intermittency", "cloud_cover", "substation_surge",
)


class TestRun:
    def test_preset_run_writes_outputs(self, tmp_path, capsys):
        code = main(["run", "--scenario", "presets/fig3a", "--out", str(tmp_path)])
        assert code == 0
        for name in ("trace.csv", "params.csv", "metrics.json", "metrics.txt"):
            assert (tmp_path / name).exists()
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert payload["scenario"] == "fig3a"
        out = capsys.readouterr().out
        assert "MSSE" in out

    def test_metrics_files_hold_the_printed_report(self, tmp_path, capsys):
        assert main(["run", "--scenario", "presets/fig10a", "--out", str(tmp_path)]) == 0
        printed = capsys.readouterr().out.split("\n", 1)[1]
        assert (tmp_path / "metrics.txt").read_text("utf-8") == printed
        payload = json.loads((tmp_path / "metrics.json").read_text("utf-8"))
        assert list(payload) == ["scenario", "seed", "msse_percent", "fc", "vvi",
                                 "msse_per_inverter", "fc_per_inverter", "vvi_per_bus",
                                 "diverged_ticks"]
        feeder, sc = get_preset("fig10a")
        rep = metrics(run(sc, feeder), sc.adaptive.vf_lim_bar)
        assert (payload["msse_percent"], payload["fc"], payload["vvi"]) == (rep.msse, rep.fc, rep.vvi)

    def test_unknown_override_key_exits_2(self, tmp_path, capsys):
        code = main(["run", "--scenario", "fig3a", "--out", str(tmp_path),
                     "--set", "warp=9"])
        assert code == 2

    def test_bad_override_value_exits_2(self, tmp_path):
        assert main(["run", "--scenario", "fig3a", "--out", str(tmp_path),
                     "--set", "m=fast"]) == 2
        assert main(["run", "--scenario", "fig3a", "--out", str(tmp_path),
                     "--set", "m"]) == 2

    @pytest.mark.parametrize("value, code", [("true", 0), ("1", 0), ("yes", 2)])
    def test_bool_override_parsed(self, tmp_path, monkeypatch, value, code):
        seen = []
        run_sim = cli.run_sim
        monkeypatch.setattr(cli, "run_sim", lambda sc, model: seen.append(sc) or run_sim(sc, model))
        assert main(["run", "--scenario", "fig3a", "--out", str(tmp_path),
                     "--set", f"recompute_droop_capacity={value}"]) == code
        assert [sc.recompute_droop_capacity for sc in seen] == ([True] if code == 0 else [])

    def test_missing_scenario_file_exits_4(self, tmp_path):
        assert main(["run", "--scenario", "/no/such/file.json",
                     "--out", str(tmp_path)]) == 4

    def test_missing_feeder_file_exits_4(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "horizon": 20, "t_outer": 10,
            "controller": {"kind": "none"},
        }))
        assert main(["run", "--scenario", str(scenario), "--feeder",
                     "/no/such/feeder.json", "--out", str(tmp_path)]) == 4
        assert main(["analyze", "--feeder", "/no/such/feeder.json"]) == 4
        assert "/no/such/feeder.json" in capsys.readouterr().err  # the OS's message

    def test_out_under_a_regular_file_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", "--scenario", "presets/fig3a", "--out", str(blocker / "out")]) == 4
        assert str(blocker / "out") in capsys.readouterr().err  # the OS's message

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--param", "m", "--values", "1"]])
    def test_scenario_required_exits_2(self, tmp_path, capsys, command):
        assert main(command + ["--out", str(tmp_path)]) == 2
        assert "required: --scenario" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["vf_lim_bar", "eps_sse", "delta_vf_bar", "m_init"])
    def test_non_finite_outer_loop_constant_exits_2(self, tmp_path, capsys, monkeypatch, key):
        # each passed its ordering check at infinity and ran
        runs = []
        monkeypatch.setattr(cli, "run_sim", lambda *a: runs.append(a))
        assert main(["run", "--scenario", "presets/fig10a", "--set", f"{key}=inf",
                     "--out", str(tmp_path)]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert runs == []

    def test_malformed_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"horizon": 20}')
        assert main(["run", "--scenario", str(bad), "--feeder", "ieee4_mod",
                     "--out", str(tmp_path)]) == 2

    def test_scenario_file_with_builtin_feeder(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "name": "file-case",
            "horizon": 30,
            "t_outer": 10,
            "mu": 1.0,
            "controller": {"kind": "conventional", "slope": 1.0},
            "pv_profile": {"bus3": [[5, 0.9]]},
            "events": [{"tick": 20, "kind": "substation_voltage", "v_pu": 1.05}],
        }))
        out = tmp_path / "out"
        assert main(["run", "--scenario", str(scenario), "--feeder", "ieee4_mod",
                     "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VOLTVAR_SIM_OUT", str(tmp_path / "envout"))
        assert main(["run", "--scenario", "fig3a"]) == 0
        assert (tmp_path / "envout" / "trace.csv").exists()

    def test_seed_flag_overrides(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--scenario", "intermittency", "--out", str(out1),
                     "--seed", "7", "--set", "horizon=120"]) == 0
        assert main(["run", "--scenario", "intermittency", "--out", str(out2),
                     "--seed", "9", "--set", "horizon=120"]) == 0
        a = (out1 / "trace.csv").read_text()
        b = (out2 / "trace.csv").read_text()
        assert a != b

    def test_preset_is_built_on_the_feeder_it_runs_on(self, tmp_path, monkeypatch, ieee4):
        # intermittency has one telegraph series per unit of its feeder;
        # built on feeder30, its events named buses that ieee4_mod lacks
        built, ran = [], []
        get_preset, run_sim = cli.get_preset, cli.run_sim
        monkeypatch.setattr(cli, "get_preset", lambda *a: built.append(a) or get_preset(*a))
        monkeypatch.setattr(cli, "run_sim", lambda sc, model: ran.append((sc, model)) or run_sim(sc, model))
        assert main(["run", "--scenario", "presets/intermittency", "--feeder", "ieee4_mod",
                     "--out", str(tmp_path)]) == 0
        [(key, feeder)] = built  # one build, through the name the tracer times
        [(scenario, model)] = ran
        assert key == "intermittency" and feeder is model and model == ieee4
        assert len(scenario.series) == len(ieee4.pv_buses) == 2
        assert [ev.buses for _, ev in scenario.events] == [(b,) for b in ieee4.pv_buses]

    def test_runs_in_one_process_do_not_depend_on_their_order(self, tmp_path):
        # every run on feeder30 shares one model and one parser
        def runs(order: tuple[str, ...], tag: str) -> None:
            for c in order:
                assert main(["run", "--scenario", "presets/intermittency", "--set",
                             f"controller={c}", "--out", str(tmp_path / tag / c)]) == 0

        runs(("conventional", "adaptive"), "forward")
        runs(("adaptive", "conventional"), "reverse")
        for c in ("conventional", "adaptive"):
            for name in ("trace.csv", "params.csv", "metrics.json", "metrics.txt"):
                assert (tmp_path / "forward" / c / name).read_bytes() == \
                    (tmp_path / "reverse" / c / name).read_bytes()

    def test_set_overrides_do_not_carry_to_the_next_call(self, tmp_path, monkeypatch):
        seen = []
        run_sim = cli.run_sim
        monkeypatch.setattr(cli, "run_sim", lambda sc, model: seen.append(sc) or run_sim(sc, model))
        assert main(["run", "--scenario", "presets/fig3a", "--set", "m=2",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["run", "--scenario", "presets/fig3a", "--out", str(tmp_path / "b")]) == 0
        assert [sc.droop_slope for sc in seen] == [2.0, 1.0]
        assert cli._parser() is cli._parser()

    def test_linear_engine_run(self, tmp_path):
        assert main(["run", "--scenario", "fig3a", "--engine", "linear",
                     "--out", str(tmp_path)]) == 0

    def test_csv_round_trip_reproduces_metrics(self, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--scenario", "fig10a", "--out", str(out)]) == 0
        payload = json.loads((out / "metrics.json").read_text())
        again = read_trace_csv(out / "trace.csv", dt_inner=1.0, t_outer=10)
        rep = metrics(again, vf_lim=3.0)
        assert rep.msse == payload["msse_percent"]
        assert rep.fc == payload["fc"]
        assert rep.vvi == payload["vvi"]


class TestAnalyze:
    def test_stable_configuration_exits_0(self, capsys):
        code = main(["analyze", "--feeder", "ieee4_mod",
                     "--set", "m=1", "--set", "k_d=4"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out[: out.rindex("}") + 1])
        assert payload["critical_slopes"][0] == pytest.approx(3.5, abs=0.01)
        assert payload["rho_b"] == pytest.approx(0.111, abs=0.01)
        assert "STABLE" in out and "CONVERGES" in out

    def test_supercritical_slope_exits_3(self):
        assert main(["analyze", "--feeder", "ieee4_mod", "--set", "m=6"]) == 3

    def test_divergent_gain_exits_3(self):
        assert main(["analyze", "--feeder", "ieee4_mod",
                     "--set", "m=1", "--set", "k_d=10"]) == 3

    def _analyze(self, capsys, feeder: str) -> dict:
        assert main(["analyze", "--feeder", feeder]) == 0
        out = capsys.readouterr().out
        return json.loads(out[: out.rindex("}") + 1])

    def test_reports_the_solved_operating_point(self, capsys, ieee4):
        payload = self._analyze(capsys, "ieee4_mod")
        assert payload["operating_point_id"] == solve_power_flow(ieee4).point_id

    def test_inverter_buses_are_the_matrix_rows(self, capsys, tmp_path, ieee4_closed):
        # bus4's unit sits behind the open switch, outside the 1x1 matrix
        payload = self._analyze(capsys, "ieee4_mod")
        assert payload["inverter_buses"] == ["bus3"]
        assert np.shape(payload["sensitivity"]) == (1, 1)
        assert len(payload["critical_slopes"]) == 1
        closed = tmp_path / "closed.json"
        closed.write_text(json.dumps(feeder_to_dict(ieee4_closed)))
        payload = self._analyze(capsys, str(closed))
        assert payload["inverter_buses"] == ["bus3", "bus4"]
        assert np.shape(payload["sensitivity"]) == (2, 2)

    @pytest.mark.parametrize("units", [[], ["bus4"]], ids=["no-pv", "only-dark-pv"])
    def test_feeder_without_energized_pv_exits_2(self, capsys, tmp_path, ieee4, units):
        doc = feeder_to_dict(ieee4)
        doc["pv_units"] = [u for u in doc["pv_units"] if u["bus"] in units]
        path = tmp_path / "feeder.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--feeder", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no energized PV unit" in captured.err

    def test_pv_unit_on_slack_bus_exits_2(self, capsys, tmp_path, ieee4):
        # its row would be missing from the matrix that `inverter_buses` labels
        doc = feeder_to_dict(ieee4)
        doc["pv_units"].append({"bus": "bus1", "rating_s": 0.5, "p_out": 0.1})
        path = tmp_path / "feeder.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", "--feeder", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "pv unit on the slack bus bus1" in captured.err

    def test_unknown_analyze_key_exits_2(self):
        assert main(["analyze", "--feeder", "ieee4_mod", "--set", "tau=0.5"]) == 2

    def test_analyze_takes_no_out_flag(self, capsys, tmp_path):
        # analyze writes no file, so `--out` is an unknown flag there
        assert main(["analyze", "--feeder", "ieee4_mod", "--out", str(tmp_path / "x")]) == 2
        assert "unrecognized arguments: --out" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("k_d", ["-1", "0", "-0.0"])
    def test_gain_held_to_the_run_rule(self, capsys, tmp_path, k_d):
        # `analyze` and `run` take the same gains (`AdaptiveConfig`'s rule)
        with pytest.raises(AnalysisError, match=r"^k_d must be finite and > 0$"):
            outer_b_matrix(np.array([[0.30, 0.28], [0.27, 0.44]]), 1.0, [4.0, float(k_d)])
        for argv in (["analyze", "--feeder", "ieee4_mod"],
                     ["run", "--scenario", "presets/fig10a", "--out", str(tmp_path)]):
            assert main(argv + ["--set", f"k_d={k_d}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "k_d must be finite and > 0" in captured.err

    @staticmethod
    def _strict_payload(out: str) -> dict:
        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")
        return json.JSONDecoder(parse_constant=reject).raw_decode(out)[0]

    def test_bound_past_the_float_range_is_null(self, capsys):
        assert main(["analyze", "--feeder", "ieee4_mod", "--set", "m=1e308"]) == 3
        payload = self._strict_payload(capsys.readouterr().out)
        assert payload["slope"] == 1e308
        assert payload["k_d_upper_scalar"] is None

    @pytest.mark.parametrize("setting", ["m=1e308", "k_d=1e308"])
    def test_summary_lines_stay_short_at_huge_gains(self, capsys, setting):
        assert main(["analyze", "--feeder", "ieee4_mod", "--set", setting]) == 3
        out = capsys.readouterr().out.splitlines()
        summary = [line for line in out if line.startswith(("inner loop:", "outer loop:"))]
        assert len(summary) == 2
        assert all(len(line) < 120 for line in summary), summary

    def test_non_finite_payload_floats_are_null(self, capsys, monkeypatch):
        # a zero sensitivity row: no critical slope, no single-inverter bound
        monkeypatch.setattr(cli, "sensitivity_matrix", lambda *a: np.zeros((1, 1)))
        assert main(["analyze", "--feeder", "ieee4_mod"]) == 3
        payload = self._strict_payload(capsys.readouterr().out)
        assert payload["critical_slopes"] == [None]
        assert payload["k_d_upper_scalar"] is None
        assert payload["rho_b"] == 1.0

    def test_feeder_required(self, capsys):
        assert main(["analyze"]) == 2
        assert "required: --feeder" in capsys.readouterr().err

    def test_base_flow_that_diverges_exits_3(self, tmp_path, capsys):
        # a two-bus feeder at 9x the load it solves at
        model = FeederModel(
            buses=(Bus("src", "slack", v_set=1.0), Bus("b2", "load", load_p=3.6, load_q=0.9)),
            lines=(Line("src", "b2", 0.02, 0.2),),
            pv_units=(PvUnit("b2", 0.3, p_out=0.0),),
        )
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(feeder_to_dict(model)))
        assert main(["analyze", "--feeder", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "did not converge at the base operating point" in captured.err


class TestSweep:
    def test_kd_sweep_writes_all_series(self, tmp_path):
        code = main(["sweep", "--scenario", "fig10a", "--param", "k_d",
                     "--values", "2,4.5,7,10", "--out", str(tmp_path),
                     "--engine", "linear"])
        assert code == 0
        with open(tmp_path / "sweep.csv") as f:
            rows = list(csv.DictReader(f))
        values = sorted({r["value"] for r in rows})
        assert values == ["10", "2", "4.5", "7"]
        assert all(r["param"] == "k_d" for r in rows)

    def test_bus_id_is_quoted_as_csv_quotes_it(self, tmp_path):
        # fig10a with its PV bus renamed to an id that needs csv quoting
        feeder, scenario = get_preset("fig10a")
        name = 'bus3,"x"'
        for path, doc in (("feeder.json", feeder_to_dict(feeder)),
                          ("scenario.json", scenario_to_dict(scenario))):
            (tmp_path / path).write_text(json.dumps(doc).replace('"bus3"', json.dumps(name)))
        assert main(["sweep", "--scenario", str(tmp_path / "scenario.json"), "--feeder",
                     str(tmp_path / "feeder.json"), "--param", "k_d", "--values", "1,2",
                     "--out", str(tmp_path)]) == 0
        with open(tmp_path / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert rows and {r["bus"] for r in rows} == {name}
        assert all(len(r) == 5 and math.isfinite(float(r["sse_avg"])) for r in rows)

    def test_single_value_equals_run_extraction(self, tmp_path):
        out_sweep = tmp_path / "sweep"
        out_run = tmp_path / "run"
        assert main(["sweep", "--scenario", "fig3a", "--param", "m",
                     "--values", "1", "--out", str(out_sweep)]) == 0
        assert main(["run", "--scenario", "fig3a", "--out", str(out_run),
                     "--set", "m=1"]) == 0
        with open(out_sweep / "sweep.csv") as f:
            rows = [r for r in csv.DictReader(f) if r["bus"] == "bus3"]
        trace = read_trace_csv(out_run / "trace.csv", dt_inner=1.0, t_outer=10)
        v3 = trace.voltages[:, trace.bus_ids.index("bus3")]
        for r in rows:
            t = int(r["outer_tick"])
            window = v3[t - 9 : t + 1]
            assert float(r["sse_avg"]) == pytest.approx(np.mean(window - 1.0), abs=1e-12)

    def test_slope_sweep_splits_at_critical(self, tmp_path):
        # m crossing the 3.5 critical slope: settled below, oscillating above
        scenario = tmp_path / "steady.json"
        scenario.write_text(json.dumps({
            "name": "steady",
            "horizon": 140,
            "t_outer": 10,
            "controller": {"kind": "conventional", "slope": 1.0},
            "pv_profile": {"bus3": 0.9},
        }))
        for m in ("3", "4.5"):
            assert main(["run", "--scenario", str(scenario), "--feeder",
                         "ieee4_mod", "--out", str(tmp_path / m),
                         "--set", f"m={m}"]) == 0
        def p2p(d):
            tr = read_trace_csv(d / "trace.csv", dt_inner=1.0, t_outer=10)
            v3 = tr.voltages[-20:, tr.bus_ids.index("bus3")]
            return v3.max() - v3.min()
        assert p2p(tmp_path / "3") < 1e-4
        assert p2p(tmp_path / "4.5") > 0.01

    def test_tau_sweep_needs_the_delayed_controller(self, tmp_path, monkeypatch):
        # the adaptive law does not read tau: every value is a usage error
        runs = []
        monkeypatch.setattr(cli, "run_sim", lambda *a: runs.append(a))
        assert main(["sweep", "--scenario", "presets/fig10a", "--param", "tau",
                     "--values", "0.1,0.8", "--out", str(tmp_path)]) == 2
        assert main(["run", "--scenario", "presets/fig10a", "--set", "tau=0.3",
                     "--out", str(tmp_path)]) == 2
        assert runs == []

    def test_bad_param_exits_2(self, tmp_path, capsys):
        assert main(["sweep", "--scenario", "fig3a", "--param", "zeta",
                     "--values", "1", "--out", str(tmp_path)]) == 2
        assert "invalid choice: 'zeta'" in capsys.readouterr().err

    def test_bad_values_exit_2(self, tmp_path, monkeypatch):
        assert main(["sweep", "--scenario", "fig3a", "--param", "m",
                     "--values", "a,b", "--out", str(tmp_path)]) == 2
        assert main(["sweep", "--scenario", "fig3a", "--param", "m",
                     "--values", ",", "--out", str(tmp_path)]) == 2
        assert main(["sweep", "--scenario", "fig3a", "--param", "m",
                     "--values=", "--out", str(tmp_path)]) == 2
        # a bad value after good ones stops the sweep before its first run
        runs = []
        monkeypatch.setattr(cli, "run_sim", lambda *a: runs.append(a))
        assert main(["sweep", "--scenario", "presets/intermittency", "--param", "T",
                     "--values", "10,20,10.5", "--out", str(tmp_path)]) == 2
        assert runs == []
        assert not (tmp_path / "sweep.csv").exists()


class TestPresets:
    def test_catalog_lists_everything(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ALL_PRESETS:
            assert name in out

    def test_show_emits_scenario_json(self, capsys):
        assert main(["presets", "--show", "intermittency"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["feeder"] == "feeder30"
        assert doc["controller"]["kind"] == "adaptive"

    def test_shown_preset_runs_as_the_preset(self, tmp_path, capsys):
        for name in ALL_PRESETS:
            assert main(["presets", "--show", name]) == 0
            doc = capsys.readouterr().out
            (tmp_path / f"{name}.json").write_text(doc)
            out_file, out_preset = tmp_path / f"{name}-file", tmp_path / f"{name}-preset"
            assert main(["run", "--scenario", str(tmp_path / f"{name}.json"),
                         "--feeder", json.loads(doc)["feeder"], "--out", str(out_file)]) == 0
            assert main(["run", "--scenario", f"presets/{name}", "--out", str(out_preset)]) == 0
            capsys.readouterr()
            assert (out_file / "metrics.json").read_text() == (
                out_preset / "metrics.json").read_text(), name

    def test_show_unknown_exits_2(self, capsys):
        assert main(["presets", "--show", "fig99"]) == 2
        assert "unknown preset 'fig99'" in capsys.readouterr().err


def test_usage_error_exits_2():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def _public_error_classes() -> dict[str, type]:
    """Every public exception class of every module of the package, by
    qualified name."""
    found = {}
    for info in pkgutil.iter_modules(voltvar_sim.__path__, "voltvar_sim."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == info.name and issubclass(cls, Exception) and name[0] != "_":
                found[f"{info.name}.{name}"] = cls
    return found


def test_every_public_error_class_is_exported():
    # a library caller catches what the package raises with one class and
    # without importing a submodule; `codec.SchemaError` never leaves it
    # (the feeder and scenario loaders raise FeederError or SimulationError
    # instead), but it is one of the family too
    internal = {"voltvar_sim.codec.SchemaError"}
    classes = _public_error_classes()
    for qualified, cls in classes.items():
        assert issubclass(cls, voltvar_sim.VoltVarError), qualified
        if qualified not in internal:
            assert getattr(voltvar_sim, cls.__name__, None) is cls, qualified
            assert cls.__name__ in voltvar_sim.__all__, qualified
    assert {"voltvar_sim.analysis.AnalysisError", "voltvar_sim.control.ControlError",
            "voltvar_sim.adaptation.AdaptationError", "voltvar_sim.feeder.FeederError",
            "voltvar_sim.feeder.PowerFlowError", "voltvar_sim.scenario.SimulationError",
            "voltvar_sim.codec.VoltVarError"} <= set(classes)
    assert issubclass(voltvar_sim.VoltVarError, ValueError)


@pytest.mark.parametrize("cls", _public_error_classes().values(), ids=lambda cls: cls.__name__)
def test_main_exits_2_on_every_package_error(cls, tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise cls("rejected for a reason")

    monkeypatch.setattr(cli, "run_sim", fail)
    assert main(["run", "--scenario", "presets/fig10a", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "rejected for a reason\n"


# --set keys and --seed, and values of every kind: numbers and non-numbers
_OVERRIDE_KEYS = sorted(_OVERRIDES) + ["--seed"]
_VALUES = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "0", "-0", "-1", "1e-320", "5e-324", "1e308",
                     "1e400", "true", "false", "fast", "", " ", "delayed", "adaptive", "1_0"]),
    st.floats().map(repr),
    st.integers(-10**12, 10**12).map(str),
)


@settings(max_examples=60, deadline=None)
@example(key="--seed", value="-1")
@example(key="seed", value="-1")
@example(key="dt_inner", value="1e-320")
@given(key=st.sampled_from(_OVERRIDE_KEYS), value=_VALUES)
def test_no_override_value_escapes_main(tmp_path_factory, key, value):
    # a horizon of 10^11 ticks runs out of memory, a resource limit and not
    # an input check; memory grows with the horizon, so it is drawn small
    if key == "horizon" and value.strip().lstrip("+-").isdigit():
        assume(int(value) <= 10**4)
    flag = ["--seed", value] if key == "--seed" else ["--set", f"{key}={value}"]
    out = tmp_path_factory.mktemp("override")
    assert main(["run", "--scenario", "presets/fig10a", *flag, "--out", str(out)]) in (0, 2)
