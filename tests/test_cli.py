from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from voltvar_sim import cli
from voltvar_sim.cli import main
from voltvar_sim.feeder import feeder_to_dict, solve_power_flow
from voltvar_sim.presets import get_preset
from voltvar_sim.sim import metrics, read_trace_csv, scenario_to_dict

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

    def test_missing_feeder_file_exits_4(self, tmp_path):
        scenario = tmp_path / "s.json"
        scenario.write_text(json.dumps({
            "horizon": 20, "t_outer": 10,
            "controller": {"kind": "none"},
        }))
        assert main(["run", "--scenario", str(scenario), "--feeder",
                     "/no/such/feeder.json", "--out", str(tmp_path)]) == 4

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

    def test_unknown_analyze_key_exits_2(self):
        assert main(["analyze", "--feeder", "ieee4_mod", "--set", "tau=0.5"]) == 2

    def test_feeder_required(self):
        assert main(["analyze"]) == 2


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
        trace = read_trace_csv(out_run / "trace.csv", t_outer=10)
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
            tr = read_trace_csv(d / "trace.csv", t_outer=10)
            v3 = tr.voltages[-20:, tr.bus_ids.index("bus3")]
            return v3.max() - v3.min()
        assert p2p(tmp_path / "3") < 1e-4
        assert p2p(tmp_path / "4.5") > 0.01

    def test_bad_param_exits_2(self, tmp_path):
        assert main(["sweep", "--scenario", "fig3a", "--param", "zeta",
                     "--values", "1", "--out", str(tmp_path)]) == 2

    def test_bad_values_exit_2(self, tmp_path, monkeypatch):
        assert main(["sweep", "--scenario", "fig3a", "--param", "m",
                     "--values", "a,b", "--out", str(tmp_path)]) == 2
        assert main(["sweep", "--scenario", "fig3a", "--param", "m",
                     "--values", ",", "--out", str(tmp_path)]) == 2
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

    def test_show_unknown_exits_2(self):
        assert main(["presets", "--show", "fig99"]) == 2


def test_usage_error_exits_2():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
