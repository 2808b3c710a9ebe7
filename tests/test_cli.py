from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from voltvar_sim.cli import main
from voltvar_sim.sim import MetricsLimits, metrics, read_trace_csv

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
        rep = metrics(again, mu=1.0, limits=MetricsLimits(vf_lim=3.0, window=10))
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

    def test_bad_values_exit_2(self, tmp_path):
        assert main(["sweep", "--scenario", "fig3a", "--param", "m",
                     "--values", "a,b", "--out", str(tmp_path)]) == 2
        assert main(["sweep", "--scenario", "fig3a", "--param", "m",
                     "--values", ",", "--out", str(tmp_path)]) == 2


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

    def test_show_unknown_exits_2(self):
        assert main(["presets", "--show", "fig99"]) == 2


def test_usage_error_exits_2():
    assert main(["frobnicate"]) == 2
    assert main([]) == 2
