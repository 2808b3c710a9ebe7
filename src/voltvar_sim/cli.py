"""Command-line front end.

Subcommands: `run` (simulate a scenario, write trace/params/metrics),
`analyze` (stability and outer-loop convergence reports, CI-friendly
exit code), `sweep` (one run per parameter value, combined SSE-vs-outer-
iteration CSV), and `presets` (catalog of bundled scenarios).

Exit codes: 0 ok, 2 usage or schema error, 3 analysis-declared unstable,
4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import analysis
from .adaptation import AdaptationError
from .control import ControlError
from .feeder import (FeederError, FeederModel, PowerFlowError, energized_pv_buses,
                     load_feeder, sensitivity_matrix, solve_power_flow)
from .presets import (
    BUILTIN_FEEDERS,
    PRESETS,
    get_preset,
    list_presets,
    load_builtin_feeder,
    override_scenario,
)
from .sim import (
    Scenario,
    SimulationError,
    SimulationTrace,
    _csv_cell,
    linearize,
    load_scenario,
    metrics,
    run as run_sim,
    scenario_to_dict,
    write_params_csv,
    write_trace_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSTABLE = 3
EXIT_IO = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _resolve_feeder(value: str) -> FeederModel:
    if value in BUILTIN_FEEDERS:
        return load_builtin_feeder(value)
    path = Path(value)
    if not path.exists():
        raise _CliError(f"feeder file not found: {value}", EXIT_IO)
    return load_feeder(path)


def _set_pairs(args) -> Iterator[list[str]]:
    """The `--set key=value` pairs as [key, value], in the order given."""
    for key_value in args.set or []:
        if "=" not in key_value:
            raise _CliError(f"--set expects key=value, got {key_value!r}", EXIT_USAGE)
        yield key_value.split("=", 1)


def _resolve_run_inputs(args) -> tuple[FeederModel, Scenario]:
    scenario_ref = args.scenario
    if scenario_ref is None:
        raise _CliError("--scenario is required", EXIT_USAGE)
    key = scenario_ref.removeprefix("presets/")
    if key in PRESETS:
        feeder, scenario = get_preset(key)
    else:
        path = Path(scenario_ref)
        if not path.exists():
            raise _CliError(
                f"scenario not found (neither a preset nor a file): {scenario_ref}",
                EXIT_IO,
            )
        scenario = load_scenario(path)
        if args.feeder is None:
            raise _CliError("--feeder is required with a scenario file", EXIT_USAGE)
        feeder = _resolve_feeder(args.feeder)
    if key in PRESETS and args.feeder is not None:
        feeder = _resolve_feeder(args.feeder)
    for k, v in _set_pairs(args):
        scenario = override_scenario(scenario, k, v)
    if args.seed is not None:
        scenario = override_scenario(scenario, "seed", str(args.seed))
    return feeder, scenario


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("VOLTVAR_SIM_OUT") or "voltvar_out"
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _CliError(f"cannot create output directory {path}: {exc}", EXIT_IO)
    return path


def _metrics_table(rep) -> str:
    lines = [
        f"{'metric':<22}{'value':>12}",
        f"{'MSSE (%)':<22}{rep.msse:>12.4f}",
        f"{'flicker count':<22}{rep.fc:>12d}",
        f"{'voltage violations':<22}{rep.vvi:>12d}",
    ]
    for bus, val in rep.msse_per_inverter.items():
        lines.append(f"{'  msse ' + bus:<22}{val:>12.4f}")
    return "\n".join(lines)


def cmd_run(args) -> int:
    feeder, scenario = _resolve_run_inputs(args)
    out = _out_dir(args)
    trace = run_sim(scenario, linearize(feeder) if args.engine == "linear" else feeder)
    # flicker violations are counted against the scenario's maximum
    # flicker limit; strategy II intentionally works the slope up to the
    # borderline zone, so the borderline itself is not a violation
    rep = metrics(trace, scenario.adaptive.vf_lim_bar)
    write_trace_csv(trace, out / "trace.csv")
    write_params_csv(trace, out / "params.csv")
    payload = {
        "scenario": scenario.name,
        "seed": scenario.seed,
        "msse_percent": rep.msse,
        "fc": rep.fc,
        "vvi": rep.vvi,
        "msse_per_inverter": rep.msse_per_inverter,
        "fc_per_inverter": rep.fc_per_inverter,
        "vvi_per_bus": rep.vvi_per_bus,
        "diverged_ticks": sum(1 for f in trace.flags if f),
    }
    (out / "metrics.json").write_text(json.dumps(payload, indent=2) + "\n", "utf-8")
    (out / "metrics.txt").write_text(_metrics_table(rep) + "\n", "utf-8")
    print(f"wrote {out / 'trace.csv'}, params.csv, metrics.json, metrics.txt")
    print(_metrics_table(rep))
    return EXIT_OK


def _analyze_params(args) -> dict[str, float]:
    params = {"m": 1.0, "k_d": 4.0}
    for k, v in _set_pairs(args):
        if k not in ("m", "k_d"):
            raise _CliError(f"analyze supports overrides m and k_d, not {k!r}", EXIT_USAGE)
        try:
            params[k] = float(v)
        except ValueError:
            raise _CliError(f"bad value for {k}: {v!r}", EXIT_USAGE)
    return params


def cmd_analyze(args) -> int:
    if args.feeder is None:
        raise _CliError("--feeder is required", EXIT_USAGE)
    feeder = _resolve_feeder(args.feeder)
    params = _analyze_params(args)
    solution = solve_power_flow(feeder)
    if not solution.converged:
        print("power flow did not converge at the base operating point", file=sys.stderr)
        return EXIT_UNSTABLE
    buses = energized_pv_buses(feeder)  # none is a usage error (exit 2)
    try:
        a = sensitivity_matrix(feeder, solution, buses)
    except PowerFlowError as exc:  # singular Jacobian: near voltage collapse
        print(str(exc), file=sys.stderr)
        return EXIT_UNSTABLE
    stab = analysis.stability_report(a, params["m"])
    conv = analysis.outer_b_matrix(a, params["m"], params["k_d"])
    payload = {
        "operating_point_id": solution.point_id,
        "inverter_buses": list(buses),
        "sensitivity": [[float(x) for x in row] for row in a],
        "slope": params["m"],
        "k_d": params["k_d"],
        "rho_ma": stab.rho_ma,
        "critical_slopes": list(stab.critical_slopes),
        "row_sum_margins": list(stab.row_sum_margins),
        "stable_sufficient": stab.stable_sufficient,
        "stable_spectral": stab.stable_spectral,
        "b_matrix": [[float(x) for x in row] for row in conv.b_matrix],
        "rho_b": conv.rho_b,
        "converges": conv.converges,
        "k_d_upper_scalar": conv.k_d_upper_scalar,
    }
    print(json.dumps(payload, indent=2))
    verdict = "STABLE" if stab.stable_spectral else "UNSTABLE"
    outcome = "CONVERGES" if conv.converges else "DIVERGES"
    print(f"inner loop: {verdict} (rho(MA) = {stab.rho_ma:.4f}, "
          f"critical slopes {', '.join(f'{c:.4g}' for c in stab.critical_slopes)})")
    print(f"outer loop: {outcome} (rho(B) = {conv.rho_b:.4f})")
    if stab.stable_spectral and conv.converges:
        return EXIT_OK
    return EXIT_UNSTABLE


def _sse_series(trace: SimulationTrace) -> list[tuple[int, str, float]]:
    """(closing tick, bus, sse_avg) of every outer-loop window without a
    dark tick, in tick then unit order."""
    T = trace.t_outer
    sse = trace.window_stats().sse_avg
    return [
        ((k + 1) * T, b, float(s))
        for k, row in enumerate(sse)
        for b, s in zip(trace.unit_buses, row)
        if not np.isnan(s)
    ]


def cmd_sweep(args) -> int:
    feeder, scenario = _resolve_run_inputs(args)
    if args.param not in ("k_d", "m", "tau", "T"):
        raise _CliError(f"sweep parameter must be one of k_d, m, tau, T, not {args.param!r}", EXIT_USAGE)
    if not args.values:
        raise _CliError("sweep needs --values", EXIT_USAGE)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise _CliError("sweep needs at least one value", EXIT_USAGE)
    # every value is checked before the first run
    scenarios = [override_scenario(scenario, args.param, v) for v in values]
    model = linearize(feeder) if args.engine == "linear" else feeder
    out = _out_dir(args)
    results = [(v, _sse_series(run_sim(s, model))) for v, s in zip(values, scenarios)]

    sweep_path = out / "sweep.csv"
    bus_cell = functools.cache(_csv_cell)
    with open(sweep_path, "w", encoding="utf-8") as f:
        f.write("param,value,outer_tick,bus,sse_avg\n")
        for value, series in results:
            for t, b, sse in series:
                f.write(f"{args.param},{value},{t}{bus_cell(b)},{sse!r}\n")
            final = series[-1][2] if series else float("nan")
            print(f"{args.param}={value}: {len(series)} samples, final sse_avg {final:+.6f}")
    print(f"wrote {sweep_path}")
    return EXIT_OK


def cmd_presets(args) -> int:
    if args.show:
        key = args.show.removeprefix("presets/")
        if key not in PRESETS:
            raise _CliError(f"unknown preset {args.show!r}", EXIT_USAGE)
        doc = scenario_to_dict(get_preset(key)[1])
        doc["feeder"] = PRESETS[key].feeder
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    width = max(len(n) for n, _ in list_presets())
    for name, desc in list_presets():
        print(f"{name:<{width}}  {desc}")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voltvar-sim",
        description="Simulate and analyze local volt/VAR control on distribution feeders.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, scenario: bool = True) -> None:
        p.add_argument("--feeder", help="feeder JSON file or builtin name "
                                        f"({', '.join(BUILTIN_FEEDERS)})")
        if scenario:
            p.add_argument("--scenario", help="scenario JSON file or preset name (presets/NAME)")
            p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
            p.add_argument("--engine", choices=("full", "linear"), default="full",
                           help="power-flow engine: full Newton or linearized")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a documented scenario/analysis key")
        p.add_argument("--out", help="output directory (fallback: $VOLTVAR_SIM_OUT)")

    p_run = sub.add_parser("run", help="simulate a scenario and write trace + metrics")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="stability and convergence reports")
    common(p_an, scenario=False)
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="run a scenario per parameter value")
    common(p_sw)
    p_sw.add_argument("--param", required=True, help="one of k_d, m, tau, T")
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.set_defaults(func=cmd_sweep)

    p_pr = sub.add_parser("presets", help="list bundled presets")
    p_pr.add_argument("--show", help="print one preset's scenario JSON")
    p_pr.set_defaults(func=cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except (SimulationError, FeederError, ControlError, AdaptationError,
            analysis.AnalysisError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
