"""Command-line front end.

Subcommands: `run` (simulate a scenario, write trace/params/metrics),
`analyze` (stability and outer-loop convergence reports, CI-friendly
exit code), `sweep` (one run per parameter value, combined SSE-vs-outer-
iteration CSV), and `presets` (catalog of bundled scenarios).

Exit codes: 0 ok, 2 usage or schema error (argparse's, or any
`VoltVarError`), 3 analysis-declared unstable, 4 I/O error (any
`OSError`).  `main` is the one place that maps an error to its code.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections.abc import Iterator
from functools import cache
from pathlib import Path

from . import analysis
from .codec import VoltVarError
from .feeder import (FeederModel, PowerFlowError, energized_pv_buses, load_feeder,
                     sensitivity_matrix, solve_power_flow)
from .presets import (BUILTIN_FEEDERS, PRESETS, get_preset, list_presets, load_builtin_feeder,
                      override_scenario)
from .results import (metrics, metrics_table, sse_series, write_metrics, write_params_csv,
                      write_sweep_csv, write_trace_csv)
from .scenario import Scenario, load_scenario, scenario_to_dict
from .sim import linearize, run as run_sim

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNSTABLE = 3
EXIT_IO = 4


def _resolve_feeder(value: str) -> FeederModel:
    return load_builtin_feeder(value) if value in BUILTIN_FEEDERS else load_feeder(value)


def _set_pairs(args) -> Iterator[list[str]]:
    """The `--set key=value` pairs as [key, value], in the order given."""
    for key_value in args.set or []:
        if "=" not in key_value:
            raise VoltVarError(f"--set expects key=value, got {key_value!r}")
        yield key_value.split("=", 1)


def _resolve_run_inputs(args) -> tuple[FeederModel, Scenario]:
    key = args.scenario.removeprefix("presets/")
    if key in PRESETS:
        feeder = None if args.feeder is None else _resolve_feeder(args.feeder)
        feeder, scenario = get_preset(key, feeder)
    else:
        if not Path(args.scenario).exists():
            raise FileNotFoundError(f"scenario not found (neither a preset nor a file): "
                                    f"{args.scenario}")
        scenario = load_scenario(args.scenario)
        if args.feeder is None:
            raise VoltVarError("--feeder is required with a scenario file")
        feeder = _resolve_feeder(args.feeder)
    for k, v in _set_pairs(args):
        scenario = override_scenario(scenario, k, v)
    if args.seed is not None:
        scenario = override_scenario(scenario, "seed", str(args.seed))
    return feeder, scenario


def _out_dir(args) -> Path:
    path = Path(args.out or os.environ.get("VOLTVAR_SIM_OUT") or "voltvar_out")
    path.mkdir(parents=True, exist_ok=True)
    return path


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
    write_metrics(rep, trace, scenario, out)
    print(f"wrote {out / 'trace.csv'}, params.csv, metrics.json, metrics.txt")
    print(metrics_table(rep))
    return EXIT_OK


def _analyze_params(args) -> dict[str, float]:
    params = {"m": 1.0, "k_d": 4.0}
    for k, v in _set_pairs(args):
        if k not in ("m", "k_d"):
            raise VoltVarError(f"analyze supports overrides m and k_d, not {k!r}")
        try:
            params[k] = float(v)
        except ValueError:
            raise VoltVarError(f"bad value for {k}: {v!r}")
    return params


def _strict(value):
    """`value` with every float that is not finite as None: strict JSON
    has no NaN or infinity."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, list):
        return [_strict(x) for x in value]
    return value


def _radius(x: float) -> str:
    """A spectral radius for the summary lines: four decimals, in
    exponent form from 1e6 on."""
    return f"{x:.4f}" if abs(x) < 1e6 else f"{x:.4e}"


def cmd_analyze(args) -> int:
    feeder = _resolve_feeder(args.feeder)
    params = _analyze_params(args)
    solution = solve_power_flow(feeder)
    if not solution.converged:
        print("power flow did not converge at the base operating point", file=sys.stderr)
        return EXIT_UNSTABLE
    buses = energized_pv_buses(feeder)  # none is a usage error (exit 2)
    try:
        a = sensitivity_matrix(feeder, solution)
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
    print(json.dumps({k: _strict(v) for k, v in payload.items()}, indent=2, allow_nan=False))
    verdict = "STABLE" if stab.stable_spectral else "UNSTABLE"
    outcome = "CONVERGES" if conv.converges else "DIVERGES"
    print(f"inner loop: {verdict} (rho(MA) = {_radius(stab.rho_ma)}, "
          f"critical slopes {', '.join(f'{c:.4g}' for c in stab.critical_slopes)})")
    print(f"outer loop: {outcome} (rho(B) = {_radius(conv.rho_b)})")
    if stab.stable_spectral and conv.converges:
        return EXIT_OK
    return EXIT_UNSTABLE


def cmd_sweep(args) -> int:
    feeder, scenario = _resolve_run_inputs(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise VoltVarError("sweep needs at least one value")
    # every value is checked before the first run
    scenarios = [override_scenario(scenario, args.param, v) for v in values]
    model = linearize(feeder) if args.engine == "linear" else feeder
    out = _out_dir(args)
    results = [(v, sse_series(run_sim(s, model))) for v, s in zip(values, scenarios)]
    sweep_path = out / "sweep.csv"
    write_sweep_csv(sweep_path, args.param, results)
    for value, series in results:
        final = series[-1][2] if series else float("nan")
        print(f"{args.param}={value}: {len(series)} samples, final sse_avg {final:+.6f}")
    print(f"wrote {sweep_path}")
    return EXIT_OK


def cmd_presets(args) -> int:
    if args.show:
        doc = scenario_to_dict(get_preset(args.show)[1])
        doc["feeder"] = PRESETS[args.show.removeprefix("presets/")].feeder
        print(json.dumps(doc, indent=2))
        return EXIT_OK
    width = max(len(n) for n, _ in list_presets())
    for name, desc in list_presets():
        print(f"{name:<{width}}  {desc}")
    return EXIT_OK


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: parsing keeps no
    state in it (`--set`'s list is made afresh on each parse)."""
    parser = argparse.ArgumentParser(
        prog="voltvar-sim",
        description="Simulate and analyze local volt/VAR control on distribution feeders.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, scenario: bool = True) -> None:
        p.add_argument("--feeder", required=not scenario,
                       help=f"feeder JSON file or builtin name ({', '.join(BUILTIN_FEEDERS)})")
        if scenario:
            p.add_argument("--scenario", required=True,
                           help="scenario JSON file or preset name (presets/NAME)")
            p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
            p.add_argument("--engine", choices=("full", "linear"), default="full",
                           help="power-flow engine: full (fixed point or sweep, Newton fallback) "
                                "or linearized")
            p.add_argument("--out", help="output directory (fallback: $VOLTVAR_SIM_OUT)")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a documented scenario/analysis key")

    p_run = sub.add_parser("run", help="simulate a scenario and write trace + metrics")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_an = sub.add_parser("analyze", help="stability and convergence reports")
    common(p_an, scenario=False)
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="run a scenario per parameter value")
    common(p_sw)
    p_sw.add_argument("--param", required=True, choices=("k_d", "m", "tau", "T"))
    p_sw.add_argument("--values", required=True, help="comma-separated values")
    p_sw.set_defaults(func=cmd_sweep)

    p_pr = sub.add_parser("presets", help="list bundled presets")
    p_pr.add_argument("--show", help="print one preset's scenario JSON")
    p_pr.set_defaults(func=cmd_presets)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error (exit 2)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (VoltVarError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, VoltVarError) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
