"""Benchmark of voltvar-sim through its command line.

    python3 perfbench/run.py --workload study30|ladder300|linear150 \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  The seed only shapes the generated inputs.  Each pass runs the
workload's CLI invocations in a fresh process with one BLAS thread;
passes repeat until S seconds are used (at least the workload's
minimum).  Every pass's outputs are checked against the values recorded
in `perfbench/reference.json` for (workload, seed) and against the
first pass.  The last line of standard output is one JSON object:
`correct`, `attempted` and `failed` (ticks) and `metrics` - the
end-to-end metrics with `--trace 0`, the per-layer metrics with
`--trace 1`.  End-to-end times are in reference seconds, corrected for
the host's speed (hostspeed.py).  See NOTES.md for definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PASS_TIMEOUT_S = 150.0
RUN_LIMIT_S = 160.0  # no pass starts after this; a run must end within 180 s
REL_TOL = 1e-6  # output check: floats agree to this relative tolerance
ABS_TOL = 1e-9  # ... or this absolute one; integers and exit codes exactly
COVERAGE_TOL = 0.05  # span self times must sum to the traced study_s within 5%

END_TO_END = (
    ("study_s", "s"), ("setup_s", "s"), ("ticks_per_s", "ticks/s"),
    ("tick_ms_iqm", "ms"), ("tick_ms_tail", "ms"), ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("feeder.solve_power_flow.calls", "count"),
    ("feeder.solve_power_flow.s", "s"),
    ("feeder.solve_power_flow.step_calls", "count"),
    ("feeder.solve_power_flow.step_share", "ratio"),
    ("feeder.newton_iters", "count"),
    ("feeder.newton_iters_per_solve", "ratio"),
    ("feeder.cold_starts", "count"),
    ("feeder.sensitivity_matrix.s", "s"),
    ("feeder.apply_topology_event.calls", "count"),
    ("feeder.apply_topology_event.s", "s"),
    ("feeder.model_rebuilds", "count"),
    ("feeder.load.s", "s"),
    ("control.dispatch.calls", "count"),
    ("control.dispatch.s", "s"),
    ("control.params_built.calls", "count"),
    ("control.params_built.s", "s"),
    ("adaptation.outer_loop_step.calls", "count"),
    ("adaptation.outer_loop_step.s", "s"),
    ("adaptation.qp_moved_frac", "ratio"),
    ("adaptation.slope_moved_frac", "ratio"),
    ("analysis.stability_report.s", "s"),
    ("analysis.outer_b_matrix.s", "s"),
    ("sim.engine_init.s", "s"),
    ("sim.step_inner.calls", "count"),
    ("sim.step_inner.s", "s"),
    ("sim.step_inner.self_s", "s"),
    ("sim.linearize.s", "s"),
    ("sim.metrics.s", "s"),
    ("sim.write_trace_csv.s", "s"),
    ("sim.write_trace_csv.bytes", "bytes"),
    ("sim.write_params_csv.s", "s"),
    ("sim.read_trace_csv.s", "s"),
    ("sim.csv_metrics_share", "ratio"),
    ("presets.get_preset.s", "s"),
    ("presets.override_scenario.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("trace.study_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_time_coverage", "ratio"),
    ("trace.missing_targets", "count"),
)


class BenchError(RuntimeError):
    pass


def _environment(root: Path) -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": THREAD_ENV["OPENBLAS_NUM_THREADS"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "machine": platform.machine(),
    }


def _run_pass(root: Path, work: Path, mode: str, index: int, deadline: float) -> dict:
    shutil.rmtree(work / "out", ignore_errors=True)
    result = work / f"pass{index}.json"
    env = dict(os.environ, **THREAD_ENV, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), str(root), str(work), mode, str(result)]
    timeout = max(1.0, min(PASS_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise BenchError(f"pass {index} ({mode}) timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"pass {index} ({mode}) exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(result.read_text("utf-8"))


def _compare(want, have, path: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(have, dict) or set(have) != set(want):
            return [f"{path}: keys {sorted(have) if isinstance(have, dict) else have!r}"
                    f" != {sorted(want)}"]
        return [p for k in want for p in _compare(want[k], have[k], f"{path}.{k}")]
    if isinstance(want, float) and isinstance(have, (int, float)):
        if math.isclose(have, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
    elif have == want and type(have) is type(want):
        return []
    return [f"{path}: {have!r} != reference {want!r}"]


def _sanity(kind: str, outputs: dict) -> list[str]:
    """Checks that hold for any seed, used where no reference exists."""
    allowed = (0, 3) if kind == "analyze" else (0,)
    if outputs.get("rc") not in allowed:
        return [f"exit code {outputs.get('rc')!r}"]
    values = [v for k, v in outputs.items() if k != "rc"]
    values += list(outputs.get("sse_mean", {}).values())
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        return ["non-finite output"]
    if "error" in outputs:
        return [outputs["error"]]
    return []


def _check_pass(plan, result: dict, first: dict | None, reference: dict | None):
    """Problems per invocation, and the (attempted, failed) tick counts."""
    attempted = failed = 0
    problems: dict[str, list[str]] = {}
    for k, (inv, rec) in enumerate(zip(plan, result["invocations"])):
        outputs = rec["outputs"]
        found = _sanity(inv.kind, outputs)
        if reference is not None:
            found += _compare(reference.get(inv.label), outputs, inv.label)
        if first is not None:
            found += _compare(first["invocations"][k]["outputs"], outputs,
                              f"{inv.label} (vs pass 0)")
        csv = rec.get("csv")
        if csv is not None and not csv["identical"]:
            found.append(f"{inv.label}: trace CSV re-read is not bit-identical")
        ticks = max(inv.ticks, rec.get("ticks", 0))
        attempted += ticks
        if found:
            failed += ticks
            problems[inv.label] = found
        else:
            failed += int(outputs.get("diverged_ticks", 0))
    return problems, attempted, failed


def _e2e(passes: list[dict], tail_pct: float) -> tuple[dict, str, int]:
    import numpy as np

    ticks = np.concatenate([np.asarray(p["tick_s"]) for p in passes])
    tail = float(np.percentile(ticks, tail_pct))
    beyond = int(np.sum(ticks > tail))
    q1, p50, q3 = np.percentile(ticks, [25, 50, 75])
    note = (f"tick_ms_tail is p{tail_pct:g} of {len(ticks)} ticks pooled over "
            f"{len(passes)} passes; {beyond} ticks beyond it; median tick "
            f"{p50 * 1e3:.6g} ms")
    values = {
        "study_s": statistics.median(p["study_s"] for p in passes),
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "ticks_per_s": len(ticks) / float(np.sum(ticks)),
        "tick_ms_iqm": float(np.mean(ticks[(ticks >= q1) & (ticks <= q3)])) * 1e3,
        "tick_ms_tail": tail * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return values, note, beyond


def _per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    last = traced[-1]

    def med(name: str, stat: str = "s") -> float:
        return statistics.median(p["spans"].get(name, {}).get(stat, 0.0) for p in traced)

    def calls(name: str) -> int:
        return int(last["spans"].get(name, {}).get("calls", 0))

    facts = last["facts"]
    solves = calls("feeder.solve_power_flow")
    step_s = med("sim.step_inner")
    study = statistics.median(p["traced_study_s"] for p in traced)
    io_s = med("sim.write_trace_csv") + med("sim.write_params_csv") + med("sim.metrics")
    out = {
        "feeder.solve_power_flow.calls": solves,
        "feeder.solve_power_flow.s": med("feeder.solve_power_flow"),
        "feeder.solve_power_flow.step_calls": last["solve_in_step"][0],
        "feeder.solve_power_flow.step_share":
            statistics.median(p["solve_in_step"][1] for p in traced) / step_s if step_s else 0.0,
        "feeder.newton_iters": facts["newton_iters"],
        "feeder.newton_iters_per_solve": facts["newton_iters"] / solves if solves else 0.0,
        "feeder.cold_starts": facts["cold_starts"],
        "feeder.sensitivity_matrix.s": med("feeder.sensitivity_matrix"),
        "feeder.apply_topology_event.calls": calls("feeder.apply_topology_event"),
        "feeder.apply_topology_event.s": med("feeder.apply_topology_event"),
        "feeder.model_rebuilds": calls("feeder.with_slack_voltage")
            + calls("feeder.with_scaled_loads") + calls("feeder.apply_topology_event"),
        "feeder.load.s": med("feeder.load"),
        "control.dispatch.calls": calls("control.dispatch"),
        "control.dispatch.s": med("control.dispatch"),
        "control.params_built.calls": calls("control.params_built"),
        "control.params_built.s": med("control.params_built"),
        "adaptation.outer_loop_step.calls": calls("adaptation.outer_loop_step"),
        "adaptation.outer_loop_step.s": med("adaptation.outer_loop_step"),
        "adaptation.qp_moved_frac":
            facts["qp_moved"] / facts["outer_steps"] if facts["outer_steps"] else 0.0,
        "adaptation.slope_moved_frac":
            facts["slope_moved"] / facts["outer_steps"] if facts["outer_steps"] else 0.0,
        "analysis.stability_report.s": med("analysis.stability_report"),
        "analysis.outer_b_matrix.s": med("analysis.outer_b_matrix"),
        "sim.engine_init.s": med("sim.engine_init"),
        "sim.step_inner.calls": calls("sim.step_inner"),
        "sim.step_inner.s": step_s,
        "sim.step_inner.self_s": med("sim.step_inner", "self_s"),
        "sim.linearize.s": med("sim.linearize"),
        "sim.metrics.s": med("sim.metrics"),
        "sim.write_trace_csv.s": med("sim.write_trace_csv"),
        "sim.write_trace_csv.bytes": facts["trace_bytes"],
        "sim.write_params_csv.s": med("sim.write_params_csv"),
        "sim.read_trace_csv.s": med("sim.read_trace_csv"),
        "sim.csv_metrics_share": io_s / study,
        "presets.get_preset.s": med("presets.get_preset"),
        "presets.override_scenario.calls": calls("presets.override_scenario"),
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": med("cli.main", "self_s"),
        "trace.study_s": study,
        "trace.overhead_frac":
            study / statistics.median(p["raw_study_s"] for p in untraced) - 1.0,
        "trace.self_time_coverage":
            statistics.median(p["self_sum_s"] / p["traced_study_s"] for p in traced),
        "trace.missing_targets": len(last["missing"]),
    }
    return out


def measure(root: Path, workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate the inputs, run passes, check them; return the summary."""
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    reference = json.loads((HERE / "reference.json").read_text("utf-8")) \
        if (HERE / "reference.json").exists() else {}
    ref = reference.get("seeds", {}).get(workload_name, {}).get(str(seed))
    out_base = root / ".perfbench_out"
    work = out_base / f"{workload_name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t_start = time.monotonic()
        deadline = t_start + RUN_LIMIT_S
        plan = wl.plan(seed, work)
        (work / "plan.json").write_text(json.dumps([asdict(i) for i in plan]), "utf-8")
        results: list[dict] = []
        problems: dict[str, list[str]] = {}
        attempted = failed = 0
        pass_wall = 0.0
        while True:
            n = len(results)
            enough = n >= wl.min_passes and (not trace or n >= 2)
            if enough and time.monotonic() - t_start + pass_wall > seconds:
                break
            if time.monotonic() > deadline:
                if not enough:
                    raise BenchError(f"only {n} passes fit in {RUN_LIMIT_S:.0f} s")
                break
            mode = "trace" if trace and n % 2 == 0 else "tick"
            t0 = time.monotonic()
            res = _run_pass(root, work, mode, n, t_start + RUN_LIMIT_S + 15)
            pass_wall = max(pass_wall, time.monotonic() - t0)
            found, att, fail = _check_pass(plan, res, results[0] if results else None, ref)
            for label, msgs in found.items():
                problems.setdefault(label, []).extend(f"pass {n}: {m}" for m in msgs)
            attempted += att
            failed += fail
            results.append(res)
            if res["mode"] == "trace":
                spans = work / f"pass{n}.spans.npz"
                shutil.copy(spans, out_base / f"spans-{workload_name}-s{seed}.npz")
        tick_passes = [r for r in results if r["mode"] == "tick"]
        traced = [r for r in results if r["mode"] == "trace"]
        metrics, tail_note, beyond = _e2e(tick_passes, wl.tail_pct)
        if beyond < 10 and not trace:
            raise BenchError(tail_note + ", fewer than 10")
        summary = {
            "workload": workload_name, "seed": seed, "trace": trace,
            "passes": len(results), "reference": ref is not None,
            "attempted": attempted, "failed": failed, "problems": problems,
            "e2e": metrics, "tail_note": tail_note,
            "pass_study_s": [round(r["study_s"], 4) for r in tick_passes],
            "pass_raw_study_s": [round(r["raw_study_s"], 4) for r in tick_passes],
            "pass_slice_ms": [round(r["slice_ms"], 4) for r in tick_passes],
            "outputs": {i["label"]: i["outputs"] for i in results[0]["invocations"]},
            "missing": results[0]["missing"],
            "csv_mu_round_trips": all(i.get("csv", {}).get("mu_identical", True)
                                      for r in traced for i in r["invocations"]),
        }
        if traced:
            layers = _per_layer(traced, tick_passes)
            summary["per_layer"] = layers
            if abs(layers["trace.self_time_coverage"] - 1.0) > COVERAGE_TOL:
                problems.setdefault("trace", []).append(
                    f"span self times cover {layers['trace.self_time_coverage']:.3f} "
                    "of the traced study_s")
        return summary
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _print_report(summary: dict, env: dict) -> None:
    units = dict(END_TO_END)
    print(f"workload {summary['workload']}  seed {summary['seed']}  "
          f"passes {summary['passes']}  trace {int(summary['trace'])}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in summary["e2e"].items():
        print(f"  {name:<14} {value:>14.6g} {units[name]}")
    frac = summary["failed"] / summary["attempted"]
    print(f"  {'fail_frac':<14} {frac:>14.6g} ratio "
          f"({summary['failed']} of {summary['attempted']} ticks)")
    print("  " + summary["tail_note"])
    print("  study_s of each untraced pass: "
          + " ".join(f"{x:.3f}" for x in summary["pass_study_s"]))
    print("  ... in program-clock seconds: "
          + " ".join(f"{x:.3f}" for x in summary["pass_raw_study_s"]))
    print("  mean calibration slice of each pass (ms): "
          + " ".join(f"{x:.3f}" for x in summary["pass_slice_ms"]))
    if "per_layer" in summary:
        for name, unit in PER_LAYER:
            print(f"  {name:<38} {summary['per_layer'][name]:>14.6g} {unit}")
    if summary["missing"]:
        print("  tracer targets missing: " + ", ".join(summary["missing"]))
    if summary["trace"] and not summary["csv_mu_round_trips"]:
        print("  note: trace CSV carries no mu; a re-read trace has mu = 0")
    if not summary["reference"]:
        print(f"  note: no reference recorded for seed {summary['seed']}; "
              "checked exit codes, finiteness and pass-to-pass agreement only")
    for label, msgs in summary["problems"].items():
        for m in msgs[:5]:
            print(f"  CHECK FAILED {label}: {m}")


def main(argv: list[str] | None = None) -> int:
    os.environ.update(THREAD_ENV)  # before numpy loads in this process
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import workloads
    from gen import GeneratorError

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd()
    if not (root / "src" / "voltvar_sim" / "__init__.py").is_file():
        print(f"error: {root} holds no src/voltvar_sim; run from the root of a "
              "voltvar-sim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        summary = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, GeneratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = _environment(root)
    _print_report(summary, env)
    record = root / ".perfbench_out" / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    record.write_text(json.dumps(dict(summary, environment=env), indent=1), "utf-8")
    names = PER_LAYER if args.trace else END_TO_END
    values = summary["per_layer"] if args.trace else summary["e2e"]
    print(json.dumps({
        "correct": not summary["problems"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
