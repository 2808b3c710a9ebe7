"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py ROOT WORK MODE RESULT

Runs the invocations of WORK/plan.json through `voltvar_sim.cli.main`
in-process, with WORK as the working directory, and writes the pass's
timings and outputs to RESULT as JSON.  MODE `tick` installs only the
`step_inner` timer and samples the host's speed (hostspeed.py) to report
its times in reference seconds; MODE `trace` installs the span tracer
instead, and after the pass re-reads every trace CSV and saves the spans
next to RESULT.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer as tr  # noqa: E402
from hostspeed import HostClock  # noqa: E402


def _outputs(inv: dict, rc, stdout: str) -> dict:
    """The values the output check compares, read from what the CLI wrote."""
    out: dict = {"rc": rc}
    if rc not in (0, 3):
        return out
    if inv["kind"] == "run":
        m = json.loads((Path(inv["out"]) / "metrics.json").read_text("utf-8"))
        for key in ("msse_percent", "fc", "vvi", "diverged_ticks"):
            out[key] = m[key]
    elif inv["kind"] == "sweep":
        sums: dict[str, list[float]] = {}
        with open(Path(inv["out"]) / "sweep.csv", newline="", encoding="utf-8") as f:
            for row in csv.DictReader(f):
                sums.setdefault(row["value"], []).append(float(row["sse_avg"]))
        out["rows"] = sum(len(v) for v in sums.values())
        out["sse_mean"] = {k: math.fsum(v) / len(v) for k, v in sums.items()}
    elif inv["kind"] == "analyze":
        payload, _ = json.JSONDecoder().raw_decode(stdout.lstrip())
        out["rho_ma"] = payload["rho_ma"]
        out["rho_b"] = payload["rho_b"]
    return out


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _csv_round_trip(sim, trace, path: Path) -> dict:
    """Compare a trace with its CSV re-read: V, q, p and flags must be
    bit-identical; mu is reported, not required (the CSV has no mu)."""
    back = sim.read_trace_csv(path, dt_inner=trace.dt_inner, t_outer=trace.t_outer)
    cols = [back.unit_buses.index(b) for b in trace.unit_buses] \
        if set(back.unit_buses) == set(trace.unit_buses) else None
    ok = back.bus_ids == trace.bus_ids and cols is not None \
        and _same_bits(back.voltages, trace.voltages) \
        and _same_bits(back.q_inj[:, cols], trace.q_inj) \
        and _same_bits(back.p_out[:, cols], trace.p_out) \
        and back.flags == trace.flags
    mu_ok = cols is not None and _same_bits(back.mu[:, cols], trace.mu)
    return {"identical": bool(ok), "mu_identical": bool(mu_ok)}


def _setup_and_ticks(timer: tr.TickTimer, windows: list[tuple[float, float]], ref):
    """Per invocation: set-up seconds (from the invocation's start, or from
    the previous engine's last tick, to each engine's first tick) and
    ticks stepped; then every tick's duration.  Times are mapped by `ref`
    first."""
    t0 = ref(timer.t0)
    t1 = ref(timer.t1)
    windows = [tuple(w) for w in ref(windows)]
    bounds = timer.engine_starts + [len(t0)]
    setup = [0.0] * len(windows)
    ticks = [0] * len(windows)
    prev_end = [w0 for w0, _ in windows]
    for first, stop in zip(bounds[:-1], bounds[1:]):
        for k, (w0, w1) in enumerate(windows):
            if w0 <= t0[first] <= w1:
                setup[k] += t0[first] - prev_end[k]
                prev_end[k] = t1[stop - 1]
                ticks[k] += stop - first
    return setup, ticks, t1 - t0


def main(argv: list[str]) -> int:
    root, work, mode, result_path = Path(argv[0]), Path(argv[1]), argv[2], Path(argv[3])
    import voltvar_sim
    from voltvar_sim import sim

    src = (root / "src").resolve()
    if src not in Path(voltvar_sim.__file__).resolve().parents:
        print(f"voltvar_sim imported from {voltvar_sim.__file__}, not {src}", file=sys.stderr)
        return 2
    plan = json.loads((work / "plan.json").read_text("utf-8"))
    os.chdir(work)

    host = HostClock() if mode == "tick" else None
    clock = host.now if host else perf_counter
    instrument = tr.TickTimer(clock) if host else tr.Tracer()
    windows: list[tuple[float, float]] = []
    records = []
    run_invocation: dict[int, int] = {}
    from voltvar_sim import cli

    if host:
        host.start()
    start = clock()
    root_span = instrument.open("bench.pass") if mode == "trace" else None
    for k, inv in enumerate(plan):
        if mode == "trace":
            instrument.current_invocation = k
            n_traces = len(instrument.traces)
        out, err = io.StringIO(), io.StringIO()
        w0 = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(inv["argv"]))
        except Exception as exc:  # the pass goes on; the check fails this invocation
            rc = f"{type(exc).__name__}: {exc}"
        windows.append((w0, clock()))
        if mode == "trace" and inv["kind"] == "run" and len(instrument.traces) == n_traces + 1:
            run_invocation[k] = n_traces
        records.append((inv, rc, out.getvalue(), err.getvalue()))
    if root_span is not None:
        instrument.close(root_span)
    end = clock()
    if host:
        host.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result: dict = {"mode": mode, "raw_study_s": end - start, "peak_rss_mb": peak_rss_mb,
                    "missing": instrument.missing, "invocations": []}
    if mode == "trace":
        round_trips = {}
        check_span = instrument.open("bench.check")
        for k, i in run_invocation.items():
            round_trips[k] = _csv_round_trip(sim, instrument.traces[i],
                                             Path(plan[k]["out"]) / "trace.csv")
        instrument.close(check_span)
    instrument.uninstall()

    for k, (inv, rc, stdout, stderr) in enumerate(records):
        try:
            outputs = _outputs(inv, rc, stdout)
        except (OSError, ValueError, KeyError) as exc:
            outputs = {"rc": rc, "error": f"unreadable output: {exc}"}
        rec = {"label": inv["label"], "outputs": outputs, "stderr": stderr[-2000:]}
        if mode == "trace" and inv["kind"] == "run":
            rec["csv"] = round_trips.get(k, {"identical": False, "mu_identical": False})
        result["invocations"].append(rec)

    if mode == "tick":
        setup, ticks, durations = _setup_and_ticks(instrument, windows, host.reference)
        a, b = host.reference([start, end])
        result["study_s"] = float(b - a)
        result["setup_s"] = math.fsum(setup)
        result["slice_ms"] = float(np.mean(host.dur)) * 1e3
        for rec, n in zip(result["invocations"], ticks):
            rec["ticks"] = n
        result["tick_s"] = durations.tolist()
    else:
        spans = instrument.arrays()
        np.savez_compressed(result_path.with_suffix(".spans.npz"),
                            names=np.asarray(instrument.names), **spans)
        result["spans"] = tr.span_totals(instrument.names, spans)
        result["solve_in_step"] = tr.time_under(
            instrument.names, spans, "feeder.solve_power_flow", "sim.step_inner")
        # span 0 is the pass; the check spans come after it
        dur = spans["end"] - spans["start"]
        in_pass = np.arange(len(dur)) < check_span
        result["traced_study_s"] = float(dur[0])
        result["self_sum_s"] = float(np.sum(tr.self_times(spans)[in_pass]))
        result["facts"] = {
            "newton_iters": instrument.newton_iters,
            "cold_starts": instrument.cold_starts,
            "outer_steps": instrument.outer_steps,
            "qp_moved": instrument.qp_moved,
            "slope_moved": instrument.slope_moved,
            "trace_bytes": instrument.trace_bytes,
        }
    result_path.write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
