"""A run's results: the trace, its metrics, and the files a run writes.

`SimulationTrace` holds what the engine recorded tick by tick and the
outer loop's parameter log (`ParamLog`); `metrics` reduces it to MSSE,
flicker count and ANSI band violations.  The writers give the bytes of
every output file of the command line (`trace.csv`, `params.csv`,
`metrics.json`, `metrics.txt`, `sweep.csv`), and `read_trace_csv` reads
a trace back with its metrics unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass
from itertools import chain, compress, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .adaptation import WindowStats, window_stats
from .control import slope_to_cutoffs
from .scenario import Scenario, SimulationError


def _positions(keys: tuple[str, ...], order: tuple[str, ...]) -> list[int]:
    """Index of each of `keys` in `order`, through one dict rather than a
    scan per key."""
    at = {b: i for i, b in enumerate(order)}
    return [at[b] for b in keys]


# the trace's windows and band runs are worked out for a block of units or
# buses at a time, sized so that no temporary array of a block exceeds this
_BLOCK_BYTES = 1 << 14


class ParamLog(NamedTuple):
    """Outer-loop updates, one per updated unit in tick, then unit order:
    closing tick, index into `unit_buses`, and the five `AdaptiveParams`
    fields in order.  `ParamLog()` is the empty log."""

    ticks: np.ndarray = np.zeros(0, dtype=np.intp)
    units: np.ndarray = np.zeros(0, dtype=np.intp)
    values: np.ndarray = np.zeros((0, 5))


@dataclass(frozen=True, eq=False)
class SimulationTrace:
    bus_ids: tuple[str, ...]
    unit_buses: tuple[str, ...]
    voltages: np.ndarray  # (horizon, n_bus); NaN where de-energized
    q_inj: np.ndarray  # (horizon, n_units)
    p_out: np.ndarray  # (horizon, n_units)
    mu: np.ndarray  # (horizon, n_units)
    flags: tuple[str, ...]  # "" or "pf_diverged" per tick
    param_log: ParamLog
    dt_inner: float
    t_outer: int

    @property
    def horizon(self) -> int:
        return self.voltages.shape[0]

    def bus_voltage(self, bus: str) -> np.ndarray:
        return self.voltages[:, self.bus_ids.index(bus)]

    def window_stats(self) -> WindowStats:
        """Statistics of the complete windows of `t_outer` ticks that the
        outer loop sees (ticks 1..T, T+1..2*T, ...) per unit, against the
        trace's set-points, as arrays of shape (n_windows, n_units); window
        k closes at tick (k + 1) * T."""
        width = self.t_outer
        k = (self.horizon - 1) // width

        cols = _positions(self.unit_buses, self.bus_ids)

        def windows(x: np.ndarray) -> np.ndarray:  # (horizon, n) -> (width, k, n)
            return x[1 : 1 + k * width].reshape(k, width, x.shape[1]).swapaxes(0, 1)

        per = max(_BLOCK_BYTES // (24 * self.horizon), 1)  # units per call: 3 sums each
        out = np.empty((3, k, len(cols)))
        for i in range(0, len(cols), per):
            s = window_stats(windows(self.voltages[:, cols[i : i + per]]),
                             windows(self.mu[:, i : i + per]), windows(self.p_out[:, i : i + per]))
            out[..., i : i + per] = (s.sse_avg, s.vf, s.p_pv_avg)
        return WindowStats(*out)


# ---------------------------------------------------------------------------
# metrics


# ANSI C84.1 service voltage bands (pu): every tick outside range A counts,
# and every tick of a run outside range B that lasts the sustain time
ANSI_RANGE_A = (0.9, 1.06)
ANSI_RANGE_B = (0.95, 1.05)
ANSI_SUSTAIN_S = 300.0


@dataclass(frozen=True, eq=False)
class MetricsReport:
    msse: float  # percent
    fc: int
    vvi: int
    msse_per_inverter: dict[str, float]
    fc_per_inverter: dict[str, int]
    vvi_per_bus: dict[str, int]


def metrics(trace: SimulationTrace, vf_lim: float) -> MetricsReport:
    """Trace metrics: MSSE (percent, over the PV units' energized ticks; a
    unit never energized has none), the count of outer-loop windows
    (`trace.t_outer` ticks) whose flicker exceeds `vf_lim`, and the count
    of ANSI band violations (outside `ANSI_RANGE_A`, or outside
    `ANSI_RANGE_B` for at least `ANSI_SUSTAIN_S` seconds)."""
    h = trace.horizon

    msse_per: dict[str, float] = {}
    # unit by unit: np.mean's pairwise order depends on which dark ticks drop out
    cols = _positions(trace.unit_buses, trace.bus_ids)
    for j, (b, c) in enumerate(zip(trace.unit_buses, cols)):
        dev = np.abs(trace.voltages[:, c] - trace.mu[:, j])
        dev = dev[~np.isnan(dev)]
        if len(dev):
            msse_per[b] = float(np.mean(dev) * 100.0)
    msse = float(np.mean(list(msse_per.values()))) if msse_per else 0.0

    # windows with a dark tick have NaN flicker, which never counts
    over = trace.window_stats().vf > vf_lim
    fc_per = {b: int(n) for b, n in zip(trace.unit_buses, np.sum(over, axis=0))}

    # a sustain time longer than the horizon (inf at a tiny dt_inner) counts no run
    sustain_ticks = max(math.ceil(min(ANSI_SUSTAIN_S / trace.dt_inner, h + 1)), 1)
    vvi_per: dict[str, int] = {}
    per = max(_BLOCK_BYTES // (h + 2), 1)  # buses per block of bool masks
    for i in range(0, len(trace.bus_ids), per):
        counts = _band_violations(trace.voltages[:, i : i + per], ANSI_RANGE_A,
                                  ANSI_RANGE_B, sustain_ticks)
        vvi_per.update((b, n) for b, n in zip(trace.bus_ids[i:], counts.tolist()) if n)

    return MetricsReport(
        msse=msse,
        fc=sum(fc_per.values()),
        vvi=sum(vvi_per.values()),
        msse_per_inverter=msse_per,
        fc_per_inverter=fc_per,
        vvi_per_bus=vvi_per,
    )


def _band_violations(
    v: np.ndarray, band_a: tuple[float, float], band_b: tuple[float, float],
    sustain_ticks: int,
) -> np.ndarray:
    """Per column of `v` (ticks x buses): the ticks outside band A or inside
    a run of at least `sustain_ticks` ticks outside band B.  NaN (dark)
    ticks are never out of band."""
    viol = (v > band_a[1]) | (v < band_a[0])
    out_b = np.zeros((v.shape[0] + 2, v.shape[1]), dtype=bool)
    out_b[1:-1] = (v > band_b[1]) | (v < band_b[0])
    # run starts and ends alternate among each column's edges of the padded mask
    cols, ticks = np.nonzero((out_b[1:] != out_b[:-1]).T)
    cols, t0, t1 = cols[::2], ticks[::2], ticks[1::2]
    long = t1 - t0 >= sustain_ticks
    # +1 where a long run starts, -1 where it ends: the running sum marks it
    mark = np.zeros((v.shape[0] + 1, v.shape[1]), dtype=np.int8)
    mark[t0[long], cols[long]] = 1
    mark[t1[long], cols[long]] = -1
    viol |= np.cumsum(mark, axis=0, dtype=np.int8)[:-1] > 0
    return np.count_nonzero(viol, axis=0)


def metrics_table(rep: MetricsReport) -> str:
    """The metrics as the text table of `metrics.txt`, which `run` prints."""
    lines = [
        f"{'metric':<22}{'value':>12}",
        f"{'MSSE (%)':<22}{rep.msse:>12.4f}",
        f"{'flicker count':<22}{rep.fc:>12d}",
        f"{'voltage violations':<22}{rep.vvi:>12d}",
    ]
    for bus, val in rep.msse_per_inverter.items():
        lines.append(f"{'  msse ' + bus:<22}{val:>12.4f}")
    return "\n".join(lines)


def write_metrics(rep: MetricsReport, trace: SimulationTrace, scenario: Scenario,
                  out: Path) -> None:
    """`metrics.json` and `metrics.txt` of a run in directory `out`."""
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
    (out / "metrics.txt").write_text(metrics_table(rep) + "\n", "utf-8")


# ---------------------------------------------------------------------------
# output files


_TRACE_HEADER = ["tick", "bus", "V_pu", "q_inj_pu", "p_out_pu", "mu_pu", "flags"]
_PARAMS_HEADER = ["tick", "bus", "m_p", "q_p", "q_min_p", "q_max_p", "v_min_p", "v_max_p", "mu"]
# rows per CSV block; writing linear150's trace (151 buses, 3000 ticks) peaks at ~180 KB
_BLOCK_ROWS = 512
# fewest trace rows per formatting process; below twice this a trace is
# written serially.  study30's 21,700-row and ladder300's ~12.5k-row
# traces stay serial: split at 8,192 rows, study30's set-up time rose by
# about 7%
_SPLIT_ROWS = 32768


def _csv_cell(s: str) -> str:
    """`s` as a non-first field of a `csv.writer` row: comma, then the
    field, quoted where csv quotes it."""
    buf = io.StringIO()
    csv.writer(buf).writerow(["", s])
    return buf.getvalue().removesuffix("\r\n")


def _float_cells(x: np.ndarray) -> np.ndarray:
    """Comma plus `repr` of every float in `x`, flat, as an object array.
    Each distinct bit pattern is formatted once; keying on the bits, not
    the value, keeps -0.0 apart from 0.0."""
    bits, inv = np.unique(np.ascontiguousarray(x, dtype=float).view(np.int64),
                          return_inverse=True)
    cells = np.array([f",{v!r}" for v in bits.view(np.float64).tolist()], dtype=object)
    return cells[inv.ravel()]


def _trace_rows(trace: SimulationTrace, t_start: int, t_stop: int, f) -> None:
    """The trace CSV's rows of ticks [t_start, t_stop), written to text
    file `f` a block of ticks at a time."""
    unit_of = {b: j for j, b in enumerate(trace.unit_buses)}
    has_unit = np.array([b in unit_of for b in trace.bus_ids], dtype=bool)
    cols = [unit_of[b] for b in trace.bus_ids if b in unit_of]
    step = max(1, _BLOCK_ROWS // len(trace.bus_ids))
    ends = {fl: _csv_cell(fl) + "\r\n" for fl in set(trace.flags)}
    # one cell per csv field, each but the tick with its leading comma
    rows = np.empty((step, len(trace.bus_ids), len(_TRACE_HEADER)), dtype=object)
    rows[:, :, 1] = [_csv_cell(b) for b in trace.bus_ids]
    rows[:, ~has_unit, 3:6] = (",,,", "", "")
    for t0 in range(t_start, t_stop, step):
        t1 = min(t0 + step, t_stop)
        v = trace.voltages[t0:t1]
        units = np.stack([a[t0:t1, cols] for a in (trace.q_inj, trace.p_out, trace.mu)],
                         axis=-1)
        cells = _float_cells(np.concatenate([v.ravel(), units.ravel()]))
        block = rows[: t1 - t0]
        block[:, :, 0] = np.array([str(t) for t in range(t0, t1)], dtype=object)[:, None]
        block[:, :, 2] = cells[: v.size].reshape(v.shape)
        block[:, has_unit, 3:6] = cells[v.size :].reshape(units.shape)
        block[:, :, 6] = np.array([ends[fl] for fl in trace.flags[t0:t1]],
                                  dtype=object)[:, None]
        f.write("".join(block.ravel().tolist()))


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot tell or cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def write_trace_csv(trace: SimulationTrace, path: str | Path) -> None:
    """Long-format trace: one row per (tick, bus); the PV columns (var
    dispatch, real output, set-point) are empty on buses without a unit.
    Floats keep full round-trip precision.  A trace of at least twice `_SPLIT_ROWS` rows
    is cut into contiguous tick ranges, at most one per usable CPU, that
    forked children format at the same time into unnamed temporary
    files; they are appended in tick order.  A range's text depends on
    its rows alone, so every split gives the same bytes."""
    path = Path(path)
    parts = max(1, min(_usable_cpus(), trace.horizon * len(trace.bus_ids) // _SPLIT_ROWS))
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(_TRACE_HEADER)
        if parts == 1:
            _trace_rows(trace, 0, trace.horizon, f)
            return
        bounds = [trace.horizon * k // parts for k in range(parts + 1)]
        with contextlib.ExitStack() as stack:
            tmps = [stack.enter_context(tempfile.TemporaryFile(dir=path.parent))
                    for _ in range(parts)]
            pids: list[int] = []
            try:
                for tmp, t0, t1 in zip(tmps, bounds, bounds[1:]):
                    pids.append(_format_in_child(trace, t0, t1, tmp))
            finally:
                codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
            if any(codes):
                raise OSError(f"could not format every part of trace {path}")
            f.flush()
            for tmp in tmps:
                tmp.seek(0)
                shutil.copyfileobj(tmp, f.buffer)


def _format_in_child(trace: SimulationTrace, t_start: int, t_stop: int, tmp) -> int:
    """Fork a child that writes the rows of ticks [t_start, t_stop) to
    binary file `tmp`, UTF-8 encoded, and exits 0 (1 if that fails); the
    parent gets the child's pid.  The child leaves through `os._exit`:
    it never returns into the caller's stack, runs no atexit handler and
    flushes no buffer it shares with the parent.

    Python 3.12 and later warn when a process with threads forks, and
    OpenBLAS may start threads at import.  The fork is safe all the
    same: the child runs only `_trace_rows` and `os._exit`, so it takes
    no lock another thread may hold and makes no BLAS call."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        with open(tmp.fileno(), "w", newline="", encoding="utf-8", closefd=False) as out:
            _trace_rows(trace, t_start, t_stop, out)
        code = 0
    finally:
        os._exit(code)


def write_params_csv(trace: SimulationTrace, path: str | Path) -> None:
    """The parameter log, one row per updated unit, a block of rows at a
    time; the two cut-off columns are derived from the logged fields."""
    ticks, units, values = trace.param_log
    bus_cells = np.array([_csv_cell(b) for b in trace.unit_buses], dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerow(_PARAMS_HEADER)
        for r0 in range(0, len(ticks), _BLOCK_ROWS):
            part = slice(r0, r0 + _BLOCK_ROWS)
            cells = np.empty((len(ticks[part]), len(_PARAMS_HEADER) - 1), dtype=object)
            cells[:, 0] = ticks[part].astype(str).astype(object) + bus_cells[units[part]]
            logged = values[part]
            cols = np.column_stack([logged[:, :4], *slope_to_cutoffs(*logged.T), logged[:, 4]])
            cells[:, 1:] = _float_cells(cols).reshape(len(cells), -1)
            cells[:, -1] += "\r\n"
            f.write("".join(cells.ravel().tolist()))


def read_trace_csv(path: str | Path, dt_inner: float, t_outer: int) -> SimulationTrace:
    """Rebuild a trace from its CSV (voltages, var dispatches, real
    outputs, set-points, flags); metrics on it equal those of the trace
    that was written.  Parameter dispatches are not part of the CSV, nor
    are the run's `dt_inner` and `t_outer`, which the caller gives."""
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader, [])
        if header[:3] != _TRACE_HEADER[:3]:
            raise SimulationError(f"not a trace CSV: {path}")
        if header != _TRACE_HEADER:
            raise SimulationError(
                f"trace CSV {path} needs the columns {','.join(_TRACE_HEADER)}"
            )
        # fields in one flat list, read a block of rows at a time: the row
        # lists die young, which spares the garbage collector walking them
        flat: list[str] = []
        for rows in iter(lambda: list(islice(reader, _BLOCK_ROWS)), []):
            if set(map(len, rows)) != {len(header)}:
                raise SimulationError(f"trace CSV {path}: every row needs {len(header)} fields")
            flat.extend(chain.from_iterable(rows))
    ticks_s, buses, vs, qs, ps, ms, fls = (flat[k :: len(header)] for k in range(len(header)))
    if not ticks_s:
        raise SimulationError(f"empty trace CSV: {path}")
    n = len(ticks_s)
    ticks = np.fromiter(map(int, ticks_s), dtype=np.intp, count=n)
    horizon = int(ticks.max()) + 1
    bus_ids = tuple(dict.fromkeys(buses))
    bus_index = {b: i for i, b in enumerate(bus_ids)}
    cols = np.fromiter(map(bus_index.__getitem__, buses), dtype=np.intp, count=n)
    voltages = np.full((horizon, len(bus_ids)), np.nan)
    voltages[ticks, cols] = np.fromiter(map(float, vs), dtype=float, count=n)
    # rows with a var dispatch are the unit rows
    has_unit = list(map(bool, qs))
    unit_buses = tuple(dict.fromkeys(compress(buses, has_unit)))
    unit_of = np.zeros(len(bus_ids), dtype=np.intp)
    unit_of[[bus_index[b] for b in unit_buses]] = range(len(unit_buses))
    unit_rows = np.flatnonzero(has_unit)
    at = ticks[unit_rows], unit_of[cols[unit_rows]]
    q_inj, p_out, mu = (np.zeros((horizon, len(unit_buses))) for _ in range(3))
    for arr, col in ((q_inj, qs), (p_out, ps), (mu, ms)):
        arr[at] = np.fromiter(map(float, compress(col, has_unit)), dtype=float,
                              count=len(unit_rows))
    flags = [""] * horizon
    for r in np.flatnonzero(list(map(bool, fls))):
        flags[ticks[r]] = fls[r]
    return SimulationTrace(
        bus_ids=bus_ids,
        unit_buses=unit_buses,
        voltages=voltages,
        q_inj=q_inj,
        p_out=p_out,
        mu=mu,
        flags=tuple(flags),
        param_log=ParamLog(),
        dt_inner=dt_inner,
        t_outer=t_outer,
    )


def sse_series(trace: SimulationTrace) -> list[tuple[int, str, float]]:
    """(closing tick, bus, sse_avg) of every outer-loop window without a
    dark tick, in tick then unit order: one run's rows of `sweep.csv`."""
    T = trace.t_outer
    sse = trace.window_stats().sse_avg
    return [
        ((k + 1) * T, b, float(s))
        for k, row in enumerate(sse)
        for b, s in zip(trace.unit_buses, row)
        if not np.isnan(s)
    ]


def write_sweep_csv(path: str | Path, param: str,
                    runs: list[tuple[str, list[tuple[int, str, float]]]]) -> None:
    """`sweep.csv`: the `sse_series` rows of each run, after the swept
    parameter and its value."""
    bus_cell = functools.cache(_csv_cell)
    with open(path, "w", encoding="utf-8") as f:
        f.write("param,value,outer_tick,bus,sse_avg\n")
        for value, series in runs:
            for t, b, sse in series:
                f.write(f"{param},{value},{t}{bus_cell(b)},{sse!r}\n")
