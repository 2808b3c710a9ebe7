"""Trace and parameter CSV I/O against the row-at-a-time `csv` oracles:
the block writers produce the same bytes, split across forked processes
or not, and the bulk reader rebuilds the same trace bit for bit."""

from __future__ import annotations

import math
import os
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from voltvar_sim import results
from voltvar_sim.control import AdaptiveParams, ControlError
from voltvar_sim.results import (
    ParamLog,
    SimulationTrace,
    read_trace_csv,
    write_params_csv,
    write_trace_csv,
)
from voltvar_sim.scenario import SimulationError

from oracles import (
    read_trace_csv_rows,
    write_params_csv_rows,
    write_trace_csv_rows,
)

SPECIAL = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 1.0, 1.03, 0.1 + 0.2,
           1e-05, -123456.789, 1.7976931348623157e308]
values = st.sampled_from(SPECIAL) | st.floats(width=64)
bus_names = st.text(alphabet=st.sampled_from('ab ,"\'\r\n-é'), max_size=4)


def _grid(draw, rows: int, cols: int, elements) -> np.ndarray:
    return draw(hnp.arrays(float, (rows, cols), elements=elements))


@st.composite
def params(draw) -> AdaptiveParams:
    q = sorted(draw(st.lists(values.filter(lambda x: not math.isnan(x)), min_size=3,
                             max_size=3)))
    m_p = draw(st.sampled_from([0.0, -0.0, 5e-324, 2.0]) | st.floats(0.0, 10.0))
    try:
        return AdaptiveParams(m_p, q[1], q[0], q[2], draw(values))
    except ControlError:
        assume(False)


@st.composite
def traces(draw) -> SimulationTrace:
    bus_ids = tuple(draw(st.lists(bus_names, min_size=1, max_size=8, unique=True)))
    unit_buses = tuple(draw(st.lists(st.sampled_from(bus_ids), max_size=len(bus_ids),
                                     unique=True)))
    h = draw(st.integers(1, 30))
    voltages = _grid(draw, h, len(bus_ids), values | st.just(math.nan))
    dark = draw(st.lists(st.booleans(), min_size=len(bus_ids), max_size=len(bus_ids)))
    voltages[:, dark] = np.nan
    n = len(unit_buses)
    # (tick, unit index, parameter block) per logged update
    rows = draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, n - 1), params()),
                         max_size=30)) if n else []
    log = ParamLog(
        ticks=np.array([t for t, _, _ in rows], dtype=np.intp),
        units=np.array([j for _, j, _ in rows], dtype=np.intp),
        values=np.array([astuple(p) for _, _, p in rows], dtype=float).reshape(-1, 5),
    )
    return SimulationTrace(
        bus_ids=bus_ids,
        unit_buses=unit_buses,
        voltages=voltages,
        q_inj=_grid(draw, h, n, values),
        # two levels each, as a clouded PV output and a set-point step give
        p_out=_grid(draw, h, n, st.sampled_from([0.0, 0.15])),
        mu=_grid(draw, h, n, st.sampled_from([1.0, 0.99, -0.0])),
        flags=tuple(draw(st.lists(st.sampled_from(["", "pf_diverged"]), min_size=h,
                                  max_size=h))),
        param_log=log,
        dt_inner=1.0,
        t_outer=10,
    )


@settings(max_examples=80, deadline=None)
@given(trace=traces(), block_rows=st.sampled_from([1, 7, 50, results._BLOCK_ROWS]))
def test_writers_match_row_oracles(tmp_path_factory, trace, block_rows):
    d = tmp_path_factory.mktemp("csv")
    write_trace_csv_rows(trace, d / "want.csv")
    write_params_csv_rows(trace, d / "want_params.csv")
    with mock.patch.object(results, "_BLOCK_ROWS", block_rows):
        write_trace_csv(trace, d / "got.csv")
        write_params_csv(trace, d / "got_params.csv")
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()
    assert (d / "got_params.csv").read_bytes() == (d / "want_params.csv").read_bytes()


# two parts of two ticks each: the boundary falls between the two
# flagged ticks, and the bus ids need quoting or are not ASCII
_FLAGGED_SPLIT = SimulationTrace(
    bus_ids=('s"q', "é,b", "x"), unit_buses=("é,b",),
    voltages=np.array([[1.0, 0.99, np.nan]] * 4),
    q_inj=np.array([[0.01], [-0.0], [0.02], [1e-310]]), p_out=np.full((4, 1), 0.15),
    mu=np.ones((4, 1)), flags=("", "pf_diverged", "pf_diverged", ""),
    param_log=ParamLog(), dt_inner=1.0, t_outer=10,
)


@settings(max_examples=40, deadline=None)
@given(trace=traces(), cpus=st.integers(2, 4),
       block_rows=st.sampled_from([1, 7, results._BLOCK_ROWS]))
@example(trace=_FLAGGED_SPLIT, cpus=2, block_rows=results._BLOCK_ROWS)
def test_split_writer_matches_row_oracle(tmp_path_factory, trace, cpus, block_rows):
    # parts of one row or more, one per mocked CPU: every trace of two or more rows splits
    d = tmp_path_factory.mktemp("csv")
    write_trace_csv_rows(trace, d / "want.csv")
    with mock.patch.object(results, "_SPLIT_ROWS", 1), \
            mock.patch.object(results, "_usable_cpus", lambda: cpus), \
            mock.patch.object(results, "_BLOCK_ROWS", block_rows):
        write_trace_csv(trace, d / "got.csv")
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()
    assert sorted(f.name for f in d.iterdir()) == ["got.csv", "want.csv"]


def _large_trace(horizon: int, n_bus: int) -> SimulationTrace:
    rng = np.random.default_rng(7)
    bus_ids = tuple(f"b{i}" for i in range(n_bus))
    units = n_bus // 3
    return SimulationTrace(
        bus_ids=bus_ids, unit_buses=bus_ids[::3][:units],
        voltages=1.0 + 0.05 * rng.standard_normal((horizon, n_bus)),
        q_inj=0.01 * rng.standard_normal((horizon, units)),
        p_out=np.full((horizon, units), 0.15), mu=np.ones((horizon, units)),
        flags=tuple("pf_diverged" if t % 97 == 0 else "" for t in range(horizon)),
        param_log=ParamLog(), dt_inner=1.0, t_outer=10,
    )


def test_split_keeps_the_bytes_and_reaps_a_failed_child(tmp_path):
    trace = _large_trace(2000, 36)  # 72,000 rows: two parts of the default size
    assert trace.horizon * len(trace.bus_ids) >= 2 * results._SPLIT_ROWS
    (tmp_path / "one").mkdir()
    (tmp_path / "two").mkdir()
    with mock.patch.object(results, "_usable_cpus", lambda: 1), \
            mock.patch.object(os, "fork", side_effect=AssertionError("forked on one CPU")):
        write_trace_csv(trace, tmp_path / "one" / "trace.csv")
    with mock.patch.object(results, "_usable_cpus", lambda: 2):
        write_trace_csv(trace, tmp_path / "two" / "trace.csv")
    serial = (tmp_path / "one" / "trace.csv").read_bytes()
    assert (tmp_path / "two" / "trace.csv").read_bytes() == serial
    assert serial.count(b"\r\n") == 1 + 72_000

    pid = os.getpid()
    real_rows = results._trace_rows

    def rows_failing_in_children(*args):
        if os.getpid() != pid:
            raise RuntimeError("part failed")
        real_rows(*args)

    out = tmp_path / "fail"
    out.mkdir()
    with mock.patch.object(results, "_usable_cpus", lambda: 2), \
            mock.patch.object(results, "_trace_rows", rows_failing_in_children), \
            pytest.raises(OSError, match="trace.csv"):
        write_trace_csv(trace, out / "trace.csv")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert [f.name for f in out.iterdir()] == ["trace.csv"]
    assert os.getpid() == pid


def _same_trace(a: SimulationTrace, b: SimulationTrace) -> bool:
    return (a.bus_ids, a.unit_buses, a.flags) == (b.bus_ids, b.unit_buses, b.flags) and all(
        getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in ("voltages", "q_inj", "p_out", "mu")
    )


@settings(max_examples=40, deadline=None)
@given(trace=traces())
def test_reader_matches_row_oracle(tmp_path_factory, trace):
    path = tmp_path_factory.mktemp("csv") / "trace.csv"
    write_trace_csv(trace, path)
    assert _same_trace(read_trace_csv(path, trace.dt_inner, trace.t_outer),
                       read_trace_csv_rows(path, trace.dt_inner, trace.t_outer))


def test_signed_zeros_in_one_block_keep_their_sign(tmp_path):
    trace = SimulationTrace(
        bus_ids=("s", "b"), unit_buses=("b",),
        voltages=np.array([[1.0, 0.0], [-0.0, 1.0]]),
        q_inj=np.array([[-0.0], [0.0]]), p_out=np.zeros((2, 1)), mu=np.ones((2, 1)),
        flags=("", ""), param_log=ParamLog(), dt_inner=1.0, t_outer=10,
    )
    write_trace_csv(trace, tmp_path / "trace.csv")
    assert (tmp_path / "trace.csv").read_text().splitlines()[1:] == [
        "0,s,1.0,,,,", "0,b,0.0,-0.0,0.0,1.0,", "1,s,-0.0,,,,", "1,b,1.0,0.0,0.0,1.0,",
    ]
    assert _same_trace(read_trace_csv(tmp_path / "trace.csv", 1.0, 10), trace)


@pytest.mark.parametrize(
    "text, match",
    [
        pytest.param("", "not a trace CSV", id="empty_file"),
        pytest.param("a,b,c\r\n", "not a trace CSV", id="other_csv"),
        pytest.param("tick,bus,V_pu,q_inj_pu,p_out_pu,mu_pu,flags\r\n", "empty trace CSV",
                     id="header_only"),
        pytest.param("tick,bus,V_pu,q_inj_pu,p_out_pu,mu_pu,flags\r\n0,s,1.0,,,\r\n",
                     "every row needs 7 fields", id="short_row"),
    ],
)
def test_reader_rejects_malformed_files(tmp_path, text, match):
    path = tmp_path / "trace.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SimulationError, match=match):
        read_trace_csv(path, 1.0, 10)
