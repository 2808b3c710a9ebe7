"""Independent oracles for the test suite.

These deliberately avoid the package's Newton solver and Jacobian code:
the nodal solver is a plain Gauss fixed-point iteration on the node
equations built directly from the line list, bus injections and losses
come from the line currents of a solution, and the control-loop
iterators are straight transcriptions of the discrete maps.  The trace
I/O oracles are the row-at-a-time `csv` forms of the package's writers
and reader, and the band-violation count is its tick-by-tick loop.  The
linear twin's derivatives are central differences of warm-started power
flows, h pu apart, against which the Jacobian solve is checked.  The
outer-loop records are read from a trace's parameter log, or built one
unit at a time from the row blocks the outer-loop kernel returns, on
units found from the trace.  The island walk is checked against a plain
breadth-first walk over the closed lines, found by bus id.

The reference kernels at the end are the plain forms of the package's
hot paths, kept to pin their arithmetic bit for bit: the Z-bus fixed
point with `np.max` reductions, the tree sweep as a loop of its own,
Ybus as a loop over the `Line` objects, the sweep's tree arrays from a
depth-first walk of the island's lines, the window sums walked row by
row from zero, the band-violation run search bus by bus, and the
outer-loop step as the engine ran it on a parameter block of one array
per field, with the engine's outer-loop boundary composed from it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from typing import Sequence
from unittest import mock

import numpy as np

from voltvar_sim import adaptation
from voltvar_sim.adaptation import (
    AdaptiveConfig,
    WindowStats,
    capacity_limits,
    strategy1_update_qp,
)
from voltvar_sim.control import AdaptiveParams, clamp
from voltvar_sim.feeder import (
    FIXED_POINT_STEP,
    CompiledNetwork,
    FeederModel,
    PowerFlowSolution,
    RadialTree,
    _tree_currents,
    solve_power_flow,
)
from voltvar_sim.results import ParamLog, SimulationTrace
from voltvar_sim.scenario import SimulationError
from voltvar_sim.sim import SimulationEngine


def two_bus_voltage(v1: float, r: float, x: float, p_load: float, q_load: float) -> float:
    """Receiving-end voltage of a slack--line--load system, closed form.

    From |V1|^2 |V2|^2 = (V2^2 + P r + Q x)^2 + (P x - Q r)^2 with the
    load drawn at bus 2; returns the high-voltage root.
    """
    b = 2.0 * (p_load * r + q_load * x) - v1 * v1
    c = (p_load * r + q_load * x) ** 2 + (p_load * x - q_load * r) ** 2
    disc = b * b - 4.0 * c
    u = (-b + math.sqrt(disc)) / 2.0
    return math.sqrt(u)


def gauss_nodal_solve(
    model: FeederModel,
    injections: dict[str, tuple[float, float]] | None = None,
    tol: float = 1e-12,
    max_iter: int = 20000,
) -> dict[str, complex]:
    """Fixed-point nodal-equation solver over the energized island.

    V_L <- Y_LL^-1 (conj(S_L / V_L) - Y_LS V_S), iterated from flat start.
    Only buses reachable from the slack through in-service lines appear in
    the result.
    """
    # reachability over in-service lines, straight from the line list
    adj: dict[str, list[str]] = {b.id: [] for b in model.buses}
    for ln in model.lines:
        if ln.switch_state != "open":
            adj[ln.from_bus].append(ln.to_bus)
            adj[ln.to_bus].append(ln.from_bus)
    slack = next(b.id for b in model.buses if b.kind == "slack")
    seen = {slack}
    stack = [slack]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    island = [b.id for b in model.buses if b.id in seen]
    index = {b: i for i, b in enumerate(island)}

    n = len(island)
    ybus = np.zeros((n, n), dtype=complex)
    for ln in model.lines:
        if ln.switch_state == "open":
            continue
        if ln.from_bus not in index or ln.to_bus not in index:
            continue
        y = 1.0 / complex(ln.resistance, ln.reactance)
        i, j = index[ln.from_bus], index[ln.to_bus]
        ybus[i, i] += y
        ybus[j, j] += y
        ybus[i, j] -= y
        ybus[j, i] -= y

    s_inj = np.zeros(n, dtype=complex)
    for b in model.buses:
        if b.id in index:
            s_inj[index[b.id]] -= complex(b.load_p, b.load_q)
    for u in model.pv_units:
        if u.bus in index:
            s_inj[index[u.bus]] += complex(u.p_out, u.q_inj)
    for bus_id, (p, q) in (injections or {}).items():
        if bus_id in index:
            s_inj[index[bus_id]] += complex(p, q)

    slack_idx = index[slack]
    load_idx = [i for i in range(n) if i != slack_idx]
    v_slack = next(b.v_set for b in model.buses if b.kind == "slack")
    y_ll = ybus[np.ix_(load_idx, load_idx)]
    y_ls = ybus[np.ix_(load_idx, [slack_idx])]
    y_ll_inv = np.linalg.inv(y_ll)

    v_l = np.ones(len(load_idx), dtype=complex)
    vs = np.array([v_slack + 0.0j])
    for _ in range(max_iter):
        i_l = np.conj(s_inj[load_idx] / v_l)
        v_new = y_ll_inv @ (i_l - (y_ls @ vs))
        if np.max(np.abs(v_new - v_l)) < tol:
            v_l = v_new
            break
        v_l = v_new
    out = {slack: vs[0]}
    for pos, i in enumerate(load_idx):
        out[island[i]] = v_l[pos]
    return out


def injection_array(
    model: FeederModel, injections: dict[str, tuple[float, float]]
) -> np.ndarray:
    """Extra injections {bus: (P, Q)} as the complex P + jQ array over
    `model.bus_ids` that `solve_power_flow` takes."""
    out = np.zeros(len(model.bus_ids), dtype=complex)
    for bus_id, (p, q) in injections.items():
        out[model.bus_ids.index(bus_id)] += complex(p, q)
    return out


def fd_sensitivities(
    model: FeederModel, h: float = 1e-6
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """dV/dP, dV/dQ and dV/dV_slack at the model's operating point by
    central differences, laid out as `voltage_sensitivities` returns them:
    a row per load bus, a column per PV bus on the island in island order.
    Each difference is two power flows warm-started from the operating
    point, whose `FIXED_POINT_STEP` stop keeps them exact enough for h."""
    sol = solve_power_flow(model)
    pq = model.network.pq
    pv = [b for b in sol.load_bus_ids if b in model.pv_buses]

    def central(solved) -> np.ndarray:
        return (solved(h).v_mag[pq] - solved(-h).v_mag[pq]) / (2 * h)

    def injected(bus: str, p: float, q: float):
        return lambda d: solve_power_flow(
            model, injections=injection_array(model, {bus: (d * p, d * q)}), v_init=sol)

    dv_dp = np.column_stack([central(injected(b, 1.0, 0.0)) for b in pv])
    dv_dq = np.column_stack([central(injected(b, 0.0, 1.0)) for b in pv])
    dv_dslack = central(lambda d: solve_power_flow(
        model.with_slack_voltage(model.slack.v_set + d), v_init=sol))
    return dv_dp, dv_dq, dv_dslack


def voltage_at(solution: PowerFlowSolution, bus_id: str) -> float:
    """Voltage magnitude of one bus of a solution; NaN for a bus off the
    solved island."""
    at = dict(zip(solution.bus_ids, solution.v_mag.tolist()))
    return at.get(bus_id, math.nan)


def _solved_lines(model: FeederModel, solution: PowerFlowSolution):
    """Complex voltage of each solved bus, and each in-service line between
    two solved buses with its series current from `from_bus` to `to_bus`."""
    v = dict(zip(solution.bus_ids, solution.v))
    lines = [
        (ln, (v[ln.from_bus] - v[ln.to_bus]) / complex(ln.resistance, ln.reactance))
        for ln in model.lines
        if ln.switch_state != "open" and ln.from_bus in v and ln.to_bus in v
    ]
    return v, lines


def bus_injections(model: FeederModel, solution: PowerFlowSolution) -> np.ndarray:
    """Complex net power injection at each solved bus (solution order): the
    power it sends into its lines."""
    v, lines = _solved_lines(model, solution)
    out = dict.fromkeys(solution.bus_ids, 0j)
    for ln, i in lines:
        out[ln.from_bus] += v[ln.from_bus] * np.conj(i)
        out[ln.to_bus] -= v[ln.to_bus] * np.conj(i)
    return np.array(list(out.values()))


def total_losses(model: FeederModel, solution: PowerFlowSolution) -> complex:
    """Sum of series losses z |I|^2 over the solved in-service lines."""
    _, lines = _solved_lines(model, solution)
    return sum((complex(ln.resistance, ln.reactance) * abs(i) ** 2 for ln, i in lines), 0j)


def iterate_delayed_fixed_point(
    droop_term: float, tau: float, tol: float = 1e-10, max_iter: int = 100000
) -> float:
    """Fixed point of q <- droop_term + tau * q with the voltage held."""
    q = 0.0
    for _ in range(max_iter):
        q_new = droop_term + tau * q
        if abs(q_new - q) < tol:
            return q_new
        q = q_new
    return q


def geometric_series_limit(
    a: np.ndarray, m: np.ndarray, dv_d: np.ndarray, tol: float = 1e-12
) -> np.ndarray:
    """Partial sums of sum_i (-A M)^i dv_d until increments fall under tol."""
    am = np.asarray(a) @ np.asarray(m)
    term = np.asarray(dv_d, dtype=float).copy()
    total = np.zeros_like(term)
    for _ in range(100000):
        total = total + term
        term = -(am @ term)
        if np.max(np.abs(term)) < tol:
            break
    return total


def iterate_linear_droop(
    a: np.ndarray,
    m: np.ndarray,
    v_nc: np.ndarray,
    mu: np.ndarray,
    ticks: int = 4000,
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete droop loop on an exact linear grid:  q' = -M (v - mu),
    v = v_nc + A q.  Returns the final (v, q)."""
    a = np.asarray(a, dtype=float)
    m = np.asarray(m, dtype=float)
    v = np.asarray(v_nc, dtype=float).copy()
    q = np.zeros(a.shape[0])
    for _ in range(ticks):
        q = -m @ (v - mu)
        v = v_nc + a @ q
    return v, q


def iterate_linear_adaptive_outer(
    a: np.ndarray,
    m: np.ndarray,
    k: np.ndarray,
    v_nc: np.ndarray,
    mu: np.ndarray,
    loops: int,
) -> list[np.ndarray]:
    """Outer-loop offset adaptation on an exact linear grid with the inner
    loop run to its fixed point inside each horizon.  Returns the settled
    SSE vector per outer iteration."""
    a = np.asarray(a, dtype=float)
    m = np.asarray(m, dtype=float)
    k = np.asarray(k, dtype=float)
    n = a.shape[0]
    q_p = np.zeros(n)
    sse_hist = []
    i_am = np.eye(n) + a @ m
    for _ in range(loops):
        # settled inner loop: v = v_nc + A (q_p - M (v - mu))
        v = np.linalg.solve(i_am, v_nc + a @ q_p + a @ m @ mu)
        sse = v - mu
        sse_hist.append(sse.copy())
        q_p = q_p - k @ sse
    return sse_hist


TRACE_HEADER = ["tick", "bus", "V_pu", "q_inj_pu", "p_out_pu", "mu_pu", "flags"]


def write_trace_csv_rows(trace: SimulationTrace, path) -> None:
    """The trace CSV written row by row through `csv.writer`."""
    unit_of = {b: j for j, b in enumerate(trace.unit_buses)}
    cols = [unit_of.get(b) for b in trace.bus_ids]
    no_unit = ("", "", "")
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_HEADER)
        for t in range(trace.horizon):
            units = [
                tuple(map(repr, x))
                for x in zip(trace.q_inj[t].tolist(), trace.p_out[t].tolist(),
                             trace.mu[t].tolist())
            ]
            writer.writerows(
                [t, b, repr(v), *(no_unit if j is None else units[j]), trace.flags[t]]
                for b, v, j in zip(trace.bus_ids, trace.voltages[t].tolist(), cols)
            )


@dataclass(frozen=True)
class ParamDispatch:
    """One outer-loop update of one unit: closing tick, bus and block."""

    tick: int
    bus: str
    params: AdaptiveParams


def param_dispatches(trace: SimulationTrace) -> tuple[ParamDispatch, ...]:
    """The trace's parameter log as one record, with a checked block of
    plain floats, per updated unit."""
    ticks, units, values = trace.param_log
    return tuple(
        ParamDispatch(t, trace.unit_buses[j], AdaptiveParams(*row))
        for t, j, row in zip(ticks.tolist(), units.tolist(), values.tolist())
    )


def write_params_csv_rows(trace: SimulationTrace, path) -> None:
    """The parameter CSV written row by row through `csv.writer`."""
    cols = ["tick", "bus", "m_p", "q_p", "q_min_p", "q_max_p", "v_min_p", "v_max_p", "mu"]
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(cols)
        for d in param_dispatches(trace):
            p = d.params
            writer.writerow(
                [d.tick, d.bus]
                + [repr(float(x)) for x in (p.m_p, p.q_p, p.q_min_p, p.q_max_p,
                                            p.v_min_p, p.v_max_p, p.mu)]
            )


def param_records_per_unit(scenario, model) -> tuple[list[ParamDispatch], SimulationTrace]:
    """A run's outer-loop updates and its trace.  The updates are taken as
    one record per unit, split with `tolist` from every (5, k) block of
    rows that the outer-loop kernel `adaptation._step_rows` returns.  Each
    block's units are found from the trace alone: those energized and
    generating through the whole window that the step closes."""
    engine = SimulationEngine(scenario, model)
    stepped = []

    def step(*args):
        stepped.append((engine.tick, kernel(*args)))
        return stepped[-1][1]

    kernel = adaptation._step_rows
    with mock.patch.object(adaptation, "_step_rows", step):
        trace = engine.run()
    T = trace.t_outer
    cols = [trace.bus_ids.index(b) for b in trace.unit_buses]
    records = []
    for tick, block in stepped:
        window = slice(tick - T + 1, tick + 1)
        live = [
            j for j, c in enumerate(cols)
            if not np.isnan(trace.voltages[window, c]).any() and (trace.p_out[window, j] > 0).all()
        ]
        columns = block.tolist()
        assert len(live) == len(columns[0])
        records.extend(
            ParamDispatch(tick, trace.unit_buses[j], AdaptiveParams(*row))
            for j, row in zip(live, zip(*columns))
        )
    return records, trace


def read_trace_csv_rows(path, dt_inner: float, t_outer: int) -> SimulationTrace:
    """The trace CSV read row by row through `csv.reader`."""
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        if next(reader, []) != TRACE_HEADER:
            raise SimulationError(f"not a trace CSV: {path}")
        for rec in reader:
            rows.append((int(rec[0]), rec[1], float(rec[2]), *rec[3:7]))
    bus_ids = tuple(dict.fromkeys(r[1] for r in rows))
    horizon = max(r[0] for r in rows) + 1
    unit_buses = tuple(dict.fromkeys(r[1] for r in rows if r[3] != ""))
    voltages = np.full((horizon, len(bus_ids)), np.nan)
    q_inj, p_out, mu = (np.zeros((horizon, len(unit_buses))) for _ in range(3))
    flags = [""] * horizon
    for t, b, v, qs, ps, ms, fl in rows:
        voltages[t, bus_ids.index(b)] = v
        if qs != "":
            j = unit_buses.index(b)
            q_inj[t, j], p_out[t, j], mu[t, j] = float(qs), float(ps), float(ms)
        if fl:
            flags[t] = fl
    return SimulationTrace(
        bus_ids=bus_ids, unit_buses=unit_buses, voltages=voltages, q_inj=q_inj,
        p_out=p_out, mu=mu, flags=tuple(flags), param_log=ParamLog(),
        dt_inner=dt_inner, t_outer=t_outer,
    )


def band_violation_counts(
    v: np.ndarray, band_a: tuple[float, float], band_b: tuple[float, float],
    sustain_ticks: int,
) -> list[int]:
    """Per column of `v` (ticks x buses): ticks outside band A, or inside a
    run of at least `sustain_ticks` ticks outside band B, walked tick by tick."""
    counts = []
    for col in v.T:
        h = len(col)
        viol = [not math.isnan(x) and not band_a[0] <= x <= band_a[1] for x in col]
        t = 0
        while t < h:
            if col[t] > band_b[1] or col[t] < band_b[0]:
                start = t
                while t < h and (col[t] > band_b[1] or col[t] < band_b[0]):
                    t += 1
                if t - start >= sustain_ticks:
                    viol[start:t] = [True] * (t - start)
            else:
                t += 1
        counts.append(sum(viol))
    return counts


# ---------------------------------------------------------------------------
# reference kernels


def fixed_point_reference(
    net: CompiledNetwork,
    s_spec: np.ndarray,
    v_slack: float,
    v0: np.ndarray | None,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, bool, int, float]:
    """The Z-bus fixed point V_L <- w V_S + Z conj(S_L / V_L), stepping
    until no voltage moves more than FIXED_POINT_STEP, with the step and
    the closing mismatch as `np.max` reductions from zero."""
    v = np.full(len(net.island), v_slack, dtype=complex)
    if net.z is None:
        return v, False, 0, np.inf
    pq = net.pq
    s_l = s_spec[pq]
    v_src = net.w * v_slack
    v_l = v_src if v0 is None else v0[pq]
    step = np.inf if len(pq) else 0.0
    iterations = 0
    with np.errstate(all="ignore"):
        while iterations < max_iter and step > FIXED_POINT_STEP:
            v_new = v_src + net.z @ np.conj(s_l / v_l)
            step = float(np.max(np.abs(v_new - v_l), initial=0.0))
            v_l = v_new
            iterations += 1
            if not math.isfinite(step):
                break
        v[pq] = v_l
        ds = s_l - v_l * np.conj((net.ybus @ v)[pq])
        mismatch = float(max(np.max(np.abs(ds.real), initial=0.0),
                             np.max(np.abs(ds.imag), initial=0.0)))
    converged = step <= FIXED_POINT_STEP and mismatch <= tol
    return v, converged, iterations, mismatch


def sweep_reference(
    net: CompiledNetwork,
    s_spec: np.ndarray,
    v_slack: float,
    v0: np.ndarray | None,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, bool, int, float]:
    """The fixed point on a radial island's `tree` as its own loop, the
    backward/forward sweep: from `v0` or a flat start, the line currents
    as differences of a running sum of the injected currents in preorder,
    the bus voltages as a running sum of the line drops over the walk
    down the tree, stepping until no voltage moves more than
    FIXED_POINT_STEP; the closing mismatch from the line currents."""
    t = net.tree
    v = np.full(len(net.island), v_slack, dtype=complex)
    s_l = s_spec[t.order]
    v_l = v[t.order] if v0 is None else v0[t.order]
    m = len(s_l)
    acc = np.zeros(m + 1, dtype=complex)
    walk = np.empty(2 * m + 1, dtype=complex)
    walk[0] = v_slack
    currents, drops = acc[1:], walk[1:]
    step = np.inf if m else 0.0
    iterations = 0
    with np.errstate(all="ignore"):
        while iterations < max_iter and step > FIXED_POINT_STEP:
            np.add.accumulate(np.conj(s_l / v_l), out=currents)
            np.multiply(t.walk_z, acc[t.walk_end] - acc[t.walk_bus], out=drops)
            v_new = np.add.accumulate(walk, out=walk)[t.enter]
            step = np.maximum.reduce(np.abs(v_new - v_l))
            v_l = v_new
            iterations += 1
            if not math.isfinite(step):
                break
        ds = s_l - v_l * np.conj(_tree_currents(t, v_slack, v_l))
        mismatch = float(np.maximum.reduce(np.abs(ds.view(np.float64)), initial=0.0))
    v[t.order] = v_l
    converged = bool(step <= FIXED_POINT_STEP and mismatch <= tol)
    return v, converged, iterations, mismatch


def ybus_from_lines(model: FeederModel) -> np.ndarray:
    """Ybus over `model.network.island` as a loop over the model's `Line`
    objects: each in-service line on the island adds 1/z to the diagonal
    entries of both its ends and -1/z to the two entries between them.
    The package builds it from the compiled network's line arrays."""
    island = model.network.island
    index = {b: i for i, b in enumerate(island)}
    ybus = np.zeros((len(island), len(island)), dtype=complex)
    for ln in model.lines:
        if ln.in_service and ln.from_bus in index:
            i, j = index[ln.from_bus], index[ln.to_bus]
            y = 1.0 / complex(ln.resistance, ln.reactance)
            ybus[i, i] += y
            ybus[j, j] += y
            ybus[i, j] -= y
            ybus[j, i] -= y
    return ybus


def breadth_first(model: FeederModel, closed: Sequence[bool]) -> tuple[list[bool], list]:
    """A plain breadth-first walk from the slack over the lines of `model`
    with `closed[k]` true, found by bus id: whether it reaches each bus
    (in `bus_ids` order), and the (parent, bus, line) model indices of
    each bus it reaches after the slack, in walk order.  The package walks
    depth first."""
    index = {b: i for i, b in enumerate(model.bus_ids)}
    adj: dict[int, list[tuple[int, int]]] = {}
    for k, ln in enumerate(model.lines):
        if closed[k]:
            i, j = index[ln.from_bus], index[ln.to_bus]
            adj.setdefault(i, []).append((j, k))
            adj.setdefault(j, []).append((i, k))
    seen = [False] * len(index)
    seen[index[model.slack_id]] = True
    queue, steps = [index[model.slack_id]], []
    for b in queue:
        for c, k in adj.get(b, []):
            if not seen[c]:
                seen[c] = True
                queue.append(c)
                steps.append((b, c, k))
    return seen, steps


def radial_tree(slack_idx: int, line_ends: np.ndarray, line_z: np.ndarray) -> RadialTree:
    """The `RadialTree` of an island whose lines form a tree, given as a
    compiled network gives them (the island positions of both ends, and
    the impedances), walked depth first from the slack with an explicit
    stack; the lines at a bus are taken in the order given.  The package
    reads the same arrays off its island walk, which it cuts from one
    walk of the whole feeder."""
    adj: dict[int, list[tuple[int, complex]]] = {}
    for i, j, zl in zip(*line_ends.tolist(), line_z.tolist()):
        adj.setdefault(i, []).append((j, zl))
        adj.setdefault(j, []).append((i, zl))
    order, up, z, enter, end = [slack_idx], [], [], [], {}
    walk, leaving = [], []  # the bus of each step of the walk, and whether it leaves it
    # a tuple on the stack enters a bus; an int leaves that preorder position
    stack: list = [(j, 0, zl) for j, zl in reversed(adj.get(slack_idx, []))]
    while stack:
        item = stack.pop()
        if isinstance(item, int):
            end[item] = len(order) - 1
            walk.append(item)
            leaving.append(True)
            continue
        j, parent, zl = item
        k = len(order) - 1
        above = order[parent]
        order.append(j)
        up.append(parent)
        z.append(zl)
        walk.append(k)
        leaving.append(False)
        enter.append(len(walk))
        stack.append(k)
        stack.extend((c, k + 1, cl) for c, cl in reversed(adj[j]) if c != above)
    z_arr = np.array(z, dtype=complex)
    walk_z = z_arr[walk]
    return RadialTree(
        order=np.array(order[1:], dtype=int),
        up=np.array(up, dtype=int),
        z=z_arr,
        enter=np.array(enter, dtype=int),
        walk_bus=np.array(walk, dtype=int),
        walk_end=np.array([end[k] for k in walk], dtype=int),
        walk_z=np.where(leaving, -walk_z, walk_z),
    )


def window_stats_rows(
    voltages: np.ndarray, mu, p_pv: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sse_avg, vf, p_pv_avg) of a window block, summed row by row from
    zero along the first axis."""
    v = np.asarray(voltages, dtype=float)
    p = np.asarray(p_pv, dtype=float)
    t = len(v)
    mu = np.broadcast_to(mu, v.shape)
    sse, vf, p_sum = (np.zeros(v.shape[1:]) for _ in range(3))
    for i in range(t):
        sse += v[i] - mu[i]
        p_sum += p[i]
        if i:
            d = (v[i] - v[i - 1]) / v[i]
            vf += np.abs(d)
    return sse / t, 100.0 * vf / t, p_sum / t


def band_violation_runs(
    trace: SimulationTrace, band_a: tuple[float, float], band_b: tuple[float, float],
    sustain_ticks: int,
) -> dict[str, int]:
    """Per-bus band-violation counts (zero counts left out), found bus by
    bus from the edges of each bus's padded range-B mask."""
    lo_a, hi_a = band_a
    lo_b, hi_b = band_b
    vvi_per: dict[str, int] = {}
    for b, v in zip(trace.bus_ids, trace.voltages.T):
        viol = (v > hi_a) | (v < lo_a)
        out_b = np.concatenate(([False], (v > hi_b) | (v < lo_b), [False]))
        for t0, t1 in np.flatnonzero(np.diff(out_b)).reshape(-1, 2).tolist():
            if t1 - t0 >= sustain_ticks:
                viol[t0:t1] = True
        if count := int(np.sum(viol)):
            vvi_per[b] = count
    return vvi_per


def take_units(params, index):
    """The units at `index` of an array-valued parameter block."""
    return type(params)(*(getattr(params, f.name)[index] for f in fields(params)))


def put_units(params, index, block):
    """`params` with the units at `index` replaced by those of `block`."""
    values = []
    for f in fields(params):
        a = np.array(getattr(params, f.name), dtype=float)
        a[index] = getattr(block, f.name)
        values.append(a)
    return type(params)(*values)


def _window_sum_reference(x: np.ndarray) -> np.ndarray:
    """One window sum per call: `reduce` over rows on two or more columns,
    `accumulate` down a single column."""
    rows = np.ascontiguousarray(x).reshape(len(x), -1)
    s = np.add.reduce(rows, axis=0) if rows.shape[1] > 1 else np.add.accumulate(rows, axis=0)[-1]
    return s.reshape(x.shape[1:]) + 0.0


def window_stats_reference(
    voltages: Sequence[float] | np.ndarray,
    mu: float | np.ndarray,
    p_pv: Sequence[float] | np.ndarray,
) -> WindowStats:
    """`window_stats` with its three quantities summed by three calls."""
    v = np.asarray(voltages, dtype=float)
    p = np.asarray(p_pv, dtype=float)
    t = len(v)
    mu = np.broadcast_to(mu, v.shape)
    d = (v[1:] - v[:-1]) / v[1:]
    sse, vf, p_sum = (_window_sum_reference(x) for x in (v - mu, np.abs(d), p))
    return WindowStats(sse_avg=sse / t, vf=100.0 * vf / t, p_pv_avg=p_sum / t)


def strategy2_update_slope_reference(
    m_prev: float, stats: WindowStats, cfg: AdaptiveConfig
) -> float:
    """The flicker-zone slope update as one `np.select` over the zones."""
    vf = np.abs(stats.vf)
    m_new = np.select(
        [
            vf > cfg.vf_lim_bar,
            vf > cfg.vf_lim,
            vf > cfg.vf_lim - cfg.eps_vf,
            np.abs(stats.sse_avg) > cfg.eps_sse,
        ],
        [m_prev - cfg.delta_vf_bar, m_prev - cfg.delta_vf, m_prev, m_prev + cfg.delta_vf],
        m_prev,
    )
    return np.maximum(cfg.m_floor, m_new)[()]


def outer_loop_step_reference(
    params: AdaptiveParams,
    index,
    voltages: np.ndarray,
    p_pv: np.ndarray,
    rating_s: np.ndarray,
    cfg: AdaptiveConfig,
) -> tuple[WindowStats, AdaptiveParams, AdaptiveParams]:
    """One outer-loop boundary as the engine ran it when it kept one array
    per field: take the units at `index` of the n-unit block `params`, step
    them on their (T, k) windows, and put the new block back.  Returns the
    window statistics, the new block and the merged n-unit block."""
    block = take_units(params, index)
    stats = window_stats_reference(voltages, block.mu, p_pv)
    q_p = strategy1_update_qp(block.q_p, stats, cfg)
    m_p = strategy2_update_slope_reference(block.m_p, stats, cfg)
    q_min_p, q_max_p = capacity_limits(rating_s, stats.p_pv_avg)
    q_p = clamp(q_p, q_min_p, q_max_p)
    new = AdaptiveParams.from_slope(m_p, q_p, q_min_p, q_max_p, block.mu)
    return stats, new, put_units(params, index, new)


def outer_boundary_reference(engine: SimulationEngine, t: int) -> None:
    """`SimulationEngine._outer_boundary` as the reference composition: the
    eligible units found column by column, the engine's n-unit block taken
    as an `AdaptiveParams`, stepped with `outer_loop_step_reference`, and
    the merged block and the new columns stored and logged."""
    window = slice(t - engine.scenario.t_outer + 1, t + 1)
    v = engine.voltages[window, engine._unit_cols]
    p = engine.p_profile[window]
    index = [j for j in range(v.shape[1])
             if not np.isnan(v[:, j]).any() and (p[:, j] > 0).all()]
    if not index:
        return
    params = AdaptiveParams(*engine._params.copy())
    _, new, merged = outer_loop_step_reference(
        params, index, v[:, index], p[:, index], engine.ratings[index], engine.scenario.adaptive)
    engine._params[:] = [getattr(merged, f.name) for f in fields(merged)]
    engine._outer_log.append(
        (t, np.array(index, dtype=np.intp), np.array([getattr(new, f.name) for f in fields(new)])))
