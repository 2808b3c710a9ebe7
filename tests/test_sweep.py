"""The backward/forward sweep that solves large radial islands.

`_compile` picks the sweep only for a radial island of more than
`SWEEP_BUSES` buses, and no test lowers that constant: the small-tree
checks compile the tree arrays and run the fixed point on them directly.  The
ladders come from the benchmark's generator (`perfbench/gen.py`), which
is imported and never written.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from dataclasses import fields, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voltvar_sim import feeder
from voltvar_sim.feeder import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SWEEP_BUSES,
    FeederModel,
    Line,
    PowerFlowError,
    apply_topology_event,
    feeder_from_dict,
    feeder_to_dict,
    solve_power_flow,
    voltage_sensitivities,
)

from voltvar_sim.scenario import SwitchEvent, scenario_from_dict
from voltvar_sim.sim import linearize, run

from test_feeder import _two_bus

from oracles import (breadth_first, fd_sensitivities, gauss_nodal_solve, injection_array,
                     radial_tree, ybus_from_lines)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py)

# a ladder whose island (this many buses plus the slack) takes the sweep
LADDER_BUSES = SWEEP_BUSES + 30


def _swept(model: FeederModel) -> feeder.CompiledNetwork:
    """`model.network` with its island compiled to tree arrays, whatever
    its size."""
    net = model.network
    return replace(net, z=None, tree=radial_tree(net.slack_idx, net.line_ends, net.line_z))


def _dense(model: FeederModel) -> FeederModel:
    """A copy of `model` whose compiled island has no `tree`: its
    linearized solves take the dense branch."""
    out = model._copy(())
    out.__dict__["network"] = replace(model.network, tree=None)
    return out


def _pv_injections(model: FeederModel, seed: int) -> dict[str, tuple[float, float]]:
    rng = np.random.default_rng(seed)
    scale = model.pv_units[0].rating_s
    return {b: (rng.uniform(-0.5, 0.5) * scale, rng.uniform(-0.5, 0.5) * scale)
            for b in model.pv_buses}


@pytest.fixture(scope="module")
def ladder() -> FeederModel:
    return feeder_from_dict(gen.ladder_feeder(LADDER_BUSES, 0, open_laterals=2))


@lru_cache(maxsize=None)
def _ladder_doc(n: int, seed: int, laterals: int) -> dict:
    return gen.ladder_feeder(n, seed, open_laterals=laterals)


@pytest.mark.parametrize("n, seed, closed", [
    (11, 2, False), (17, 1, True), (26, 2, False), (33, 3, True),
    (41, 4, False), (50, 5, True), (60, 6, False), (60, 7, True),
])
def test_sweep_matches_the_dense_fixed_point(n, seed, closed):
    model = feeder_from_dict(gen.ladder_feeder(n, seed, open_laterals=1))
    if closed:  # energize the dark lateral: the island grows by its buses
        model = apply_topology_event(model, "sw0", "closed")
    net = model.network
    assert net.tree is None and net.z is not None  # small islands keep Z
    swept = _swept(model)
    inj = injection_array(model, _pv_injections(model, seed))
    s = model._s_base + inj[net.cols]
    v_slack = model.slack.v_set
    base = solve_power_flow(model)
    for v0 in (None, base.v):
        v_z, conv_z, it_z, _ = feeder._fixed_point(net, s, v_slack, v0, DEFAULT_TOL)
        v_t, conv_t, it_t, mismatch = feeder._fixed_point(swept, s, v_slack, v0, DEFAULT_TOL)
        assert conv_z and conv_t and mismatch <= DEFAULT_TOL
        assert abs(it_t - it_z) <= 1
        assert np.max(np.abs(v_t - v_z)) < 1e-12


def test_tree_arrays_walk_a_hand_built_tree():
    # s - a - b, a - c, s - d: preorder a, b, c, d
    model = FeederModel(
        buses=(feeder.Bus("s", "slack"),) + tuple(feeder.Bus(b) for b in "abcd"),
        lines=(Line("s", "a", 0.01, 0.02), Line("a", "b", 0.02, 0.03),
               Line("c", "a", 0.03, 0.04), Line("s", "d", 0.04, 0.05)),
    )
    net = model.network
    t = radial_tree(net.slack_idx, net.line_ends, net.line_z)
    assert [net.island[i] for i in t.order] == ["a", "b", "c", "d"]
    assert t.up.tolist() == [0, 1, 1, 0]
    assert t.z.tolist() == [0.01 + 0.02j, 0.02 + 0.03j, 0.03 + 0.04j, 0.04 + 0.05j]
    # enter a, enter b, leave b, enter c, leave c, leave a, enter d, leave d
    assert t.walk_bus.tolist() == [0, 1, 1, 2, 2, 0, 3, 3]
    assert t.walk_end.tolist() == [3, 2, 2, 3, 3, 3, 4, 4]
    assert t.walk_z.tolist() == [z * sign for z, sign in zip(
        t.z[t.walk_bus].tolist(), [1, 1, -1, 1, -1, -1, 1, -1])]
    assert t.enter.tolist() == [1, 2, 4, 7]


def test_large_ladder_matches_the_nodal_oracle(ladder):
    net = ladder.network
    assert net.tree is not None and net.z is None
    injections = _pv_injections(ladder, 11)
    sol = solve_power_flow(ladder, injections=injection_array(ladder, injections))
    assert sol.converged and 0 < sol.iterations < DEFAULT_MAX_ITER
    oracle = gauss_nodal_solve(ladder, injections)
    assert np.max(np.abs(sol.v - [oracle[b] for b in sol.bus_ids])) < 1e-9
    assert "ybus" not in vars(net)


def test_sensitivities_build_ybus_on_demand(ladder):
    model = feeder_from_dict(feeder.feeder_to_dict(ladder))  # nothing compiled yet
    sol = solve_power_flow(model)
    net = model.network
    assert "ybus" not in vars(net)
    got = voltage_sensitivities(model, sol)
    assert "ybus" not in vars(net)  # the tree elimination reads no Ybus
    for g, want in zip(got, fd_sensitivities(model)):
        assert g.shape == want.shape
        assert np.max(np.abs(g - want)) <= 1e-6 * np.max(np.abs(want))


@pytest.mark.parametrize("n, seed, laterals, closed, block, pv", [
    (130, 0, 1, False, None, True), (200, 1, 2, True, None, True),
    (260, 2, 3, False, 7, True), (400, 3, 1, True, None, True),
    (400, 4, 2, False, 1, True), (130, 5, 1, False, None, False),
])
def test_tree_sensitivities_match_the_dense_solve(n, seed, laterals, closed, block, pv,
                                                  monkeypatch):
    model = feeder_from_dict(_ladder_doc(n, seed, laterals))
    if closed:  # a lateral closed: its buses join the tree
        model = apply_topology_event(model, "sw0", "closed")
    if not pv:  # only the substation column
        model = replace(model, pv_units=())
    scaled = model.with_scaled_loads(1.2)
    sol = solve_power_flow(scaled, injections=injection_array(
        scaled, _pv_injections(scaled, seed) if pv else {}))
    assert sol.converged
    net = scaled.network
    assert net.tree is not None and len(net.island) > n
    if block is not None:  # columns in blocks of `block`, the last one short
        monkeypatch.setattr(feeder, "_TREE_BLOCK", block * len(net.pq))
    got = voltage_sensitivities(scaled, sol)
    assert "ybus" not in vars(net)
    want = voltage_sensitivities(_dense(scaled), sol)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype and g.flags.c_contiguous
        assert np.max(np.abs(g - w), initial=0.0) <= 1e-10 * np.max(np.abs(w), initial=0.0)


def test_a_zero_tree_pivot_takes_the_dense_branch(ladder):
    model = feeder_from_dict(feeder.feeder_to_dict(ladder))  # nothing compiled yet
    sol = solve_power_flow(model)
    t = model.network.tree
    # the last bus in preorder is a leaf: at 1 pu under a parent at 2 pu,
    # its current is -1/z and its block x -> (x - conj(x))/z is singular,
    # though the whole system is not
    assert t.up[-1] > 0
    v = np.ones(len(sol.v), dtype=complex)
    v[t.order[t.up[-1] - 1]] = 2.0
    point = replace(sol, v=v)
    assert "ybus" not in vars(model.network)
    got = voltage_sensitivities(model, point)
    assert "ybus" in vars(model.network)  # built for that one solve
    for g, w in zip(got, voltage_sensitivities(_dense(model), point)):
        assert np.isfinite(g).all()
        assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("n, laterals", [(LADDER_BUSES, 2), (3000, 0)])
def test_forced_nonconvergence_reaches_newton(n, laterals, monkeypatch):
    model = feeder_from_dict(_ladder_doc(n, 0, laterals))
    want = solve_power_flow(model)
    assert "ybus" not in vars(model.network)
    calls = []
    newton = feeder._newton
    monkeypatch.setattr(feeder, "_newton", lambda *args: calls.append(args) or newton(*args))
    monkeypatch.setattr(feeder, "FIXED_POINT_STEP", -1.0)  # no step is ever small enough
    tracemalloc.start()
    try:
        got = solve_power_flow(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.converged and len(calls) == 1
    assert "ybus" not in vars(model.network)  # Newton steps through the tree too
    assert peak <= 16e6  # at 3,000 buses a dense Jacobian alone would be 288 MB
    assert np.max(np.abs(got.v - want.v)) < 1e-9


@pytest.mark.parametrize("case, edge", [("two_bus", 11.75), ("feeder30", 3.75),
                                        ("ladder", 5.0), ("ladder300", 4.25)])
def test_newton_reaches_the_loadability_edge_from_a_flat_start(case, edge, request):
    # the largest multiple of the loads, in steps of 0.25, at which Newton
    # from a flat start converged when it stepped polar magnitudes and
    # angles, and before it stopped on a growing mismatch: the same on the
    # dense branch (two_bus, feeder30) and the tree's (the ladders)
    if case == "two_bus":
        model = _two_bus()
    elif case == "ladder300":
        model = feeder_from_dict(gen.ladder_feeder(300, 0))
    else:
        model = request.getfixturevalue(case)
    for mult, converges in ((edge, True), (edge + 0.25, False)):
        scaled = model.with_scaled_loads(mult)
        net = scaled.network
        assert (net.tree is not None) == case.startswith("ladder")
        v, converged, _, _ = feeder._newton(net, scaled._s_base, scaled.v_slack, None,
                                            DEFAULT_TOL)
        assert converged == converges
        if case == "ladder" and converged:
            dense = feeder._newton(replace(net, tree=None), scaled._s_base, scaled.v_slack,
                                   None, DEFAULT_TOL)
            assert dense[1] and np.max(np.abs(v - dense[0])) < 1e-12


def test_diverging_newton_stops_before_its_iteration_limit():
    # past the edge the mismatch rises above its start, which stops the solve
    model = _two_bus().with_scaled_loads(12.0)
    _, converged, iterations, mismatch = feeder._newton(
        model.network, model._s_base, model.v_slack, None, DEFAULT_TOL)
    assert not converged and mismatch > DEFAULT_TOL
    assert iterations < DEFAULT_MAX_ITER


def test_closing_a_loop_keeps_the_z_path(ladder):
    trunk = [b for b in ladder.bus_ids if b.startswith("t")]
    tie = Line(trunk[10], trunk[-10], 0.002, 0.006, switch_state="open", id="tie")
    model = replace(ladder, lines=ladder.lines + (tie,))
    assert model.network.tree is not None
    meshed = apply_topology_event(model, "tie", "closed")
    net = meshed.network
    assert net.island == model.network.island
    assert net.tree is None and net.z is not None
    sol = solve_power_flow(meshed)
    assert sol.converged
    oracle = gauss_nodal_solve(meshed)
    assert np.max(np.abs(sol.v - [oracle[b] for b in sol.bus_ids])) < 1e-9
    reopened = apply_topology_event(meshed, "tie", "open")
    assert reopened.network.tree is not None


@pytest.mark.parametrize("case", ["ieee4", "ieee4_closed", "feeder30", "ladder_tie"])
def test_ybus_from_line_arrays_matches_the_line_loop(case, request):
    if case == "ladder_tie":  # a meshed island on the Z path
        ladder = request.getfixturevalue("ladder")
        trunk = [b for b in ladder.bus_ids if b.startswith("t")]
        tie = Line(trunk[10], trunk[-10], 0.002, 0.006, switch_state="open", id="tie")
        model = apply_topology_event(replace(ladder, lines=ladder.lines + (tie,)), "tie", "closed")
        assert model.network.z is not None
    else:
        model = request.getfixturevalue(case)
    got, want = model.network.ybus, ybus_from_lines(model)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_3000_bus_ladder_builds_no_square_array():
    model = feeder_from_dict(_ladder_doc(3000, 0, 0))
    sol = solve_power_flow(model)
    assert sol.converged and len(sol.bus_ids) == 3001
    net = model.network
    assert net.z is None and "ybus" not in vars(net) and "w" not in vars(net)
    arrays = [a for a in [*vars(net).values(), *vars(net.tree).values()]
              if isinstance(a, np.ndarray)]
    assert arrays and all(a.size <= 2 * len(net.island) for a in arrays)


def test_3000_bus_linearize_holds_little_more_than_its_arrays():
    model = feeder_from_dict(_ladder_doc(3000, 0, 0))
    tracemalloc.start()
    try:
        lin = linearize(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "ybus" not in vars(model.network)
    out = lin.dv_dp.nbytes + lin.dv_dq.nbytes + lin.dv_dslack.nbytes
    assert out > 40e6 and peak <= 4 * out  # 48 MB of sensitivities


def _walked_tree(model: FeederModel) -> feeder.RadialTree:
    """The tree arrays `_compile` derives from the island walk, on an
    island of any size."""
    net = model.network
    pos = np.zeros(len(model.bus_ids), dtype=int)
    pos[net.cols] = np.arange(len(net.cols))
    return feeder._walk_tree(model._island, pos, model._graph.z)


# switch toggles (by lateral), load scales and slack voltages, applied in turn
_EVENTS = st.lists(st.one_of(st.tuples(st.just("switch"), st.integers(0, 2)),
                             st.tuples(st.just("scale"), st.floats(0.8, 1.25)),
                             st.tuples(st.just("slack"), st.floats(0.95, 1.05))),
                   min_size=1, max_size=5)


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([60, SWEEP_BUSES - 6, LADDER_BUSES]), seed=st.integers(0, 2),
       laterals=st.integers(1, 3), events=_EVENTS)
def test_events_keep_the_walked_tree_and_the_shared_index_exact(n, seed, laterals, events):
    # islands on both sides of SWEEP_BUSES; closing laterals on the middle
    # size carries the island across it
    model = feeder_from_dict(_ladder_doc(n, seed, laterals))
    built = model.buses
    # the loads and slack voltage as per-bus Python arithmetic makes them
    load_p, load_q = [b.load_p for b in built], [b.load_q for b in built]
    v_slack = model.slack.v_set
    closed = set()
    for kind, value in events:
        if kind == "switch":
            sw = value % laterals
            state = "open" if sw in closed else "closed"
            closed.symmetric_difference_update({sw})
            model = apply_topology_event(model, f"sw{sw}", state)
        elif kind == "scale":
            model = model.with_scaled_loads(value)
            load_p = [p * value for p in load_p]
            load_q = [q * value for q in load_q]
        else:
            model = model.with_slack_voltage(value)
            v_slack = value
        net = model.network
        want = radial_tree(net.slack_idx, net.line_ends, net.line_z)
        got = _walked_tree(model)
        if net.tree is not None:
            assert len(net.island) > SWEEP_BUSES
            got = net.tree
        for f in fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
        # the snapshot's arrays and the buses built from them on read
        buses = model.buses
        assert _bits([b.load_p for b in buses]) == _bits(load_p)
        assert _bits([b.load_q for b in buses]) == _bits(load_q)
        assert [b.v_set for b in buses] == [v_slack if b.kind == "slack" else b.v_set
                                            for b in built]
        assert [(b.id, b.kind, b.base_voltage) for b in buses] == \
            [(b.id, b.kind, b.base_voltage) for b in built]
        # a fresh, checked build indexes its own graph: it equals the
        # snapshot, and the shared index must solve to the same bits
        fresh = feeder_from_dict(feeder_to_dict(model))
        assert fresh == model
        assert fresh._graph is not model._graph
        sol, again = solve_power_flow(model), solve_power_flow(fresh)
        assert sol.bus_ids == again.bus_ids
        assert (sol.converged, sol.iterations) == (again.converged, again.iterations)
        assert sol.v.tobytes() == again.v.tobytes()


def test_a_load_step_builds_no_bus(ladder):
    def bus_count() -> int:
        return sum(isinstance(o, feeder.Bus) for o in gc.get_objects())

    solve_power_flow(ladder)
    before = bus_count()
    scaled = ladder.with_scaled_loads(1.15).with_scaled_loads(1 / 1.15)
    solve_power_flow(scaled)
    assert bus_count() == before
    assert "buses" not in vars(scaled)
    assert len(scaled.buses) == len(ladder.bus_ids)  # built on first read
    assert bus_count() == before + len(ladder.bus_ids)


def _tied(model: FeederModel, ties) -> FeederModel:
    """`model` with a normally-open tie switch between each pair of bus
    indices in `ties`."""
    ids = model.bus_ids
    return replace(model, lines=model.lines + tuple(
        Line(ids[a], ids[b], 0.002, 0.006, switch_state="open", id=f"tie{i}")
        for i, (a, b) in enumerate(ties)))


def _check_walk(model: FeederModel) -> None:
    """The island walk against the breadth-first oracle, and the tree and
    Z-bus arrays compiled from it."""
    walk, net = model._island, model.network
    reached, steps = breadth_first(model, model.closed.tolist())
    assert walk.energized.tolist() == reached
    # a preorder: each position after its parent and inside its subtree,
    # one deeper, come by a closed line between the two, with the sizes
    # of its children summing to its own
    i = np.arange(1, len(walk.buses))
    up = walk.up[1:]
    assert walk.up[0] == -1 and walk.via[0] == -1 and walk.depth[0] == 0
    assert np.all(up < i) and np.all(i < up + walk.size[up])
    assert np.array_equal(walk.depth[1:], walk.depth[up] + 1)
    assert model.closed[walk.via[1:]].all()
    ends = np.sort(model._graph.ends[:, walk.via[1:]], axis=0)
    assert np.array_equal(ends, np.sort([walk.buses[up], walk.buses[1:]], axis=0))
    assert np.array_equal(np.bincount(up, walk.size[1:], len(i) + 1) + 1, walk.size)
    if len(net.line_z) != len(net.island) - 1:  # meshed
        return
    want = radial_tree(net.slack_idx, net.line_ends, net.line_z)
    got = _walked_tree(model)
    for f in fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
    if net.z is not None:  # the Z path: the same bytes from breadth-first tree lines
        z_line = model._graph.z
        bfs = feeder._zbus(len(net.island), ((net.pos[a], net.pos[b], z_line[k])
                                             for a, b, k in steps), ())
        assert net.z.tobytes() == bfs[np.ix_(net.pq, net.pq)].tobytes()


@st.composite
def _tied_states(draw):
    n = draw(st.sampled_from([60, SWEEP_BUSES - 6, LADDER_BUSES]))
    laterals = draw(st.integers(1, 3))
    buses = n + 1 + 4 * laterals
    pair = st.tuples(st.integers(0, buses - 1), st.integers(0, buses - 1))
    ties = draw(st.lists(pair.filter(lambda p: p[0] != p[1]), max_size=2))
    switches = [f"sw{s}" for s in range(laterals)] + [f"tie{i}" for i in range(len(ties))]
    states = draw(st.lists(st.lists(st.booleans(), min_size=len(switches),
                                    max_size=len(switches)), min_size=1, max_size=3))
    return (n, draw(st.integers(0, 2)), laterals), tuple(ties), switches, states


@settings(max_examples=30, deadline=None)
@given(case=_tied_states())
def test_every_switch_state_walks_like_the_breadth_first_oracle(case):
    # mask walks (no tie closed) and depth-first walks (a tie closed), on
    # islands on both sides of SWEEP_BUSES, radial or meshed
    doc, ties, switches, states = case
    built = _tied(feeder_from_dict(_ladder_doc(*doc)), ties)
    _check_walk(built)
    for state in states:
        model = built
        for sw, closed in zip(switches, state):
            if closed:
                model = apply_topology_event(model, sw, "closed")
        _check_walk(model)


def test_a_tie_energizes_a_region_behind_its_open_tree_line():
    model = feeder_from_dict(_ladder_doc(60, 0, 1))
    ids = model.bus_ids
    # from an early trunk bus to the far end of the dark lateral behind sw0
    tied = _tied(model, [(ids.index("t0005"), ids.index("nol0_3"))])
    assert tied._graph.tie.tolist() == [False] * len(model.lines) + [True]
    lit = apply_topology_event(tied, "tie0", "closed")
    assert not lit.closed[lit.switch_line("sw0")]
    assert {f"nol0_{i}" for i in range(4)} <= set(lit.network.island)
    assert lit.network.tree is None and len(lit.network.line_z) == len(lit.network.island) - 1
    _check_walk(lit)
    sol = solve_power_flow(lit)
    oracle = gauss_nodal_solve(lit)
    assert sol.converged
    assert np.max(np.abs(sol.v - [oracle[b] for b in sol.bus_ids])) < 1e-9


def test_switch_ticks_walk_the_whole_feeder_once(monkeypatch):
    import workloads  # noqa: E402  (perfbench/workloads.py)

    doc = _ladder_doc(workloads.LADDER_BUSES, 0, 3)
    scenario = scenario_from_dict(gen.ladder_scenario(
        doc, 0, workloads.LADDER_HORIZON, workloads.LADDER_SWITCH_EVERY,
        workloads.LADDER_LOAD_STEPS))
    calls = []
    depth_first = feeder._depth_first
    monkeypatch.setattr(feeder, "_depth_first",
                        lambda *a: calls.append(a) or depth_first(*a))
    trace = run(scenario, feeder_from_dict(doc))
    switches = [t for t, ev in scenario.events if isinstance(ev, SwitchEvent)]
    assert switches == [12, 24, 36] and "pf_diverged" not in trace.flags
    assert len(calls) == 1  # the graph's own walk; every switch state is a mask of it
