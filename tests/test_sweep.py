"""The backward/forward sweep that solves large radial islands.

`_compile` picks the sweep only for a radial island of more than
`SWEEP_BUSES` buses, and no test lowers that constant: the small-tree
checks compile the tree arrays and run the sweep routine directly.  The
ladders come from the benchmark's generator (`perfbench/gen.py`), which
is imported and never written.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from voltvar_sim import feeder
from voltvar_sim.feeder import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SWEEP_BUSES,
    FeederModel,
    Line,
    apply_topology_event,
    feeder_from_dict,
    solve_power_flow,
    voltage_sensitivities,
)

from oracles import fd_sensitivities, gauss_nodal_solve, injection_array

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py)

# a ladder whose island (this many buses plus the slack) takes the sweep
LADDER_BUSES = SWEEP_BUSES + 30


def _swept(model: FeederModel) -> feeder.CompiledNetwork:
    """`model.network` with its island compiled to tree arrays, whatever
    its size."""
    net = model.network
    return replace(net, z=None, tree=feeder._radial_tree(net.slack_idx, net.lines))


def _pv_injections(model: FeederModel, seed: int) -> dict[str, tuple[float, float]]:
    rng = np.random.default_rng(seed)
    scale = model.pv_units[0].rating_s
    return {b: (rng.uniform(-0.5, 0.5) * scale, rng.uniform(-0.5, 0.5) * scale)
            for b in model.pv_buses}


@pytest.fixture(scope="module")
def ladder() -> FeederModel:
    return feeder_from_dict(gen.ladder_feeder(LADDER_BUSES, 0, open_laterals=2))


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
        v_t, conv_t, it_t, mismatch = feeder._sweep(swept, s, v_slack, v0, DEFAULT_TOL)
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
    t = feeder._radial_tree(net.slack_idx, net.lines)
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
    assert "ybus" in vars(net)
    for g, want in zip(got, fd_sensitivities(model)):
        assert g.shape == want.shape
        assert np.max(np.abs(g - want)) <= 1e-6 * np.max(np.abs(want))


def test_forced_nonconvergence_reaches_newton(ladder, monkeypatch):
    model = feeder_from_dict(feeder.feeder_to_dict(ladder))
    want = solve_power_flow(model)
    assert "ybus" not in vars(model.network)
    calls = []
    newton = feeder._newton
    monkeypatch.setattr(feeder, "_newton", lambda *args: calls.append(args) or newton(*args))
    monkeypatch.setattr(feeder, "FIXED_POINT_STEP", -1.0)  # no step is ever small enough
    got = solve_power_flow(model)
    assert got.converged and len(calls) == 1
    assert "ybus" in vars(model.network)
    assert np.max(np.abs(got.v - want.v)) < 1e-9


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


def test_3000_bus_ladder_builds_no_square_array():
    model = feeder_from_dict(gen.ladder_feeder(3000, 0))
    sol = solve_power_flow(model)
    assert sol.converged and len(sol.bus_ids) == 3001
    net = model.network
    assert net.z is None and "ybus" not in vars(net) and "w" not in vars(net)
    arrays = [a for a in [*vars(net).values(), *vars(net.tree).values()]
              if isinstance(a, np.ndarray)]
    assert arrays and all(a.ndim == 1 for a in arrays)
