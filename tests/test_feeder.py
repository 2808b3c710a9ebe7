from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voltvar_sim import feeder
from voltvar_sim.feeder import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Bus,
    FeederModel,
    FeederError,
    Line,
    PowerFlowError,
    PvUnit,
    apply_topology_event,
    energized_pv_buses,
    feeder_from_dict,
    feeder_to_dict,
    sensitivity_matrix,
    solve_power_flow,
    voltage_sensitivities,
)
from voltvar_sim.sim import linearize

from oracles import (
    bus_injections,
    fd_sensitivities,
    fixed_point_reference,
    gauss_nodal_solve,
    injection_array,
    radial_tree,
    sweep_reference,
    total_losses,
    two_bus_voltage,
    voltage_at,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import gen  # noqa: E402  (perfbench/gen.py)

# frozen from the closed-form two-bus oracle (v1=1, z=0.01+j0.05, S=0.5+j0.2)
TWO_BUS_V2 = 0.9844907599865401


def _two_bus(load_p=0.5, load_q=0.2) -> FeederModel:
    return FeederModel(
        buses=(
            Bus("src", "slack", v_set=1.0),
            Bus("b2", "load", load_p=load_p, load_q=load_q),
        ),
        lines=(Line("src", "b2", 0.01, 0.05),),
    )


def test_flat_case_no_injection():
    model = _two_bus(load_p=0.0, load_q=0.0)
    sol = solve_power_flow(model)
    assert sol.converged
    assert np.allclose(sol.v, 1.0)


def test_two_bus_matches_closed_form():
    sol = solve_power_flow(_two_bus())
    assert sol.converged
    assert voltage_at(sol, "b2") == pytest.approx(TWO_BUS_V2, abs=1e-8)
    assert voltage_at(sol, "b2") == pytest.approx(
        two_bus_voltage(1.0, 0.01, 0.05, 0.5, 0.2), abs=1e-10
    )


def test_four_bus_matches_nodal_oracle(ieee4):
    sol = solve_power_flow(ieee4)
    assert sol.converged
    oracle = gauss_nodal_solve(ieee4)
    assert voltage_at(sol, "bus3") == pytest.approx(abs(oracle["bus3"]), abs=1e-6)
    assert voltage_at(sol, "bus2") == pytest.approx(abs(oracle["bus2"]), abs=1e-6)
    assert np.isnan(voltage_at(sol, "bus4"))  # behind the normally open switch


def test_solver_deterministic(ieee4):
    a = solve_power_flow(ieee4)
    b = solve_power_flow(ieee4)
    assert a.v.tobytes() == b.v.tobytes()
    assert a.point_id == b.point_id


def test_warm_start_same_answer(ieee4):
    cold = solve_power_flow(ieee4)
    warm = solve_power_flow(ieee4, v_init=cold)
    assert warm.converged
    assert warm.iterations <= cold.iterations
    assert voltage_at(warm, "bus3") == pytest.approx(voltage_at(cold, "bus3"), abs=1e-9)


def test_power_balance(ieee4_closed):
    tol = DEFAULT_TOL
    sol = solve_power_flow(ieee4_closed)
    assert sol.converged
    inj = bus_injections(ieee4_closed, sol)
    loss = total_losses(ieee4_closed, sol)
    assert abs(np.sum(inj).real - loss.real) < 10 * tol
    assert abs(np.sum(inj).imag - loss.imag) < 10 * tol
    # every load bus takes what the model specifies
    spec = {b.id: -complex(b.load_p, b.load_q) for b in ieee4_closed.buses}
    for u in ieee4_closed.pv_units:
        spec[u.bus] += complex(u.p_out, u.q_inj)
    for b, s in zip(sol.bus_ids, inj):
        if b != sol.slack_id:
            assert abs(s - spec[b]) < 10 * tol


def test_injection_array_needs_one_entry_per_bus(ieee4):
    with pytest.raises(PowerFlowError, match="one entry per model bus"):
        solve_power_flow(ieee4, injections=np.zeros(len(ieee4.bus_ids) - 1, dtype=complex))
    # only the array form: no dict, no list, no other shape
    for injections in ({"bus3": (0.0, 0.01)}, [0j, 0j, 0.01j, 0j],
                       np.zeros((4, 1), dtype=complex), np.zeros(5, dtype=complex)):
        with pytest.raises(PowerFlowError, match=r"P \+ jQ array, one entry per model bus"):
            solve_power_flow(ieee4, injections=injections)


def test_nonconvergence_flagged_not_fatal():
    model = _two_bus(load_p=30.0, load_q=10.0)  # far beyond loadability
    sol = solve_power_flow(model)
    assert not sol.converged
    assert sol.max_mismatch > 0


def test_disconnected_bus_is_named():
    with pytest.raises(PowerFlowError, match="orphan"):
        FeederModel(
            buses=(
                Bus("src", "slack"),
                Bus("b2", "load"),
                Bus("orphan", "load", load_p=0.1),
            ),
            lines=(Line("src", "b2", 0.01, 0.05),),
        )


def test_sensitivity_matches_paper_value(ieee4):
    sol = solve_power_flow(ieee4)
    a = sensitivity_matrix(ieee4, sol)
    assert a.shape == (1, 1)
    assert a[0, 0] == pytest.approx(0.2857, abs=0.02)


@pytest.mark.parametrize("fixture", ["ieee4", "ieee4_closed", "feeder30"])
def test_sensitivity_matches_finite_difference(fixture, request):
    model = request.getfixturevalue(fixture)
    sol = solve_power_flow(model)
    a = sensitivity_matrix(model, sol)
    rows = [b in model.pv_buses for b in sol.load_bus_ids]
    fd = fd_sensitivities(model)[1][rows]
    assert a.shape == fd.shape
    assert np.max(np.abs(a - fd)) < 1e-4


def test_sensitivity_positive_rows_when_closed(ieee4_closed):
    sol = solve_power_flow(ieee4_closed)
    a = sensitivity_matrix(ieee4_closed, sol)
    assert a.shape == (2, 2)
    assert np.all(a > 0)


def test_sensitivity_monotonic_voltage_response(feeder30):
    # +dQ at any PV bus must not decrease any PV-bus voltage (radial,
    # inductive feeder)
    sol = solve_power_flow(feeder30)
    pv = list(feeder30.pv_buses)
    for bus in pv[:3] + pv[-2:]:
        up = solve_power_flow(
            feeder30, injections=injection_array(feeder30, {bus: (0.0, 0.02)}), v_init=sol
        )
        for other in pv:
            assert voltage_at(up, other) >= voltage_at(sol, other) - 1e-12


def test_sensitivity_needs_an_energized_pv_unit(ieee4):
    # the matrix is over the energized PV buses, never every load bus
    assert energized_pv_buses(ieee4) == ("bus3",)  # bus4 is behind the open switch
    assert sensitivity_matrix(ieee4, solve_power_flow(ieee4)).shape == (1, 1)
    bare = replace(ieee4, pv_units=())
    sol = solve_power_flow(bare)
    with pytest.raises(FeederError, match="no energized PV unit"):
        sensitivity_matrix(bare, sol)
    dark = replace(ieee4, pv_units=ieee4.pv_units[1:])  # only bus4, behind the open switch
    with pytest.raises(FeederError, match="no energized PV unit"):
        sensitivity_matrix(dark, solve_power_flow(dark))
    # the twin's derivatives take no PV column there, and the substation one
    dv_dp, dv_dq, dv_dslack = voltage_sensitivities(bare, sol)
    n = len(sol.load_bus_ids)
    assert (dv_dp.shape, dv_dq.shape, dv_dslack.shape) == ((n, 0), (n, 0), (n,))


def test_sensitivity_requires_convergence(ieee4):
    bad = solve_power_flow(_two_bus(load_p=30.0, load_q=10.0))
    with pytest.raises(PowerFlowError):
        sensitivity_matrix(_two_bus(load_p=30.0, load_q=10.0), bad)
    with pytest.raises(PowerFlowError, match="converged"):
        voltage_sensitivities(_two_bus(load_p=30.0, load_q=10.0), bad)


def test_sensitivity_requires_the_solved_island(ieee4, ieee4_closed):
    with pytest.raises(PowerFlowError, match="topology"):
        voltage_sensitivities(ieee4_closed, solve_power_flow(ieee4))


def test_singular_jacobian_raises(ieee4, monkeypatch):
    sol = solve_power_flow(ieee4)
    assert ieee4.network.tree is None  # the dense branch of the linearized solve
    # every 2 x 2 block of the linearized power flow zero: a singular system
    monkeypatch.setattr(feeder, "_blocks", lambda a, b: np.zeros((a.size, 2, 2)))
    with pytest.raises(PowerFlowError, match="singular Jacobian"):
        voltage_sensitivities(ieee4, sol)
    with pytest.raises(PowerFlowError, match="singular Jacobian"):
        sensitivity_matrix(ieee4, sol)


def test_sensitivities_of_a_slack_only_island_are_empty():
    model = FeederModel(buses=(Bus("s", "slack", v_set=1.02),), lines=())
    got = voltage_sensitivities(model, solve_power_flow(model))
    assert [a.shape for a in got] == [(0, 0), (0, 0), (0,)]


def test_topology_close_expands_reduced_matrix(ieee4):
    sol = solve_power_flow(ieee4)
    a_open = sensitivity_matrix(ieee4, sol)
    closed = apply_topology_event(ieee4, "switch1", "closed")
    sol_c = solve_power_flow(closed)
    a_closed = sensitivity_matrix(closed, sol_c)
    assert a_open.shape == (1, 1)
    assert a_closed.shape == (2, 2)


def test_topology_reopen_is_involution(ieee4):
    closed = apply_topology_event(ieee4, "switch1", "closed")
    reopened = apply_topology_event(closed, "switch1", "open")
    sol_before = solve_power_flow(ieee4)
    sol_after = solve_power_flow(reopened)
    a_before = sensitivity_matrix(ieee4, sol_before)
    a_after = sensitivity_matrix(reopened, sol_after)
    assert a_before.tobytes() == a_after.tobytes()


def test_topology_islanding_midline_rejected():
    # a mid-feeder switch whose opening would island a load/PV bus
    model = FeederModel(
        buses=(
            Bus("src", "slack"),
            Bus("b2", "load"),
            Bus("b3", "load", load_p=0.2),
        ),
        lines=(
            Line("src", "b2", 0.01, 0.05, switch_state="closed", id="sw_mid"),
            Line("b2", "b3", 0.01, 0.05),
        ),
        pv_units=(PvUnit("b3", 0.5, p_out=0.1),),
    )
    with pytest.raises(FeederError, match="island"):
        apply_topology_event(model, "sw_mid", "open")


def test_topology_unknown_switch(ieee4):
    with pytest.raises(FeederError, match="no such switch"):
        apply_topology_event(ieee4, "nope", "open")
    with pytest.raises(FeederError, match="not a switch"):
        apply_topology_event(ieee4, "bus1-bus2", "open")


def test_switch_name_shared_with_a_line_rejected():
    # opening switch x used to open the plain line s-b named x with it
    buses = (Bus("s", "slack"), Bus("a", "load"), Bus("b", "load"), Bus("c", "load"))
    plain = (Line("s", "a", 0.01, 0.05), Line("a", "b", 0.01, 0.05), Line("c", "b", 0.01, 0.05))
    with pytest.raises(FeederError, match="switch x: name shared"):
        FeederModel(buses=buses, lines=plain + (
            Line("s", "b", 0.01, 0.05, id="x"),
            Line("a", "c", 0.01, 0.05, switch_state="closed", id="x"),
        ))
    with pytest.raises(FeederError, match="switch a-b: name shared"):
        FeederModel(buses=buses, lines=plain + (Line("a", "b", 0.02, 0.05, switch_state="open"),))
    # plain parallel lines may share a name; no switch event can reach them
    model = FeederModel(buses=buses, lines=plain + (Line("a", "b", 0.02, 0.05),))
    with pytest.raises(FeederError, match="not a switch"):
        apply_topology_event(model, "a-b", "open")


def test_feeder_json_round_trip(ieee4):
    doc = feeder_to_dict(ieee4)
    again = feeder_from_dict(doc)
    assert again == ieee4


@pytest.mark.parametrize("edit, match", [
    pytest.param(lambda d: d["buses"][3].update(id="bus2"), "duplicate bus ids",
                 id="duplicate-bus-id"),
    pytest.param(lambda d: d["lines"][1].update(to="bus9"), "line bus2-bus9: references unknown bus",
                 id="line-unknown-bus"),
    pytest.param(lambda d: d["pv_units"][1].update(bus="bus9"), "unknown bus bus9",
                 id="pv-unknown-bus"),
    pytest.param(lambda d: d["pv_units"][1].update(bus="bus3"), "multiple PV units on one bus",
                 id="two-pv-units-on-one-bus"),
    pytest.param(lambda d: d["pv_units"].append({"bus": "bus1", "rating_s": 0.5, "p_out": 0.1}),
                 "pv unit on the slack bus bus1", id="pv-on-slack-bus"),
    pytest.param(lambda d: d["buses"][2].update(base_voltage=0.0), "bus bus3: base_voltage",
                 id="base-voltage-zero"),
    pytest.param(lambda d: d["buses"][2].update(base_voltage=-4160.0), "bus bus3: base_voltage",
                 id="base-voltage-negative"),
    pytest.param(lambda d: d["pv_units"][0].update(rating_s=0.0), "pv at bus3: rating_s",
                 id="rating-zero"),
    pytest.param(lambda d: d["pv_units"][0].update(p_out=-0.1), "pv at bus3: p_out must be >= 0",
                 id="p-out-negative"),
])
def test_feeder_document_rejected(ieee4, edit, match):
    doc = feeder_to_dict(ieee4)
    feeder_from_dict(doc)
    edit(doc)
    with pytest.raises(FeederError, match=match):
        feeder_from_dict(doc)


def test_feeder_validation_errors():
    with pytest.raises(FeederError, match="slack"):
        FeederModel(buses=(Bus("a", "load"),), lines=())
    with pytest.raises(FeederError, match="impedance"):
        Line("a", "b", 0.0, 0.0)
    with pytest.raises(FeederError, match="p_out"):
        PvUnit("a", rating_s=0.5, p_out=0.6)
    with pytest.raises(FeederError, match="kind"):
        Bus("a", "generator")


# -- compiled network and Z-bus fixed point


@st.composite
def _random_feeder(draw):
    """A random radial tree on buses b0 (slack) .. b{n-1}, sometimes closed
    into one mesh, with random loads and extra injections."""
    n = draw(st.integers(2, 10))
    impedance = st.tuples(st.floats(0.001, 0.01), st.floats(0.002, 0.02))
    lines = [
        Line(f"b{draw(st.integers(0, k - 1))}", f"b{k}", *draw(impedance))
        for k in range(1, n)
    ]
    if n >= 3 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        lines.append(Line(f"b{i}", f"b{j}", *draw(impedance), id="mesh"))
    buses = (Bus("b0", "slack", v_set=draw(st.floats(0.95, 1.05))),) + tuple(
        Bus(f"b{k}", "load", load_p=draw(st.floats(0.0, 0.08)),
            load_q=draw(st.floats(0.0, 0.04)))
        for k in range(1, n)
    )
    model = FeederModel(buses=buses, lines=tuple(lines))
    injected = draw(st.lists(st.integers(1, n - 1), unique=True, max_size=n - 1))
    injections = {
        f"b{k}": (draw(st.floats(-0.05, 0.1)), draw(st.floats(-0.05, 0.05)))
        for k in injected
    }
    return model, injections


def _spec(model: FeederModel, injections: np.ndarray | None = None) -> np.ndarray:
    """S_spec over the island: the model's loads and PV units plus
    `injections`, as `solve_power_flow` adds them."""
    s = model._s_base
    return s if injections is None else s + injections[model.network.cols]


@settings(max_examples=60, deadline=None)
@given(case=_random_feeder())
def test_fixed_point_agrees_with_oracle_and_newton(case):
    model, injections = case
    array = injection_array(model, injections)
    sol = solve_power_flow(model, injections=array)
    assert sol.converged
    v = sol.v

    oracle = gauss_nodal_solve(model, injections)
    assert np.max(np.abs(v - [oracle[b] for b in sol.bus_ids])) < 1e-9

    net = model.network
    y_ll = net.ybus[np.ix_(net.pq, net.pq)]
    assert np.max(np.abs(net.z @ y_ll - np.eye(len(net.pq)))) < 1e-9
    s = _spec(model, array)
    v_newton, converged, _, _ = feeder._newton(net, s, model.slack.v_set, None, 1e-12)
    assert converged
    assert np.max(np.abs(v - v_newton)) < 1e-10
    if len(net.line_z) == len(net.pq):  # radial: the sweep iterates the same map
        tree = radial_tree(net.slack_idx, net.line_ends, net.line_z)
        swept = feeder._fixed_point(replace(net, z=None, tree=tree), s, model.slack.v_set,
                                    None, DEFAULT_TOL)
        dense = feeder._fixed_point(net, s, model.slack.v_set, None, DEFAULT_TOL)
        assert swept[1] == dense[1]
        assert np.max(np.abs(swept[0] - dense[0])) < 1e-12


def test_near_loadability_converges_through_newton_fallback(monkeypatch):
    model = _two_bus(load_p=4.5, load_q=1.8)  # 9x the test load
    _, converged, iterations, _ = feeder._fixed_point(
        model.network, _spec(model), 1.0, None, DEFAULT_TOL
    )
    assert not converged
    assert iterations == DEFAULT_MAX_ITER

    calls = []
    newton = feeder._newton
    monkeypatch.setattr(
        feeder, "_newton", lambda *args: calls.append(args) or newton(*args)
    )
    sol = solve_power_flow(model)
    assert sol.converged
    assert len(calls) == 1
    assert voltage_at(sol, "b2") == pytest.approx(
        two_bus_voltage(1.0, 0.01, 0.05, 4.5, 1.8), abs=1e-10
    )
    assert solve_power_flow(_two_bus()).converged
    assert len(calls) == 1  # the test load needs no fallback


def _fixed_point_case(name, request):
    """(model, S_spec, v0) of a named case; the `ladder150` ones are a
    radial island of more than `SWEEP_BUSES` buses, which steps by the
    sweep."""
    feeder30 = request.getfixturevalue("feeder30")
    model, injections, v0 = feeder30, None, None
    if name.startswith("ladder150"):
        model = feeder_from_dict(gen.ladder_feeder(150, 0))
    if name.endswith("_warm"):
        v0 = solve_power_flow(model).v
        injections = injection_array(model, {b: (-0.02, 0.03) for b in model.pv_buses})
    elif name == "ieee4_closed":
        model = request.getfixturevalue("ieee4_closed")
    elif name == "feeder30_meshed":
        model = replace(feeder30, lines=feeder30.lines + (Line("t16", "l14", 0.01, 0.02),))
    elif name == "two_bus_9x_load":
        model = _two_bus(load_p=4.5, load_q=1.8)
    elif name == "slack_only":
        model = FeederModel(buses=(Bus("s", "slack", v_set=1.02),), lines=())
    elif name.endswith("zero_in_v0"):
        v0 = solve_power_flow(model).v.copy()
        v0[5] = 0.0
    return model, _spec(model, injections), v0


@pytest.mark.parametrize("name", [
    "feeder30_cold", "feeder30_warm", "ieee4_closed", "feeder30_meshed",
    "two_bus_9x_load", "slack_only", "zero_in_v0",
    "ladder150_cold", "ladder150_warm", "ladder150_zero_in_v0",
])
def test_fixed_point_matches_reference_bit_for_bit(name, request, monkeypatch):
    # the references keep the `np.max` reductions the Z kernel replaced,
    # and the sweep as a loop of its own
    model, s, v0 = _fixed_point_case(name, request)
    net = model.network
    assert (net.tree is not None) == name.startswith("ladder150")
    reference = fixed_point_reference if net.tree is None else sweep_reference
    got = feeder._fixed_point(net, s, model.v_slack, v0, DEFAULT_TOL)
    want = reference(net, s, model.v_slack, v0, DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1:3] == want[1:3]
    assert type(got[1]) is bool
    assert np.float64(got[3]).tobytes() == np.float64(want[3]).tobytes()
    converged, iterations, mismatch = got[1:]
    if name == "two_bus_9x_load":
        assert (converged, iterations) == (False, DEFAULT_MAX_ITER)
    elif name == "slack_only":
        assert (converged, iterations, mismatch) == (True, 0, 0.0)
    elif name.endswith("zero_in_v0"):
        # the first step is not finite, so the loop stops and Newton runs:
        # from the warm start (which fails on the zero) and then flat
        assert not converged and iterations == 1
        calls = []
        newton = feeder._newton
        monkeypatch.setattr(
            feeder, "_newton", lambda *args: calls.append(args) or newton(*args)
        )
        cold = solve_power_flow(model)
        sol = solve_power_flow(model, v_init=replace(cold, v=v0))
        assert sol.converged and len(calls) == 2
        # the flat Newton lands within 4.1e-14 of the fixed point on the ladder
        assert np.max(np.abs(sol.v - cold.v)) < (1e-9 if net.tree is None else 1e-13)
        stopped, converged, _, _ = newton(*calls[0])  # the zero magnitude stops it
        assert not converged and np.isnan(stopped).all()
    else:
        assert converged and 0 < iterations < DEFAULT_MAX_ITER


def test_compiled_network_follows_topology(ieee4):
    net = ieee4.network
    assert ieee4.network is net
    assert ieee4.with_slack_voltage(1.03).network is net
    assert ieee4.with_scaled_loads(1.5).network is net
    closed = apply_topology_event(ieee4, "switch1", "closed")
    assert closed.network is not net
    assert closed.network.island == ("bus1", "bus2", "bus3", "bus4")


def test_copies_keep_the_topology_but_not_the_injections(ieee4):
    model = feeder_from_dict(feeder_to_dict(ieee4))
    base = solve_power_flow(model)  # computes the island, network and injections
    assert {"_island", "network", "_s_base"} <= set(vars(model))
    for copy in (model.with_slack_voltage(0.98), model.with_scaled_loads(1.5)):
        assert copy._island is model._island and copy.network is model.network
        assert "_s_base" not in vars(copy)
        assert solve_power_flow(copy).v_mag.tobytes() != base.v_mag.tobytes()
    closed = apply_topology_event(model, "switch1", "closed")  # walks its own island
    assert closed._island is not model._island
    assert "network" not in vars(closed) and "_s_base" not in vars(closed)


def test_graph_index_is_shared_by_every_copy(ieee4, monkeypatch):
    model = feeder_from_dict(feeder_to_dict(ieee4))
    builds = []
    index_graph = feeder._index_graph
    monkeypatch.setattr(feeder, "_index_graph", lambda *a: builds.append(a) or index_graph(*a))
    closed = apply_topology_event(model, "switch1", "closed")
    copies = (model.with_scaled_loads(1.5), model.with_slack_voltage(0.98), closed,
              apply_topology_event(closed, "switch1", "open"), closed.with_scaled_loads(0.5))
    for copy in copies:
        assert copy._graph is model._graph
        solve_power_flow(copy)
    assert builds == []
    assert replace(model, name="other")._graph is not model._graph  # a checked build
    assert len(builds) == 1


def test_close_then_reopen_matches_fresh_solve(ieee4):
    closed = apply_topology_event(ieee4, "switch1", "closed")
    assert solve_power_flow(closed).converged
    reopened = apply_topology_event(closed, "switch1", "open")
    again = solve_power_flow(reopened)
    fresh = solve_power_flow(feeder_from_dict(feeder_to_dict(ieee4)))
    assert again.bus_ids == fresh.bus_ids
    assert again.v.tobytes() == fresh.v.tobytes()


@pytest.mark.parametrize("v_set", [-1.0, 0.0, -0.0])
def test_slack_set_point_must_be_positive(ieee4, v_set):
    # -1.0 would solve to |V| = 1.0 pu and 0.0 to NaN voltages; on the
    # linear twin, to about -0.98 pu and 0.01 pu
    doc = feeder_to_dict(ieee4)
    doc["buses"][0]["v_set"] = v_set
    assert doc["buses"][0]["kind"] == "slack"
    with pytest.raises(FeederError, match="bus bus1: v_set must be finite and > 0"):
        feeder_from_dict(doc)
    for model in (ieee4, linearize(ieee4)):
        with pytest.raises(FeederError, match="bus bus1: v_set must be finite and > 0"):
            model.with_slack_voltage(v_set)


@pytest.mark.parametrize("v_pu", [float("nan"), float("inf")])
def test_slack_voltage_must_be_finite(ieee4, v_pu):
    for model in (ieee4, linearize(ieee4)):
        with pytest.raises(FeederError, match="v_set must be finite"):
            model.with_slack_voltage(v_pu)


_NOT_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", _NOT_FINITE)
@pytest.mark.parametrize("part, key, message", [
    ("lines", "resistance", "line bus1-bus2: resistance must be finite"),
    ("lines", "reactance", "line bus1-bus2: reactance must be finite"),
    ("pv_units", "rating_s", "pv at bus3: rating_s must be finite"),
    ("pv_units", "p_out", "pv at bus3: p_out must be finite"),
    ("pv_units", "q_inj", "pv at bus3: q_inj must be finite"),
    ("buses", "base_voltage", "bus bus1: base_voltage must be finite and > 0"),
])
def test_feeder_numbers_must_be_finite(ieee4, part, key, message, value):
    # a NaN resistance would make every solve return NaN without converging
    doc = feeder_to_dict(ieee4)
    row = doc[part][0]
    row[key] = value
    with pytest.raises(FeederError, match=message):
        feeder_from_dict(json.loads(json.dumps(doc)))  # json reads NaN and Infinity
    with pytest.raises(FeederError, match=message):
        replace(getattr(ieee4, part)[0], **{key: value})  # through the constructor


def test_nan_load_scale_rejected(ieee4):
    with pytest.raises(FeederError):
        ieee4.with_scaled_loads(float("nan"))


def test_overflowing_load_scale_rejected():
    # a finite factor whose product with a load is not finite
    model = FeederModel(buses=(Bus("s", "slack"), Bus("a", "load", load_p=10.0)),
                        lines=(Line("s", "a", 0.01, 0.05),))
    with pytest.raises(FeederError, match="bus a: load_p must be finite"):
        model.with_scaled_loads(1e308)


def test_unchecked_copies_equal_checked_builds(ieee4):
    # load, slack-voltage and switch copies skip the model checks; they
    # build the same snapshot a checked construction does
    scaled = ieee4.with_scaled_loads(1.5)
    assert scaled == replace(ieee4, buses=scaled.buses)
    surged = ieee4.with_slack_voltage(1.03)
    assert surged == replace(ieee4, buses=surged.buses)
    closed = apply_topology_event(ieee4, "switch1", "closed")
    assert closed == replace(ieee4, lines=closed.lines)
    assert closed.detachable_buses == ieee4.detachable_buses == {"bus4"}


def test_concurrent_first_solves_share_one_snapshot(feeder30):
    import sys
    import threading

    inj = injection_array(feeder30, {"t05": (0.0, 0.01)})
    fresh = feeder_from_dict(feeder_to_dict(feeder30))
    expected = (solve_power_flow(fresh, injections=inj), solve_power_flow(fresh))
    shared = feeder_from_dict(feeder_to_dict(feeder30))  # nothing compiled yet
    results: list[list] = [[] for _ in range(4)]

    def solve(out):
        for _ in range(20):
            out.append((solve_power_flow(shared, injections=inj), solve_power_flow(shared)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=solve, args=(out,)) for out in results]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    pairs = [pair for out in results for pair in out]
    assert len(pairs) == 80
    for pair in pairs:
        for got, want in zip(pair, expected):
            assert got.v_mag.tobytes() == want.v_mag.tobytes()
