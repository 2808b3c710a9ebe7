"""Standalone invariant suites: norm bound, row-sum stability condition,
finite-difference sensitivity validation, and trace determinism.

Runnable on their own (`pytest tests/test_invariants.py`); the acceptance
suite exercises the same properties as its final criterion.
"""

from __future__ import annotations

import numpy as np
import pytest

from voltvar_sim.analysis import spectral_radius, stability_report
from voltvar_sim.feeder import sensitivity_matrix, solve_power_flow
from voltvar_sim.presets import get_preset
from voltvar_sim.sim import run

from oracles import injection_array, param_dispatches, voltage_at


def test_norm_bound_on_100_random_matrices():
    rng = np.random.default_rng(2025)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = rng.normal(scale=rng.uniform(0.05, 5.0), size=(n, n))
        rho = spectral_radius(x)
        assert rho <= np.linalg.norm(x, np.inf) + 1e-9
        assert rho <= np.linalg.norm(x, 1) + 1e-9


def test_row_sum_condition_implies_stability_on_100_random_systems():
    rng = np.random.default_rng(2026)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = np.abs(rng.normal(0.25, 0.2, size=(n, n)))
        margins = rng.uniform(0.02, 0.98, n)
        slopes = margins / np.maximum(np.sum(np.abs(a), axis=1), 1e-12)
        rep = stability_report(a, slopes)
        assert rep.stable_sufficient
        assert rep.rho_ma < 1.0
        assert rep.stable_spectral


@pytest.mark.parametrize("fixture", ["ieee4", "ieee4_closed", "feeder30"])
def test_sensitivity_against_central_differences(fixture, request):
    model = request.getfixturevalue(fixture)
    sol = solve_power_flow(model)
    assert sol.converged
    a = sensitivity_matrix(model, sol)
    pv = [b for b in sol.bus_ids if b in set(model.pv_buses)]
    h = 1e-5
    for j, bus in enumerate(pv):
        dq = injection_array(model, {bus: (0.0, h)})
        up = solve_power_flow(model, injections=dq, v_init=sol)
        dn = solve_power_flow(model, injections=-dq, v_init=sol)
        fd = np.array([(voltage_at(up, b) - voltage_at(dn, b)) / (2 * h) for b in pv])
        assert np.max(np.abs(a[:, j] - fd)) < 1e-4


def test_identical_seeds_produce_identical_traces():
    feeder, scenario = get_preset("intermittency")
    t1 = run(scenario, feeder)
    t2 = run(scenario, feeder)
    assert t1.voltages.tobytes() == t2.voltages.tobytes()
    assert t1.q_inj.tobytes() == t2.q_inj.tobytes()
    assert t1.p_out.tobytes() == t2.p_out.tobytes()
    assert t1.flags == t2.flags
    assert [(d.tick, d.bus, d.params) for d in param_dispatches(t1)] == [
        (d.tick, d.bus, d.params) for d in param_dispatches(t2)
    ]
