"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report; every tolerance is pinned here.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from voltvar_sim.adaptation import AdaptiveConfig
from voltvar_sim.analysis import outer_b_matrix, predict_sse, spectral_radius, stability_report
from voltvar_sim.control import ControllerKind
from voltvar_sim.feeder import sensitivity_matrix, solve_power_flow
from voltvar_sim.presets import get_preset, override_scenario
from voltvar_sim.sim import (
    Scenario,
    SubstationVoltage,
    linearize,
    metrics,
    run,
)

from oracles import injection_array, voltage_at


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({name}): {detail}"


def _steady_scenario(kind, slope, horizon=100, events=(), adaptive=None):
    return Scenario(
        horizon=horizon,
        t_outer=10,
        controller_kind=kind,
        mu=1.0,
        droop_slope=slope,
        adaptive=adaptive or AdaptiveConfig(eps_vf=0.2, vf_lim=1.0, vf_lim_bar=3.0),
        pv_profile={"bus3": 0.9},
        events=events,
    )


def test_criterion_1_critical_slope(ieee4):
    t0 = time.perf_counter()
    sol = solve_power_flow(ieee4)
    a = sensitivity_matrix(ieee4, sol)
    rep = stability_report(a, [1.0])
    elapsed = time.perf_counter() - t0
    a33 = a[0, 0]
    m_c = rep.critical_slopes[0]
    ok = abs(a33 - 0.2857) <= 0.02 and abs(m_c - 3.5) <= 0.25 and elapsed < 1.0
    _report(1, "critical slope reproduction", ok,
            f"a33={a33:.4f}, m_c={m_c:.3f}, {elapsed:.2f}s")


def test_criterion_2_stability_dichotomy(ieee4):
    t0 = time.perf_counter()
    settled = run(_steady_scenario(ControllerKind("conventional"), 1.0), ieee4)
    t_settle = time.perf_counter() - t0
    resid = np.abs(np.diff(settled.q_inj[:, 0]))
    settles = bool(np.all(resid[60:] < 1e-6))

    t1 = time.perf_counter()
    oscillating = run(_steady_scenario(ControllerKind("conventional"), 6.0), ieee4)
    t_osc = time.perf_counter() - t1
    v3 = oscillating.bus_voltage("bus3")[-20:]
    p2p = float(v3.max() - v3.min())
    ok = settles and p2p > 0.01 and t_settle < 1.0 and t_osc < 1.0
    _report(2, "stability dichotomy m=1 vs m=6", ok,
            f"residual<1e-6 by t=60: {settles}, m=6 p2p={p2p:.4f}, "
            f"{t_settle:.2f}s/{t_osc:.2f}s")


def test_criterion_3_outer_loop_gain_regimes(ieee4):
    t0 = time.perf_counter()
    # scalar gain map at the paper's operating point: a^-1 + m = 4.5
    b_at_4p5 = 1.0 - 4.5 / (3.5 + 1.0)
    exact_zero = b_at_4p5 == 0.0
    b_literal = 1.0 - 4.5 / (1.0 / 0.2857 + 1.0)
    near_zero = abs(b_literal) < 1e-4

    # sweep the gain on the linearized engine; classify the settled SSE at
    # each outer boundary after a 0.02 pu substation step.  The horizon is
    # long enough (T=100) that each window statistic equals the settled
    # SSE, the regime the gain map describes.
    lin = linearize(ieee4)
    quiet = AdaptiveConfig(
        k_d=2.0, eps_sse=1e-9, eps_vf=1e5, vf_lim=1e6, vf_lim_bar=2e6,
        delta_vf=1e-12, delta_vf_bar=2e-12, m_init=1.0, m_floor=0.0,
    )
    base = Scenario(
        horizon=1001,
        t_outer=100,
        controller_kind=ControllerKind("adaptive"),
        mu=1.0,
        adaptive=quiet,
        pv_profile={"bus3": 0.9},
        events=((101, SubstationVoltage(1.05)),),
        name="kd-sweep",
    )

    def sse_seq(k: float) -> np.ndarray:
        sc = replace(base, adaptive=replace(quiet, k_d=k))
        trace = run(sc, lin)
        v3 = trace.bus_voltage("bus3")
        return np.array([v3[t] - 1.0 for t in range(200, 1001, 100)])

    s2, s45, s7, s10 = (sse_seq(k) for k in (2.0, 4.5, 7.0, 10.0))
    monotone = bool(np.all(np.sign(s2) == np.sign(s2[0]))
                    and np.all(np.diff(np.abs(s2)) < 0))
    one_step = abs(s45[1]) < 1e-4
    expected_signs = np.array([1, -1, 1, -1, 1]) * np.sign(s7[0])
    alternating = bool(np.all(np.sign(s7[:5]) == expected_signs)
                       and np.all(np.diff(np.abs(s7[:5])) < 0))
    diverging = bool(np.all(np.diff(np.abs(s10[:5])) >= 0))
    elapsed = time.perf_counter() - t0
    ok = (exact_zero and near_zero and monotone and one_step and alternating
          and diverging and elapsed < 5.0)
    _report(3, "outer-loop gain regimes", ok,
            f"b(4.5)={b_at_4p5!r}, |sse| after one loop={abs(s45[1]):.2e}, "
            f"regimes {monotone}/{one_step}/{alternating}/{diverging}, {elapsed:.2f}s")


def test_criterion_4_closed_switch_b_matrix(ieee4_closed):
    sol = solve_power_flow(ieee4_closed)
    a = sensitivity_matrix(ieee4_closed, sol)
    rep = outer_b_matrix(a, [1.0, 1.0], 4.0)
    mags = sorted(np.abs(np.linalg.eigvals(rep.b_matrix)), reverse=True)
    ok = abs(mags[0] - 0.73) <= 0.05 and abs(mags[1] - 0.56) <= 0.05
    _report(4, "closed-switch B-matrix eigenvalues", ok,
            f"|eig|={mags[0]:.3f},{mags[1]:.3f} vs 0.73,0.56")


def test_criterion_5_disturbance_recovery():
    feeder, adaptive_sc = get_preset("fig10a")
    trace = run(adaptive_sc, feeder)
    v3 = trace.bus_voltage("bus3")
    eps = adaptive_sc.adaptive.eps_sse
    recovered = float(np.max(np.abs(v3[101:111] - 1.0)))

    _, droop_sc = get_preset("fig3a")
    delayed_sc = override_scenario(droop_sc, "controller", "delayed")
    dtrace = run(delayed_sc, feeder)
    d3 = dtrace.bus_voltage("bus3")
    floor_sse = float(np.min(d3[100:] - 1.0))
    ok = recovered <= eps and floor_sse > 0.01
    _report(5, "substation-step recovery", ok,
            f"adaptive max|V-mu| within 2 loops={recovered:.4f} (eps={eps}), "
            f"delayed SSE floor={floor_sse:.4f}")


def test_criterion_6_sse_closed_form(ieee4):
    # linearized engine: prediction and simulation agree to 1e-6
    lin = linearize(ieee4)
    sc = _steady_scenario(ControllerKind("conventional"), 1.0, horizon=100)
    settled = run(sc, lin)
    v_bar = settled.bus_voltage("bus3")[-1]
    q_bar = settled.q_inj[-1, 0]
    a_lin = lin.a_matrix()
    dv_d = 0.02 * lin.dv_dslack[lin.load_bus_ids.index("bus3")]
    v_pred_lin, _ = predict_sse(a_lin, [1.0], [dv_d], [v_bar], 1.0)
    stepped = run(
        _steady_scenario(ControllerKind("conventional"), 1.0, horizon=200,
                         events=((100, SubstationVoltage(1.05)),)),
        lin,
    )
    v_lin_sim = stepped.bus_voltage("bus3")[-1]
    err_lin = abs(v_pred_lin[0] - v_lin_sim)

    # full power flow: same experiment, 1e-3 allowance for the nonlinearity
    full_settled = run(sc, ieee4)
    v_bar_f = full_settled.bus_voltage("bus3")[-1]
    q_bar_f = full_settled.q_inj[-1, 0]
    q_inj = injection_array(ieee4, {"bus3": (0.0, q_bar_f)})
    base_sol = solve_power_flow(ieee4, injections=q_inj)
    a_full = sensitivity_matrix(ieee4, base_sol)
    frozen = solve_power_flow(ieee4.with_slack_voltage(1.05), injections=q_inj)
    dv_d_f = voltage_at(frozen, "bus3") - v_bar_f
    v_pred_full, _ = predict_sse(a_full, [1.0], [dv_d_f], [v_bar_f], 1.0)
    full_stepped = run(
        _steady_scenario(ControllerKind("conventional"), 1.0, horizon=200,
                         events=((100, SubstationVoltage(1.05)),)),
        ieee4,
    )
    v_full_sim = full_stepped.bus_voltage("bus3")[-1]
    err_full = abs(v_pred_full[0] - v_full_sim)
    ok = err_lin <= 1e-6 and err_full <= 1e-3
    _report(6, "SSE closed form vs simulation", ok,
            f"linear err={err_lin:.2e} (<=1e-6), full err={err_full:.2e} (<=1e-3)")


def test_criterion_7_intermittency_metric_chain():
    t0 = time.perf_counter()
    feeder, adaptive_sc = get_preset("intermittency")
    vf_lim = adaptive_sc.adaptive.vf_lim_bar

    def run_kind(controller: str, slope: float | None = None):
        sc = override_scenario(adaptive_sc, "controller", controller)
        if slope is not None:
            sc = override_scenario(sc, "m", str(slope))
        return metrics(run(sc, feeder), vf_lim)

    rep_none = run_kind("none")
    rep_conv = run_kind("conventional", 3.0)
    rep_delay = run_kind("delayed", 1.5)
    rep_adapt = metrics(run(adaptive_sc, feeder), vf_lim)
    elapsed = time.perf_counter() - t0
    ok = (
        rep_adapt.fc == 0
        and rep_conv.fc >= 1
        and rep_adapt.vvi == 0
        and rep_adapt.msse < rep_delay.msse < rep_none.msse
        and elapsed < 60.0
    )
    _report(7, "intermittency metric chain", ok,
            f"MSSE adaptive/delayed/none={rep_adapt.msse:.3f}/{rep_delay.msse:.3f}/"
            f"{rep_none.msse:.3f}, FC adaptive={rep_adapt.fc}, "
            f"FC conventional={rep_conv.fc}, VVI adaptive={rep_adapt.vvi}, "
            f"{elapsed:.1f}s")


def test_criterion_8_invariant_suites(ieee4, ieee4_closed, feeder30):
    rng = np.random.default_rng(99)
    norm_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 9))
        x = rng.normal(scale=rng.uniform(0.1, 4.0), size=(n, n))
        rho = spectral_radius(x)
        norm_ok &= rho <= np.linalg.norm(x, np.inf) + 1e-9
        norm_ok &= rho <= np.linalg.norm(x, 1) + 1e-9

    rowsum_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 9))
        a = np.abs(rng.normal(0.25, 0.2, size=(n, n)))
        slopes = rng.uniform(0.02, 0.98, n) / np.sum(np.abs(a), axis=1)
        rep = stability_report(a, slopes)
        rowsum_ok &= rep.stable_sufficient and rep.rho_ma < 1.0

    fd_ok = True
    for model in (ieee4, ieee4_closed, feeder30):
        sol = solve_power_flow(model)
        a = sensitivity_matrix(model, sol)
        pv = [b for b in sol.bus_ids if b in set(model.pv_buses)]
        for j, bus in enumerate(pv):
            dq = injection_array(model, {bus: (0.0, 1e-5)})
            up = solve_power_flow(model, injections=dq, v_init=sol)
            dn = solve_power_flow(model, injections=-dq, v_init=sol)
            fd = np.array([(voltage_at(up, b) - voltage_at(dn, b)) / 2e-5 for b in pv])
            fd_ok &= bool(np.max(np.abs(a[:, j] - fd)) < 1e-4)

    feeder, scenario = get_preset("intermittency")
    scenario = override_scenario(scenario, "horizon", "250")
    t1 = run(scenario, feeder)
    t2 = run(scenario, feeder)
    det_ok = (
        t1.voltages.tobytes() == t2.voltages.tobytes()
        and t1.q_inj.tobytes() == t2.q_inj.tobytes()
        and t1.flags == t2.flags
    )
    ok = norm_ok and rowsum_ok and fd_ok and det_ok
    _report(8, "invariant suites", ok,
            f"norm={norm_ok}, rowsum={rowsum_ok}, finite-diff={fd_ok}, "
            f"determinism={det_ok}")
