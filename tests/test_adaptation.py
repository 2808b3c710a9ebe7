from __future__ import annotations

import itertools
import math
from dataclasses import replace
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voltvar_sim.adaptation import (
    AdaptationError,
    AdaptiveConfig,
    WindowStats,
    capacity_limits,
    outer_loop_step,
    strategy1_update_qp,
    strategy2_update_slope,
    window_stats,
)
from voltvar_sim.control import AdaptiveParams, ControllerKind
from voltvar_sim.feeder import Bus, FeederModel, Line, PvUnit
from voltvar_sim.scenario import Scenario
from voltvar_sim.sim import SimulationEngine, linearize

from oracles import (
    outer_loop_step_reference,
    strategy2_update_slope_reference,
    take_units,
    window_stats_reference,
    window_stats_rows,
)

# frozen from hand evaluation: 100*(0.01/1.01 + 0.01/1.00 + 0.01/1.01)/4
VF_ALTERNATING = 0.745049504950495

CFG = AdaptiveConfig(
    k_d=4.0,
    eps_sse=0.005,
    eps_vf=0.01,
    vf_lim=0.03,
    vf_lim_bar=0.09,
    delta_vf=0.5,
    delta_vf_bar=1.0,
    m_init=1.0,
    m_floor=0.1,
)


class TestWindowStats:
    def test_constant_series(self):
        s = window_stats([1.02] * 4, 1.0, [0.5] * 4)
        assert s.sse_avg == pytest.approx(0.02)
        assert s.vf == 0.0
        assert s.p_pv_avg == pytest.approx(0.5)

    def test_alternating_series_matches_hand_value(self):
        s = window_stats([1.00, 1.01, 1.00, 1.01], 1.0, [0.5] * 4)
        assert s.vf == pytest.approx(VF_ALTERNATING, abs=1e-12)

    def test_symmetric_series_zero_sse(self):
        s = window_stats([0.99, 1.01, 0.99, 1.01], 1.0, [0.5] * 4)
        assert s.sse_avg == pytest.approx(0.0, abs=1e-15)
        assert s.vf > 0

    @pytest.mark.parametrize("n_units", [1, 3])
    def test_block_matches_python_sums_per_column(self, n_units):
        # the loop form: Python `sum` over each column, bit for bit
        def reference(v, mu, p):
            t = len(v)
            diffs = [(v[i] - v[i - 1]) / v[i] for i in range(1, t)]
            vf = sum(abs(d) for d in diffs)
            return sum(x - mu for x in v) / t, 100.0 * vf / t, sum(p) / t

        rng = np.random.default_rng(11)
        v = 1.0 + rng.normal(0.0, 0.02, (10, n_units))
        p = rng.uniform(0.1, 0.9, (10, n_units))
        mu = rng.uniform(0.95, 1.05, n_units)
        s = window_stats(v, mu, p)
        for j in range(n_units):
            want = reference(v[:, j].tolist(), float(mu[j]), p[:, j].tolist())
            assert (s.sse_avg[j], s.vf[j], s.p_pv_avg[j]) == want

    @pytest.mark.parametrize("shape", [(10,), (10, 4), (7, 3, 5), (12, 1), (10, 6000)])
    def test_block_matches_row_loop_reference(self, shape):
        # bit for bit against the sums walked row by row from zero, with
        # columns whose every term is -0.0 (the reference sums them to +0.0);
        # a single column of more than 8 rows is where a pairwise sum differs
        # terms of many magnitudes, so that the order of summation shows
        rng = np.random.default_rng(3)
        v = 1.0 + rng.normal(0.0, 0.02, shape) * 10.0 ** rng.integers(-8, 1, shape)
        p = rng.uniform(0.1, 0.9, shape) * 10.0 ** rng.integers(-8, 1, shape)
        mu = rng.uniform(0.95, 1.05, shape[1:])
        if len(shape) > 1 and shape[1] > 1:
            v[:, 0] = -1.0  # every flicker quotient is -0.0 before its abs
            v[:, 1] = -0.0  # every v - mu term is -0.0 against mu = 0
            mu[1] = 0.0
            p[:, 0] = -0.0
        with np.errstate(invalid="ignore"):  # 0/0 flicker of the -0.0 column
            got = window_stats(v, mu, p)
            want = window_stats_rows(v, mu, p)
        for g, w in zip((got.sse_avg, got.vf, got.p_pv_avg), want):
            assert np.shape(g) == np.shape(w)
            assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def test_length_mismatch_rejected(self):
        with pytest.raises(AdaptationError):
            window_stats([1.0, 1.0], 1.0, [0.5])
        with pytest.raises(AdaptationError):
            window_stats([1.0], 1.0, [0.5])


class TestStrategy1:
    def test_direct_substitution(self):
        stats = WindowStats(sse_avg=0.02, vf=0.0, p_pv_avg=0.5)
        assert strategy1_update_qp(0.0, stats, CFG) == pytest.approx(-0.08)

    def test_unchanged_inside_tolerance(self):
        stats = WindowStats(sse_avg=0.004, vf=0.0, p_pv_avg=0.5)
        assert strategy1_update_qp(0.123, stats, CFG) == 0.123

    def test_undervoltage_raises_qp(self):
        stats = WindowStats(sse_avg=-0.02, vf=0.0, p_pv_avg=0.5)
        assert strategy1_update_qp(0.0, stats, CFG) == pytest.approx(+0.08)


class TestStrategy2:
    def _stats(self, vf, sse=0.0):
        return WindowStats(sse_avg=sse, vf=vf, p_pv_avg=0.5)

    def test_critical_zone_large_decrease(self):
        assert strategy2_update_slope(3.0, self._stats(0.2), CFG) == pytest.approx(2.0)

    def test_subcritical_zone_small_decrease(self):
        assert strategy2_update_slope(3.0, self._stats(0.05), CFG) == pytest.approx(2.5)

    def test_safe_zone_no_change(self):
        assert strategy2_update_slope(3.0, self._stats(0.025), CFG) == 3.0

    def test_relaxed_zone_increases_only_if_sse_out(self):
        assert strategy2_update_slope(3.0, self._stats(0.001, sse=0.02), CFG) == pytest.approx(3.5)
        assert strategy2_update_slope(3.0, self._stats(0.001, sse=0.001), CFG) == 3.0

    def test_floor(self):
        assert strategy2_update_slope(0.4, self._stats(0.5), CFG) == CFG.m_floor


class TestCapacityLimits:
    def test_full_real_output(self):
        assert capacity_limits(0.5, 0.5) == (0.0, 0.0)

    def test_no_real_output(self):
        assert capacity_limits(0.5, 0.0) == (-0.5, 0.5)

    def test_rating_margin_frees_var(self):
        # inverter rated 1.1x the panel: at full panel output the leftover
        # var is panel * sqrt(0.21)
        panel = 0.9
        q_min, q_max = capacity_limits(1.1 * panel, panel)
        assert q_max == pytest.approx(panel * math.sqrt(0.21), abs=1e-12)
        assert q_min == -q_max

    def test_overload_capped(self):
        assert capacity_limits(0.5, 0.7) == (0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(AdaptationError):
            capacity_limits(0.5, -0.1)


def _aparams(m_p=1.0, q_p=0.0, q_lim=0.99, mu=1.0) -> AdaptiveParams:
    return AdaptiveParams.from_slope(m_p, q_p, -q_lim, q_lim, mu)


class TestOuterLoopStep:
    def test_steady_window_refreshes_capacity_only(self):
        params = _aparams()
        out = outer_loop_step(params, [1.0] * 4, [0.9] * 4, 0.99, CFG)
        assert out.q_p == params.q_p
        assert out.m_p == params.m_p
        assert out.q_max_p == pytest.approx(math.sqrt(0.99**2 - 0.9**2))

    def test_quiet_window_moves_only_qp(self):
        # flicker inside the safe zone holds the slope; the out-of-band
        # mean error still moves q_p by -k_d * sse_avg
        params = _aparams()
        d = 0.00015  # ripple placing vf at ~0.022%, inside (0.02, 0.03]
        window = [1.02 - d, 1.02 + d, 1.02 - d, 1.02 + d]
        stats_vf = window_stats(window, 1.0, [0.9] * 4).vf
        assert CFG.vf_lim - CFG.eps_vf < stats_vf <= CFG.vf_lim
        out = outer_loop_step(params, window, [0.9] * 4, 0.99, CFG)
        assert out.q_p == pytest.approx(-0.08)
        assert out.m_p == params.m_p

    def test_flicker_and_sse_both_corrected(self):
        # oscillatory window in the critical zone with a large mean error:
        # the slope drops by the large step while q_p still corrects
        v = [1.06, 1.02, 1.06, 1.02]
        params = _aparams(m_p=3.0)
        out = outer_loop_step(params, v, [0.9] * 4, 0.99, CFG)
        assert out.m_p == pytest.approx(2.0)
        assert out.q_p == pytest.approx(-CFG.k_d * np.mean(np.array(v) - 1.0))

    def test_qp_clamped_into_capacity(self):
        params = _aparams(q_p=0.0)
        out = outer_loop_step(params, [0.8] * 4, [0.98] * 4, 0.99, CFG)
        # capacity at p=0.98 of s=0.99 is small; the big 0.8 pu correction
        # must land on the limit
        assert out.q_p == out.q_max_p

    def test_cutoffs_consistent_with_dispatched_slope(self):
        out = outer_loop_step(_aparams(), [1.02] * 4, [0.9] * 4, 0.99, CFG)
        assert out.v_min_p == pytest.approx(out.mu - (out.q_max_p - out.q_p) / out.m_p)
        assert out.v_max_p == pytest.approx(out.mu - (out.q_min_p - out.q_p) / out.m_p)


class TestAdaptationProperties:
    def test_decoupling(self):
        # strategy 2 never touches q_p; strategy 1 never touches m_p
        base = WindowStats(sse_avg=0.04, vf=0.0, p_pv_avg=0.9)
        for vf in (0.001, 0.05, 0.2):
            stats = WindowStats(sse_avg=0.04, vf=vf, p_pv_avg=0.9)
            assert strategy1_update_qp(0.1, stats, CFG) == strategy1_update_qp(0.1, base, CFG)
        for sse in (0.0, 0.02, -0.05):
            stats = WindowStats(sse_avg=sse, vf=0.2, p_pv_avg=0.9)
            assert strategy2_update_slope(2.0, stats, CFG) == pytest.approx(1.0)

    def test_qp_constant_at_equilibrium(self):
        params = _aparams(q_p=-0.1)
        for _ in range(25):
            params = outer_loop_step(params, [1.004] * 4, [0.5] * 4, 0.99, CFG)
            assert params.q_p == -0.1

    def test_slope_never_negative_never_up_in_flicker(self):
        m = 0.3
        for vf in (0.05, 0.2, 0.5, 1.0):
            stats = WindowStats(sse_avg=0.05, vf=vf, p_pv_avg=0.5)
            m_new = strategy2_update_slope(m, stats, CFG)
            assert m_new >= 0
            assert m_new <= m
            m = m_new

    def test_scalar_linear_convergence_is_geometric(self):
        # |1 - k/(1/a + m)| < 1 drives the measured window SSE to zero
        a, m, k = 0.2857, 1.0, 4.0
        b = 1 - k / (1 / a + m)
        cfg = AdaptiveConfig(k_d=k, eps_sse=1e-12, vf_lim=50.0, vf_lim_bar=99.0,
                             eps_vf=1.0, delta_vf=0.5, delta_vf_bar=1.0,
                             m_init=m, m_floor=0.0)
        v_nc = 1.05
        params = _aparams(m_p=m)
        sse_hist = []
        for _ in range(8):
            # settled inner loop of the exact linear scalar grid
            v = (v_nc + a * params.q_p + a * m * params.mu) / (1 + a * m)
            sse_hist.append(v - 1.0)
            params = outer_loop_step(params, [v] * 4, [0.5] * 4, 50.0, cfg)
        ratios = [sse_hist[i + 1] / sse_hist[i] for i in range(len(sse_hist) - 1)]
        assert all(r == pytest.approx(b, abs=1e-6) for r in ratios)
        assert abs(sse_hist[-1]) < abs(sse_hist[0]) * (abs(b) + 1e-6) ** 7


class TestConfigValidation:
    def test_zone_ordering_enforced(self):
        with pytest.raises(AdaptationError):
            AdaptiveConfig(vf_lim=0.09, vf_lim_bar=0.03)
        with pytest.raises(AdaptationError):
            AdaptiveConfig(delta_vf=1.0, delta_vf_bar=0.5)
        with pytest.raises(AdaptationError):
            AdaptiveConfig(k_d=0.0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["eps_sse", "eps_vf", "vf_lim", "vf_lim_bar", "delta_vf",
                                      "delta_vf_bar", "m_init", "m_floor"])
    def test_non_finite_constant_rejected(self, name, value):
        # an infinite vf_lim_bar, eps_sse, delta_vf_bar or m_init passes the
        # ordering checks, so finiteness is its own check
        with pytest.raises(AdaptationError, match=f"^{name} must be finite$"):
            AdaptiveConfig(**{name: value})


def _same(got, want) -> bool:
    """Equal by bytes, shape and `repr`, so -0.0 and NaN bits count."""
    return (np.shape(got) == np.shape(want) and repr(got) == repr(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def _on_edge(edge: float, gap: float, target: float) -> float:
    """A gap near `gap` with `edge - gap == target` where one exists."""
    for g in (gap, np.nextafter(gap, 0.0), np.nextafter(gap, np.inf)):
        if 0.0 < g < edge and edge - g == target:
            return float(g)
    return gap


def _edge_config(stats: WindowStats, rng: np.random.Generator) -> AdaptiveConfig:
    """Outer-loop constants whose zone edges sit exactly on some units'
    |vf| (critical, subcritical and safe-zone edges) and |sse_avg|."""
    vf = np.unique(np.abs(np.atleast_1d(stats.vf)))
    vf = vf[np.isfinite(vf) & (vf > 0)]
    sse = np.abs(np.atleast_1d(stats.sse_avg))
    sse = sse[np.isfinite(sse) & (sse > 0)]
    m_floor = float(rng.choice([0.0, 0.1, 0.5]))
    step = float(rng.uniform(0.05, 1.0))
    zones = dict(vf_lim_bar=0.09, vf_lim=0.03, eps_vf=0.01)
    if len(vf) >= 3:
        lo, mid, hi = vf[0], vf[len(vf) // 2], vf[-1]
        zones = dict(vf_lim_bar=float(hi), vf_lim=float(mid),
                     eps_vf=_on_edge(float(mid), float(mid - lo), float(lo)))
    elif len(vf) == 2:
        zones = dict(vf_lim_bar=float(vf[1]), vf_lim=float(vf[0]), eps_vf=float(vf[0]) / 2)
    return AdaptiveConfig(
        k_d=float(rng.uniform(0.5, 8.0)),
        eps_sse=float(rng.choice(sse)) if len(sse) else 0.005,
        delta_vf=step, delta_vf_bar=2 * step, m_init=m_floor + 1.0, m_floor=m_floor, **zones,
    )


@settings(max_examples=200, deadline=None)
@given(
    t=st.integers(2, 12),
    k=st.integers(1, 60),
    extra=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_outer_loop_step_matches_reference_bit_for_bit(t, k, extra, seed):
    # the one-block window sums, the nested zone picks and the engine's
    # column take and store against the three-sum, `np.select`,
    # `take_units`/`put_units` form, on (t, k) windows of k of n units
    rng = np.random.default_rng(seed)
    n = k + extra
    index = np.sort(rng.choice(n, k, replace=False))
    # terms of many magnitudes, so that the order of summation shows
    v = 1.0 + rng.normal(0.0, 0.02, (t, k)) * 10.0 ** rng.integers(-8, 1, (t, k))
    p = rng.uniform(0.0, 0.4, (t, k)) * 10.0 ** rng.integers(-8, 1, (t, k))
    rating = rng.uniform(0.01, 0.3, n)  # below some units' p_pv_avg
    # half the slopes at 0 or at one of the m_floor values `_edge_config` picks
    m_p = np.where(rng.random(n) < 0.5, rng.choice([0.0, 0.1, 0.5], n), rng.uniform(0, 3, n))
    q_lim = rng.uniform(0.05, 0.5, n)
    q_p = rng.uniform(-1.0, 1.0, n) * q_lim * (rng.random(n) < 0.8)
    q_p[rng.random(n) < 0.2] = -0.0
    mu = rng.uniform(0.95, 1.05, n)
    special = rng.permutation(k)[:3]
    if k >= 3:
        v[:, special[0]] = -1.0  # every flicker quotient is -0.0 before its abs
        v[:, special[1]] = -0.0  # every v - mu term is -0.0 against mu = 0
        mu[index[special[1]]] = 0.0
        p[:, special[2]] = -0.0  # p_pv_avg of -0.0 sums to +0.0
    params = AdaptiveParams.from_slope(m_p, q_p, -q_lim, q_lim, mu)
    with np.errstate(all="ignore"):
        want = window_stats_reference(v, params.mu[index], p)
        cfg = _edge_config(want, rng)
        stats, new_ref, merged_ref = outer_loop_step_reference(
            params, index, v, p, rating[index], cfg)

        got = window_stats(v, params.mu[index], p)
        # the engine's own column take and store, on a bare parameter matrix
        engine = SimpleNamespace(_params=np.array(list(vars(params).values())), _rows=params)
        block = SimulationEngine._take(engine, index)
        new = outer_loop_step(block, v, p, rating[index], cfg)
        SimulationEngine._put(engine, index, new)
        one = window_stats(v[:, 0], params.mu[index[0]], p[:, 0])
        one_ref = window_stats_reference(v[:, 0], params.mu[index[0]], p[:, 0])
        # the block form on one unit's scalar block and (T,) windows
        one_new = outer_loop_step(take_units(params, index[0]), v[:, 0], p[:, 0],
                                  rating[index[0]], cfg)
        _, one_new_ref, _ = outer_loop_step_reference(
            params, index[0], v[:, 0], p[:, 0], rating[index[0]], cfg)

    for f in ("sse_avg", "vf", "p_pv_avg"):
        assert _same(getattr(got, f), getattr(want, f)), f
        assert _same(getattr(got, f), getattr(stats, f)), f
        assert _same(getattr(one, f), getattr(one_ref, f)), f
    for f, g, w, merged, merged_w in zip(vars(new), vars(new).values(), vars(new_ref).values(),
                                         engine._params, vars(merged_ref).values()):
        assert _same(g, w), f
        assert _same(merged, merged_w), f
    for f in vars(one_new):
        assert _same(getattr(one_new, f), getattr(one_new_ref, f)), f



@lru_cache(maxsize=None)
def _chain_twin(n: int):
    """The linear twin of a chain of n load buses with a PV unit on each."""
    buses = (Bus("s", "slack", v_set=1.0),) + tuple(
        Bus(f"b{i}", "load", load_p=0.01, load_q=0.003) for i in range(n))
    lines = tuple(Line(f"b{i - 1}" if i else "s", f"b{i}", 0.002, 0.004) for i in range(n))
    return linearize(FeederModel(buses, lines, tuple(PvUnit(f"b{i}", 0.5) for i in range(n))))


def _rows(block: AdaptiveParams) -> np.ndarray:
    return np.array([getattr(block, f) for f in vars(block)])


@settings(max_examples=150, deadline=None)
@given(
    t=st.integers(2, 12),
    n=st.integers(1, 40),
    holes=st.sampled_from(["none", "some", "all"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_engine_outer_boundary_matches_reference_bit_for_bit(t, n, holes, seed):
    # `SimulationEngine._outer_boundary` itself, against the reference
    # composition: on the matrix rows when every unit qualifies, on a
    # column subset when some units are dark (NaN) or at zero output on
    # some tick of the window, and with no step when none qualifies
    rng = np.random.default_rng(seed)
    scenario = Scenario(horizon=3 * t, t_outer=t, controller_kind=ControllerKind("adaptive"),
                        pv_profile=0.1)
    engine = SimulationEngine(scenario, _chain_twin(n))
    tick = 2 * t
    v = 1.0 + rng.normal(0.0, 0.02, (t, n)) * 10.0 ** rng.integers(-8, 1, (t, n))
    p = rng.uniform(0.01, 0.4, (t, n)) * 10.0 ** rng.integers(-8, 1, (t, n))
    mu = rng.uniform(0.95, 1.05, n)
    if n >= 3:
        v[:, 0] = -1.0  # every flicker quotient is -0.0 before its abs
        v[:, 1] = -0.0  # every v - mu term is -0.0 against mu = 0
        mu[1] = 0.0
    if holes != "none":
        for j in np.flatnonzero((rng.random(n) < 0.5) | (holes == "all")):
            if rng.random() < 0.5:
                v[rng.integers(t), j] = np.nan
            else:
                p[rng.integers(t), j] = 0.0
    rating = rng.uniform(0.01, 0.3, n)  # below some units' p_pv_avg
    m_p = np.where(rng.random(n) < 0.5, rng.choice([0.0, 0.1, 0.5], n), rng.uniform(0, 3, n))
    q_lim = rng.uniform(0.05, 0.5, n)
    q_p = rng.uniform(-1.0, 1.0, n) * q_lim * (rng.random(n) < 0.8)
    q_p[rng.random(n) < 0.2] = -0.0
    engine.voltages[tick - t + 1 : tick + 1, engine._unit_cols] = v
    engine.p_profile[tick - t + 1 : tick + 1] = p
    engine.ratings[:] = rating
    engine._params[:] = (m_p, q_p, -q_lim, q_lim, mu)
    before = AdaptiveParams(*engine._params.copy())
    index = [j for j in range(n) if not np.isnan(v[:, j]).any() and (p[:, j] > 0).all()]
    with np.errstate(all="ignore"):
        cfg = AdaptiveConfig()
        if index:
            want = window_stats_reference(v[:, index], mu[index], p[:, index])
            cfg = _edge_config(want, rng)
        engine.scenario = replace(scenario, adaptive=cfg)
        engine._outer_boundary(tick)
        if index:
            _, new, merged = outer_loop_step_reference(
                before, index, v[:, index], p[:, index], rating[index], cfg)

    if not index:
        assert engine._outer_log == []
        assert engine._params.tobytes() == _rows(before).tobytes()
        return
    [(logged, units, values)] = engine._outer_log
    assert logged == tick and units.tolist() == index
    assert values.tobytes() == _rows(new).tobytes()
    assert engine._params.tobytes() == _rows(merged).tobytes()
    assert not np.shares_memory(values, engine._params)

def test_zone_picks_match_select_on_edges():
    # each zone edge exactly, NaN statistics and signed zeros, for one unit
    # and for a block of the same window
    for vf, sse, m_prev in itertools.product(
        [0.09, 0.03, 0.03 - 0.01, 0.015, math.nan, -0.0, 0.2],
        [0.005, -0.005, 0.0051, math.nan, -0.0],
        [0.0, 0.1, 3.0],
    ):
        for stats, m in ((WindowStats(sse, vf, 0.5), m_prev),
                         (WindowStats(np.full(3, sse), np.full(3, vf), np.full(3, 0.5)),
                          np.full(3, m_prev))):
            assert _same(strategy2_update_slope(m, stats, CFG),
                         strategy2_update_slope_reference(m, stats, CFG)), (vf, sse, m_prev)
