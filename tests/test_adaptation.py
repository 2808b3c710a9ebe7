from __future__ import annotations

import math

import numpy as np
import pytest

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
from voltvar_sim.control import AdaptiveParams

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

    def test_signed_variant_cancels_oscillation(self):
        s = window_stats([1.00, 1.01, 1.00, 1.01], 1.0, [0.5] * 4, signed_flicker=True)
        assert abs(s.vf) < VF_ALTERNATING / 2

    @pytest.mark.parametrize("n_units", [1, 3])
    @pytest.mark.parametrize("signed", [False, True])
    def test_block_matches_python_sums_per_column(self, n_units, signed):
        # the loop form: Python `sum` over each column, bit for bit
        def reference(v, mu, p):
            t = len(v)
            diffs = [(v[i] - v[i - 1]) / v[i] for i in range(1, t)]
            vf = sum(diffs) if signed else sum(abs(d) for d in diffs)
            return sum(x - mu for x in v) / t, 100.0 * vf / t, sum(p) / t

        rng = np.random.default_rng(11)
        v = 1.0 + rng.normal(0.0, 0.02, (10, n_units))
        p = rng.uniform(0.1, 0.9, (10, n_units))
        mu = rng.uniform(0.95, 1.05, n_units)
        s = window_stats(v, mu, p, signed_flicker=signed)
        for j in range(n_units):
            want = reference(v[:, j].tolist(), float(mu[j]), p[:, j].tolist())
            assert (s.sse_avg[j], s.vf[j], s.p_pv_avg[j]) == want

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
