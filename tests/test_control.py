from __future__ import annotations

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, strategies as st

from voltvar_sim.control import (
    AdaptiveParams,
    ControlError,
    ControllerKind,
    DroopParams,
    adaptive_dispatch,
    delayed_dispatch,
    droop_dispatch,
    slope_to_cutoffs,
)

from oracles import iterate_delayed_fixed_point


def _params(mu=1.0, d=0.0, m=6.0, q_lim=0.5) -> DroopParams:
    return DroopParams.from_slope(mu, d, m, -q_lim, q_lim)


class TestDroopDispatch:
    def test_zero_at_setpoint(self):
        for d in (0.0, 0.01, 0.04):
            assert droop_dispatch(_params(d=d), 1.0) == 0.0

    def test_direct_substitution(self):
        # mu=1, d=0, m=6, v=1.02 -> -0.12
        assert droop_dispatch(_params(), 1.02) == pytest.approx(-0.12, abs=1e-12)

    def test_inside_deadband(self):
        p = _params(d=0.02, m=1.0)
        assert droop_dispatch(p, 1.005) == 0.0
        assert droop_dispatch(p, 0.995) == 0.0

    def test_deadband_offsets_the_ramp(self):
        p = _params(d=0.02, m=2.0)
        assert droop_dispatch(p, 1.03) == pytest.approx(-2.0 * (0.03 - 0.01))
        assert droop_dispatch(p, 0.97) == pytest.approx(+2.0 * (0.03 - 0.01))

    def test_saturates_beyond_cutoffs(self):
        p = _params(m=6.0, q_lim=0.12)
        assert droop_dispatch(p, 1.5) == -0.12
        assert droop_dispatch(p, 0.5) == 0.12

    @given(v=st.floats(0.5, 1.5), m=st.floats(0.0, 20.0), d=st.floats(0.0, 0.05))
    def test_output_always_within_limits(self, v, m, d):
        p = _params(d=d, m=m, q_lim=0.4)
        q = droop_dispatch(p, v)
        assert -0.4 <= q <= 0.4

    @given(
        v1=st.floats(0.5, 1.5),
        v2=st.floats(0.5, 1.5),
        m=st.floats(0.0, 20.0),
        d=st.floats(0.0, 0.05),
    )
    def test_monotone_non_increasing(self, v1, v2, m, d):
        p = _params(d=d, m=m)
        lo, hi = min(v1, v2), max(v1, v2)
        assert droop_dispatch(p, lo) >= droop_dispatch(p, hi)


class TestDelayedDispatch:
    def test_tau_zero_degenerates_to_droop(self):
        p = _params()
        for v in (0.97, 1.0, 1.02):
            assert delayed_dispatch(p, 0.0, v, q_prev=-0.3) == droop_dispatch(p, v)

    def test_direct_substitution(self):
        # droop term -0.12, tau=0.5, q_prev=-0.04 -> -0.14
        p = _params()
        assert delayed_dispatch(p, 0.5, 1.02, -0.04) == pytest.approx(-0.14)

    def test_fixed_point_matches_closed_form(self):
        p = _params(q_lim=5.0)  # wide limits so the clamp stays inactive
        v, tau = 1.02, 0.5
        droop = droop_dispatch(p, v)
        iterated = iterate_delayed_fixed_point(droop, tau, tol=1e-10)
        assert iterated == pytest.approx(droop / (1 - tau), abs=1e-9)
        q = 0.0
        for _ in range(200):
            q = delayed_dispatch(p, tau, v, q)
        assert q == pytest.approx(droop / (1 - tau), abs=1e-9)

    def test_clamped_after_sum(self):
        p = _params(m=6.0, q_lim=0.2)
        assert delayed_dispatch(p, 0.9, 1.02, -0.2) == -0.2

    def test_tau_validation(self):
        with pytest.raises(ControlError):
            delayed_dispatch(_params(), 1.0, 1.0, 0.0)
        with pytest.raises(ControlError):
            delayed_dispatch(_params(), -0.1, 1.0, 0.0)

    @given(v=st.floats(0.5, 1.5), tau=st.floats(0.0, 0.99), q_prev=st.floats(-0.4, 0.4))
    def test_output_always_within_limits(self, v, tau, q_prev):
        p = _params(q_lim=0.4)
        assert -0.4 <= delayed_dispatch(p, tau, v, q_prev) <= 0.4


def _aparams(m_p=1.0, q_p=0.0, q_lim=0.5, mu=1.0) -> AdaptiveParams:
    return AdaptiveParams.from_slope(m_p, q_p, -q_lim, q_lim, mu)


class TestAdaptiveDispatch:
    def test_zero_at_setpoint_with_zero_offset(self):
        assert adaptive_dispatch(_aparams(), 1.0) == 0.0

    def test_direct_substitution(self):
        # q_p=-0.08, m_p=1, mu=1, v=1.01 -> -0.09
        p = _aparams(m_p=1.0, q_p=-0.08)
        assert adaptive_dispatch(p, 1.01) == pytest.approx(-0.09)

    def test_saturation(self):
        p = AdaptiveParams.from_slope(2.0, 0.2, -0.3, 0.3, 1.0)
        assert adaptive_dispatch(p, 0.9) == 0.3

    def test_equals_droop_when_offset_zero(self):
        droop = _params(d=0.0, m=2.5, q_lim=50.0)
        adaptive = _aparams(m_p=2.5, q_p=0.0, q_lim=50.0)
        for v in (0.9, 0.97, 1.0, 1.013, 1.1):
            assert adaptive_dispatch(adaptive, v) == droop_dispatch(droop, v)

    @given(
        v1=st.floats(0.5, 1.5),
        v2=st.floats(0.5, 1.5),
        m_p=st.floats(0.0, 20.0),
        q_p=st.floats(-0.3, 0.3),
    )
    def test_monotone_and_bounded(self, v1, v2, m_p, q_p):
        p = AdaptiveParams.from_slope(m_p, q_p, -0.4, 0.4, 1.0)
        lo, hi = min(v1, v2), max(v1, v2)
        assert adaptive_dispatch(p, lo) >= adaptive_dispatch(p, hi)
        assert -0.4 <= adaptive_dispatch(p, v1) <= 0.4


class TestSlopeCutoffs:
    def test_direct_substitution(self):
        v_min, v_max = slope_to_cutoffs(5.0, 0.0, -0.5, 0.5, 1.0)
        assert v_min == pytest.approx(0.9, abs=1e-12)
        assert v_max == pytest.approx(1.1, abs=1e-12)

    def test_offset_shifts_both_cutoffs(self):
        v_min0, v_max0 = slope_to_cutoffs(5.0, 0.0, -0.5, 0.5, 1.0)
        v_min1, v_max1 = slope_to_cutoffs(5.0, 0.2, -0.5, 0.5, 1.0)
        assert v_min1 - v_min0 == pytest.approx(0.04, abs=1e-12)
        assert v_max1 - v_max0 == pytest.approx(0.04, abs=1e-12)

    @given(
        m_p=st.floats(0.1, 50.0),
        q_p=st.floats(-0.3, 0.3),
        q_lim=st.floats(0.35, 2.0),
    )
    def test_round_trip_recovers_slope(self, m_p, q_p, q_lim):
        v_min, v_max = slope_to_cutoffs(m_p, q_p, -q_lim, q_lim, 1.0)
        m_from_min = (q_lim - q_p) / (1.0 - v_min)
        m_from_max = (-q_lim - q_p) / (1.0 - v_max)
        assert m_from_min == pytest.approx(m_p, rel=1e-12)
        assert m_from_max == pytest.approx(m_p, rel=1e-12)

    def test_zero_slope_sentinel(self):
        v_min, v_max = slope_to_cutoffs(0.0, 0.0, -0.5, 0.5, 1.0)
        assert v_min == -math.inf and v_max == math.inf

    def test_negative_slope_rejected(self):
        with pytest.raises(ControlError):
            slope_to_cutoffs(-1.0, 0.0, -0.5, 0.5, 1.0)


class TestParamValidation:
    def test_droop_setpoint_consistency(self):
        p = DroopParams.from_setpoints(1.0, 0.02, 0.93, 1.07, -0.3, 0.3)
        assert p.slope_m == pytest.approx(0.3 / (1.0 - 0.01 - 0.93))
        with pytest.raises(ControlError, match="inconsistent"):
            DroopParams.from_setpoints(1.0, 0.02, 0.93, 1.20, -0.3, 0.3)

    def test_droop_invariants(self):
        with pytest.raises(ControlError):
            DroopParams(1.0, 0.0, -1.0, -0.5, 0.5, 0.9, 1.1)
        with pytest.raises(ControlError):
            DroopParams(1.0, 0.0, 1.0, 0.1, 0.5, 0.9, 1.1)  # q_min > 0
        with pytest.raises(ControlError):
            DroopParams(1.0, 0.0, 1.0, -0.5, 0.5, 1.05, 1.1)  # mu below v_min

    def test_adaptive_invariants(self):
        with pytest.raises(ControlError):
            AdaptiveParams.from_slope(1.0, 0.9, -0.5, 0.5, 1.0)  # q_p above q_max
        with pytest.raises(ControlError):
            AdaptiveParams.from_slope(-1.0, 0.0, -0.5, 0.5, 1.0)

    @pytest.mark.parametrize(
        "m_p, q_p, q_min_p, q_max_p, mu",
        [
            pytest.param(1.0, 0.0, -0.5, 0.5, math.nan, id="nan_mu"),
            pytest.param(0.0, 0.0, -0.5, 0.5, math.nan, id="nan_mu_flat"),
            pytest.param(1.0, 0.0, -0.5, 0.5, math.inf, id="inf_mu"),
            pytest.param(math.inf, 0.0, -0.5, 0.5, 1.0, id="inf_slope"),
            pytest.param(math.nan, 0.0, -0.5, 0.5, 1.0, id="nan_slope"),
            pytest.param(-1.0, 0.0, -0.5, 0.5, 1.0, id="negative_slope"),
            pytest.param(1.0, 0.0, 0.5, -0.5, 1.0, id="limits_swapped"),
            pytest.param(1.0, -0.6, -0.5, 0.5, 1.0, id="offset_below_q_min"),
            pytest.param(1.0, math.nan, -0.5, 0.5, 1.0, id="nan_offset"),
        ],
    )
    def test_adaptive_block_rejects(self, m_p, q_p, q_min_p, q_max_p, mu):
        with pytest.raises(ControlError):
            AdaptiveParams(m_p, q_p, q_min_p, q_max_p, mu)
        # one bad unit fails a whole array-valued block
        good = np.array([1.0, 0.0, -0.5, 0.5, 1.0])
        cols = np.stack([good, [m_p, q_p, q_min_p, q_max_p, mu]], axis=1)
        with pytest.raises(ControlError):
            AdaptiveParams(*cols)

    @given(
        m_p=st.sampled_from([0.0, 5e-324, 2.0]) | st.floats(0.0, 50.0),
        q_p=st.floats(-0.3, 0.3),
        q_lim=st.floats(0.3, 2.0),
        mu=st.floats(0.9, 1.1),
    )
    def test_adaptive_cutoffs_are_derived(self, m_p, q_p, q_lim, mu):
        p = AdaptiveParams(m_p, q_p, -q_lim, q_lim, mu)
        assert [f.name for f in fields(p)] == ["m_p", "q_p", "q_min_p", "q_max_p", "mu"]
        want = slope_to_cutoffs(m_p, q_p, -q_lim, q_lim, mu)
        assert repr((p.v_min_p, p.v_max_p)) == repr(want)
        # the same bits unit by unit in an array-valued block
        block = AdaptiveParams(*np.array([[m_p, 1.0], [q_p, 0.0], [-q_lim, -0.5],
                                          [q_lim, 0.5], [mu, 1.0]]))
        assert (block.v_min_p[0], block.v_max_p[0]) == want
        assert np.array_equal(block.v_min_p, [want[0], 0.5])

    def test_controller_kind(self):
        assert ControllerKind("delayed", 0.5).tau == 0.5
        assert ControllerKind().name == "none"
        with pytest.raises(ControlError):
            ControllerKind("fuzzy")
        with pytest.raises(ControlError):
            ControllerKind("delayed", tau=1.0)

    @pytest.mark.parametrize("name", ["none", "conventional", "adaptive"])
    def test_only_the_delayed_kind_takes_tau(self, name):
        # no other law reads tau, so a nonzero one would be ignored
        assert ControllerKind(name, 0.0).tau == 0.0
        with pytest.raises(ControlError, match="tau is for the delayed controller"):
            ControllerKind(name, 0.5)
