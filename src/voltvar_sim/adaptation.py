"""Outer-loop parameter dispatcher.

Once per control horizon of T inner ticks, each inverter independently
recomputes its window statistics and updates its parameter block: the
error offset q_p moves against the average set-point deviation (strategy
I), the slope moves through four flicker zones (strategy II), var limits
follow the leftover inverter capacity, and the voltage cut-offs are
re-derived from the slope.  Everything uses local bus data only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math

from .control import AdaptiveParams, slope_to_cutoffs


class AdaptationError(ValueError):
    """Invalid outer-loop configuration or window data."""


@dataclass(frozen=True)
class AdaptiveConfig:
    """Outer-loop constants.

    `T` is the horizon in inner ticks.  `k_d` is the error-correction
    factor (pu var per pu volt).  Flicker thresholds are percent per
    window; `vf_lim` is the borderline limit, `vf_lim_bar` the maximum,
    `eps_vf` the safe-zone width.  `delta_vf`/`delta_vf_bar` are the small
    and large slope steps, `m_init` the initial slope and `m_floor` the
    smallest slope the adaptation may reach.  `signed_flicker` selects the
    signed-difference flicker variant instead of the absolute-value
    default.
    """

    T: int = 10
    k_d: float = 4.0
    eps_sse: float = 0.005
    eps_vf: float = 0.01
    vf_lim: float = 0.03
    vf_lim_bar: float = 0.09
    delta_vf: float = 0.5
    delta_vf_bar: float = 1.0
    m_init: float = 1.0
    m_floor: float = 0.1
    signed_flicker: bool = False

    def __post_init__(self) -> None:
        if self.T < 2:
            raise AdaptationError("T must be >= 2")
        if not (math.isfinite(self.k_d) and self.k_d > 0):
            raise AdaptationError("k_d must be finite and > 0")
        if not (self.vf_lim_bar > self.vf_lim > self.eps_vf > 0):
            raise AdaptationError("need vf_lim_bar > vf_lim > eps_vf > 0")
        if not (self.delta_vf_bar > self.delta_vf > 0):
            raise AdaptationError("need delta_vf_bar > delta_vf > 0")
        if not self.eps_sse > 0:
            raise AdaptationError("eps_sse must be > 0")
        if not (self.m_floor >= 0 and self.m_init >= self.m_floor):
            raise AdaptationError("need m_init >= m_floor >= 0")


@dataclass(frozen=True)
class WindowStats:
    """Per-window measurements: signed average set-point deviation (pu),
    flicker (percent), and mean PV real output (pu)."""

    sse_avg: float
    vf: float
    p_pv_avg: float


def window_stats(
    voltages: Sequence[float],
    mu: float,
    p_pv: Sequence[float],
    signed_flicker: bool = False,
) -> WindowStats:
    """Statistics over one complete horizon of T samples.

    sse_avg is the signed mean of (V - mu).  Flicker sums the tick-to-tick
    relative voltage changes over the window, divided by T, times 100;
    changes are absolute unless `signed_flicker`.
    """
    t = len(voltages)
    if len(p_pv) != t:
        raise AdaptationError("voltage and p_pv series lengths differ")
    if t < 2:
        raise AdaptationError("window needs at least 2 samples")
    sse_avg = sum(v - mu for v in voltages) / t
    diffs = (
        (voltages[i] - voltages[i - 1]) / voltages[i] for i in range(1, t)
    )
    if signed_flicker:
        vf = 100.0 * sum(diffs) / t
    else:
        vf = 100.0 * sum(abs(d) for d in diffs) / t
    p_pv_avg = sum(p_pv) / t
    return WindowStats(sse_avg=sse_avg, vf=vf, p_pv_avg=p_pv_avg)


def strategy1_update_qp(
    q_p_prev: float, stats: WindowStats, cfg: AdaptiveConfig
) -> float:
    """Error-adaptive offset update: move q_p against the residual SSE
    when it is outside the tolerance band, else leave it alone."""
    if abs(stats.sse_avg) > cfg.eps_sse:
        return q_p_prev - cfg.k_d * stats.sse_avg
    return q_p_prev


def strategy2_update_slope(
    m_prev: float, stats: WindowStats, cfg: AdaptiveConfig
) -> float:
    """Flicker-zone slope update.

    Critical zone: large decrease.  Subcritical: small decrease.  Safe
    zone: hold.  Relaxed zone: small increase, but only when the SSE is
    still out of tolerance.  Never below m_floor.
    """
    vf = abs(stats.vf)
    if vf > cfg.vf_lim_bar:
        m_new = m_prev - cfg.delta_vf_bar
    elif vf > cfg.vf_lim:
        m_new = m_prev - cfg.delta_vf
    elif vf > cfg.vf_lim - cfg.eps_vf:
        m_new = m_prev
    elif abs(stats.sse_avg) > cfg.eps_sse:
        m_new = m_prev + cfg.delta_vf
    else:
        m_new = m_prev
    return max(m_new, cfg.m_floor)


def capacity_limits(rating_s: float, p_pv_avg: float) -> tuple[float, float]:
    """Symmetric var limits from the capacity left after real output;
    the real output is capped at the rating before the square root."""
    if p_pv_avg < 0:
        raise AdaptationError("p_pv_avg must be >= 0")
    p = min(p_pv_avg, rating_s)
    q_max = math.sqrt(max(rating_s * rating_s - p * p, 0.0))
    return -q_max, q_max


def outer_loop_step(
    params: AdaptiveParams,
    voltages: Sequence[float],
    p_pv: Sequence[float],
    rating_s: float,
    cfg: AdaptiveConfig,
) -> AdaptiveParams:
    """One outer-loop iteration for one inverter.

    Order: window statistics, strategy I (q_p), strategy II (slope),
    capacity limits, then cut-offs from the slope.  q_p is clamped into
    the fresh var limits.
    """
    stats = window_stats(voltages, params.mu, p_pv, cfg.signed_flicker)
    q_p = strategy1_update_qp(params.q_p, stats, cfg)
    m_p = strategy2_update_slope(params.m_p, stats, cfg)
    q_min_p, q_max_p = capacity_limits(rating_s, stats.p_pv_avg)
    q_p = min(max(q_p, q_min_p), q_max_p)
    v_min_p, v_max_p = slope_to_cutoffs(m_p, q_p, q_min_p, q_max_p, params.mu)
    return AdaptiveParams(
        m_p=m_p,
        q_p=q_p,
        q_min_p=q_min_p,
        q_max_p=q_max_p,
        v_min_p=v_min_p,
        v_max_p=v_max_p,
        mu=params.mu,
    )
