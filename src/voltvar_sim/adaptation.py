"""Outer-loop parameter dispatcher.

Once per control horizon of T inner ticks, each inverter independently
recomputes its window statistics and updates its parameter block: the
error offset q_p moves against the average set-point deviation (strategy
I), the slope moves through four flicker zones (strategy II), var limits
follow the leftover inverter capacity, and the voltage cut-offs are
re-derived from the slope.  Everything uses local bus data only.  Each
step works elementwise, so one call updates one inverter or a whole
fleet given as arrays with one column per inverter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np

from .control import AdaptiveParams, clamp


class AdaptationError(ValueError):
    """Invalid outer-loop configuration or window data."""


@dataclass(frozen=True)
class AdaptiveConfig:
    """Outer-loop constants.

    The horizon is the scenario's `t_outer`.  `k_d` is the error-correction
    factor (pu var per pu volt).  Flicker thresholds are percent per
    window; `vf_lim` is the borderline limit, `vf_lim_bar` the maximum,
    `eps_vf` the safe-zone width.  `delta_vf`/`delta_vf_bar` are the small
    and large slope steps, `m_init` the initial slope and `m_floor` the
    smallest slope the adaptation may reach.  `signed_flicker` selects the
    signed-difference flicker variant instead of the absolute-value
    default.
    """

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
    flicker (percent), and mean PV real output (pu).  Floats for one
    window of one inverter, else arrays over the trailing axes of the
    window block."""

    sse_avg: float
    vf: float
    p_pv_avg: float


def window_stats(
    voltages: Sequence[float] | np.ndarray,
    mu: float | np.ndarray,
    p_pv: Sequence[float] | np.ndarray,
    signed_flicker: bool = False,
) -> WindowStats:
    """Statistics over one complete horizon of T samples.

    `voltages` and `p_pv` hold T samples along their first axis; further
    axes (inverters, windows) are independent.  `mu` broadcasts against
    `voltages`.  sse_avg is the signed mean of (V - mu).  Flicker sums the
    tick-to-tick relative voltage changes over the window, divided by T,
    times 100; changes are absolute unless `signed_flicker`.
    """
    v = np.asarray(voltages, dtype=float)
    p = np.asarray(p_pv, dtype=float)
    t = len(v)
    if p.shape != v.shape:
        raise AdaptationError("voltage and p_pv series lengths differ")
    if t < 2:
        raise AdaptationError("window needs at least 2 samples")
    mu = np.broadcast_to(mu, v.shape)
    sse, vf, p_sum = (np.zeros(v.shape[1:]) for _ in range(3))
    # row by row from zero, the order of Python's `sum`; np.sum would
    # switch to pairwise summation for a single column
    for i in range(t):
        sse += v[i] - mu[i]
        p_sum += p[i]
        if i:
            d = (v[i] - v[i - 1]) / v[i]
            vf += d if signed_flicker else np.abs(d)
    return WindowStats(sse_avg=sse / t, vf=100.0 * vf / t, p_pv_avg=p_sum / t)


def strategy1_update_qp(
    q_p_prev: float, stats: WindowStats, cfg: AdaptiveConfig
) -> float:
    """Error-adaptive offset update: move q_p against the residual SSE
    when it is outside the tolerance band, else leave it alone."""
    moved = np.abs(stats.sse_avg) > cfg.eps_sse
    return np.where(moved, q_p_prev - cfg.k_d * stats.sse_avg, q_p_prev)[()]


def strategy2_update_slope(
    m_prev: float, stats: WindowStats, cfg: AdaptiveConfig
) -> float:
    """Flicker-zone slope update.

    Critical zone: large decrease.  Subcritical: small decrease.  Safe
    zone: hold.  Relaxed zone: small increase, but only when the SSE is
    still out of tolerance.  Never below m_floor.
    """
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


def capacity_limits(rating_s: float, p_pv_avg: float) -> tuple[float, float]:
    """Symmetric var limits from the capacity left after real output;
    the real output is capped at the rating before the square root."""
    if np.any(np.less(p_pv_avg, 0)):
        raise AdaptationError("p_pv_avg must be >= 0")
    p = np.minimum(rating_s, p_pv_avg)
    q_max = np.sqrt(np.maximum(0.0, rating_s * rating_s - p * p))
    return -q_max, q_max


def outer_loop_step(
    params: AdaptiveParams,
    voltages: Sequence[float] | np.ndarray,
    p_pv: Sequence[float] | np.ndarray,
    rating_s: float | np.ndarray,
    cfg: AdaptiveConfig,
) -> AdaptiveParams:
    """One outer-loop iteration for one inverter, or for every inverter
    of an array-valued `params` given (T, n) voltage and p_pv windows.

    Order: window statistics, strategy I (q_p), strategy II (slope),
    capacity limits, then cut-offs from the slope.  q_p is clamped into
    the fresh var limits.
    """
    stats = window_stats(voltages, params.mu, p_pv, cfg.signed_flicker)
    q_p = strategy1_update_qp(params.q_p, stats, cfg)
    m_p = strategy2_update_slope(params.m_p, stats, cfg)
    q_min_p, q_max_p = capacity_limits(rating_s, stats.p_pv_avg)
    q_p = clamp(q_p, q_min_p, q_max_p)
    return AdaptiveParams.from_slope(m_p, q_p, q_min_p, q_max_p, params.mu)
