"""Outer-loop parameter dispatcher.

Once per control horizon of T inner ticks, each inverter independently
recomputes its window statistics and updates its parameter block: the
error offset q_p moves against the average set-point deviation (strategy
I), the slope moves through four flicker zones (strategy II), var limits
follow the leftover inverter capacity; the voltage cut-offs follow
from the slope.  Everything uses local bus data only.  Each
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
    # the three summands as one (T, 3, ...) block; the flicker terms start
    # at the second sample, after a zero row that leaves their sum's bits
    terms = np.empty((t, 3) + v.shape[1:])
    np.subtract(v, mu, out=terms[:, 0])
    d = terms[1:, 1]
    np.divide(v[1:] - v[:-1], v[1:], out=d)
    if not signed_flicker:
        np.abs(d, out=d)
    terms[0, 1] = 0.0
    terms[:, 2] = p
    sse, vf, p_sum = _window_sum(terms)
    return WindowStats(sse_avg=sse / t, vf=100.0 * vf / t, p_pv_avg=p_sum / t)


def _window_sum(x: np.ndarray) -> np.ndarray:
    """Sum along the first axis in window order, the order of Python's
    `sum`: on a C-ordered block of two or more columns, `reduce` adds whole
    rows in turn (it would sum a single column pairwise).  Some numpy
    versions start from the first row rather than from +0.0, so `+ 0.0`
    turns an all -0.0 sum into the +0.0 of Python's."""
    return np.add.reduce(x.reshape(len(x), -1), axis=0).reshape(x.shape[1:]) + 0.0


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
    # NaN statistics fail every test and keep m_prev
    relax = ~(vf > cfg.vf_lim - cfg.eps_vf) & (np.abs(stats.sse_avg) > cfg.eps_sse)
    m_new = np.where(vf > cfg.vf_lim_bar, m_prev - cfg.delta_vf_bar,
                     np.where(vf > cfg.vf_lim, m_prev - cfg.delta_vf,
                              np.where(relax, m_prev + cfg.delta_vf, m_prev)))
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
    then capacity limits.  q_p is clamped into the fresh var limits.
    """
    stats = window_stats(voltages, params.mu, p_pv, cfg.signed_flicker)
    q_p = strategy1_update_qp(params.q_p, stats, cfg)
    m_p = strategy2_update_slope(params.m_p, stats, cfg)
    q_min_p, q_max_p = capacity_limits(rating_s, stats.p_pv_avg)
    q_p = clamp(q_p, q_min_p, q_max_p)
    return AdaptiveParams.from_slope(m_p, q_p, q_min_p, q_max_p, params.mu)
