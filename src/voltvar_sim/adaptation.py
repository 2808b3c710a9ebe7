"""Outer-loop parameter dispatcher.

Once per control horizon of T inner ticks, each inverter independently
recomputes its window statistics and updates its parameter block: the
error offset q_p moves against the average set-point deviation (strategy
I), the slope moves through four flicker zones (strategy II), var limits
follow the leftover inverter capacity; the voltage cut-offs follow
from the slope.  Everything uses local bus data only.  Each
step works elementwise, so one call updates one inverter or a whole
fleet given as arrays with one column per inverter.

One kernel, `_step_rows`, runs the whole step on the five parameter
fields as (5, k) rows and on (T, k) windows.  It has two forms:
`outer_loop_step` (the block form) takes and returns an `AdaptiveParams`,
and `step_matrix` (the matrix form, the engine's) picks the units that
qualify at a boundary and steps their columns of the engine's parameter
matrix in place, working on the matrix rows themselves when every unit
qualifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np

from .codec import VoltVarError
from .control import AdaptiveParams, check_adaptive, clamp


class AdaptationError(VoltVarError):
    """Invalid outer-loop configuration or window data."""


@dataclass(frozen=True)
class AdaptiveConfig:
    """Outer-loop constants.

    The horizon is the scenario's `t_outer`.  `k_d` is the error-correction
    factor (pu var per pu volt).  Flicker thresholds are percent per
    window; `vf_lim` is the borderline limit, `vf_lim_bar` the maximum,
    `eps_vf` the safe-zone width.  `delta_vf`/`delta_vf_bar` are the small
    and large slope steps, `m_init` the initial slope and `m_floor` the
    smallest slope the adaptation may reach.
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

    def __post_init__(self) -> None:
        if not (math.isfinite(self.k_d) and self.k_d > 0):
            raise AdaptationError("k_d must be finite and > 0")
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise AdaptationError(f"{name} must be finite")
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
) -> WindowStats:
    """Statistics over one complete horizon of T samples.

    `voltages` and `p_pv` hold T samples along their first axis; further
    axes (inverters, windows) are independent.  `mu` broadcasts against
    `voltages`.  sse_avg is the signed mean of (V - mu).  Flicker sums the
    absolute tick-to-tick relative voltage changes over the window,
    divided by T, times 100.
    """
    v, p = _windows(voltages, p_pv)
    return WindowStats(*_window_means(v, mu, p))


def _windows(voltages, p_pv) -> tuple[np.ndarray, np.ndarray]:
    """Voltage and p_pv windows as float arrays of one shape and at least
    two samples."""
    v = np.asarray(voltages, dtype=float)
    p = np.asarray(p_pv, dtype=float)
    if p.shape != v.shape:
        raise AdaptationError("voltage and p_pv series lengths differ")
    if len(v) < 2:
        raise AdaptationError("window needs at least 2 samples")
    return v, p


def _window_means(v: np.ndarray, mu, p: np.ndarray) -> np.ndarray:
    """`window_stats` as one (3, ...) array (sse_avg, vf, p_pv_avg) of
    checked windows."""
    t = len(v)
    # the three summands as one (T, 3, ...) block; the flicker terms start
    # at the second sample, after a zero row that leaves their sum's bits,
    # and are worked out in a block of their own (faster than in the
    # strided slot, row by row)
    terms = np.empty((t, 3) + v.shape[1:])
    np.subtract(v, mu, out=terms[:, 0])
    d = v[1:] - v[:-1]
    np.divide(d, v[1:], out=d)
    np.abs(d, out=d)
    terms[0, 1] = 0.0
    terms[1:, 1] = d
    terms[:, 2] = p
    means = _window_sum(terms)
    means[1] *= 100.0
    means /= t
    return means


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
    moved = np.abs(stats.sse_avg) > cfg.eps_sse
    return _slope_update(m_prev, np.abs(stats.vf), moved, cfg)[()]


def _slope_update(m_prev, vf, moved, cfg: AdaptiveConfig) -> np.ndarray:
    """Strategy II from |vf| and whether the SSE is out of tolerance."""
    # NaN statistics fail every test and keep m_prev
    relax = ~(vf > cfg.vf_lim - cfg.eps_vf) & moved
    m_new = np.where(vf > cfg.vf_lim_bar, m_prev - cfg.delta_vf_bar,
                     np.where(vf > cfg.vf_lim, m_prev - cfg.delta_vf,
                              np.where(relax, m_prev + cfg.delta_vf, m_prev)))
    return np.maximum(cfg.m_floor, m_new)


def capacity_limits(rating_s: float, p_pv_avg: float) -> tuple[float, float]:
    """Symmetric var limits from the capacity left after real output;
    the real output is capped at the rating before the square root."""
    if np.count_nonzero(np.less(p_pv_avg, 0.0)):
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
    of an array-valued `params` given (T, n) voltage and p_pv windows:
    the block form of `_step_rows`."""
    v, p = _windows(voltages, p_pv)
    *fields, rating, _ = np.broadcast_arrays(*vars(params).values(), rating_s, v[0])
    t, shape = len(v), rating.shape
    new = _step_rows(np.reshape(fields, (5, -1)), np.broadcast_to(v, (t,) + shape).reshape(t, -1),
                     np.broadcast_to(p, (t,) + shape).reshape(t, -1), rating.reshape(-1), cfg)
    return AdaptiveParams.from_slope(*new[:4].reshape((4,) + shape), params.mu)


def step_matrix(
    params: np.ndarray,
    voltages: np.ndarray,
    p_pv: np.ndarray,
    rating_s: np.ndarray,
    cfg: AdaptiveConfig,
) -> tuple[np.ndarray, np.ndarray] | None:
    """One outer-loop boundary on a parameter matrix: the matrix form of
    `_step_rows`.

    `params` holds the `AdaptiveParams` fields as rows, with one column
    per unit (at least one), and `voltages` and `p_pv` the (T, n) windows
    that close at the boundary.  The units that were energized and
    generating on every tick of the window are stepped; their old and new
    columns are checked (`check_adaptive`), and only then are the new ones
    stored in `params`.  Returns the stepped units' indices and their new
    (5, k) rows, which share no memory with `params`, or None when no unit
    qualifies.
    """
    if p_pv.min() > 0 and not np.isnan(voltages.min()):  # every unit: no gather
        cols = slice(None)
        idx = np.arange(params.shape[1])
    else:
        cols = idx = np.flatnonzero(~np.isnan(voltages).any(axis=0) & (p_pv.min(axis=0) > 0))
        if not len(idx):
            return None
    rows = params[:, cols]
    check_adaptive(*rows)
    new = _step_rows(rows, voltages[:, cols], p_pv[:, cols], rating_s[cols], cfg)
    check_adaptive(*new)
    params[:, cols] = new
    return idx, new


def _step_rows(
    rows: np.ndarray,
    voltages: np.ndarray,
    p_pv: np.ndarray,
    rating_s: np.ndarray,
    cfg: AdaptiveConfig,
) -> np.ndarray:
    """The outer-loop kernel: from (5, k) rows of `AdaptiveParams` fields
    for k units and their checked (T, k) windows, the new (5, k) rows,
    unchecked.

    Window statistics, strategy I (q_p), strategy II (slope) and the
    capacity limits, with q_p clamped into the fresh var limits: the float
    operations of `window_stats`, `strategy1_update_qp`,
    `strategy2_update_slope`, `capacity_limits` and `clamp`, each in its
    own order, so the rows keep their bits.
    """
    m_p, q_p, _, _, mu = rows
    sse, vf, p_avg = _window_means(voltages, mu, p_pv)
    moved = np.abs(sse) > cfg.eps_sse
    q_min_p, q_max_p = capacity_limits(rating_s, p_avg)
    q_p = np.where(moved, q_p - cfg.k_d * sse, q_p)
    m_p = _slope_update(m_p, np.abs(vf), moved, cfg)
    return np.array([m_p, clamp(q_p, q_min_p, q_max_p), q_min_p, q_max_p, mu])
