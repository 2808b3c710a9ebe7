"""Inner-loop per-inverter var dispatch laws.

Three local controllers: the conventional piecewise-linear droop, its
delayed variant, and the adaptive law whose curve is shifted by an error
offset and re-sloped by the outer loop.  All laws are stateless total
functions of the local bus voltage; the simulation engine owns any state
(previous dispatch, adaptive parameters).

Every law and parameter block works elementwise: a field or voltage may
be a float or an array with one entry per inverter, and an array-valued
block is checked unit by unit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SLOPE_RTOL = 1e-9


class ControlError(ValueError):
    """Invalid controller parameters."""


def _all(ok) -> bool:
    """Whether a check passes on every unit (`ok`: a bool, or a bool
    array over units).  Checks are written so that NaN fails them."""
    return bool(ok.all()) if isinstance(ok, np.ndarray) else bool(ok)


def clamp(x, lo, hi):
    """min(max(x, lo), hi) elementwise; on ties it keeps the same operand
    (and so the same signed zero) as Python's `min` and `max`."""
    return np.minimum(hi, np.maximum(lo, x))


@dataclass(frozen=True)
class DroopParams:
    """Conventional droop curve: set-point `mu`, deadband `deadband_d`,
    slope `slope_m` (pu var per pu volt), var limits and voltage cut-offs.

    The four set-points and the slope are redundant; use `from_slope` or
    `from_setpoints` to build a consistent curve.
    """

    mu: float
    deadband_d: float
    slope_m: float
    q_min: float
    q_max: float
    v_min: float
    v_max: float

    def __post_init__(self) -> None:
        if not _all(self.slope_m >= 0):
            raise ControlError("slope_m must be >= 0")
        if not _all(self.deadband_d >= 0):
            raise ControlError("deadband_d must be >= 0")
        if not _all((self.q_min <= 0.0) & (0.0 <= self.q_max)):
            raise ControlError("need q_min <= 0 <= q_max")
        if not _all((self.v_min < self.mu) & (self.mu < self.v_max)):
            raise ControlError("need v_min < mu < v_max")

    @classmethod
    @np.errstate(all="ignore")
    def from_slope(
        cls, mu: float, deadband_d: float, slope_m: float, q_min: float, q_max: float
    ) -> "DroopParams":
        """Derive voltage cut-offs from the slope and var limits."""
        sloped = np.greater(slope_m, 0)
        v_min = np.where(sloped, mu - deadband_d / 2 - np.divide(q_max, slope_m), -np.inf)
        v_max = np.where(sloped, mu + deadband_d / 2 - np.divide(q_min, slope_m), np.inf)
        return cls(mu, deadband_d, slope_m, q_min, q_max, v_min[()], v_max[()])

    @classmethod
    def from_setpoints(
        cls,
        mu: float,
        deadband_d: float,
        v_min: float,
        v_max: float,
        q_min: float,
        q_max: float,
    ) -> "DroopParams":
        """Derive the slope from the four set-points, which must agree."""
        with np.errstate(all="ignore"):
            m_lo = np.divide(q_max, mu - deadband_d / 2 - v_min)
            m_hi = np.divide(q_min, mu + deadband_d / 2 - v_max)
        gap = abs(m_lo - m_hi)
        tol = _SLOPE_RTOL
        if not _all((gap <= tol * abs(m_lo)) | (gap <= tol * abs(m_hi)) | (gap <= tol)):
            raise ControlError(
                f"inconsistent set-points: slopes {m_lo} vs {m_hi} disagree"
            )
        return cls(mu, deadband_d, m_lo, q_min, q_max, v_min, v_max)

    def with_setpoint(self, mu: float) -> "DroopParams":
        """The same slope and var limits around a new set-point."""
        return self.from_slope(mu, self.deadband_d, self.slope_m, self.q_min, self.q_max)


def droop_dispatch(params: DroopParams, v: float) -> float:
    """Var output of the conventional droop at local voltage `v` (pu).

    Zero inside the deadband, -m*(v - mu -/+ d/2) outside, clamped to
    [q_min, q_max].
    """
    half_d = params.deadband_d / 2
    dev = v - params.mu
    q = -params.slope_m * np.where(v > params.mu, dev - half_d, dev + half_d)
    return np.where(np.abs(dev) <= half_d, 0.0, clamp(q, params.q_min, params.q_max))[()]


def delayed_dispatch(params: DroopParams, tau: float, v: float, q_prev: float) -> float:
    """Delayed droop: droop term plus `tau` times the previous dispatch,
    saturated after the sum so the stored var stays physical."""
    if not 0.0 <= tau < 1.0:
        raise ControlError("tau must be in [0, 1)")
    return clamp(droop_dispatch(params, v) + tau * q_prev, params.q_min, params.q_max)


@dataclass(frozen=True)
class AdaptiveParams:
    """Parameter block dispatched by the outer loop: slope `m_p`, error
    offset `q_p`, var limits and set-point `mu`.  The voltage cut-offs
    follow from these (`slope_to_cutoffs`) and are derived on access."""

    m_p: float
    q_p: float
    q_min_p: float
    q_max_p: float
    mu: float

    def __post_init__(self) -> None:
        if not _all(np.isfinite(self.m_p) & (self.m_p >= 0)):
            raise ControlError("m_p must be finite and >= 0")
        if not _all(np.isfinite(self.mu)):
            raise ControlError("mu must be finite")
        if not _all((self.q_min_p <= self.q_p) & (self.q_p <= self.q_max_p)):
            raise ControlError("need q_min_p <= q_p <= q_max_p")

    @classmethod
    def from_slope(
        cls, m_p: float, q_p: float, q_min_p: float, q_max_p: float, mu: float
    ) -> "AdaptiveParams":
        """The block the outer loop dispatches (the cut-offs are derived)."""
        return cls(m_p, q_p, q_min_p, q_max_p, mu)

    @property
    def v_min_p(self) -> float:
        """Low cut-off, where the output reaches q_max_p (-inf when flat)."""
        return slope_to_cutoffs(self.m_p, self.q_p, self.q_min_p, self.q_max_p, self.mu)[0]

    @property
    def v_max_p(self) -> float:
        """High cut-off, where the output reaches q_min_p (+inf when flat)."""
        return slope_to_cutoffs(self.m_p, self.q_p, self.q_min_p, self.q_max_p, self.mu)[1]

    def with_setpoint(self, mu: float) -> "AdaptiveParams":
        """The same slope, offset and var limits around a new set-point."""
        return self.from_slope(self.m_p, self.q_p, self.q_min_p, self.q_max_p, mu)


def adaptive_dispatch(params: AdaptiveParams, v: float) -> float:
    """Adaptive law: q_p - m_p*(v - mu), saturated at [q_min_p, q_max_p].

    Saturation is the only nonlinearity; with q_p = 0 and no saturation
    this is exactly the conventional droop with zero deadband.
    """
    return clamp(
        params.q_p - params.m_p * (v - params.mu), params.q_min_p, params.q_max_p
    )


@np.errstate(all="ignore")
def slope_to_cutoffs(
    m_p: float, q_p: float, q_min_p: float, q_max_p: float, mu: float
) -> tuple[float, float]:
    """Voltage cut-offs implied by a slope and var limits.

    Inverse of the slope relation m = (q_lim - q_p)/(mu - v_cut); exact
    round-trip.  m_p = 0 yields the (-inf, +inf) sentinel pair.
    """
    if np.any(np.less(m_p, 0)):
        raise ControlError("m_p must be >= 0")
    flat = np.equal(m_p, 0)
    v_max_p = np.where(flat, np.inf, mu - np.divide(q_min_p - q_p, m_p))
    v_min_p = np.where(flat, -np.inf, mu - np.divide(q_max_p - q_p, m_p))
    return v_min_p[()], v_max_p[()]


@dataclass(frozen=True)
class ControllerKind:
    """Which inner law an inverter runs: none (the default), conventional,
    delayed with its `tau`, or adaptive; e.g. `ControllerKind("delayed", 0.9)`."""

    name: str = "none"
    tau: float = 0.0

    _NAMES = ("none", "conventional", "delayed", "adaptive")
    _json_keys = {"name": "kind"}

    def __post_init__(self) -> None:
        if self.name not in self._NAMES:
            raise ControlError(f"unknown controller kind {self.name!r}")
        if not 0.0 <= self.tau < 1.0:
            raise ControlError("tau must be in [0, 1)")
