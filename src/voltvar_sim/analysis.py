"""Closed-form stability, steady-state-error, and convergence analytics.

The inner droop loop linearizes to the discrete map dQ -> -M A dQ, so it
is stable when the spectral radius of M A is below one; the per-inverter
row-sum bound gives the conservative critical slopes.  The outer loop is
the map S -> B S with B = I - (I + A M)^-1 A K, whose spectral radius
determines convergence of the error-offset adaptation.

The controllers are local, so M = diag(m_i) and K = diag(k_d,i): every
function takes slopes and gains as a scalar or as one value per inverter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class AnalysisError(ValueError):
    """Analysis preconditions violated (divergent series, singular A)."""


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Inner-loop stability at one operating point."""

    rho_ma: float
    row_sum_margins: tuple[float, ...]
    critical_slopes: tuple[float, ...]
    stable_sufficient: bool
    stable_spectral: bool


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Outer-loop convergence: the B matrix and its spectral radius.
    `k_d_upper_scalar` is the single-inverter bound 2*(1/a + m)."""

    b_matrix: np.ndarray
    rho_b: float
    converges: bool
    k_d_upper_scalar: float | None = None


def spectral_radius(x: np.ndarray) -> float:
    """Largest absolute eigenvalue; bounded above by any induced norm."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise AnalysisError("spectral radius needs a square matrix")
    if x.size == 0:
        return 0.0
    if not np.all(np.isfinite(x)):
        raise AnalysisError("matrix entries must be finite")
    return float(np.max(np.abs(np.linalg.eigvals(x))))


def _diag(values: np.ndarray | float, n: int) -> np.ndarray:
    """diag(values) for `n` inverters, from a scalar or one value each."""
    v = np.asarray(values, dtype=float)
    if v.ndim > 1:
        raise AnalysisError("slopes and gains are a scalar or one per inverter, not a matrix")
    if v.ndim == 1 and len(v) != n:
        raise AnalysisError(f"{len(v)} slopes or gains for {n} inverters")
    return np.diag(np.broadcast_to(v, (n,)))


def stability_report(a_matrix: np.ndarray, slopes: np.ndarray | float) -> StabilityReport:
    """Evaluate both stability conditions for slopes `slopes` against the
    sensitivity matrix: the row-sum sufficient bound and the spectral one.

    Critical slope i is 1/sum_j |a_ij| (+inf for a zero row); the margins
    are 1 - m_i * sum_j |a_ij|.
    """
    a = np.asarray(a_matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AnalysisError("A must be square")
    m = _diag(slopes, a.shape[0])
    if np.any(m.diagonal() < 0):
        raise AnalysisError("slopes must be >= 0")
    row_sums = np.sum(np.abs(a), axis=1)
    critical = tuple(
        float(1.0 / s) if s > 0 else float("inf") for s in row_sums
    )
    margins = tuple(float(1.0 - mi * s) for mi, s in zip(m.diagonal(), row_sums))
    rho = spectral_radius(m @ a)
    return StabilityReport(
        rho_ma=rho,
        row_sum_margins=margins,
        critical_slopes=critical,
        stable_sufficient=bool(all(mg > 0 for mg in margins)),
        stable_spectral=bool(rho < 1.0),
    )


def predict_sse(
    a_matrix: np.ndarray,
    m_diag: np.ndarray | float,
    dv_d: np.ndarray,
    v_bar: np.ndarray,
    mu: np.ndarray | float,
) -> tuple[np.ndarray, np.ndarray]:
    """New droop equilibrium after a disturbance shifts the no-control
    voltages by `dv_d`:  V_new = V_bar + (I + A M)^-1 dv_d, and the SSE
    vector V_new - mu.  Requires the geometric series to converge, i.e.
    rho(M A) < 1.
    """
    a = np.asarray(a_matrix, dtype=float)
    n = a.shape[0]
    m = _diag(m_diag, n)
    if spectral_radius(m @ a) >= 1.0:
        raise AnalysisError("series diverges: rho(MA) >= 1")
    dv_d = np.asarray(dv_d, dtype=float).reshape(n)
    v_bar = np.asarray(v_bar, dtype=float).reshape(n)
    v_new = v_bar + np.linalg.solve(np.eye(n) + a @ m, dv_d)
    return v_new, v_new - np.asarray(mu, dtype=float)


def required_dq(
    a_matrix: np.ndarray, m_diag: np.ndarray | float, sse: np.ndarray
) -> np.ndarray:
    """Offset change that cancels the SSE in one shot: -(A^-1 + M) sse.
    Needs full feeder information, hence analysis-only."""
    a = np.asarray(a_matrix, dtype=float)
    n = a.shape[0]
    m = _diag(m_diag, n)
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError("singular sensitivity matrix A") from exc
    sse = np.asarray(sse, dtype=float).reshape(n)
    return -(a_inv + m) @ sse


def outer_b_matrix(
    a_matrix: np.ndarray, m_diag: np.ndarray | float, k_diag: np.ndarray | float
) -> ConvergenceReport:
    """Outer-loop transition matrix B = I - (I + A M)^-1 A K and whether
    its spectral radius is below one."""
    a = np.asarray(a_matrix, dtype=float)
    n = a.shape[0]
    m, k = _diag(m_diag, n), _diag(k_diag, n)
    try:
        b = np.eye(n) - np.linalg.solve(np.eye(n) + a @ m, a @ k)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError("singular (I + A M)") from exc
    rho = spectral_radius(b)
    k_upper = None
    if n == 1 and a[0, 0] != 0:
        k_upper = float(2.0 * (1.0 / a[0, 0] + m[0, 0]))
    return ConvergenceReport(
        b_matrix=b,
        rho_b=rho,
        converges=bool(rho < 1.0),
        k_d_upper_scalar=k_upper,
    )


def sse_adaptive_prediction(
    a_matrix: np.ndarray,
    m_diag: np.ndarray | float,
    dq_p: np.ndarray,
    v_bar: np.ndarray,
    mu: np.ndarray | float,
) -> np.ndarray:
    """SSE after shifting the adaptive offsets by `dq_p` from equilibrium
    (V_bar, .):  V_bar - mu + (I + A M)^-1 A dq_p."""
    a = np.asarray(a_matrix, dtype=float)
    n = a.shape[0]
    m = _diag(m_diag, n)
    if spectral_radius(m @ a) >= 1.0:
        raise AnalysisError("series diverges: rho(M A) >= 1")
    dq_p = np.asarray(dq_p, dtype=float).reshape(n)
    v_bar = np.asarray(v_bar, dtype=float).reshape(n)
    return (
        v_bar
        - np.asarray(mu, dtype=float)
        + np.linalg.solve(np.eye(n) + a @ m, a @ dq_p)
    )
