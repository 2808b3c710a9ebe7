"""Closed-form stability, steady-state-error, and convergence analytics.

The inner droop loop linearizes to the discrete map dQ -> -M A dQ, so it
is stable when the spectral radius of M A is below one; the per-inverter
row-sum bound gives the conservative critical slopes.  Its settled
response to a voltage shift d is (I + A M)^-1 d: the SSE after a
disturbance (`predict_sse`), or after an offset step dq_p, whose shift
is A dq_p.  The outer loop is the map S -> B S with
B = I - (I + A M)^-1 A K, whose spectral radius determines convergence
of the error-offset adaptation.

Every input passes one check, or raises `AnalysisError`: entries are
finite reals, A is a square matrix, voltage vectors hold one value per
inverter, and (the controllers being local, M = diag(m_i) and
K = diag(k_d,i)) slopes, gains and `mu` are a scalar or one per inverter.
Gains also follow the simulator's rule for `k_d`: finite and > 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codec import VoltVarError


class AnalysisError(VoltVarError):
    """Bad analysis input, a divergent series or a singular matrix."""


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
    `k_d_upper_scalar` is the single-inverter bound 2*(1/a + m), None for
    several inverters or a bound beyond the float range."""

    b_matrix: np.ndarray
    rho_b: float
    converges: bool
    k_d_upper_scalar: float | None = None


def _finite(values: np.ndarray | float, what: str, n: int | None = None,
            scalar: bool = False) -> np.ndarray:
    """`values` as finite floats: a square matrix when `n` is None, else
    one value per inverter (a scalar too, if `scalar`), as `n` values."""
    try:
        x = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged, complex or not numbers
        raise AnalysisError(f"{what} must be real numbers") from exc
    if n is None and (x.ndim != 2 or x.shape[0] != x.shape[1]):
        raise AnalysisError(f"{what} must be a square matrix")
    if n is not None and x.ndim > 1:
        raise AnalysisError(f"{what} are one per inverter, not a matrix")
    if n is not None and x.size != n and not (scalar and x.ndim == 0):
        raise AnalysisError(f"{x.size} {what} for {n} inverters")
    if not np.all(np.isfinite(x)):
        raise AnalysisError(f"{what} must be finite")
    return x if n is None else np.broadcast_to(x, (n,))


def _diag(values: np.ndarray | float, n: int) -> np.ndarray:
    """diag(values) for `n` inverters, from a scalar or one value each."""
    return np.diag(_finite(values, "slopes or gains", n, scalar=True))


def _closed_loop(a: np.ndarray, m: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(I + A M)^-1 rhs: the droop loop's settled response to the voltage
    shift(s) `rhs`."""
    try:
        return np.linalg.solve(np.eye(len(a)) + a @ m, rhs)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError("singular (I + A M)") from exc


def spectral_radius(x: np.ndarray) -> float:
    """Largest absolute eigenvalue; bounded above by any induced norm."""
    x = _finite(x, "spectral radius argument")
    if x.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(x))))


def stability_report(a_matrix: np.ndarray, slopes: np.ndarray | float) -> StabilityReport:
    """Evaluate both stability conditions for slopes `slopes` against the
    sensitivity matrix: the row-sum sufficient bound and the spectral one.

    Critical slope i is 1/sum_j |a_ij| (+inf for a zero row); the margins
    are 1 - m_i * sum_j |a_ij|.
    """
    a = _finite(a_matrix, "A")
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
    rho(M A) < 1.  An offset step dq_p from (V_bar, .) is `dv_d = A @ dq_p`.
    """
    a = _finite(a_matrix, "A")
    n = a.shape[0]
    m = _diag(m_diag, n)
    dv_d = _finite(dv_d, "values of dv_d", n)
    v_bar = _finite(v_bar, "values of v_bar", n)
    mu = _finite(mu, "set-points mu", n, scalar=True)
    if spectral_radius(m @ a) >= 1.0:
        raise AnalysisError("series diverges: rho(MA) >= 1")
    v_new = v_bar + _closed_loop(a, m, dv_d)
    return v_new, v_new - mu


def required_dq(
    a_matrix: np.ndarray, m_diag: np.ndarray | float, sse: np.ndarray
) -> np.ndarray:
    """Offset change that cancels the SSE in one shot: -(A^-1 + M) sse.
    Needs full feeder information, hence analysis-only."""
    a = _finite(a_matrix, "A")
    n = a.shape[0]
    m = _diag(m_diag, n)
    sse = _finite(sse, "values of sse", n)
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError("singular sensitivity matrix A") from exc
    return -(a_inv + m) @ sse


def outer_b_matrix(
    a_matrix: np.ndarray, m_diag: np.ndarray | float, k_diag: np.ndarray | float
) -> ConvergenceReport:
    """Outer-loop transition matrix B = I - (I + A M)^-1 A K and whether
    its spectral radius is below one."""
    a = _finite(a_matrix, "A")
    n = a.shape[0]
    m, k = _diag(m_diag, n), _diag(k_diag, n)
    if not np.all(k.diagonal() > 0):
        raise AnalysisError("k_d must be finite and > 0")
    b = np.eye(n) - _closed_loop(a, m, a @ k)
    rho = spectral_radius(b)
    k_upper = None
    if n == 1 and a[0, 0] != 0:
        with np.errstate(over="ignore"):  # a bound past the float range is no bound
            bound = float(2.0 * (1.0 / a[0, 0] + m[0, 0]))
        k_upper = bound if np.isfinite(bound) else None
    return ConvergenceReport(
        b_matrix=b,
        rho_b=rho,
        converges=bool(rho < 1.0),
        k_d_upper_scalar=k_upper,
    )
