from __future__ import annotations

import numpy as np
import pytest

from voltvar_sim.analysis import (
    AnalysisError,
    outer_b_matrix,
    predict_sse,
    required_dq,
    spectral_radius,
    stability_report,
)

from oracles import geometric_series_limit, iterate_linear_adaptive_outer, iterate_linear_droop

# reported small-system outer-loop matrix (switch closed, k_d=4, m=1)
PAPER_B = np.array([[0.224, -0.623], [-0.646, -0.055]])


class TestSpectralRadius:
    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_paper_b_matrix_eigenvalues(self):
        mags = sorted(np.abs(np.linalg.eigvals(PAPER_B)), reverse=True)
        assert mags[0] == pytest.approx(0.73, abs=0.01)
        assert mags[1] == pytest.approx(0.56, abs=0.01)
        assert spectral_radius(PAPER_B) == pytest.approx(mags[0], abs=1e-12)

    def test_bounded_by_infinity_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.normal(size=(5, 5))
            assert spectral_radius(x) <= np.linalg.norm(x, np.inf) + 1e-12

    def test_non_square_rejected(self):
        with pytest.raises(AnalysisError):
            spectral_radius(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(AnalysisError, match="finite"):
            spectral_radius(np.array([[0.3, np.nan], [0.1, 0.2]]))
        with pytest.raises(AnalysisError, match="finite"):
            spectral_radius(np.array([[np.inf]]))

    def test_empty_matrix_is_zero(self):
        assert spectral_radius(np.zeros((0, 0))) == 0.0


class TestStabilityReport:
    def test_scalar_critical_slope(self):
        rep = stability_report(np.array([[0.2857]]), [1.0])
        assert rep.critical_slopes[0] == pytest.approx(3.5, abs=0.01)

    def test_conservative_slope_is_stable(self):
        rep = stability_report(np.array([[0.2857]]), [1.0])
        assert rep.stable_sufficient and rep.stable_spectral
        assert rep.rho_ma == pytest.approx(0.2857)

    def test_supercritical_slope_unstable(self):
        rep = stability_report(np.array([[0.2857]]), [6.0])
        assert not rep.stable_sufficient and not rep.stable_spectral
        assert rep.rho_ma == pytest.approx(1.7142, abs=1e-3)

    def test_zero_row_gives_infinite_critical_slope(self):
        a = np.array([[0.3, 0.0], [0.0, 0.0]])
        rep = stability_report(a, [1.0, 1.0])
        assert rep.critical_slopes[1] == np.inf

    def test_extreme_slope_gives_verdicts_without_warning(self):
        # 1e308 times a row sum of 2 overflows: the margins are -inf
        rep = stability_report(np.full((4, 4), 0.5), 1e308)
        assert rep.row_sum_margins == (-np.inf,) * 4
        assert not rep.stable_sufficient and not rep.stable_spectral

    def test_non_square_a_rejected(self):
        with pytest.raises(AnalysisError, match="square"):
            stability_report(np.ones((2, 3)), 1.0)
        with pytest.raises(AnalysisError, match="square"):
            stability_report(np.ones(2), 1.0)

    def test_wrong_slope_count_rejected(self):
        a = np.array([[0.30, 0.28], [0.27, 0.44]])
        with pytest.raises(AnalysisError, match="1 slopes or gains for 2 inverters"):
            stability_report(a, [1.0])
        with pytest.raises(AnalysisError, match="3 slopes or gains for 2 inverters"):
            stability_report(a, [1.0, 1.0, 1.0])

    def test_negative_slope_rejected(self):
        with pytest.raises(AnalysisError, match=">= 0"):
            stability_report(np.array([[0.30, 0.28], [0.27, 0.44]]), [1.0, -0.1])


class TestPredictSse:
    def test_no_disturbance(self):
        a = np.array([[0.2857]])
        v_new, sse = predict_sse(a, [1.0], [0.0], [1.031], 1.0)
        assert v_new[0] == pytest.approx(1.031)
        assert sse[0] == pytest.approx(0.031)

    def test_scalar_matches_iterated_series(self):
        # frozen from the geometric-series oracle: 0.02/(1+0.2857)
        a = np.array([[0.2857]])
        v_new, _ = predict_sse(a, [1.0], [0.02], [1.0], 1.0)
        assert v_new[0] - 1.0 == pytest.approx(0.015555728396982188, abs=1e-10)
        series = geometric_series_limit(a, np.eye(1), np.array([0.02]), tol=1e-14)
        assert v_new[0] - 1.0 == pytest.approx(series[0], abs=1e-10)

    def test_matrix_matches_iterated_series(self):
        rng = np.random.default_rng(11)
        a = np.abs(rng.normal(0.1, 0.05, size=(4, 4))) + 0.25 * np.eye(4)
        slopes = rng.uniform(0.2, 0.7, 4)
        m = np.diag(slopes)
        assert spectral_radius(m @ a) < 1
        dv = rng.normal(0.0, 0.01, 4)
        v_bar = np.ones(4) * 1.02
        v_new, _ = predict_sse(a, slopes, dv, v_bar, 1.0)
        series = geometric_series_limit(a, m, dv, tol=1e-14)
        assert np.max(np.abs((v_new - v_bar) - series)) < 1e-10

    def test_matches_linear_loop_equilibrium(self):
        a = np.array([[0.30, 0.28], [0.27, 0.44]])
        m = np.diag([1.0, 1.0])
        mu = np.ones(2)
        v_nc0 = np.array([1.03, 1.04])
        v_bar, _ = iterate_linear_droop(a, m, v_nc0, mu)
        dv_d = np.array([0.02, 0.02])
        v_pred, _ = predict_sse(a, 1.0, dv_d, v_bar, mu)
        v_after, _ = iterate_linear_droop(a, m, v_nc0 + dv_d, mu)
        assert np.max(np.abs(v_pred - v_after)) < 1e-10

    def test_divergent_series_rejected(self):
        with pytest.raises(AnalysisError, match="diverges"):
            predict_sse(np.array([[0.2857]]), [6.0], [0.02], [1.0], 1.0)


class TestRequiredDq:
    def test_zero_sse(self):
        out = required_dq(np.array([[0.2857]]), [1.0], [0.0])
        assert out[0] == 0.0

    def test_scalar_substitution(self):
        # -(1/a + m) * sse with the paper's rounded a: -(3.5 + 1) * 0.01
        out = required_dq(np.array([[2.0 / 7.0]]), [1.0], [0.01])
        assert out[0] == pytest.approx(-0.045, abs=1e-12)

    def test_one_shot_in_linear_outer_loop(self):
        a = np.array([[0.30, 0.28], [0.27, 0.44]])
        m = np.diag([1.0, 1.0])
        mu = np.ones(2)
        v_nc = np.array([1.05, 1.06])
        k_exact = -(np.linalg.inv(a) + m)  # so that dq = -(A^-1+M) sse
        sse_hist = iterate_linear_adaptive_outer(a, m, -k_exact, v_nc, mu, loops=3)
        assert np.max(np.abs(sse_hist[1])) < 1e-9
        assert np.max(np.abs(sse_hist[2])) < 1e-9

    def test_singular_a_rejected(self):
        with pytest.raises(AnalysisError, match="singular"):
            required_dq(np.zeros((2, 2)), [1.0, 1.0], np.ones(2))


class TestOuterBMatrix:
    def test_one_step_gain_zeroes_b(self):
        # k = 1/a + m makes B vanish: with the paper's a = 2/7 the gain is
        # exactly 4.5
        a = np.array([[2.0 / 7.0]])
        rep = outer_b_matrix(a, [1.0], 4.5)
        assert rep.b_matrix[0, 0] == pytest.approx(0.0, abs=1e-12)
        assert rep.converges

    def test_overdamped_value(self):
        rep = outer_b_matrix(np.array([[0.2857]]), [1.0], 4.0)
        assert rep.b_matrix[0, 0] == pytest.approx(0.1111, abs=1e-3)
        assert rep.converges

    def test_boundary_divergence(self):
        a = np.array([[2.0 / 7.0]])
        rep9 = outer_b_matrix(a, [1.0], 9.0)
        assert abs(rep9.b_matrix[0, 0]) == pytest.approx(1.0, abs=1e-12)
        rep10 = outer_b_matrix(a, [1.0], 10.0)
        assert not rep10.converges
        # dyadic sensitivity makes the boundary arithmetic exact in floats:
        # a=0.25, m=1 puts the edge at k = 2*(1/a + m) = 10
        edge = outer_b_matrix(np.array([[0.25]]), [1.0], 10.0)
        assert edge.b_matrix[0, 0] == -1.0
        assert not edge.converges

    def test_scalar_upper_bound_exposed(self):
        a = np.array([[0.2857]])
        rep = outer_b_matrix(a, [1.0], 4.0)
        assert rep.k_d_upper_scalar == pytest.approx(2 * (1 / 0.2857 + 1.0))
        rep2 = outer_b_matrix(np.eye(2) * 0.3, 1.0, 4.0)
        assert rep2.k_d_upper_scalar is None
        # a bound past the float range is none either, and raises no warning
        assert outer_b_matrix(np.array([[0.25]]), 1e308, 4.0).k_d_upper_scalar is None

    def test_per_inverter_gains_match_scalar(self):
        a = np.array([[0.30, 0.28], [0.27, 0.44]])
        scalar = outer_b_matrix(a, 1.0, 4.0)
        vector = outer_b_matrix(a, [1.0, 1.0], [4.0, 4.0])
        assert scalar.b_matrix.tobytes() == vector.b_matrix.tobytes()

    def test_gain_count_must_match_a(self):
        with pytest.raises(AnalysisError, match="1 slopes or gains for 2 inverters"):
            outer_b_matrix(np.array([[0.30, 0.28], [0.27, 0.44]]), 1.0, [4.0])

    def test_singular_i_plus_am_rejected(self):
        # I + A M = 1 - 1 = 0
        with pytest.raises(AnalysisError, match=r"singular \(I \+ A M\)"):
            outer_b_matrix(np.array([[-1.0]]), 1.0, 4.0)

    def test_matches_linear_outer_iteration(self):
        a = np.array([[0.30, 0.28], [0.27, 0.44]])
        m = np.diag([1.0, 1.0])
        k = np.diag([4.0, 4.0])
        rep = outer_b_matrix(a, [1.0, 1.0], [4.0, 4.0])
        mu = np.ones(2)
        sse_hist = iterate_linear_adaptive_outer(a, m, k, np.array([1.05, 1.06]), mu, 4)
        for i in range(3):
            predicted = rep.b_matrix @ sse_hist[i]
            assert np.max(np.abs(predicted - sse_hist[i + 1])) < 1e-12


class TestSseAdaptivePrediction:
    """The SSE after an offset step dq_p: `predict_sse` of the shift A dq_p."""

    def test_inverse_pair_is_exact(self):
        a = np.array([[0.30, 0.28], [0.27, 0.44]])
        slopes = [1.2, 0.8]
        v_bar = np.array([1.03, 1.05])
        sse = v_bar - 1.0
        dq = required_dq(a, slopes, sse)
        out = predict_sse(a, slopes, a @ dq, v_bar, 1.0)[1]
        assert np.max(np.abs(out)) < 1e-12

    def test_zero_shift_keeps_sse(self):
        a = np.array([[0.2857]])
        out = predict_sse(a, [1.0], a @ [0.0], [1.02], 1.0)[1]
        assert out[0] == pytest.approx(0.02)

    def test_scalar_against_linear_engine(self):
        a = np.array([[0.2857]])
        m = np.eye(1)
        mu = np.ones(1)
        v_nc = np.array([1.04])
        v_bar, _ = iterate_linear_droop(a, m, v_nc, mu)
        dq_p = np.array([-0.05])
        predicted = predict_sse(a, 1.0, a @ dq_p, v_bar, mu)[1]
        # same loop with the offset applied: q = q_p - M (v - mu)
        v = v_bar.copy()
        for _ in range(4000):
            q = dq_p - m @ (v - mu)
            v = v_nc + a @ q
        assert predicted[0] == pytest.approx(v[0] - mu[0], abs=1e-10)


# the controllers are local: M and K are diagonal, given by their diagonals
@pytest.mark.parametrize("call", [
    pytest.param(lambda a, d: stability_report(a, d), id="stability_report"),
    pytest.param(lambda a, d: predict_sse(a, d, [0.0, 0.0], [1.0, 1.0], 1.0), id="predict_sse"),
    pytest.param(lambda a, d: required_dq(a, d, [0.01, 0.01]), id="required_dq"),
    pytest.param(lambda a, d: outer_b_matrix(a, d, 4.0), id="outer_b_matrix.M"),
    pytest.param(lambda a, d: outer_b_matrix(a, 1.0, 4.0 * d), id="outer_b_matrix.K"),
])
def test_slope_and_gain_matrices_rejected(call):
    a = np.array([[0.30, 0.28], [0.27, 0.44]])
    call(a, np.ones(2))
    with pytest.raises(AnalysisError, match="not a matrix"):
        call(a, np.eye(2))


A2 = np.array([[0.30, 0.28], [0.27, 0.44]])
# each public function with good arguments; each bad input replaces one
GOOD_CALLS = {
    "spectral_radius": (spectral_radius, {"x": A2}),
    "stability_report": (stability_report, {"a_matrix": A2, "slopes": 1.0}),
    "predict_sse": (predict_sse, {"a_matrix": A2, "m_diag": 1.0, "dv_d": [0.01, 0.02],
                                  "v_bar": [1.0, 1.0], "mu": 1.0}),
    "required_dq": (required_dq, {"a_matrix": A2, "m_diag": 1.0, "sse": [0.01, 0.02]}),
    "outer_b_matrix": (outer_b_matrix, {"a_matrix": A2, "m_diag": 1.0, "k_diag": 4.0}),
}
BAD_INPUTS = {
    "matrix": {"non_square": np.ones((2, 3)), "vector": np.ones(2),
               "nan": np.array([[0.30, np.nan], [0.27, 0.44]]),
               "inf": np.array([[0.30, 0.28], [np.inf, 0.44]]), "ragged": [[0.30, 0.28], [0.27]]},
    # slopes, gains and mu: a scalar or one per inverter
    "per_unit": {"nan": np.nan, "inf": np.inf, "nan_entry": [1.0, np.nan],
                 "short": [1.0], "long": [1.0, 1.0, 1.0], "matrix": np.eye(2), "text": "1.0x"},
    # voltage vectors: one per inverter
    "vector": {"nan_entry": [0.01, np.nan], "inf_entry": [np.inf, 0.01], "short": [0.01],
               "long": [0.01, 0.01, 0.01], "matrix": np.full((2, 2), 0.01),
               "complex": [0.01j, 0.01]},
}
ARG_KINDS = {"x": "matrix", "a_matrix": "matrix", "slopes": "per_unit", "m_diag": "per_unit",
             "k_diag": "per_unit", "mu": "per_unit", "dv_d": "vector", "v_bar": "vector",
             "sse": "vector"}


@pytest.mark.parametrize("name, arg, bad", [
    pytest.param(name, arg, bad, id=f"{name}.{arg}.{label}")
    for name, (_, good) in GOOD_CALLS.items()
    for arg in good
    for label, bad in BAD_INPUTS[ARG_KINDS[arg]].items()
])
def test_bad_input_raises_analysis_error(name, arg, bad):
    # never a raw numpy error and never a NaN answer
    func, good = GOOD_CALLS[name]
    func(**good)
    with pytest.raises(AnalysisError):
        func(**{**good, arg: bad})


class TestAnalysisProperties:
    def test_theorem_norm_bound_100_random(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = rng.integers(1, 8)
            x = rng.normal(scale=rng.uniform(0.1, 3.0), size=(n, n))
            rho = spectral_radius(x)
            assert rho <= np.linalg.norm(x, np.inf) + 1e-10
            assert rho <= np.linalg.norm(x, 1) + 1e-10

    def test_row_sum_condition_implies_spectral_100_random(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            a = np.abs(rng.normal(0.2, 0.15, size=(n, n)))
            margins = rng.uniform(0.05, 0.95, n)
            slopes = margins / np.sum(np.abs(a), axis=1)
            rep = stability_report(a, slopes)
            assert rep.stable_sufficient
            assert rep.rho_ma < 1.0
