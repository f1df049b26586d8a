"""Metrics, the damped Gauss-Newton fitter, and fit-report serialization."""

import numpy as np
import pytest

from agekit import fitting
from agekit.cli import L2_WORKLOAD
from agekit.errors import DomainError
from agekit.fitting import (
    FIT_REPORT_HEADER,
    GRADIENT_TOL,
    K_MIN,
    fit,
    fit_report_rows,
    levenberg_marquardt,
    r_square,
    rmse,
    write_fit_reports,
)
from agekit.model import FeedbackLoopModel, eval_model
from agekit.normalize import AgingCurve
from agekit.simulator import SimConfig, aging_degree, parse_workload, run

VAL_SQRT_THIRD = 0.57735026918962576451  # sqrt(1/3), 30-digit oracle


def curve_from_model(model, t):
    return AgingCurve.unchecked("gen", t, eval_model(model, t))


def l2_aging_curve():
    """The curve `report` fits to the trace of `simulate --ticks 4000 --seed 0`."""
    cfg = SimConfig()
    states = run(cfg, parse_workload(L2_WORKLOAD), ticks=4000, seed=0)
    return aging_degree([s.tick for s in states], [s.bandwidth_kbyte for s in states], cfg)


def trf_ssr(t, y, start):
    """Final SSR of scipy's trust-region reflective solver on the same bounded problem."""
    optimize = pytest.importorskip("scipy.optimize")
    log_t = np.log(t)

    def growth(theta):
        return np.exp(theta[1] * t + theta[2] * log_t)

    def jacobian(theta):
        f = theta[0] * growth(theta)
        return np.column_stack((growth(theta), t * f, log_t * f))

    lower = [K_MIN, 0.0, 0.0]
    solution = optimize.least_squares(
        lambda theta: theta[0] * growth(theta) - y,
        np.maximum(start, lower),
        jac=jacobian,
        bounds=(lower, np.inf),
        method="trf",
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=10_000,
    )
    return float(solution.fun @ solution.fun)


class TestRmse:
    def test_perfect_prediction(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_unit_residuals(self):
        assert rmse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_hand_computed_three_point(self):
        assert rmse([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(
            VAL_SQRT_THIRD, rel=1e-15
        )

    def test_symmetry(self):
        a = np.array([1.0, 5.0, 2.0])
        b = np.array([0.5, 4.0, 3.0])
        assert rmse(a, b) == rmse(b, a)

    def test_length_mismatch(self):
        with pytest.raises(DomainError, match="equal-length"):
            rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(DomainError):
            rmse([], [])


class TestRSquare:
    def test_perfect_prediction(self):
        assert r_square([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0

    def test_mean_baseline_scores_zero(self):
        observed = [1.0, 2.0, 3.0, 6.0]
        mean = sum(observed) / 4.0
        assert r_square(observed, [mean] * 4) == 0.0

    def test_hand_computed_three_point(self):
        assert r_square([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) == pytest.approx(0.5, abs=0.0)

    def test_negative_for_anti_prediction(self):
        observed = [1.0, 2.0, 3.0]
        assert r_square(observed, [-1.0, -2.0, -3.0]) < 0.0

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            obs = rng.normal(0, 1, 20)
            pred = rng.normal(0, 1, 20)
            assert r_square(obs, pred) <= 1.0

    def test_constant_observed_rejected(self):
        with pytest.raises(DomainError, match="observed values are all equal"):
            r_square([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            r_square([1.0, 2.0], [1.0])


class TestLevenbergMarquardt:
    def test_accepted_ssr_path_nonincreasing(self):
        true = FeedbackLoopModel(K=0.2, alpha=0.1, beta=1.2)
        t = np.linspace(0.1, 10.0, 200)
        rng = np.random.default_rng(1)
        y = eval_model(true, t) + rng.normal(0, 0.05, len(t))
        result = levenberg_marquardt(t, y, np.array([0.5, 0.0, 0.5]))
        path = np.array(result.ssr_path)
        assert len(path) >= 1
        assert np.all(np.diff(path) <= 0.0)

    def test_converged_within_budget(self):
        true = FeedbackLoopModel(K=0.2, alpha=0.1, beta=1.2)
        t = np.linspace(0.1, 10.0, 200)
        y = eval_model(true, t)
        result = levenberg_marquardt(t, y, np.array([0.3, 0.05, 1.0]))
        assert result.converged
        assert result.iterations <= 200

    def test_projection_keeps_parameters_in_domain(self):
        t = np.linspace(0.1, 10.0, 100)
        y = eval_model(FeedbackLoopModel(0.1, 0.0, 0.0), t)
        result = levenberg_marquardt(t, y, np.array([0.2, 0.3, 0.8]))
        K, alpha, beta = result.theta
        assert K > 0.0
        assert alpha >= 0.0
        assert beta >= 0.0

    def test_accepted_ssr_path_never_increases_over_random_starts(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        t = np.linspace(0.1, 10.0, 120)

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            st.floats(1e-3, 2.0),
            st.floats(0.0, 0.5),
            st.floats(0.0, 2.5),
            st.floats(0.0, 0.5),
            st.integers(0, 2**32 - 1),
            st.tuples(st.floats(-1.0, 3.0), st.floats(-0.5, 1.0), st.floats(-1.0, 3.0)),
        )
        def check(K, alpha, beta, noise, seed, start):
            rng = np.random.default_rng(seed)
            y = eval_model(FeedbackLoopModel(K, alpha, beta), t) + rng.normal(0, noise, len(t))
            result = levenberg_marquardt(t, y, np.array(start))
            path = np.array(result.ssr_path)
            assert np.all(np.diff(path) <= 0.0)
            assert len(path) <= result.iterations + 1 <= 201
            at_bound = result.theta == [K_MIN, 0.0, 0.0]
            held = [name in result.active_bounds for name in ("K", "alpha", "beta")]
            assert not np.any(held & ~at_bound)
            if result.gradient_cosine < GRADIENT_TOL:
                assert result.converged

        check()

    def test_active_bound_is_reported_and_converges(self):
        # a pure power law: alpha = 0 is optimal and its gradient points outward
        t = np.linspace(0.1, 10.0, 200)
        rng = np.random.default_rng(2)
        y = eval_model(FeedbackLoopModel(0.3, 0.0, 1.1), t) * (1.0 + rng.uniform(-0.02, 0.02, 200))
        result = levenberg_marquardt(t, y, np.array([0.5, 0.2, 0.5]))
        assert result.converged
        assert result.active_bounds == ("alpha",)
        assert result.theta[1] == 0.0
        assert result.gradient_cosine < GRADIENT_TOL
        assert result.iterations < 50

    def test_cosine_stop_is_scale_free(self):
        # scaling y and K by s scales J^T r by s or s^2 but leaves every cosine as it is,
        # so the solver takes the same steps and stops at the same place at any scale
        t = np.linspace(0.1, 10.0, 200)
        rng = np.random.default_rng(3)
        y = eval_model(FeedbackLoopModel(0.2, 0.1, 1.2), t) + rng.normal(0, 0.05, 200)
        scales = (2.0**-30, 1.0, 2.0**20)
        results = [levenberg_marquardt(t, y * s, np.array([0.3 * s, 0.05, 1.0])) for s in scales]
        reference = results[1]
        for s, result in zip(scales, results):
            assert result.converged
            assert result.iterations == reference.iterations
            assert result.theta / [s, 1.0, 1.0] == pytest.approx(reference.theta, rel=1e-12)


class TestAgainstTrustRegionReflective:
    """The final SSR equals scipy's bounded TRF solver's (scipy is test-only)."""

    def check(self, t, y):
        start = fitting._initial_guess(t, y)
        result = levenberg_marquardt(t, y, start)
        reference = trf_ssr(t, y, start)
        assert result.converged
        assert abs(result.ssr_path[-1] - reference) <= 1e-9 * reference
        return result

    def test_l2_trace_aging_curve(self):
        curve = l2_aging_curve()
        result = self.check(np.asarray(curve.t), np.asarray(curve.y))
        assert result.active_bounds == ("alpha",)
        assert result.iterations <= 20

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_series(self, seed):
        # even seeds grow as a pure power law (alpha = 0, the active bound), odd ones with alpha > 0
        rng = np.random.default_rng([seed, 9])
        alpha = 0.0 if seed % 2 == 0 else rng.uniform(0.05, 0.4)
        true = FeedbackLoopModel(rng.uniform(0.05, 0.6), alpha, rng.uniform(0.3, 1.5))
        t = np.sort(rng.uniform(0.05, 10.0, int(rng.integers(300, 701))))
        y = eval_model(true, t) * (1.0 + rng.uniform(-0.02, 0.02, len(t)))
        self.check(t, y)


class TestFit:
    def test_noiseless_recovery_pinned_row(self):
        true = FeedbackLoopModel(K=0.4504, alpha=1.09e-9, beta=0.6693)
        t = np.linspace(0.1, 10.0, 500)
        report = fit(curve_from_model(true, t))
        got = report.model
        assert abs(got.K - true.K) / true.K < 1e-6
        assert abs(got.alpha - true.alpha) < 1e-6
        assert abs(got.beta - true.beta) / true.beta < 1e-6
        assert report.r_square > 1.0 - 1e-9

    def test_randomized_noiseless_round_trip(self):
        rng = np.random.default_rng(12)
        t = np.linspace(0.1, 10.0, 300)
        for _ in range(10):
            true = FeedbackLoopModel(
                K=rng.uniform(0.05, 0.6),
                alpha=rng.uniform(0.0, 0.5),
                beta=rng.uniform(0.0, 2.5),
            )
            got = fit(curve_from_model(true, t)).model
            assert abs(got.K - true.K) <= 1e-4 * true.K + 1e-12
            assert abs(got.alpha - true.alpha) <= 1e-4
            assert abs(got.beta - true.beta) <= 1e-4 * true.beta + 1e-12

    def test_noisy_fit_reasonable(self):
        rng = np.random.default_rng(4)
        true = FeedbackLoopModel(K=0.06, alpha=0.0294, beta=1.858)
        t = np.linspace(10.0 / 500, 10.0, 500)
        y = eval_model(true, t) + rng.normal(0, 0.02, len(t))
        report = fit(AgingCurve.unchecked("w2", t, y))
        assert report.r_square >= 0.99
        assert abs(report.model.beta - true.beta) / true.beta < 0.10

    def test_report_metrics_internally_consistent(self):
        true = FeedbackLoopModel(K=0.3, alpha=0.05, beta=0.9)
        t = np.linspace(0.1, 10.0, 120)
        rng = np.random.default_rng(5)
        curve = AgingCurve.unchecked("c", t, eval_model(true, t) + rng.normal(0, 0.01, 120))
        report = fit(curve)
        predicted = eval_model(report.model, curve.t)
        assert report.rmse == rmse(curve.y, predicted)
        assert report.r_square == r_square(curve.y, predicted)
        assert report.n_samples == 120

    def test_refit_of_own_predictions_is_fixed_point(self):
        t = np.linspace(0.1, 10.0, 200)
        rng = np.random.default_rng(6)
        y = eval_model(FeedbackLoopModel(0.2, 0.1, 1.0), t) + rng.normal(0, 0.03, 200)
        first = fit(AgingCurve.unchecked("a", t, y)).model
        second = fit(curve_from_model(first, t)).model
        assert abs(second.K - first.K) < 1e-8 * max(1.0, first.K)
        assert abs(second.alpha - first.alpha) < 1e-8
        assert abs(second.beta - first.beta) < 1e-8 * max(1.0, first.beta)

    def test_constant_curve_degenerate(self):
        t = np.linspace(1.0, 5.0, 10)
        with pytest.raises(DomainError, match="degenerate curve"):
            fit(AgingCurve.unchecked("c", t, np.full(10, 0.25)))

    def test_all_samples_below_floor_rejected(self):
        t = np.linspace(1.0, 5.0, 10)
        with pytest.raises(DomainError, match="y_floor"):
            fit(AgingCurve.unchecked("c", t, np.linspace(1e-9, 9e-7, 10)))

    def test_too_few_samples(self):
        with pytest.raises(DomainError, match="at least 4"):
            fit(AgingCurve.unchecked("c", [1.0, 2.0, 3.0], [0.1, 0.2, 0.3]))

    def test_nonpositive_times_rejected(self):
        with pytest.raises(DomainError, match="positive"):
            fit(AgingCurve.unchecked("c", [0.0, 1.0, 2.0, 3.0], [0.1, 0.2, 0.3, 0.4]))


class TestReportSerialization:
    def make_report(self):
        t = np.linspace(0.1, 10.0, 100)
        return fit(curve_from_model(FeedbackLoopModel(0.3, 0.1, 0.8), t))

    def test_header_and_shape(self):
        text = fit_report_rows([("w1", self.make_report())])
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(FIT_REPORT_HEADER)
        assert len(lines) == 2
        assert lines[1].startswith("w1,")
        assert len(lines[1].split(",")) == 6

    def test_values_round_trip_exactly(self):
        report = self.make_report()
        text = fit_report_rows([("x", report)])
        fields = text.strip().split("\n")[1].split(",")
        assert float(fields[1]) == report.model.K
        assert float(fields[2]) == report.model.alpha
        assert float(fields[3]) == report.model.beta
        assert float(fields[4]) == report.rmse
        assert float(fields[5]) == report.r_square

    def test_multi_row_order_preserved(self):
        report = self.make_report()
        text = fit_report_rows([("b", report), ("a", report)])
        lines = text.strip().split("\n")
        assert lines[1].startswith("b,")
        assert lines[2].startswith("a,")

    def test_write_is_atomic_and_loadable(self, tmp_path):
        path = tmp_path / "report.csv"
        write_fit_reports(str(path), [("r", self.make_report())])
        content = path.read_text()
        assert content.startswith(",".join(FIT_REPORT_HEADER))
        leftovers = [p.name for p in tmp_path.iterdir() if p.name != "report.csv"]
        assert leftovers == []
