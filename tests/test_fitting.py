"""Metrics, the damped Gauss-Newton fitter, and fit-report serialization."""

import hashlib

import numpy as np
import pytest

from agekit import fitting
from agekit.cli import L2_WORKLOAD
from agekit.errors import DomainError
from agekit.fitting import (
    FIT_REPORT_HEADER,
    GRADIENT_TOL,
    Y_FLOOR,
    fit,
    fit_report_rows,
    levenberg_marquardt,
    r_square,
    rmse,
    write_fit_reports,
)
from agekit.model import FeedbackLoopModel, eval_model
from agekit.normalize import AgingCurve, normalize_only, to_aging_curve
from agekit.simulator import SimConfig, aging_degree, parse_workload, run
from agekit.timeseries import MetricSeries, Orientation

VAL_SQRT_THIRD = 0.57735026918962576451  # sqrt(1/3), 30-digit oracle


def curve_from_model(model, t):
    return AgingCurve.unchecked("gen", t, eval_model(model, t))


def l2_aging_curve():
    """The curve `report` fits to the trace of `simulate --ticks 4000 --seed 0`."""
    cfg = SimConfig()
    states = run(cfg, parse_workload(L2_WORKLOAD), ticks=4000, seed=0)
    return aging_degree([s.tick for s in states], [s.bandwidth_kbyte for s in states], cfg)


def trf_ssr(t, y, start):
    """Final SSR of scipy's trust-region reflective solver on the problem the solver
    solves, in (ln K, alpha, beta) with ln K unbounded and alpha, beta >= 0, started
    from (alpha, beta) = start and its closed-form K."""
    optimize = pytest.importorskip("scipy.optimize")
    log_t = np.log(t)
    alpha, beta = np.maximum(start, 0.0)
    ell = alpha * t + beta * log_t
    g = np.exp(ell - ell.max())

    def model(theta):
        return np.exp(theta[0] + theta[1] * t + theta[2] * log_t)

    def jacobian(theta):
        f = model(theta)
        return np.column_stack((f, t * f, log_t * f))

    solution = optimize.least_squares(
        lambda theta: model(theta) - y,
        [np.log(g @ y / (g @ g)) - ell.max(), alpha, beta],
        jac=jacobian,
        bounds=([-np.inf, 0.0, 0.0], np.inf),
        method="trf",
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
        max_nfev=10_000,
    )
    return float(solution.fun @ solution.fun)


def generated_series(seed, stream=9, sizes=(300, 701)):
    """A noisy growth law on (0, 10]: even seeds grow as a pure power law (alpha = 0, the
    active bound), odd ones with alpha > 0."""
    rng = np.random.default_rng([seed, stream])
    alpha = 0.0 if seed % 2 == 0 else rng.uniform(0.05, 0.4)
    true = FeedbackLoopModel(rng.uniform(0.05, 0.6), alpha, rng.uniform(0.3, 1.5))
    t = np.sort(rng.uniform(0.05, 10.0, int(rng.integers(*sizes))))
    return t, eval_model(true, t) * (1.0 + rng.uniform(-0.02, 0.02, len(t)))


def long_series(seed, alpha=None, beta=None):
    """4 000 samples 20-100 s apart (67 hours) of 500 + 100 h**beta e^(alpha h) with 5 %
    noise; unless given, alpha is drawn from 0.3-0.4 and beta from 0.5-1.5."""
    rng = np.random.default_rng(seed)
    if alpha is None:
        alpha, beta = rng.uniform(0.3, 0.4), rng.uniform(0.5, 1.5)
    hours = np.cumsum(rng.uniform(20.0, 100.0, 4000)) / 3600.0
    noise = rng.uniform(0.95, 1.05, 4000)
    return hours, 500.0 + 100.0 * hours**beta * np.exp(alpha * hours) * noise


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="rmse needs finite values"):
            rmse([1.0, bad], [1.0, 2.0])
        with pytest.raises(DomainError, match="rmse needs finite values"):
            rmse([1.0, 2.0], [bad, 2.0])


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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="r_square needs finite values"):
            r_square([1.0, bad], [1.0, 2.0])
        with pytest.raises(DomainError, match="r_square needs finite values"):
            r_square([1.0, 2.0], [1.0, bad])


class TestLevenbergMarquardt:
    def test_accepted_ssr_path_nonincreasing(self):
        true = FeedbackLoopModel(K=0.2, alpha=0.1, beta=1.2)
        t = np.linspace(0.1, 10.0, 200)
        rng = np.random.default_rng(1)
        y = eval_model(true, t) + rng.normal(0, 0.05, len(t))
        result = levenberg_marquardt(t, y, np.array([0.0, 0.5]))
        path = np.array(result.ssr_path)
        assert len(path) >= 1
        assert np.all(np.diff(path) <= 0.0)

    def test_converged_within_budget(self):
        true = FeedbackLoopModel(K=0.2, alpha=0.1, beta=1.2)
        t = np.linspace(0.1, 10.0, 200)
        y = eval_model(true, t)
        result = levenberg_marquardt(t, y, np.array([0.05, 1.0]))
        assert result.converged
        assert result.iterations <= 200

    def test_projection_keeps_parameters_in_domain(self):
        t = np.linspace(0.1, 10.0, 100)
        y = eval_model(FeedbackLoopModel(0.1, 0.0, 0.0), t)
        result = levenberg_marquardt(t, y, np.array([0.3, 0.8]))
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
            st.tuples(st.floats(-0.5, 1.0), st.floats(-1.0, 3.0)),
        )
        def check(K, alpha, beta, noise, seed, start):
            rng = np.random.default_rng(seed)
            y = eval_model(FeedbackLoopModel(K, alpha, beta), t) + rng.normal(0, noise, len(t))
            result = levenberg_marquardt(t, y, np.array(start))
            path = np.array(result.ssr_path)
            assert np.all(np.diff(path) <= 0.0)
            assert len(path) <= result.iterations + 1 <= 201
            at_bound = result.theta == [0.0, 0.0, 0.0]
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
        result = levenberg_marquardt(t, y, np.array([0.2, 0.5]))
        assert result.converged
        assert result.active_bounds == ("alpha",)
        assert result.theta[1] == 0.0
        assert result.gradient_cosine < GRADIENT_TOL
        assert result.iterations < 50

    def test_largest_cosine_skips_held_columns_and_propagates_nan(self):
        gradient, diag = [2.0, -0.5, 3.0], [4.0, 1.0, 9.0]  # cosines 1, 0.5 and 1 at ssr 1
        assert fitting._largest_cosine(gradient, diag, 1.0, [0, 1, 2]) == 1.0
        assert fitting._largest_cosine(gradient, diag, 1.0, [1]) == 0.5
        assert fitting._largest_cosine(gradient, diag, 1.0, []) == 0.0
        assert fitting._largest_cosine([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.0, [0, 1, 2]) == 0.0
        assert np.isnan(fitting._largest_cosine([np.nan, 1.0, 3.0], diag, 1.0, [0, 1, 2]))
        assert np.isnan(fitting._largest_cosine([1.0, 1.0, np.nan], diag, 1.0, [0, 1, 2]))
        assert fitting._largest_cosine([np.nan, 1.0, 3.0], diag, 1.0, [1, 2]) == 1.0

    def test_stall_at_the_rounding_floor_is_converged(self, monkeypatch):
        # an exact linear law: once the residual is rounding noise no damped step lowers
        # the SSR, and the cosine of a noise residual (0.24 here) says nothing
        t = np.linspace(0.1, 10.0, 100)
        y = t / 10.0
        result = levenberg_marquardt(t, y, np.array([0.0, 2.0]))
        assert result.converged is True
        assert len(result.ssr_path) == result.iterations  # the last iteration accepted nothing
        assert result.gradient_cosine > GRADIENT_TOL
        assert result.ssr_path[-1] <= (8.0 * np.finfo(float).eps) ** 2 * float(y @ y)
        # the stall rule decides the flag only: without it the same run reports a stall
        monkeypatch.setattr(fitting, "SSR_ROUNDING", 0.0)
        stalled = levenberg_marquardt(t, y, np.array([0.0, 2.0]))
        assert stalled.converged is False
        assert stalled.iterations == result.iterations
        assert stalled.theta.tobytes() == result.theta.tobytes()
        assert stalled.ssr_path == result.ssr_path

    def test_stall_above_the_gradient_tolerance_is_converged(self, monkeypatch):
        # a noisy curve whose last Gauss-Newton step promises less than the SSR's own
        # rounding: no damped step lowers the SSR at a cosine of 1.6e-8, and the SSR,
        # 3.0e27 eps^2 sum y^2, is far above where an exact fit's residual is noise
        skip_unless_recorded_bits()  # elsewhere the run may not stall at all
        t, y = generated_series(1446, stream=21, sizes=(100, 301))
        start = fitting._initial_guess(t, y)
        result = levenberg_marquardt(t, y, start)
        assert result.converged is True
        assert len(result.ssr_path) == result.iterations  # the last iteration accepted nothing
        assert result.gradient_cosine > GRADIENT_TOL
        ssr = result.ssr_path[-1]
        assert ssr > 1e20 * np.finfo(float).eps ** 2 * float(y @ y)
        # scipy's TRF finds no SSR lower than it by more than the SSR's rounding, 4 eps sum |y r|
        residual = y - eval_model(FeedbackLoopModel(*result.theta), t)
        rounding = 4.0 * np.finfo(float).eps * float(np.abs(y) @ np.abs(residual))
        assert trf_ssr(t, y, start) >= ssr - rounding
        monkeypatch.setattr(fitting, "SSR_ROUNDING", 0.0)
        stalled = levenberg_marquardt(t, y, start)
        assert stalled.converged is False
        assert stalled.theta.tobytes() == result.theta.tobytes()
        assert stalled.ssr_path == result.ssr_path

    def test_overflowed_ssr_is_never_converged(self):
        # the constant start fits y's mean, and the residuals' squares overflow, so the SSR
        # at the start is inf: every cosine |g| / inf would read 0
        t = np.linspace(1.0, 50.0, 50)
        result = levenberg_marquardt(t, 1e160 * t, np.array([0.0, 0.0]))
        assert result.converged is False
        assert result.iterations == 0
        assert result.ssr_path == (np.inf,)
        assert np.isnan(result.gradient_cosine)

    def test_overflowed_gram_matrix_is_never_converged(self):
        # from an exact start the SSR is finite, but (t * f)^2 overflows J^T J: its
        # cosines |g| / sqrt(inf) would read 0
        t = np.linspace(1.0, 50.0, 50)
        result = levenberg_marquardt(t, 1e160 * t, np.array([0.0, 1.0]))
        assert result.converged is False
        assert result.iterations == 0
        assert np.isfinite(result.ssr_path[-1])
        assert np.isnan(result.gradient_cosine)

    def test_cosine_stop_is_scale_free(self):
        # scaling y by s scales K by s and J^T r by s^2 but leaves every cosine as it is,
        # so the solver takes the same steps and stops at the same place at any scale
        t = np.linspace(0.1, 10.0, 200)
        rng = np.random.default_rng(3)
        y = eval_model(FeedbackLoopModel(0.2, 0.1, 1.2), t) + rng.normal(0, 0.05, 200)
        scales = (2.0**-30, 1.0, 2.0**20)
        results = [levenberg_marquardt(t, y * s, np.array([0.05, 1.0])) for s in scales]
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
        self.check(*generated_series(seed))

    @pytest.mark.parametrize("smoothed", [False, True], ids=["raw", "aging_curve"])
    @pytest.mark.parametrize("seed", range(4))
    def test_long_fast_growing_series(self, seed, smoothed):
        # normalized, the law's K is 1e-9 or far less: no fixed lower bound on K is safe
        hours, values = long_series(seed)
        raw = MetricSeries("aging", Orientation.HIGHER_IS_WORSE, hours, values)
        if smoothed:
            curve = to_aging_curve(raw)
            self.check(np.asarray(curve.t), np.asarray(curve.y))
        else:
            self.check(hours, normalize_only(values, Orientation.HIGHER_IS_WORSE))


def pinned_case(name):
    """(t, y, start) of one of the solver runs PINNED_RESULTS records."""
    t = np.linspace(0.1, 10.0, 200)
    if name in ("all_free", "rejected_trials"):
        rng = np.random.default_rng(1)
        y = eval_model(FeedbackLoopModel(0.2, 0.1, 1.2), t) + rng.normal(0, 0.05, 200)
        return t, y, [0.0, 0.5] if name == "all_free" else [0.9, 0.0]
    if name == "alpha_held":
        rng = np.random.default_rng(2)
        y = eval_model(FeedbackLoopModel(0.3, 0.0, 1.1), t) * (1.0 + rng.uniform(-0.02, 0.02, 200))
        return t, y, [0.2, 0.5]
    if name == "beta_held":  # the law's beta, -0.3, lies below the bound
        rng = np.random.default_rng(3)
        y = np.exp(0.3 * t) * t**-0.3 * (1.0 + rng.uniform(-0.02, 0.02, 200))
        return t, y, [0.1, 0.5]
    if name == "all_held":  # <g, y> < 0 holds K at 0, and every gradient is zero
        return t, -np.ones(200), [0.0, 0.0]
    cfg = SimConfig()
    columns = run(cfg, parse_workload(L2_WORKLOAD), ticks=2000, seed=0).columns()
    curve = aging_degree(columns["tick"], columns["bandwidth_kbyte"], cfg)
    # (alpha, beta) of the unweighted log-space start the pins were recorded from
    start = ["0x1.23ac9f206a0b4p-3", "0x1.ca9daf8b3c229p-1"]
    return np.asarray(curve.t), np.asarray(curve.y), [float.fromhex(v) for v in start]


# Every bit of LMResult on six runs: theta, gradient_cosine and ssr_path as float.hex.
# rejected_trials solves 10 damped systems for its 7 accepted steps, all_free 6 for 6.
PINNED_RESULTS = {
    "all_free": (
        ("0x1.94c1fb5594190p-3", "0x1.95eb218d0bc05p-4", "0x1.35776db7677c7p+0"),
        6,
        (
            "0x1.decb23986654ep+8", "0x1.66e452b6dddacp+3", "0x1.70c024d231292p+0",
            "0x1.bdaa25ab4097ap-2", "0x1.b4e0852e55df2p-2", "0x1.b4e04fb9b2b1ap-2",
            "0x1.b4e04fb9ad2f6p-2",
        ),
        "0x1.4ba2711abe688p-34",
        (),
    ),
    "alpha_held": (
        ("0x1.32a11f6a49424p-2", "0x0.0p+0", "0x1.19e69eab820edp+0"),
        5,
        (
            "0x1.f7dd500040da2p+4", "0x1.242179b771058p-1", "0x1.1273a4b0ca784p-3",
            "0x1.1136dad887ebbp-3", "0x1.10955bc5b778cp-3", "0x1.10955bc2c6a47p-3",
        ),
        "0x1.eca65290c4aa3p-33",
        ("alpha",),
    ),
    "beta_held": (
        ("0x1.ad9182fe1005cp-1", "0x1.f7b825b629675p-3", "0x0.0p+0"),
        8,
        (
            "0x1.78670c1ec14afp+6", "0x1.ee25534903356p+5", "0x1.3389cb018514bp+3",
            "0x1.306126df790c0p+3", "0x1.305e867e97f48p+3", "0x1.305e848b4a8b2p+3",
            "0x1.305e8489da424p+3", "0x1.305e8489d9324p+3", "0x1.305e8489d9316p+3",
        ),
        "0x1.34be9068997f4p-31",
        ("beta",),
    ),
    "all_held": (
        ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
        0,
        ("0x1.9000000000000p+7",),
        "0x0.0p+0",
        ("K", "alpha", "beta"),
    ),
    "rejected_trials": (
        ("0x1.94c1fbbedd30ep-3", "0x1.95eb222ef5f2cp-4", "0x1.35776d6f874e1p+0"),
        7,
        (
            "0x1.b350c38a57b98p+9", "0x1.5713289ca8c3dp+6", "0x1.2d3c1e1116c72p+4",
            "0x1.f6249df1ca03dp+1", "0x1.186206c069e3cp-1", "0x1.b50905b2677f6p-2",
            "0x1.b4e04fcdccec3p-2", "0x1.b4e04fb9ad322p-2",
        ),
        "0x1.40093de1dbd71p-29",
        (),
    ),
    "aging_curve": (
        ("0x1.9454572f92059p-5", "0x1.cdb30aae1a694p-3", "0x1.197e4523047afp-1"),
        8,
        (
            "0x1.f451c974daeedp+0", "0x1.7af40f9553082p+0", "0x1.79b27bb8c81d0p+0",
            "0x1.79add4b5f4df6p+0", "0x1.79adb58efbcc8p+0", "0x1.79adb4c78944cp+0",
            "0x1.79adb4c28096ap+0", "0x1.79adb4c2601b4p+0", "0x1.79adb4c25f49ep+0",
        ),
        "0x1.c31e040e6d4a1p-28",
        (),
    ),
}


def libm_digest():
    """Digest of exp, log and a Gram product, the bits PINNED_RESULTS rests on."""
    x = np.linspace(-5.0, 5.0, 2001)
    a = np.column_stack((np.exp(x), np.log1p(x * x), x))
    parts = (np.exp(x), np.log(np.abs(x) + 0.5), a.T @ a, a.T @ x)
    return hashlib.sha256(b"".join(p.tobytes() for p in parts)).hexdigest()[:16]


def skip_unless_recorded_bits():
    if libm_digest() != "d3a9086376b6c98b":
        pytest.skip("exp, log or BLAS round differently here than where the pins were taken")


class TestPinnedBits:
    """The solver's result, bit for bit, on runs that cover each branch of an iteration.

    A faster iteration must do the same arithmetic: these pins hold for any
    rewrite of the bookkeeping. The bits of exp, log and BLAS products vary with
    the numpy build and the CPU, so on a host where they differ from the ones
    the pins were recorded with the test is skipped rather than failed.
    """

    @pytest.mark.parametrize("name", PINNED_RESULTS)
    def test_result_bits(self, name):
        skip_unless_recorded_bits()
        t, y, start = pinned_case(name)
        result = levenberg_marquardt(t, y, np.array(start))
        theta, iterations, ssr_path, cosine, active = PINNED_RESULTS[name]
        assert tuple(float(v).hex() for v in result.theta) == theta
        assert result.iterations == iterations
        assert tuple(v.hex() for v in result.ssr_path) == ssr_path
        assert result.gradient_cosine.hex() == cosine
        assert result.active_bounds == active
        assert result.converged


class TestSingularSystems:
    """A singular undamped system promises no stall bound; a singular damped one is a rejected
    step."""

    def test_singular_undamped_system_promises_nothing(self):
        # a zero gradient would promise a zero decrease, within any rounding, if it solved
        hessian, gradient = [[1.0, 1.0], [1.0, 1.0]], [0.0, 0.0]
        assert fitting._solve_step(hessian, gradient, [0, 1], 0.0) is None
        y, residual = np.ones(5), np.ones(5)
        assert not fitting._promise_within_rounding(hessian, gradient, [0, 1], y, residual)

    def test_singular_damped_system_is_a_rejected_trial(self, monkeypatch):
        solve, project = fitting._solve_step, fitting._project
        damped, projected = [], []

        def singular_once(hessian, gradient, free, lam):
            if lam > 0.0:
                damped.append(lam)
                if len(damped) == 1:
                    return None
            return solve(hessian, gradient, free, lam)

        def counting(*args):
            projected.append(args[:2])
            return project(*args)

        monkeypatch.setattr(fitting, "_solve_step", singular_once)
        monkeypatch.setattr(fitting, "_project", counting)
        t, y, start = pinned_case("all_free")
        result = levenberg_marquardt(t, y, np.array(start))
        # the singular trial evaluated no model: one projection for the start,
        # one per damped system that solved; the next trial damps tenfold more
        assert len(projected) == len(damped)
        assert damped[1] == 10.0 * damped[0]
        assert np.all(np.diff(result.ssr_path) <= 0.0)
        assert result.converged


class TestInitialGuess:
    def test_noiseless_law_is_recovered(self):
        true = FeedbackLoopModel(K=0.3, alpha=0.2, beta=1.4)
        t = np.linspace(0.1, 10.0, 300)
        alpha, beta = fitting._initial_guess(t, eval_model(true, t))
        assert alpha == pytest.approx(true.alpha, rel=1e-12)
        assert beta == pytest.approx(true.beta, rel=1e-12)

    @pytest.mark.parametrize("scale", [2.0**-5, 1e-2, 7.5, 1e9])
    def test_scaling_y_scales_only_k(self, scale):
        t, y = generated_series(3)
        assert np.all(scale * y > Y_FLOOR)  # so both starts use every sample
        # the start is (alpha, beta): only the log-space nuisance ln K moves, by ln scale
        alpha, beta = fitting._initial_guess(t, y)
        scaled = fitting._initial_guess(t, scale * y)
        assert scaled[0] == pytest.approx(alpha, rel=1e-12)
        assert scaled[1] == pytest.approx(beta, rel=1e-12)

    def test_samples_at_or_below_the_floor_are_ignored(self):
        t = np.linspace(0.1, 10.0, 200)
        y = eval_model(FeedbackLoopModel(0.2, 0.1, 1.2), t)
        low = np.arange(0, 200, 7)
        noisy = y.copy()
        noisy[low] = np.resize([Y_FLOOR, 0.0, -3.0, 1e-9], len(low))
        kept = np.ones(200, dtype=bool)
        kept[low] = False
        expected = fitting._initial_guess(t[kept], y[kept])
        assert fitting._initial_guess(t, noisy).tobytes() == expected.tobytes()

    def test_start_whose_model_overflows_converges(self):
        # 4 000 samples 20-100 s apart (67 hours) of 500 + 100 h e^(0.3 h), 5 % noise:
        # the log-space start has alpha < 0, which the solver clips to 0, and beta near
        # 92, whose unscaled growth t**beta at 67 hours is about 1e168; K in closed form
        # keeps the model finite
        hours, values = long_series(4, alpha=0.3, beta=1.0)
        curve = to_aging_curve(MetricSeries("aging", Orientation.HIGHER_IS_WORSE, hours, values))
        alpha, beta = fitting._initial_guess(curve.t, curve.y)
        assert alpha < 0.0 and beta > 50.0
        report = fit(curve)
        assert report.converged and report.iterations <= 30
        # LOWESS at fraction 0.3 flattens the curve to a power law with a tiny K
        assert report.model.alpha == 0.0 and report.model.K < 1e-12
        assert report.r_square > 0.98


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

    def test_randomized_noiseless_aging_curves_converge(self):
        # normalized like the CLI's curves (y <= 1); half hold alpha at its bound
        rng = np.random.default_rng(21)
        for _ in range(200):
            t = np.sort(rng.uniform(0.05, 10.0, int(rng.integers(20, 401))))
            alpha = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 0.5)
            growth = eval_model(FeedbackLoopModel(1.0, alpha, rng.uniform(0.0, 2.5)), t)
            report = fit(AgingCurve("exact", t, growth / growth.max()))
            assert report.converged is True
            assert report.r_square > 1.0 - 1e-12

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
        # the report takes both from the solver's final SSR, whose model values and sum
        # round apart from eval_model's and np.mean's in the last bits
        assert report.rmse == pytest.approx(rmse(curve.y, predicted), rel=1e-12)
        assert report.r_square == pytest.approx(r_square(curve.y, predicted), rel=1e-12)
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

    @pytest.mark.parametrize("above", [1, 2])
    def test_fewer_than_three_samples_above_floor_rejected(self, above):
        y = np.full(10, 1e-9)
        y[-above:] = 0.5
        with pytest.raises(DomainError, match=f"only {above} samples above y_floor"):
            fit(AgingCurve.unchecked("c", np.linspace(1.0, 5.0, 10), y))

    def test_too_few_samples(self):
        with pytest.raises(DomainError, match="at least 4"):
            fit(AgingCurve.unchecked("c", [1.0, 2.0, 3.0], [0.1, 0.2, 0.3]))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(DomainError, match="matching one-dimensional t and y"):
            fit(AgingCurve.unchecked("c", [1.0, 2.0, 3.0, 4.0, 5.0], [0.1, 0.2, 0.3, 0.4]))

    def test_law_far_above_one_fits(self):
        t = np.linspace(1.0, 50.0, 50)
        report = fit(AgingCurve.unchecked("c", t, 1e150 * t))
        assert report.converged is True
        assert report.r_square == 1.0
        assert report.model.K == pytest.approx(1e150, rel=1e-12)
        assert report.model.beta == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflowed_fit_is_a_domain_error(self, scale):
        # no warning escapes: a RuntimeWarning fails the suite
        t = np.linspace(1.0, 50.0, 50)
        with pytest.raises(DomainError, match="fit overflowed"):
            fit(AgingCurve.unchecked("c", t, scale * t))

    def test_curve_that_no_positive_k_fits_is_a_domain_error(self):
        # <g, y> < 0 at the start holds K at 0, and the growth law has no K = 0 model
        t = np.linspace(1.0, 10.0, 13)
        y = np.array([-1.0] * 10 + [1e-5] * 3)
        with pytest.raises(DomainError, match="K must be positive"):
            fit(AgingCurve.unchecked("c", t, y))

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
