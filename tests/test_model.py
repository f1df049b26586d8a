"""Growth-law evaluators: pinned numeric oracles, identities, ODE residual.

The pinned constants below were computed once with 30-digit arithmetic
(mpmath) and frozen here, so the assertions do not depend on the library
under test.
"""

import numpy as np
import pytest

from agekit.errors import DomainError
from agekit.model import (
    FeedbackLoopModel,
    NegativeLoop,
    PositiveLoop,
    eval_combined,
    eval_model,
    eval_multi_loop,
    eval_negative,
    eval_positive,
    ode_residual,
)

# frozen 30-digit oracle values
VAL_K006_T1 = 0.061790186800672203462  # 0.06 * exp(0.0294)
VAL_4E = 10.873127313836180941  # 2 * exp(0.5*2) * 2
VAL_1ME1 = 0.6321205588285576784  # 1 - exp(-1)
VAL_1ME2 = 0.86466471676338730811  # 1 - exp(-2)
VAL_HALF_E = 1.3591409142295226177  # 0.5 * exp(1)
VAL_E01_1ME2 = 0.95560229885301257217  # exp(0.1) * (1 - exp(-2))
VAL_3_1ME1 = 1.8963616764856730352  # 3 * (1 - exp(-1))

REL = 1e-12


def ulps_apart(a, b):
    return abs(np.float64(a).view(np.int64) - np.float64(b).view(np.int64))


class TestParameterRecords:
    def test_model_field_domains(self):
        FeedbackLoopModel(K=0.06, alpha=0.0, beta=0.0)
        with pytest.raises(DomainError, match="K must be positive"):
            FeedbackLoopModel(K=0.0, alpha=0.0, beta=0.0)
        with pytest.raises(DomainError, match="alpha"):
            FeedbackLoopModel(K=1.0, alpha=-0.1, beta=0.0)
        with pytest.raises(DomainError, match="beta"):
            FeedbackLoopModel(K=1.0, alpha=0.0, beta=-1.0)
        with pytest.raises(DomainError, match="finite"):
            FeedbackLoopModel(K=float("nan"), alpha=0.0, beta=0.0)

    def test_each_parameter_is_checked_whole_in_field_order(self):
        # K's sign comes before alpha's finiteness, and z0's before a's
        with pytest.raises(DomainError, match="K must be positive, got -1.0"):
            FeedbackLoopModel(-1.0, float("nan"), 0.0)
        with pytest.raises(DomainError, match="z0 must be nonnegative, got -1.0"):
            PositiveLoop(-1.0, float("nan"))

    def test_unchecked_allows_negative_parameters(self):
        m = FeedbackLoopModel.unchecked(1.0, -0.5, -1.0)
        assert m.alpha == -0.5
        assert eval_model(m, 1.0) == pytest.approx(np.exp(-0.5), rel=REL)

    def test_loop_field_domains(self):
        PositiveLoop(z0=0.0, a=0.0)
        with pytest.raises(DomainError):
            PositiveLoop(z0=-1.0, a=0.0)
        with pytest.raises(DomainError):
            PositiveLoop(z0=1.0, a=-2.0)
        NegativeLoop(K=-3.0, v=0.0)  # repair amplitude may be any finite real
        with pytest.raises(DomainError):
            NegativeLoop(K=1.0, v=-0.1)


class TestEvalModel:
    def test_all_growth_terms_vanish(self):
        assert eval_model(FeedbackLoopModel(1.0, 0.0, 0.0), 5.0) == 1.0

    def test_pinned_value_small_parameters(self):
        m = FeedbackLoopModel(K=0.06, alpha=0.0294, beta=1.858)
        assert eval_model(m, 1.0) == pytest.approx(VAL_K006_T1, rel=REL)

    def test_pinned_value_hand_arithmetic(self):
        m = FeedbackLoopModel(K=2.0, alpha=0.5, beta=1.0)
        assert eval_model(m, 2.0) == pytest.approx(VAL_4E, rel=REL)

    def test_array_input(self):
        m = FeedbackLoopModel(K=2.0, alpha=0.5, beta=1.0)
        out = eval_model(m, np.array([1.0, 2.0]))
        assert out.shape == (2,)
        assert out[1] == pytest.approx(VAL_4E, rel=REL)

    def test_nonpositive_time_rejected(self):
        m = FeedbackLoopModel(1.0, 0.1, 0.1)
        with pytest.raises(DomainError, match="strictly positive"):
            eval_model(m, 0.0)
        with pytest.raises(DomainError):
            eval_model(m, np.array([1.0, -2.0]))

    def test_monotone_nondecreasing_in_time(self):
        rng = np.random.default_rng(10)
        t = np.linspace(0.05, 20.0, 400)
        for _ in range(25):
            m = FeedbackLoopModel(
                K=rng.uniform(0.05, 0.6),
                alpha=rng.uniform(0.0, 0.5),
                beta=rng.uniform(0.0, 2.5),
            )
            f = eval_model(m, t)
            assert np.all(np.diff(f) >= 0.0)

    def test_beta_zero_is_pure_exponential(self):
        m = FeedbackLoopModel(K=0.3, alpha=0.7, beta=0.0)
        t = np.linspace(0.5, 8.0, 50)
        ratios = eval_model(m, t + 0.25) / eval_model(m, t)
        assert np.max(np.abs(ratios - ratios[0])) < 1e-12

    def test_alpha_zero_is_pure_power_law(self):
        m = FeedbackLoopModel(K=0.3, alpha=0.0, beta=1.4)
        t = np.linspace(0.5, 8.0, 50)
        ratios = eval_model(m, 3.0 * t) / eval_model(m, t)
        assert np.max(np.abs(ratios - 3.0**1.4)) < 1e-12

    def test_alpha_zero_derivative_vanishes_for_small_beta(self):
        # for alpha=0 and beta<1 the growth speed K*beta*t**(beta-1) dies out
        m = FeedbackLoopModel(K=0.5, alpha=0.0, beta=0.6)
        h = 1e-4
        big_t = np.array([1e4, 1e6, 1e9])
        speed = (eval_model(m, big_t + h) - eval_model(m, big_t)) / h
        assert np.all(np.diff(speed) < 0)
        # K*beta*t**(beta-1) at t=1e9 is about 7.5e-5
        assert speed[-1] < 1e-4


class TestComponentLoops:
    def test_positive_no_acceleration(self):
        assert eval_positive(PositiveLoop(1.0, 0.0), 10.0) == 1.0

    def test_positive_pinned_value(self):
        assert eval_positive(PositiveLoop(0.5, 0.1), 10.0) == pytest.approx(
            VAL_HALF_E, rel=REL
        )

    def test_positive_zero_initial_level(self):
        assert eval_positive(PositiveLoop(0.0, 5.0), 3.0) == 0.0

    def test_negative_v_zero_fixed_exponent(self):
        # with v=0 the rate*time product is exactly 1 at any t
        assert eval_negative(NegativeLoop(1.0, 0.0), 7.0) == pytest.approx(
            VAL_1ME1, rel=REL
        )
        assert eval_negative(NegativeLoop(1.0, 0.0), 0.001) == pytest.approx(
            VAL_1ME1, rel=REL
        )

    def test_negative_zero_scale(self):
        assert eval_negative(NegativeLoop(0.0, 3.0), 2.0) == 0.0

    def test_negative_pinned_value(self):
        assert eval_negative(NegativeLoop(1.0, 1.0), 1.0) == pytest.approx(
            VAL_1ME2, rel=REL
        )


class TestCombinedAndMultiLoop:
    def test_combined_reduces_to_negative(self):
        for t in (0.5, 1.0, 7.0):
            assert eval_combined(PositiveLoop(1.0, 0.0), 0.0, t) == pytest.approx(
                VAL_1ME1, rel=REL
            )

    def test_combined_zero_initial_level(self):
        assert eval_combined(PositiveLoop(0.0, 1.0), 1.0, 2.0) == 0.0

    def test_combined_pinned_value(self):
        got = eval_combined(PositiveLoop(1.0, 0.1), 1.0, 1.0)
        assert got == pytest.approx(VAL_E01_1ME2, rel=REL)

    def test_product_identity_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pos = PositiveLoop(z0=rng.uniform(0, 2), a=rng.uniform(0, 1))
            v = rng.uniform(0, 2)
            t = rng.uniform(0.01, 10)
            lhs = eval_combined(pos, v, t)
            rhs = eval_positive(pos, t) * eval_negative(NegativeLoop(1.0, v), t)
            assert lhs == rhs

    def test_single_pair_equals_combined(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            pos = PositiveLoop(z0=rng.uniform(0, 2), a=rng.uniform(0, 1))
            v = rng.uniform(0, 2)
            t = rng.uniform(0.01, 10)
            lhs = eval_multi_loop([(pos, NegativeLoop(1.0, v))], t)
            assert ulps_apart(lhs, eval_combined(pos, v, t)) == 0

    def test_two_identical_pairs_double(self):
        pos = PositiveLoop(0.7, 0.3)
        neg = NegativeLoop(1.0, 0.4)
        t = 2.5
        one = eval_multi_loop([(pos, neg)], t)
        two = eval_multi_loop([(pos, neg), (pos, neg)], t)
        assert two == 2.0 * one

    def test_pinned_sum(self):
        pairs = [
            (PositiveLoop(1.0, 0.0), NegativeLoop(1.0, 0.0)),
            (PositiveLoop(2.0, 0.0), NegativeLoop(1.0, 0.0)),
        ]
        for t in (0.5, 3.0, 100.0):
            assert eval_multi_loop(pairs, t) == pytest.approx(VAL_3_1ME1, rel=REL)

    def test_empty_sequence_rejected(self):
        with pytest.raises(DomainError, match="at least one"):
            eval_multi_loop([], 1.0)


class TestOdeResidual:
    def grid(self, h, n=401, start=1.0):
        return start + h * np.arange(n)

    def test_second_order_convergence_beta_zero(self):
        m = FeedbackLoopModel(K=0.4, alpha=0.8, beta=0.0)
        res_h = ode_residual(m, self.grid(2e-3))
        res_half = ode_residual(m, self.grid(1e-3))
        assert res_half < 1e-6
        # beta=0 makes ln f linear in t: centered differences are exact,
        # so both residuals sit at rounding level rather than shrinking 4x
        assert res_h < 1e-9

    def test_second_order_convergence_power_law(self):
        m = FeedbackLoopModel(K=1.7, alpha=0.0, beta=1.0)
        res_h = ode_residual(m, self.grid(2e-3))
        res_half = ode_residual(m, self.grid(1e-3))
        assert res_half < 1e-6
        ratio = res_h / res_half
        assert 3.0 < ratio < 5.0

    def test_residual_independent_of_scale(self):
        ts = self.grid(1e-3)
        r1 = ode_residual(FeedbackLoopModel(0.05, 0.3, 1.2), ts)
        r2 = ode_residual(FeedbackLoopModel(500.0, 0.3, 1.2), ts)
        assert r1 == pytest.approx(r2, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("K", [0.0, -1.0])
    def test_nonpositive_k_rejected(self, K):
        # only the unchecked constructor makes such a model
        with pytest.raises(DomainError, match="ode_residual needs K > 0"):
            ode_residual(FeedbackLoopModel.unchecked(K, 0.1, 0.1), self.grid(1e-3))

    def test_grid_validation(self):
        m = FeedbackLoopModel(1.0, 0.1, 0.1)
        with pytest.raises(DomainError, match="at least 3"):
            ode_residual(m, [1.0, 2.0])
        with pytest.raises(DomainError, match="positive and increasing"):
            ode_residual(m, [0.0, 1.0, 2.0])
        with pytest.raises(DomainError, match="positive and increasing"):
            ode_residual(m, [1.0, 3.0, 2.0])
