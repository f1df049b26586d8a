"""Lowess behavior: exactness cases, oracle equivalence, equivariances."""

import numpy as np
import pytest

from agekit.errors import DomainError
from agekit.smoothing import lowess, lowess_values
from agekit.timeseries import MetricSeries, Orientation

from reference_lowess import reference_lowess


def make_series(t, values):
    return MetricSeries(name="s", orientation=Orientation.HIGHER_IS_WORSE, t=t, values=values)


def noisy_series(n=100, seed=0):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 10.0, n))
    v = np.sin(t) + rng.normal(0.0, 0.2, n)
    return t, v


class TestConfig:
    """lowess_values checks its own fraction and robust_iterations."""

    def test_defaults(self):
        t, v = noisy_series(30)
        assert np.array_equal(lowess_values(t, v), lowess_values(t, v, 0.3, 0))

    @pytest.mark.parametrize("fraction", [0.0, -0.3, 1.5])
    def test_fraction_out_of_range(self, fraction):
        t, v = noisy_series(30)
        with pytest.raises(DomainError, match="fraction out of range"):
            lowess_values(t, v, fraction=fraction)

    def test_fraction_of_one_allowed(self):
        t, v = noisy_series(30)
        lowess_values(t, v, fraction=1.0)

    @pytest.mark.parametrize("iters", [-1, 0.5])
    def test_bad_iterations(self, iters):
        t, v = noisy_series(30)
        with pytest.raises(DomainError, match="robust_iterations"):
            lowess_values(t, v, robust_iterations=iters)


class TestExactCases:
    def test_constant_series_smooths_to_itself(self):
        t = np.linspace(0, 9, 10)
        out = lowess_values(t, np.full(10, 42.5), 0.3, 0)
        assert np.array_equal(out, np.full(10, 42.5))

    def test_constant_series_robust_pass_stops(self):
        t = np.linspace(0, 9, 10)
        out = lowess_values(t, np.full(10, 1.0), 0.3, 5)
        assert np.array_equal(out, np.ones(10))

    def test_linear_series_is_fixed_point(self):
        t = np.linspace(0.0, 20.0, 40)
        v = 2.0 * t + 1.0
        out = lowess_values(t, v, 1.0, 0)
        assert np.max(np.abs(out - v)) < 1e-9

    def test_linear_series_partial_window(self):
        t = np.linspace(0.0, 20.0, 40)
        v = 2.0 * t + 1.0
        out = lowess_values(t, v, 0.3, 0)
        assert np.max(np.abs(out - v)) < 1e-9

    def test_minimum_length(self):
        with pytest.raises(DomainError, match="at least 3"):
            lowess_values([0.0, 1.0], [1.0, 2.0], 0.3, 0)

    def test_length_mismatch(self):
        with pytest.raises(DomainError, match="lengths differ"):
            lowess_values([0.0, 1.0, 2.0], [1.0, 2.0], 0.3, 0)


class TestOracleEquivalence:
    @pytest.mark.parametrize("fraction,iterations", [(0.3, 0), (0.3, 2), (0.5, 1), (1.0, 0)])
    def test_matches_naive_reference(self, fraction, iterations):
        t, v = noisy_series(100, seed=3)
        ours = lowess_values(t, v, fraction, iterations)
        ref = np.array(reference_lowess(t, v, fraction, iterations))
        assert np.max(np.abs(ours - ref)) <= 1e-9

    def test_matches_reference_on_uniform_grid_with_ties(self):
        rng = np.random.default_rng(11)
        t = np.arange(60, dtype=float)
        v = np.cos(t / 6.0) + rng.normal(0.0, 0.1, 60)
        ours = lowess_values(t, v, 0.3, 1)
        ref = np.array(reference_lowess(t, v, 0.3, 1))
        assert np.max(np.abs(ours - ref)) <= 1e-9


class TestEquivariance:
    def test_translation(self):
        t, v = noisy_series(80, seed=5)
        base = lowess_values(t, v, 0.3, 0)
        shifted = lowess_values(t, v + 37.25, 0.3, 0)
        assert np.max(np.abs(shifted - (base + 37.25))) < 1e-9

    def test_scale_by_power_of_two_is_exact(self):
        # scaling by 2 only shifts float exponents, so every intermediate
        # rounds identically and the outputs match bit for bit
        t, v = noisy_series(80, seed=6)
        base = lowess_values(t, v, 0.3, 0)
        doubled = lowess_values(t, 2.0 * v, 0.3, 0)
        assert np.array_equal(doubled, 2.0 * base)

    def test_general_scale(self):
        t, v = noisy_series(80, seed=7)
        base = lowess_values(t, v, 0.3, 0)
        scaled = lowess_values(t, 3.7 * v, 0.3, 0)
        assert np.max(np.abs(scaled - 3.7 * base)) < 1e-9


class TestLocality:
    def test_point_outside_window_cannot_change_output(self):
        t, v = noisy_series(100, seed=9)
        window = 30  # ceil(0.3 * 100)
        base = lowess_values(t, v, 0.3, 0)
        # probe the first point; its window covers the nearest 30 neighbors,
        # so perturbing the far end of the series must not move it
        v2 = v.copy()
        v2[-1] += 100.0
        out = lowess_values(t, v2, 0.3, 0)
        dist = np.abs(t - t[0])
        d_max = np.partition(dist, window - 1)[window - 1]
        assert dist[-1] > d_max
        assert out[0] == base[0]


class TestSeriesWrapper:
    def test_grid_and_metadata_preserved(self):
        t, v = noisy_series(50, seed=1)
        s = make_series(t, v)
        out = lowess(s, fraction=0.4, robust_iterations=1)
        assert np.array_equal(out.values, lowess_values(t, v, 0.4, 1))
        assert np.array_equal(out.t, s.t)
        assert out.name == s.name
        assert out.orientation is s.orientation
        assert len(out) == len(s)

    def test_default_config_used_when_omitted(self):
        t, v = noisy_series(50, seed=2)
        s = make_series(t, v)
        assert np.array_equal(lowess(s).values, lowess_values(t, v))
