"""Lowess behavior: exactness cases, oracle equivalence, equivariances."""

import math

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

    @pytest.mark.parametrize("column", ["t", "values"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input(self, column, bad):
        t, v = noisy_series(30)
        arrays = {"t": t.copy(), "values": v.copy()}
        arrays[column][7] = bad
        with pytest.raises(DomainError, match=f"lowess needs finite {column}"):
            lowess_values(arrays["t"], arrays["values"])

    def test_two_dimensional_input(self):
        t, v = noisy_series(30)
        with pytest.raises(DomainError, match="t must be one-dimensional"):
            lowess_values(t.reshape(2, 15), v.reshape(2, 15))
        with pytest.raises(DomainError, match="values must be one-dimensional"):
            lowess_values(t, v.reshape(30, 1))


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


def fuzzed_case(seed, n, grid, window, stretches):
    """A (t, values, fraction) case for the oracle property."""
    rng = np.random.default_rng(seed)
    ticks = np.arange(n)
    t = {
        "uniform": ticks.astype(float),
        "ticks": ticks * 15 / 3600,
        "jittered": ticks + rng.uniform(-0.3, 0.3, n),
        "duplicates": np.sort(rng.integers(0, max(2, n // 3), n)).astype(float),
        "shuffled": rng.permutation(ticks * 15 / 3600),
    }[grid]
    values = np.cumsum(rng.normal(0.0, 1.0, n))
    for _ in range(stretches):
        start = int(rng.integers(0, n))
        values[start : start + int(rng.integers(2, n // 2 + 3))] = values[start]
    return t, values, window / n


def fit_rests_on_one_other_point(t, fraction, robustness):
    """Whether some window keeps weight above 1e-12 of its largest at one t only,
    and not at its own row's t.

    The local line through one location is then set by rounding error (the
    weighted mean of equal t's is off by an ULP) or by a boundary weight near
    1e-43, in any implementation, so two correct ones can differ by O(values).
    """
    window = max(2, math.ceil(fraction * len(t)))
    for ti in t:
        dist = np.abs(t - ti)
        d_max = np.sort(dist)[window - 1]
        if d_max == 0.0:
            continue
        tricube = (1.0 - np.minimum(dist / d_max, 1.0) ** 3) ** 3
        weights = np.where(dist <= d_max, tricube, 0.0) * robustness
        places = np.unique(t[weights > 1e-12 * weights.max()])
        if len(places) == 1 and places[0] != ti:
            return True
    return False


class TestOracleEquivalence:
    def test_matches_reference_on_fuzzed_grids(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            n=st.integers(3, 120),
            grid=st.sampled_from(["uniform", "ticks", "jittered", "duplicates", "shuffled"]),
            window_share=st.floats(0.0, 1.0),
            stretches=st.integers(0, 3),
            iterations=st.integers(0, 2),
        )
        def check(seed, n, grid, window_share, stretches, iterations):
            window = 1 + round(window_share * (n - 1))
            t, v, fraction = fuzzed_case(seed, n, grid, window, stretches)
            for done in range(iterations):
                # the next pass is comparable only where its robustness weights
                # are well posed: not made of rounding noise, and never leaving
                # a window's line to be fixed by rounding alone
                residuals = v - reference_lowess(t, v, fraction, done)
                scale = np.median(np.abs(residuals))
                hypothesis.assume(scale > 1e-6 * (np.ptp(v) + 1.0))
                u = np.clip(residuals / (6.0 * scale), -1.0, 1.0)
                hypothesis.assume(not fit_rests_on_one_other_point(t, fraction, (1 - u**2) ** 2))
            ours = lowess_values(t, v, fraction, iterations)
            ref = np.array(reference_lowess(t, v, fraction, iterations))
            assert np.max(np.abs(ours - ref)) <= 1e-9

        check()

    def test_shuffled_input_gives_permuted_output(self):
        t, v = noisy_series(90, seed=12)
        perm = np.random.default_rng(12).permutation(90)
        for iterations in (0, 2):
            base = lowess_values(t, v, 0.3, iterations)
            shuffled = lowess_values(t[perm], v[perm], 0.3, iterations)
            assert np.array_equal(shuffled, base[perm])

    def test_constant_interior_stretch_on_uniform_grid_is_exact(self):
        rng = np.random.default_rng(13)
        t = np.arange(200) * 15 / 3600
        v = rng.normal(0.0, 1.0, 200)
        v[60:140] = 3.7
        out = lowess_values(t, v, 0.3, 0)
        # window 60: rows 90..109 see only the stretch
        assert np.all(out[90:110] == 3.7)
        assert not np.any(out[:60] == 3.7)

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

    def test_affine_values(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            grid=st.sampled_from(["ticks", "jittered"]),
            offset=st.floats(-1e3, 1e3),
            # subnormal gains would leave no digits to compare
            gain=st.floats(-1e3, 1e3).filter(lambda g: g == 0.0 or abs(g) >= 1e-6),
        )
        def check(seed, grid, offset, gain):
            t, v, fraction = fuzzed_case(seed, 150, grid, 45, 1)
            base = lowess_values(t, v, fraction, 0)
            mapped = lowess_values(t, offset + gain * v, fraction, 0)
            scale = abs(offset) + abs(gain) * np.max(np.abs(v))
            assert np.max(np.abs(mapped - (offset + gain * base))) <= 1e-12 * scale

        check()

    def test_affine_time(self):
        # the uniform-grid interior path must not depend on where the grid
        # sits or on its unit
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            grid=st.sampled_from(["uniform", "ticks", "jittered"]),
            window=st.integers(2, 150),
            shift=st.floats(-1e3, 1e3),
            log_scale=st.floats(-6.0, 6.0),
        )
        def check(seed, grid, window, shift, log_scale):
            t, v, fraction = fuzzed_case(seed, 150, grid, window, 1)
            scale = 2.0**log_scale
            base = lowess_values(t, v, fraction, 0)
            moved = lowess_values(scale * (shift + t), v, fraction, 0)
            assert np.max(np.abs(moved - base)) <= 1e-9 * np.max(np.abs(v))

        check()


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
