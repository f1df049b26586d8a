"""Lowess behavior: exactness cases, oracle equivalence, equivariances."""

import math

import numpy as np
import pytest

from agekit import smoothing
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

    def test_fit_past_the_float_range_is_a_domain_error(self):
        # the last row's x variance overflows; dropping its slope would give
        # 0.78 where the fit on t / 1e150 gives 1
        t = [0.0, 1.2212970683030309e154, 4.0771947691569413e154]
        assert lowess_values(np.array(t) / 1e150, [0.0, 0.0, 1.0], 1.0, 0)[2] == 1.0
        with pytest.raises(DomainError, match="overflowed"):
            lowess_values(t, [0.0, 0.0, 1.0], 1.0, 0)

    def test_robust_pass_with_a_subnormal_residual_scale(self):
        # residual / (6 * scale) overflows near the outlier, whose window then
        # weighs 0 all the same; no floating-point warning may escape
        rng = np.random.default_rng(7)
        v = 1e-318 * rng.normal(0.0, 1.0, 100)
        v[50] = 1.0
        out = lowess_values(np.arange(100.0), v, 0.05, 1)
        assert out[50] == np.mean(v[48:53])


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

    def test_zeroed_robust_window_falls_back_to_window_mean(self):
        # after one robust pass every weight in the window of t=5 (the
        # outlier) is zero, so that row falls back to the window's plain mean
        t = np.arange(12, dtype=float)
        v = np.array([0.4, 0.9, -0.3, 0.8, -1.1, 20.6, -0.5, 0.7, 1.0, -0.7, -0.1, 0.0])
        ours = lowess_values(t, v, 0.3, 1)
        ref = np.array(reference_lowess(t, v, 0.3, 1))
        assert np.max(np.abs(ours - ref)) <= 1e-12

    def test_matches_reference_on_uniform_grid_with_ties(self):
        rng = np.random.default_rng(11)
        t = np.arange(60, dtype=float)
        v = np.cos(t / 6.0) + rng.normal(0.0, 0.1, 60)
        ours = lowess_values(t, v, 0.3, 1)
        ref = np.array(reference_lowess(t, v, 0.3, 1))
        assert np.max(np.abs(ours - ref)) <= 1e-9


def row_by_row_passes(t, values, fraction, robust_iterations):
    """The smoothed values after each pass, every fitted row by _windows and _fit_rows.

    The pass loop, constant rows and zero-radius rows are those of
    lowess_values, but no row shares weights with another: this is the
    oracle for the uniform-grid moment paths.
    """
    n = len(t)
    order = np.argsort(t, kind="stable")
    t = t[order]
    values = values[order]
    lo, hi, d_max = smoothing._windows(t, max(2, math.ceil(fraction * n)))
    smoothed = np.empty(n)
    fit = []
    for i in range(n):
        window = values[lo[i] : hi[i]]
        if np.all(window == window[0]):
            smoothed[i] = window[0]
        elif d_max[i] == 0.0:
            smoothed[i] = np.mean(window)
        else:
            fit.append(i)
    fit = np.array(fit, dtype=np.intp)
    robustness = None
    passes = []
    for _ in range(robust_iterations + 1):
        smoothed[fit] = smoothing._fit_rows(t, values, fit, lo, hi, d_max, robustness)
        out = np.empty(n)
        out[order] = smoothed
        passes.append(out)
        residuals = values - smoothed
        scale = np.median(np.abs(residuals))
        if scale == 0.0:
            break
        u = np.clip(residuals / (6.0 * scale), -1.0, 1.0)
        robustness = (1.0 - u**2) ** 2
    return passes


def uniform_case(seed, n, grid, outlier_share):
    """A random walk on a uniform grid with a share of its points thrown far off."""
    rng = np.random.default_rng(seed)
    ticks = np.arange(n)
    t = {
        "arange": ticks.astype(float),
        "ticks": ticks * 15 / 3600,
        "offset": 37.5 + ticks * 15 / 3600,
    }[grid]
    values = np.cumsum(rng.normal(0.0, 1.0, n))
    hit = rng.random(n) < outlier_share
    sign = rng.choice([-1.0, 1.0], int(hit.sum()))
    values[hit] += sign * rng.uniform(2.0, 20.0, int(hit.sum())) * (np.ptp(values) + 1.0)
    return t, values


def fitted_by_rows(monkeypatch, t, values, fraction, robust_iterations):
    """lowess_values' result and, per pass, the rows it handed to _fit_rows."""
    handed = []
    fit_rows = smoothing._fit_rows

    def recording(t, values, rows, *rest):
        handed.append(set(rows.tolist()))
        return fit_rows(t, values, rows, *rest)

    with monkeypatch.context() as patch:
        patch.setattr(smoothing, "_fit_rows", recording)
        out = lowess_values(t, values, fraction, robust_iterations)
    return out, handed


class TestSharedWeights:
    """On a uniform grid, rows fitted from shared weights match _fit_rows row by row."""

    def test_matches_row_by_row_fit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            # a second, wide range keeps most draws past the smallest sizes
            n=st.integers(3, 2000) | st.integers(200, 2000),
            grid=st.sampled_from(["arange", "ticks", "offset"]),
            fraction=st.floats(0.0, 1.0, exclude_min=True),
            iterations=st.integers(0, 3),
            outlier_share=st.sampled_from([0.0, 0.02, 0.2]),
        )
        def check(seed, n, grid, fraction, iterations, outlier_share):
            t, v = uniform_case(seed, n, grid, outlier_share)
            passes = row_by_row_passes(t, v, fraction, iterations)
            for done in passes[:iterations]:
                # the next pass is comparable only where its robustness weights
                # are not made of rounding noise (see TestOracleEquivalence);
                # a pass that fits every point exactly stops the oracle here
                hypothesis.assume(np.median(np.abs(v - done)) > 1e-6 * (np.ptp(v) + 1.0))
            ours = lowess_values(t, v, fraction, iterations)
            assert np.max(np.abs(ours - passes[-1])) <= 1e-10 * (np.ptp(v) + 1.0)

        check()

    def test_zeroed_robust_window_on_the_band_falls_back_to_window_mean(self, monkeypatch):
        # window 10: rows 0-4 see only points 0-9, and the weight at 9 is 0;
        # points 0-8 alternate far off, so one robust pass zeroes those rows,
        # which the first pass fitted from the shared band weights
        rng = np.random.default_rng(21)
        t = np.arange(40) * 15 / 3600
        v = rng.normal(0.0, 1.0, 40)
        v[:9] = [100.0, -100.0] * 4 + [100.0]
        ours, handed = fitted_by_rows(monkeypatch, t, v, 0.25, 1)
        assert not {0, 1, 2, 3, 4} & handed[0]
        assert {0, 1, 2, 3, 4} <= handed[-1]
        assert np.all(ours[:5] == np.mean(v[:10]))
        assert np.max(np.abs(ours - row_by_row_passes(t, v, 0.25, 1)[-1])) <= 1e-12 * np.ptp(v)

    def test_band_row_with_all_weight_at_one_place_goes_to_fit_rows(self, monkeypatch):
        # window 2: the edge rows weigh only themselves, so S0*S2 - S1^2 = 0
        rng = np.random.default_rng(22)
        t = np.arange(10, dtype=float)
        v = rng.normal(0.0, 1.0, 10)
        ours, handed = fitted_by_rows(monkeypatch, t, v, 0.2, 0)
        assert handed == [{0, 9}]
        assert ours[0] == v[0] and ours[9] == v[9]
        assert np.max(np.abs(ours - row_by_row_passes(t, v, 0.2, 0)[-1])) <= 1e-12

    def test_mirrored_rows_whose_windows_differ_go_to_fit_rows(self, monkeypatch):
        # the pairing is read off _windows' output, so a mirror row whose
        # window does not mirror row 0's must not share its weights
        windows = smoothing._windows

        def skewed(t, window):
            lo, hi, d_max = windows(t, window)
            lo[-1] -= 1
            return lo, hi, d_max

        monkeypatch.setattr(smoothing, "_windows", skewed)
        rng = np.random.default_rng(23)
        t = np.arange(60) * 15 / 3600
        v = np.cumsum(rng.normal(0.0, 1.0, 60))
        ours, handed = fitted_by_rows(monkeypatch, t, v, 0.3, 0)
        assert {0, 59} <= handed[0] and 1 not in handed[0]
        assert np.max(np.abs(ours - row_by_row_passes(t, v, 0.3, 0)[-1])) <= 1e-12 * np.ptp(v)


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
