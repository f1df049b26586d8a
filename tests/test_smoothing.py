"""Lowess behavior: exactness cases, oracle equivalence, equivariances."""

import hashlib
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


def scanned_windows(t, window):
    """lo, hi and d_max of every row of sorted t by a full scan of the computed |t_j - t_i|.

    d_max is the window-th smallest distance, and [lo, hi) holds every point
    within it.
    """
    n = len(t)
    lo, hi, d_max = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp), np.empty(n)
    for i in range(n):
        distances = np.abs(t - t[i])
        d_max[i] = np.sort(distances)[window - 1]
        inside = np.flatnonzero(distances <= d_max[i])
        lo[i], hi[i] = inside[0], inside[-1] + 1
        assert hi[i] - lo[i] == len(inside)  # sorted t: a contiguous run
    return lo, hi, d_max


class TestWindows:
    """_windows' checked guesses and bisections against the definition."""

    def test_matches_a_full_scan(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            n=st.integers(3, 150),
            grid=st.sampled_from(["ties", "duplicated", "jittered", "offset"]),
            exponent=st.integers(-8, 8),
            # None is a window of 2
            fraction=st.sampled_from([None, 1.0]) | st.floats(0.0, 1.0, exclude_min=True),
        )
        def check(seed, n, grid, exponent, fraction):
            rng = np.random.default_rng(seed)
            t = {
                # a few integer places, so most distances tie
                "ties": lambda: rng.integers(0, max(2, n // 8), n).astype(float),
                "duplicated": lambda: np.repeat(rng.uniform(0.0, 1.0, n), rng.integers(1, 4, n)),
                "jittered": lambda: np.arange(n) + rng.uniform(-0.5, 0.5, n),
                # distances cancel against a large offset
                "offset": lambda: 1e6 + 0.1 * rng.integers(0, n, n),
            }[grid]()
            t = np.sort(t) * 10.0**exponent
            window = 2 if fraction is None else max(2, math.ceil(fraction * len(t)))
            for ours, scanned in zip(smoothing._windows(t, window), scanned_windows(t, window)):
                assert np.array_equal(ours, scanned)

        check()

    def test_bounds_never_fall_and_uniform_windows_stay_in_their_radius(self):
        # the block planner reads a run's union off its first and last row, and
        # the uniform interior takes the shared kernel without checking bounds
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            n=st.integers(12, 1500),
            grid=st.sampled_from(
                ["irregular", "ties", "tie runs", "gap", "ticks", "offset", "arange", "jittered"]
            ),
            fraction=st.floats(1 / 64, 1.0),
        )
        def check(seed, n, grid, fraction):
            if grid in ("irregular", "ties", "tie runs", "gap"):
                t = wide_case(grid, n)[0]
            else:
                t = outlier_case(seed, n, grid, 0.0)[0]
            window = max(2, math.ceil(fraction * len(t)))
            lo, hi, _ = smoothing._windows(t, window)
            assert np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)
            half = window // 2
            if smoothing._is_uniform(t, half):
                rows = np.arange(half, len(t) - half)
                assert np.all(lo[rows] >= rows - half) and np.all(hi[rows] <= rows + half + 1)

        check()

    def test_ties_past_the_window_are_found_by_bisection(self):
        # window 2: row 0's radius is 1, so all four points at 1.0 enter its
        # window, and rows 1-4 have radius 0 with the same four points; each
        # window holds more than the 2 points of the block its bounds are
        # guessed from, so those guesses miss and the rows bisect
        t = np.array([0.0, 1.0, 1.0, 1.0, 1.0, 2.0])
        lo, hi, d_max = smoothing._windows(t, 2)
        assert np.all(hi[:5] - lo[:5] > 2)
        for ours, scanned in zip((lo, hi, d_max), scanned_windows(t, 2)):
            assert np.array_equal(ours, scanned)

    def test_first_true_does_not_depend_on_the_guess(self):
        # a threshold predicate is monotone over any range: its first true
        # index in [lo, hi) is the threshold clipped to the range, whatever
        # is guessed
        rng = np.random.default_rng(26)
        lo = rng.integers(0, 50, 200)
        hi = lo + rng.integers(0, 50, 200)
        threshold = rng.integers(-5, 105, 200)
        expected = np.clip(threshold, lo, hi)
        for guess in (lo, hi, threshold, rng.integers(-10, 120, 200)):
            found = smoothing._first_true(lambda r, k: k >= threshold[r], lo, hi, 200, guess)
            assert np.array_equal(found, expected)


def row_by_row_passes(t, values, fraction, robust_iterations):
    """The smoothed values after each pass, every fitted row by _windows and _fit_row.

    The pass loop, constant rows and zero-radius rows are those of
    lowess_values, but every row is fitted alone by the centred second pass:
    this is the oracle for the moment paths.
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
        for i in fit:
            smoothed[i] = smoothing._fit_row(t, values, i, lo, hi, d_max, robustness)
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


def outlier_case(seed, n, grid, outlier_share):
    """A random walk with a share of its points thrown far off.

    The irregular grids face the block moments with gaps and ties.
    """
    rng = np.random.default_rng(seed)
    ticks = np.arange(n)
    t = {
        "arange": ticks.astype(float),
        "ticks": ticks * 15 / 3600,
        "offset": 37.5 + ticks * 15 / 3600,
        "jittered": ticks + rng.uniform(-0.3, 0.3, n),
        "duplicates": np.sort(rng.integers(0, max(2, n // 3), n)).astype(float),
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
    """Rows fitted from shared weights or block moments match the per-row centred fit."""

    def test_matches_row_by_row_fit(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1),
            # a second, wide range keeps most draws past the smallest sizes
            n=st.integers(3, 2000) | st.integers(200, 2000),
            grid=st.sampled_from(["arange", "ticks", "offset", "jittered", "duplicates"]),
            fraction=st.floats(0.0, 1.0, exclude_min=True),
            iterations=st.integers(0, 3),
            outlier_share=st.sampled_from([0.0, 0.02, 0.2]),
        )
        def check(seed, n, grid, fraction, iterations, outlier_share):
            t, v = outlier_case(seed, n, grid, outlier_share)
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

    def test_block_across_a_gap_refits_its_rows_with_their_slopes(self, monkeypatch):
        # one block spans both clusters, so about the middle of its t every
        # row's moments cancel past _CONDITION_FLOOR and each row goes to
        # _fit_row; the second cluster's slope of 2000 fails a fallback that
        # keeps only the weighted mean
        rng = np.random.default_rng(24)
        t = np.concatenate([np.linspace(0.0, 1.0, 50), np.linspace(1000.0, 1000.001, 50)])
        v = np.concatenate([np.sin(3.0 * t[:50]), 2000.0 * (t[50:] - 1000.0)])
        v += rng.normal(0.0, 0.1, 100)
        refitted = []
        fit_row = smoothing._fit_row

        def recording(t, values, i, *rest):
            refitted.append(int(i))
            return fit_row(t, values, i, *rest)

        with monkeypatch.context() as patch:
            patch.setattr(smoothing, "_fit_row", recording)
            ours = lowess_values(t, v, 0.3, 0)
        assert sorted(refitted) == list(range(100))
        # every window stays in its cluster; the reference fits each cluster
        # where its t are small, so its centred sums lose no digits to t
        ref = np.concatenate(
            [reference_lowess(t, v, 0.3)[:50], reference_lowess(t - 1000.0, v, 0.3)[50:]]
        )
        assert np.max(np.abs(ours - ref)) <= 1e-12 * np.max(np.abs(v))

    def test_weight_at_one_other_point_takes_its_value(self):
        # window 13 on a tick grid: after one robust pass row 22's window
        # weighs row 19 by 0.63 and row 16, at d_max up to rounding, by 3e-45;
        # a slope through the two is made of rounding error (it put the
        # row-by-row fit at -9.41 and the block moments at -7.20)
        t, v = outlier_case(0, 820, "ticks", 0.02)
        passes = row_by_row_passes(t, v, 0.015625, 1)
        ours = lowess_values(t, v, 0.015625, 1)
        assert passes[-1][22] == pytest.approx(v[19], rel=1e-15)
        assert ours[22] == pytest.approx(v[19], rel=1e-15)
        assert np.max(np.abs(ours - passes[-1])) <= 1e-10 * (np.ptp(v) + 1.0)

    def test_moments_with_spread_under_the_floor_are_ill_posed(self):
        # weight 1 at the block centre and 1e-30 at x = 1: the moments do not
        # cancel past _CONDITION_FLOOR, but the spread is 1e-15 of the radius
        for radius, ok in ((1.0, False), (1e-4, True)):
            # s0, s1, s2, sy, sxy, x0, radius
            row = [np.array([m]) for m in (1.0, 1e-30, 1e-30, 2.0, 3e-30, 0.0, radius)]
            _, posed = smoothing._line_at(*row)
            assert posed.tolist() == [ok]


def chunked_band_fit(monkeypatch, t, values, fraction):
    """lowess_values' first pass, the rows it handed to _fit_rows and the band's chunk count."""
    chunks = []
    lines = smoothing._lines

    def recording(t, ys, rows, lo, hi, *rest):
        if ys.shape[1] == 2:  # the mirrored band: values and values[::-1]
            width = int(np.max(hi[rows] - lo[rows]))
            chunk = smoothing._chunk_length(width)
            chunks.append(width // chunk if chunk else 1)
        return lines(t, ys, rows, lo, hi, *rest)

    monkeypatch.setattr(smoothing, "_lines", recording)
    ours, handed = fitted_by_rows(monkeypatch, t, values, fraction, 0)
    assert len(chunks) == 1
    return ours, handed[0], chunks[0]


class TestChunkedBands:
    """Edge bands weighed through chunk power sums match the per-row centred fit.

    From 8 chunks on (a band 512 points wide) a band row weighs every chunk but
    its own and the one holding its last weighted point through the chunk's
    power sums; here most rows have such chunks on both sides.
    """

    @pytest.mark.parametrize(
        "grid,n,fraction",
        [
            ("ticks", 3000, 1.0),
            ("ticks", 3700, 0.55),
            ("offset", 4500, 0.3),
            ("ticks", 6000, 0.1),
            # window 1 200 on exact distances: the windows of rows 600 to 3 399
            # tie at d_max and hold 1 201 points, up to the bands' edges
            ("arange", 4000, 0.3),
        ],
    )
    def test_bands_match_row_by_row_fit(self, monkeypatch, grid, n, fraction):
        rng = np.random.default_rng(n)
        t = {"ticks": np.arange(n) * 15 / 3600, "offset": 37.5 + np.arange(n) * 15 / 3600}.get(
            grid, np.arange(n, dtype=float)
        )
        v = np.cumsum(rng.normal(0.0, 1.0, n)) + 0.01 * np.arange(n)
        ours, handed, chunks = chunked_band_fit(monkeypatch, t, v, fraction)
        half = math.ceil(fraction * n) // 2
        assert chunks >= 8
        assert not handed & (set(range(half)) | set(range(n - half, n)))
        expected = row_by_row_passes(t, v, fraction, 0)[-1]
        assert np.max(np.abs(ours - expected)) <= 1e-12 * np.ptp(v)

    def test_rows_whose_mirrors_differ_leave_gaps_in_the_band(self, monkeypatch):
        # the mirrors of rows 0, 400 and 401 get windows that do not mirror
        # theirs, so those pairs go to _fit_rows and the band rows around them
        # keep their chunks
        n = 3500
        skewed_rows = (n - 1, n - 401, n - 402)
        windows = smoothing._windows

        def skewed(t, window):
            lo, hi, d_max = windows(t, window)
            lo[list(skewed_rows)] -= 1
            return lo, hi, d_max

        monkeypatch.setattr(smoothing, "_windows", skewed)
        rng = np.random.default_rng(25)
        t = np.arange(n) * 15 / 3600
        v = np.sin(t) + rng.normal(0.0, 0.3, n)
        ours, handed, chunks = chunked_band_fit(monkeypatch, t, v, 0.4)
        assert chunks >= 8
        paired = {0, 400, 401, *skewed_rows}
        assert handed & set(range(700)) == {0, 400, 401} and paired <= handed
        expected = row_by_row_passes(t, v, 0.4, 0)[-1]
        assert np.max(np.abs(ours - expected)) <= 1e-12 * np.ptp(v)


def wide_case(grid, n):
    """A random walk with 2 % of its points thrown 30 up, on a grid with gaps or ties."""
    rng = np.random.default_rng(n)
    half = n // 2
    t = {
        "irregular": lambda: np.cumsum(rng.uniform(20.0, 100.0, n)) / 3600,
        "ties": lambda: np.sort(rng.integers(0, n // 3, n)).astype(float),
        "duplicates": lambda: np.repeat(np.cumsum(rng.uniform(1.0, 2.0, n // 4)), 4),
        # tie runs longer than a window: their rows have a zero radius
        "tie runs": lambda: np.repeat(np.arange(6.0), n // 6),
        # windows cross the gap, and so does the chunk holding its two sides
        "gap": lambda: np.sort(np.append(rng.uniform(0.0, 1.0, half), rng.uniform(2.0, 3.0, half))),
    }[grid]()
    values = np.cumsum(rng.normal(0.0, 1.0, n)) + 0.01 * np.arange(n)
    values[rng.random(n) < 0.02] += 30.0
    return t, values


class TestChunkedKernel:
    """Windows many chunks wide, on any grid and in robust passes, match the per-row centred fit.

    Each row weighs the chunks inside its window, but those holding a row of
    its block or a window's end, through power sums about each chunk's own
    centre and half-span; the robust passes weigh those sums by delta.
    """

    @pytest.mark.parametrize("iterations", [0, 1, 2])
    @pytest.mark.parametrize(
        "grid,n,fraction",
        [
            ("irregular", 4000, 0.3),
            ("ties", 3000, 0.6),
            ("duplicates", 2400, 0.5),
            ("tie runs", 6000, 0.1),
            ("gap", 3000, 0.6),
        ],
    )
    def test_matches_row_by_row_fit(self, grid, n, fraction, iterations):
        t, v = wide_case(grid, n)
        window = math.ceil(fraction * n)
        assert window >= 8 * smoothing._chunk_length(window) > 0
        expected = row_by_row_passes(t, v, fraction, iterations)[-1]
        ours = lowess_values(t, v, fraction, iterations)
        assert np.max(np.abs(ours - expected)) <= 1e-12 * np.ptp(v)

    def test_irregular_series_keeps_its_bits(self):
        # a fit-irregular sized series: its windows of 150 points make one chunk,
        # so every block is one weight matrix over its union; the digests hold
        # where BLAS rounds that product as on the host they were taken on
        rng = np.random.default_rng(0)
        product = rng.random((60, 300)) @ np.random.default_rng(1).random((300, 5))
        if hashlib.sha256(product.tobytes()).hexdigest()[:16] != "b98e9338d12b1230":
            pytest.skip("BLAS rounds the block product differently here than where it was pinned")
        rng = np.random.default_rng(500)
        t = np.cumsum(rng.uniform(20.0, 100.0, 500)) / 3600.0
        v = 300.0 + 40.0 * t**0.8 * rng.uniform(0.98, 1.02, 500)
        pins = {
            0: "f29def685c0c61276e3f319371ab97c499873cc441f1d5315fd913356fe6e1a1",
            2: "2effe60d401745e6fdef0388c5864b0ef849b9fa9f6d1151e5740fe47383fe30",
        }
        for iterations, digest in pins.items():
            out = lowess_values(t, v, 0.3, iterations)
            assert hashlib.sha256(out.tobytes()).hexdigest() == digest


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
