"""Aging-degree normalization: affine maps, orientations, curve invariants."""

import warnings

import numpy as np
import pytest

from agekit.errors import DomainError
from agekit.normalize import AgingCurve, normalize_only, to_aging_curve
from agekit.timeseries import MetricSeries, Orientation

HIGHER = Orientation.HIGHER_IS_WORSE
LOWER = Orientation.LOWER_IS_WORSE


class TestNormalizeOnly:
    def test_two_point_higher_is_worse(self):
        assert list(normalize_only([0.0, 10.0], HIGHER)) == [0.0, 1.0]

    def test_two_point_lower_is_worse(self):
        assert list(normalize_only([0.0, 10.0], LOWER)) == [1.0, 0.0]

    def test_hand_computed_three_point(self):
        out = normalize_only([1.0, 2.0, 4.0], HIGHER)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(1.0 / 3.0, abs=0.0)
        assert out[2] == 1.0

    def test_orientations_are_mirror_images(self):
        values = np.array([3.0, 7.5, 4.2, 9.0, 3.3])
        up = normalize_only(values, HIGHER)
        down = normalize_only(values, LOWER)
        assert np.max(np.abs((1.0 - up) - down)) < 1e-15

    def test_extremes_attained(self):
        rng = np.random.default_rng(0)
        values = rng.normal(0, 5, 200)
        for orientation in (HIGHER, LOWER):
            out = normalize_only(values, orientation)
            assert out.min() == 0.0
            assert out.max() == 1.0

    def test_argmax_tracks_orientation(self):
        values = np.array([5.0, 1.0, 9.0, 4.0])
        assert int(np.argmax(normalize_only(values, HIGHER))) == int(np.argmax(values))
        assert int(np.argmax(normalize_only(values, LOWER))) == int(np.argmin(values))

    def test_idempotent_on_normalized_data(self):
        values = normalize_only(np.array([4.0, 1.0, 7.0, 2.0]), HIGHER)
        again = normalize_only(values, HIGHER)
        assert np.array_equal(again, values)

    def test_affine_invariance(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-3, 3, 50)
        base = normalize_only(values, HIGHER)
        for a, b in [(2.0, 0.0), (0.5, 10.0), (3.7, -2.2)]:
            mapped = normalize_only(a * values + b, HIGHER)
            assert np.max(np.abs(mapped - base)) < 1e-12

    def test_constant_input_degenerate(self):
        with pytest.raises(DomainError, match="degenerate series"):
            normalize_only([5.0, 5.0, 5.0], HIGHER)

    def test_too_short(self):
        with pytest.raises(DomainError, match="at least 2"):
            normalize_only([1.0], HIGHER)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError, match="non-finite"):
            normalize_only([1.0, float("nan")], HIGHER)

    def test_orientation_must_be_an_orientation(self):
        with pytest.raises(DomainError, match="unknown orientation: 'higher-is-worse'"):
            normalize_only([1.0, 2.0], "higher-is-worse")

    def test_span_beyond_float_range(self):
        # high - low overflows; the map must still give exact endpoints
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            up = normalize_only([-1e308, 0.0, 1e308], HIGHER)
            down = normalize_only([-1e308, 0.0, 1e308], LOWER)
        assert list(up) == [0.0, 0.5, 1.0]
        assert list(down) == [1.0, 0.5, 0.0]

    def test_range_and_extremes_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=30),
            st.sampled_from([HIGHER, LOWER]),
        )
        def check(values, orientation):
            hypothesis.assume(min(values) != max(values))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = normalize_only(values, orientation)
            assert np.all((out >= 0.0) & (out <= 1.0))
            assert out.min() == 0.0
            assert out.max() == 1.0

        check()


class TestAgingCurve:
    def test_valid_curve(self):
        c = AgingCurve(source_name="s", t=[1.0, 2.0, 3.0], y=[0.0, 0.5, 1.0])
        assert len(c) == 3
        assert c.source_name == "s"

    def test_zero_time_rejected(self):
        with pytest.raises(DomainError, match="strictly positive"):
            AgingCurve(source_name="s", t=[0.0, 1.0], y=[0.0, 1.0])

    def test_out_of_range_y_rejected(self):
        with pytest.raises(DomainError, match=r"\[0, 1\]"):
            AgingCurve(source_name="s", t=[1.0, 2.0], y=[0.0, 1.5])

    def test_non_increasing_times_rejected(self):
        with pytest.raises(DomainError):
            AgingCurve(source_name="s", t=[2.0, 1.0], y=[0.0, 1.0])

    @pytest.mark.parametrize(
        "t, y, message",
        [
            ([1.0, 2.0], [0.0], "matching one-dimensional t and y"),
            ([1.0], [0.5], "at least 2 samples, got 1"),
        ],
    )
    def test_shape_rejected(self, t, y, message):
        with pytest.raises(DomainError, match=message):
            AgingCurve(source_name="s", t=t, y=y)

    def test_unchecked_bypasses_validation(self):
        c = AgingCurve.unchecked("synthetic", t=[1.0, 2.0], y=[0.0, 7.0])
        assert c.y[1] == 7.0

    def test_arrays_read_only(self):
        c = AgingCurve(source_name="s", t=[1.0, 2.0], y=[0.0, 1.0])
        with pytest.raises(ValueError):
            c.y[0] = 0.5


class TestToAgingCurve:
    def smooth_series(self, t, values, orientation):
        return MetricSeries(name="m", orientation=orientation, t=t, values=values)

    def test_already_smooth_higher_is_worse(self):
        s = self.smooth_series([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], HIGHER)
        c = to_aging_curve(s)
        assert np.max(np.abs(c.y - [0.0, 0.5, 1.0])) < 1e-9

    def test_already_smooth_lower_is_worse(self):
        s = self.smooth_series([1.0, 2.0, 3.0], [2.0, 4.0, 6.0], LOWER)
        c = to_aging_curve(s)
        assert np.max(np.abs(c.y - [1.0, 0.5, 0.0])) < 1e-9

    def test_constant_series_degenerate(self):
        s = self.smooth_series([1.0, 2.0, 3.0], [5.0, 5.0, 5.0], HIGHER)
        with pytest.raises(DomainError, match="degenerate"):
            to_aging_curve(s)

    def test_t_zero_dropped_after_normalizing(self):
        # the sample at t=0 holds the minimum, so dropping it before
        # normalizing would move the extremes; dropping after keeps y
        # anchored to the full smoothed series
        t = np.array([0.0, 1.0, 2.0, 3.0])
        s = self.smooth_series(t, [1.0, 2.0, 3.0, 4.0], HIGHER)
        c = to_aging_curve(s)
        assert len(c) == 3
        assert c.t[0] == 1.0
        assert c.y[0] == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert c.y[-1] == pytest.approx(1.0, abs=1e-12)

    def test_source_name_carried(self):
        s = self.smooth_series([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], HIGHER)
        assert to_aging_curve(s).source_name == "m"

    def test_smoothing_applied(self):
        rng = np.random.default_rng(4)
        t = np.linspace(1.0, 50.0, 120)
        ramp = t / 50.0
        noisy = ramp + rng.normal(0, 0.15, 120)
        s = self.smooth_series(t, noisy, HIGHER)
        c = to_aging_curve(s)
        raw = normalize_only(noisy, HIGHER)
        # smoothing must shrink the wiggle relative to normalizing raw data
        assert np.std(np.diff(c.y)) < 0.5 * np.std(np.diff(raw))
