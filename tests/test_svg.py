"""Unit tests for the dependency-free SVG chart renderer."""

import hashlib
import math
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from agekit import svg
from agekit.cli import main
from agekit.errors import DomainError
from agekit.svg import Panel, Series, format_tick, nice_ticks, render_chart

SVG_NS = "{http://www.w3.org/2000/svg}"


def sample_chart():
    x = np.linspace(0.0, 4000.0, 60)
    panels = (
        Panel(
            title="bandwidth <per client> & load",
            x_label="tick",
            y_label="kbyte/s",
            series=(
                Series("observed", x, 120.0 - 0.02 * x),
                Series("fitted", x, 118.0 - 0.02 * x, dashed=True),
            ),
            vline=3000.0,
            vline_label="rejuvenation",
        ),
        Panel(
            title="disk queue",
            x_label="tick",
            y_label="requests",
            series=(Series("queue", x, 0.001 * x**1.3),),
        ),
    )
    return render_chart(panels)


class TestNiceTicks:
    def test_thousands_ladder(self):
        assert nice_ticks(0.0, 4000.0) == [0.0, 1000.0, 2000.0, 3000.0, 4000.0]

    def test_twenty_step(self):
        assert nice_ticks(17.0, 113.0) == [20.0, 40.0, 60.0, 80.0, 100.0]

    def test_degenerate_span_pads(self):
        assert nice_ticks(5.0, 5.0) == [4.0, 4.5, 5.0, 5.5, 6.0]

    def test_reversed_bounds(self):
        assert nice_ticks(10.0, 0.0) == nice_ticks(0.0, 10.0)

    def test_zero_tick_snaps_clean(self):
        # crossing zero must produce 0.0 exactly, not residue like 5.6e-17
        ticks = nice_ticks(-0.3, 0.3)
        assert 0.0 in ticks
        assert all(abs(t) >= 0.1 or t == 0.0 for t in ticks)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError, match="tick range must be finite"):
            nice_ticks(0.0, float("inf"))

    def test_span_under_an_ulp_pads_like_a_degenerate_one(self):
        # a step of ~4e-17 does not move 1.0, so stepping from it never ended
        assert nice_ticks(1.0, 1.0000000000000002) == nice_ticks(1.0, 1.0)
        # subnormal spans: the step underflows to 0, or its power of ten does
        assert nice_ticks(0.0, 5e-324) == nice_ticks(0.0, 0.0)
        assert nice_ticks(0.0, 2.5e-323) == nice_ticks(0.0, 0.0)

    def test_overflowing_span(self):
        # hi - lo is inf here; each tick's share of it is not
        assert nice_ticks(-1e308, 1e308) == [-1e308, -5e307, 0.0, 5e307, 1e308]
        top = sys.float_info.max
        assert nice_ticks(-top, top) == [-1e308, 0.0, 1e308]
        assert nice_ticks(top, top)[-1] <= top

    def test_short_ascending_cover_of_any_finite_range(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite = st.floats(allow_nan=False, allow_infinity=False)

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(finite, finite, st.booleans())
        def check(a, b, neighbour):
            if neighbour:
                b = math.nextafter(a, math.inf)
                hypothesis.assume(math.isfinite(b))
            lo, hi = min(a, b), max(a, b)
            ticks = nice_ticks(a, b)
            assert 2 <= len(ticks) <= 12
            assert all(math.isfinite(t) for t in ticks)
            assert all(u < v for u, v in zip(ticks, ticks[1:]))
            # no end of [lo, hi] lies more than one step from a tick
            step = ticks[1] - ticks[0]
            assert ticks[0] <= lo + step * (1 + 1e-9)
            assert ticks[-1] >= hi - step * (1 + 1e-9)

        check()

    def test_format_tick(self):
        assert format_tick(-0.0) == "0"
        assert format_tick(1000.0) == "1000"
        assert format_tick(0.123456789) == "0.123457"


class TestValidation:
    def test_series_shape_mismatch(self):
        with pytest.raises(DomainError, match="1-D and equally long"):
            Series("a", np.arange(3.0), np.arange(4.0))
        with pytest.raises(DomainError, match="1-D and equally long"):
            Series("a", np.zeros((2, 2)), np.zeros(4))

    def test_series_empty(self):
        with pytest.raises(DomainError, match="must not be empty"):
            Series("a", np.array([]), np.array([]))

    def test_series_non_finite(self):
        with pytest.raises(DomainError, match="must be finite"):
            Series("a", np.arange(3.0), np.array([1.0, np.nan, 2.0]))

    def test_panel_needs_series(self):
        with pytest.raises(DomainError, match="at least one series"):
            Panel(title="t", x_label="x", y_label="y", series=())

    def test_chart_needs_panels(self):
        with pytest.raises(DomainError, match="at least one panel"):
            render_chart(())


class TestRenderChart:
    def test_well_formed_xml_with_namespace(self):
        root = ET.fromstring(sample_chart())
        assert root.tag == f"{SVG_NS}svg"

    def test_dimensions_stack_panels(self):
        root = ET.fromstring(sample_chart())
        assert root.get("width") == "760"
        assert root.get("height") == "460"
        assert root.get("viewBox") == "0 0 760 460"

    def test_one_polyline_per_series(self):
        root = ET.fromstring(sample_chart())
        polylines = root.findall(f".//{SVG_NS}polyline")
        assert len(polylines) == 3
        dashed = [p for p in polylines if p.get("stroke-dasharray")]
        assert len(dashed) == 1

    def test_vline_marker_and_label(self):
        root = ET.fromstring(sample_chart())
        # vertical red dashed rule; legend swatches are horizontal
        red_dashed = [
            el
            for el in root.findall(f".//{SVG_NS}line")
            if el.get("stroke") == "#d62728"
            and el.get("stroke-dasharray")
            and el.get("x1") == el.get("x2")
        ]
        assert len(red_dashed) == 1
        labels = [el.text for el in root.findall(f".//{SVG_NS}text")]
        assert "rejuvenation" in labels

    def test_numeric_tick_labels_on_both_axes(self):
        root = ET.fromstring(sample_chart())
        numeric = []
        for el in root.findall(f".//{SVG_NS}text"):
            try:
                numeric.append(float(el.text))
            except (TypeError, ValueError):
                continue
        # two panels, each with x and y tick labels
        assert len(numeric) >= 16
        assert 0.0 in numeric and 4000.0 in numeric

    def test_special_characters_escaped(self):
        text = sample_chart()
        assert "bandwidth <per client>" not in text
        assert "bandwidth &lt;per client&gt; &amp; load" in text
        # parses back to the original title
        root = ET.fromstring(text)
        titles = [el.text for el in root.findall(f".//{SVG_NS}text")]
        assert "bandwidth <per client> & load" in titles

    def test_render_is_deterministic(self):
        assert sample_chart() == sample_chart()

    def test_flat_series_still_renders(self):
        # constant data must not divide by a zero span
        panel = Panel(
            title="flat",
            x_label="x",
            y_label="y",
            series=(Series("c", np.array([5.0]), np.array([2.0])),),
        )
        root = ET.fromstring(render_chart((panel,), width=400, panel_height=200))
        assert root.get("height") == "200"
        assert root.findall(f".//{SVG_NS}polyline")

    def test_span_under_an_ulp_renders(self):
        series = Series("c", np.array([0.0, 1.0]), np.array([1.0, 1.0000000000000002]))
        text = render_chart((Panel("narrow", "x", "y", (series,)),))
        assert len(ET.fromstring(text).findall(f".//{SVG_NS}polyline")) == 1

    def test_span_under_an_ulp_draws_flat_with_ticks_on_the_canvas(self):
        series = Series("c", np.array([0.0, 1.0]), np.array([1.0, 1.0000000000000002]))
        text = render_chart((Panel("narrow", "x", "y", (series,)),), width=400, panel_height=200)
        root = ET.fromstring(text)
        (line,) = polylines(text)
        heights = {point.split(",")[1] for point in line}
        assert len(heights) == 1
        # y tick labels are right-anchored left of the plot; all must sit on the canvas
        y_labels = [el for el in root.findall(f".//{SVG_NS}text") if el.get("text-anchor") == "end"]
        assert len(y_labels) >= 2
        assert all(0.0 <= float(el.get("y")) <= 200.0 for el in y_labels)

    def test_narrow_x_span_puts_ticks_on_the_canvas(self):
        series = Series("c", np.array([1.0, 1.0000000000000002]), np.array([0.0, 1.0]))
        root = ET.fromstring(render_chart((Panel("narrow", "x", "y", (series,)),), width=400))
        x_labels = [el for el in root.findall(f".//{SVG_NS}text") if el.get("text-anchor") == "middle"]
        ticks = [el for el in x_labels if el.text not in ("x", "narrow")]
        assert len(ticks) >= 2
        assert all(0.0 <= float(el.get("x")) <= 400.0 for el in ticks)


# sha256 computed at commit 930f2cf, before series past 4 points per pixel
# column were M4-reduced; charts whose series are all at or under that cap
# keep these bytes.
SAMPLE_CHART_SHA256 = "39d41a9961ee27ab3084f80cd582c0e5302e73e77ca90ed998fde0b826a8f156"
# simulate --ticks 2719 --seed 0 --svg: 2 720 points per series, exactly the
# cap at the default width
TRACE_2720_SHA256 = "0e65de9313f89235bc270c185f2ea3067f41701c96d6634bc9b3f7f064bf04cb"

NARROW = 100  # plot area 20 px wide: 20 columns, a cap of 80 points per series
COLUMNS = NARROW - int(svg.MARGIN_LEFT + svg.MARGIN_RIGHT)


def polylines(text):
    """Each polyline's points as a list of "x,y" strings."""
    root = ET.fromstring(text)
    return [p.get("points").split(" ") for p in root.findall(f".//{SVG_NS}polyline")]


def one_series_chart(x, y):
    return render_chart((Panel("t", "x", "y", (Series("s", x, y),)),), width=NARROW)


def column_runs(x):
    """Index runs of consecutive points in one 1-px column, as the renderer bins them."""
    x_lo, x_hi = svg._data_range(x, 0.0)
    plot_w = float(COLUMNS)
    pixel = svg.MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w
    column = np.minimum(np.floor(pixel - svg.MARGIN_LEFT), COLUMNS - 1)
    edges = np.flatnonzero(column[1:] != column[:-1]) + 1
    return np.split(np.arange(len(x)), edges)


def is_subsequence(short, full):
    rest = iter(full)
    return all(point in rest for point in short)


class TestPixelResolution:
    def test_sample_chart_bytes_unchanged(self):
        assert hashlib.sha256(sample_chart().encode()).hexdigest() == SAMPLE_CHART_SHA256

    def test_trace_chart_at_the_cap_bytes_unchanged(self, tmp_path):
        chart = tmp_path / "trace.svg"
        argv = ["simulate", "--ticks", "2719", "--seed", "0", "-o", str(tmp_path / "t.csv")]
        assert main(argv + ["--svg", str(chart)]) == 0
        assert hashlib.sha256(chart.read_bytes()).hexdigest() == TRACE_2720_SHA256

    def test_series_at_the_cap_is_drawn_point_for_point(self):
        x = np.arange(4.0 * COLUMNS)
        (points,) = polylines(one_series_chart(x, np.sin(x)))
        assert len(points) == len(x)

    def test_point_cap_for_non_decreasing_x(self):
        rng = np.random.default_rng(0)
        x = np.sort(rng.uniform(0.0, 50.0, 5_000))
        y = rng.normal(size=(3, len(x)))
        panel = Panel("t", "x", "y", tuple(Series(str(i), x, row) for i, row in enumerate(y)))
        lines = polylines(render_chart((panel,), width=NARROW))
        assert len(lines) == 3
        assert all(len(points) <= 4 * COLUMNS for points in lines)

    def test_m4_keeps_each_runs_first_last_and_extremes(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        hnp = pytest.importorskip("hypothesis.extra.numpy")
        sizes = st.integers(4 * COLUMNS + 1, 240)
        values = st.floats(-1e3, 1e3)

        @st.composite
        def series(draw):
            n = draw(sizes)
            shape = draw(st.sampled_from(["sorted", "unsorted", "duplicate-x"]))
            # duplicate-x draws from a few values; y mixes in two levels to force tied extremes
            x_values = st.integers(0, 30).map(float) if shape == "duplicate-x" else values
            x = draw(hnp.arrays(float, n, elements=x_values))
            if shape != "unsorted":
                x = np.sort(x)
            y = draw(hnp.arrays(float, n, elements=st.one_of(values, st.sampled_from([0.0, 1.0]))))
            return x, y

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(series())
        def check(xy):
            x, y = xy
            (kept,) = polylines(one_series_chart(x, y))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(svg, "_m4_indices", lambda column, y: np.arange(len(y)))
                (full,) = polylines(one_series_chart(x, y))
            assert len(full) == len(x)
            assert is_subsequence(kept, full)
            kept = set(kept)
            for run in column_runs(x):
                assert full[run[0]] in kept and full[run[-1]] in kept
                for extreme in (np.min, np.max):
                    hits = run[y[run] == extreme(y[run])]
                    assert any(full[i] in kept for i in hits)

        check()

    def test_long_simulation_chart_is_small(self, tmp_path):
        chart = tmp_path / "trace.svg"
        argv = ["simulate", "--ticks", "16000", "--seed", "0", "-o", str(tmp_path / "t.csv")]
        assert main(argv + ["--svg", str(chart)]) == 0
        assert chart.stat().st_size < 400_000
        lines = polylines(chart.read_text())
        # bandwidth, working set, cache, stale, queue
        assert len(lines) == 5
        assert all(len(points) <= 4 * 680 for points in lines)
