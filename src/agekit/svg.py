"""Dependency-free SVG line charts.

Charts are built as vertically stacked panels. Each panel draws its own
axes with numeric tick labels, one polyline per series, a small legend,
and an optional dashed vertical marker (used for rejuvenation ticks).
The output is a complete, well-formed SVG document.

A series past 4 points per 1-px column of the plot area (2 720 points at
the default width) is M4-reduced before it is drawn: each column keeps its
first, last, min-y and max-y point, which rasterises as the full series
does. A series at or under that cap is drawn point for point.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")

MARGIN_LEFT = 64.0
MARGIN_RIGHT = 16.0
MARGIN_TOP = 28.0
MARGIN_BOTTOM = 40.0

FONT = 'font-family="sans-serif" font-size="11"'


def escape(text):
    """Escape &, < and > for SVG text content (attribute quotes are left alone)."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass(frozen=True)
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray
    dashed: bool = False

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
            raise DomainError("series x and y must be 1-D and equally long")
        if len(x) == 0:
            raise DomainError("series must not be empty")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise DomainError("series values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)


@dataclass(frozen=True)
class Panel:
    title: str
    x_label: str
    y_label: str
    series: tuple = field(default_factory=tuple)
    vline: float | None = None
    vline_label: str = ""

    def __post_init__(self):
        if not self.series:
            raise DomainError("panel needs at least one series")
        object.__setattr__(self, "series", tuple(self.series))


def nice_ticks(lo, hi, target=5):
    """Round tick positions on the 1-2-5 ladder covering [lo, hi].

    A degenerate span, or one too narrow to step through at its magnitude
    (a step under half an ulp of the values), is padded around its middle.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("tick range must be finite")
    if hi < lo:
        lo, hi = hi, lo
    ticks = _ladder(lo, hi, target) if hi > lo else None
    if ticks is None:
        ticks = _ladder(*_widened(lo, hi), target)
    return ticks


def _widened(lo, hi):
    """The range nice_ticks steps through for a span it cannot: its middle, padded."""
    mid = lo + (hi - lo) / 2
    pad = max(1.0, abs(mid) * 0.1)
    top = sys.float_info.max
    return max(mid - pad, -top), min(mid + pad, top)


def _ladder(lo, hi, target):
    """Ticks for lo < hi, or None when the step does not advance the values."""
    count = max(target, 1)
    raw_step = (hi - lo) / count
    if math.isinf(raw_step):
        # the span itself overflows; its share per tick does not
        raw_step = hi / count - lo / count
    if raw_step == 0.0:
        return None
    mag = 10.0 ** math.floor(math.log10(raw_step))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw_step <= step:
            break
    if step == 0.0:
        return None
    first = math.ceil(lo / step) * step
    end = min(hi + step * 1e-9, sys.float_info.max)
    ticks = []
    value = first
    while value <= end:
        # snap tiny float residue so labels read 0 rather than 1.2e-16
        if abs(value) < step * 1e-9:
            value = 0.0
        ticks.append(value)
        if value + step == value:
            return None
        value += step
    return ticks


def format_tick(value):
    text = f"{value:.6g}"
    return "0" if text == "-0" else text


def _m4_indices(column, y):
    """Indices of the first, min-y, max-y and last point of each run of equal ``column``.

    M4 aggregation (Jugel et al., PVLDB 7(10), 2014): a line through these
    points alone covers the same pixels as one through every point, because
    within a 1-px column only the entry, exit and extreme points show. Runs
    are consecutive, so for non-decreasing x each run is one column. The
    indices come back ascending and without duplicates.
    """
    first = np.concatenate(([True], column[1:] != column[:-1]))
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    index = np.arange(len(y))
    keep = first.copy()
    keep[starts[1:] - 1] = True
    keep[-1] = True
    for extreme in (np.minimum, np.maximum):
        hit = y == extreme.reduceat(y, starts)[run]
        # each run's first hit; every run has one
        keep[np.minimum.reduceat(np.where(hit, index, len(y)), starts)] = True
    return np.flatnonzero(keep)


def _data_range(values, pad_fraction=0.05):
    """[min, max] padded by pad_fraction of its span, or widened as nice_ticks
    widens a span too narrow to step through, so every tick lands on the axis."""
    lo = float(np.min(values))
    hi = float(np.max(values))
    pad = (hi - lo) * pad_fraction
    if hi == lo or _ladder(lo - pad, hi + pad, 5) is None:
        return _widened(lo, hi)
    return lo - pad, hi + pad


def _render_panel(panel, top, width, height, parts):
    plot_left = MARGIN_LEFT
    plot_right = width - MARGIN_RIGHT
    plot_top = top + MARGIN_TOP
    plot_bottom = top + height - MARGIN_BOTTOM
    plot_w = plot_right - plot_left
    plot_h = plot_bottom - plot_top

    xs = np.concatenate([s.x for s in panel.series])
    ys = np.concatenate([s.y for s in panel.series])
    x_lo, x_hi = _data_range(xs, 0.0)
    if panel.vline is not None:
        x_lo = min(x_lo, float(panel.vline))
        x_hi = max(x_hi, float(panel.vline))
    y_lo, y_hi = _data_range(ys)

    def px(x):
        return plot_left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return plot_bottom - (y - y_lo) / (y_hi - y_lo) * plot_h

    parts.append(
        f'<rect x="{plot_left:.1f}" y="{plot_top:.1f}" width="{plot_w:.1f}" '
        f'height="{plot_h:.1f}" fill="none" stroke="#333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{plot_left:.1f}" y="{top + 18:.1f}" {FONT} '
        f'font-weight="bold">{escape(panel.title)}</text>'
    )

    for tick in nice_ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{plot_bottom:.1f}" x2="{x:.1f}" '
            f'y2="{plot_bottom + 4:.1f}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{plot_bottom + 16:.1f}" {FONT} '
            f'text-anchor="middle">{escape(format_tick(tick))}</text>'
        )
    for tick in nice_ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{plot_left - 4:.1f}" y1="{y:.1f}" x2="{plot_left:.1f}" '
            f'y2="{y:.1f}" stroke="#333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{plot_left - 7:.1f}" y="{y + 3.5:.1f}" {FONT} '
            f'text-anchor="end">{escape(format_tick(tick))}</text>'
        )

    parts.append(
        f'<text x="{(plot_left + plot_right) / 2:.1f}" y="{plot_bottom + 32:.1f}" '
        f'{FONT} text-anchor="middle">{escape(panel.x_label)}</text>'
    )
    y_mid = (plot_top + plot_bottom) / 2
    parts.append(
        f'<text x="14" y="{y_mid:.1f}" {FONT} text-anchor="middle" '
        f'transform="rotate(-90 14 {y_mid:.1f})">{escape(panel.y_label)}</text>'
    )

    if panel.vline is not None:
        x = px(float(panel.vline))
        parts.append(
            f'<line x1="{x:.1f}" y1="{plot_top:.1f}" x2="{x:.1f}" '
            f'y2="{plot_bottom:.1f}" stroke="#d62728" stroke-width="1" '
            f'stroke-dasharray="5,3"/>'
        )
        if panel.vline_label:
            parts.append(
                f'<text x="{x + 4:.1f}" y="{plot_top + 12:.1f}" {FONT} '
                f'fill="#d62728">{escape(panel.vline_label)}</text>'
            )

    columns = max(int(plot_w), 1)
    for index, series in enumerate(panel.series):
        color = PALETTE[index % len(PALETTE)]
        dash = ' stroke-dasharray="6,3"' if series.dashed else ""
        xs = px(series.x)
        ys = py(series.y)
        if len(xs) > 4 * columns:
            column = np.clip(np.floor(xs - plot_left), 0, columns - 1)
            keep = _m4_indices(column, series.y)
            xs, ys = xs[keep], ys[keep]
        points = " ".join(map("{:.2f},{:.2f}".format, xs.tolist(), ys.tolist()))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )

    legend_x = plot_right - 150.0
    legend_y = plot_top + 8.0
    for index, series in enumerate(panel.series):
        color = PALETTE[index % len(PALETTE)]
        y = legend_y + index * 14.0
        dash = ' stroke-dasharray="6,3"' if series.dashed else ""
        parts.append(
            f'<line x1="{legend_x:.1f}" y1="{y:.1f}" x2="{legend_x + 22:.1f}" '
            f'y2="{y:.1f}" stroke="{color}" stroke-width="1.5"{dash}/>'
        )
        parts.append(
            f'<text x="{legend_x + 27:.1f}" y="{y + 3.5:.1f}" {FONT}>'
            f"{escape(series.label)}</text>"
        )


def render_chart(panels, width=760, panel_height=230):
    """Render panels stacked vertically into one SVG document string."""
    panels = tuple(panels)
    if not panels:
        raise DomainError("chart needs at least one panel")
    total_height = panel_height * len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{total_height}" viewBox="0 0 {width} {total_height}">',
        f'<rect x="0" y="0" width="{width}" height="{total_height}" fill="white"/>',
    ]
    for index, panel in enumerate(panels):
        _render_panel(panel, index * panel_height, width, panel_height, parts)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
