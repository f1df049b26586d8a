"""Turn a smoothed indicator into a dimensionless aging degree on [0, 1].

Aging degree is oriented so 0 = healthiest observed level and 1 = most aged,
whatever direction the raw indicator moves:

    lower-is-worse (e.g. bandwidth):  y = (max(L) - L) / (max(L) - min(L))
    higher-is-worse (e.g. memory):    y = (L - min(L)) / (max(L) - min(L))

The map scans the whole smoothed series for its extremes, so both endpoints
are attained by construction. A sample at t = 0 is dropped afterwards (the
growth law and its log-space initializer are undefined there), which can cost
the curve one endpoint; the curve type therefore enforces containment in
[0, 1] and strictly positive time, not attainment.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .smoothing import lowess
from .timeseries import Orientation, _as_readonly_float_array


def normalize_only(values, orientation):
    """Normalize an array to aging degree without smoothing or dropping."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise DomainError("normalization needs a one-dimensional array of at least 2 values")
    if not np.all(np.isfinite(values)):
        raise DomainError("normalization input has non-finite values")
    low = values.min()
    high = values.max()
    if high == low:
        raise DomainError("degenerate series: constant values carry no aging trend")
    with np.errstate(over="ignore"):
        span = high - low
    if not np.isfinite(span):
        # extremes of opposite sign near the float limit: halving every term is
        # exact there, and it brings the span back into range
        values, low, high = values / 2.0, low / 2.0, high / 2.0
        span = high - low
    if orientation is Orientation.HIGHER_IS_WORSE:
        return (values - low) / span
    if orientation is Orientation.LOWER_IS_WORSE:
        return (high - values) / span
    raise DomainError(f"unknown orientation: {orientation!r}")


@dataclass(frozen=True)
class AgingCurve:
    """Aging degree samples y(t) in [0, 1] on strictly positive times."""

    source_name: str
    t: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        t = _as_readonly_float_array(self.t, "t")
        y = _as_readonly_float_array(self.y, "y")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        if len(t) != len(y):
            raise DomainError("aging curve needs matching one-dimensional t and y")
        if len(t) < 2:
            raise DomainError(f"aging curve needs at least 2 samples, got {len(t)}")
        if not np.all(np.isfinite(t)) or not np.all(np.isfinite(y)):
            raise DomainError("aging curve has non-finite entries")
        if t[0] <= 0 or not np.all(np.diff(t) > 0):
            raise DomainError("aging curve times must be strictly positive and increasing")
        if y.min() < 0.0 or y.max() > 1.0:
            raise DomainError("aging degree must lie within [0, 1]")

    @classmethod
    def unchecked(cls, source_name, t, y):
        """Build without the curve checks. Escape hatch for synthetic/research data."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "source_name", source_name)
        object.__setattr__(curve, "t", _as_readonly_float_array(t, "t"))
        object.__setattr__(curve, "y", _as_readonly_float_array(y, "y"))
        return curve

    def __len__(self):
        return len(self.t)


def to_aging_curve(series):
    """Smooth a raw series, normalize it, and drop any t = 0 sample.

    The drop happens after smoothing and normalizing so the extremes are taken
    over the full smoothed series; at most one sample is lost.
    """
    smoothed = lowess(series)
    y = normalize_only(smoothed.values, series.orientation)
    t = smoothed.t
    keep = t > 0.0
    t = t[keep]
    y = y[keep]
    if len(t) < 2:
        raise DomainError("aging curve needs at least 2 samples after dropping t=0")
    return AgingCurve(source_name=series.name, t=t, y=y)
