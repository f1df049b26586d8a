"""Locally weighted scatterplot smoothing on the series' own time grid.

Each output point is an independent local weighted linear fit: the window is
the ceil(fraction*n) nearest neighbors by |t_j - t_i| (every point tied at the
boundary distance is included), weighted by the tricube kernel on d/d_max.
Per-point results never feed each other, so evaluation order cannot change a
single bit of the output.
"""

import math

import numpy as np

from .errors import DomainError
from .timeseries import MetricSeries

MIN_WINDOW = 2  # a lone point fits no line
MIN_SAMPLES = 3


def _fit_point(x, v, weights):
    """Weighted linear fit of (x, v), evaluated at x = 0."""
    total = weights.sum()
    if total <= 0.0:
        # robustness pass can zero out a whole window; fall back to the plain mean
        return float(np.mean(v))
    x_bar = np.dot(weights, x) / total
    v_bar = np.dot(weights, v) / total
    dx = x - x_bar
    sxx = np.dot(weights, dx * dx)
    if sxx <= 0.0:
        # all effective weight sits at one location; no slope to estimate
        return float(v_bar)
    slope = np.dot(weights, dx * (v - v_bar)) / sxx
    return float(v_bar - slope * x_bar)


def lowess_values(t, values, fraction=0.3, robust_iterations=0):
    """Core array-level lowess. Returns smoothed values on the same grid."""
    if not (0.0 < fraction <= 1.0):
        raise DomainError(f"fraction out of range (0, 1]: {fraction}")
    if int(robust_iterations) != robust_iterations or robust_iterations < 0:
        raise DomainError(
            f"robust_iterations must be a nonnegative integer, got {robust_iterations}"
        )
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    n = len(t)
    if n < MIN_SAMPLES:
        raise DomainError(f"lowess needs at least {MIN_SAMPLES} samples, got {n}")
    if len(values) != n:
        raise DomainError(f"t and values lengths differ: {n} vs {len(values)}")
    window = max(MIN_WINDOW, math.ceil(fraction * n))

    robustness = np.ones(n)
    smoothed = np.empty(n)
    for _ in range(int(robust_iterations) + 1):
        for i in range(n):
            dist = np.abs(t - t[i])
            d_max = np.partition(dist, window - 1)[window - 1]
            mask = dist <= d_max  # ties at the boundary all enter the window
            v_win = values[mask]
            if v_win.size and np.all(v_win == v_win[0]):
                # constant window smooths to itself exactly, no arithmetic drift
                smoothed[i] = v_win[0]
                continue
            if d_max == 0.0:
                smoothed[i] = float(np.mean(v_win))
                continue
            u = dist[mask] / d_max
            weights = (1.0 - u**3) ** 3
            weights *= robustness[mask]
            smoothed[i] = _fit_point(t[mask] - t[i], v_win, weights)
        if robust_iterations == 0:
            break
        residuals = values - smoothed
        scale = np.median(np.abs(residuals))
        if scale == 0.0:
            break
        u = np.clip(residuals / (6.0 * scale), -1.0, 1.0)
        robustness = (1.0 - u**2) ** 2
    return smoothed


def lowess(series, fraction=0.3, robust_iterations=0):
    """Smooth a MetricSeries; the output keeps grid, name, orientation."""
    smoothed = lowess_values(series.t, series.values, fraction, robust_iterations)
    return MetricSeries(
        name=series.name, orientation=series.orientation, t=series.t, values=smoothed
    )
