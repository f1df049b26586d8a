"""Locally weighted scatterplot smoothing on the series' own time grid.

Each output point is an independent local weighted linear fit: the window is
the ceil(fraction*n) nearest neighbors by |t_j - t_i| (every point tied at the
boundary distance is included), weighted by the tricube kernel on d/d_max.

Evaluation is batched. The samples are sorted by t once (results are
scattered back to the caller's order), which makes every window a contiguous
run [lo, hi). The bounds of all windows come from vectorised bisections over
the same computed distances the definition uses, so boundary ties are decided
exactly as a full scan would decide them. The fits then run a block of
consecutive rows at a time: one weight matrix over the union of the block's
windows (zero outside each row's own window), sums taken with matrix
products, and a centred second pass for the slope. A fixed element budget
bounds each block, so the weight matrices do not grow with n.

On a uniform grid all interior windows are symmetric and share one tricube
kernel. A symmetric kernel puts the weighted mean of t at the row itself,
where the local line equals the kernel-weighted mean of the values, so the
first pass computes the whole interior as one convolution. The edge bands
and every robustness pass, whose weights differ per row, use the block fit.
"""

import math

import numpy as np

from .errors import DomainError
from .timeseries import MetricSeries, _as_readonly_float_array

MIN_WINDOW = 2  # a lone point fits no line
MIN_SAMPLES = 3
# weight-matrix elements per block: bounds scratch memory and keeps each
# block's temporaries cache-resident
BLOCK_ELEMENTS = 1 << 15
# largest grid deviation from t0 + i*h, relative to the window radius, at
# which the uniform interior shares one kernel
UNIFORM_TOLERANCE = 1e-13


def _first_true(pred, lo, hi, last):
    """Per row, the smallest k in [lo, hi) with pred(k), or hi if there is none.

    pred maps an index array (one candidate per row) to booleans and must be
    monotone (false, then true) over each row's range; last is the largest
    index pred accepts. Each step halves every row's range.
    """
    for _ in range(int(np.max(hi - lo)).bit_length()):
        mid = (lo + hi) // 2
        ok = pred(np.minimum(mid, last))
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, np.minimum(mid + 1, hi))
    return lo


def _windows(t, window):
    """Window bounds [lo, hi) and radius d_max of every row of sorted t."""
    n = len(t)
    rows = np.arange(n)

    def dist(j):
        return np.abs(t[j] - t)

    # the window nearest points around row i form a contiguous block [a, a+window);
    # the left distance falls and the right one rises as a moves right, so the
    # best block is where they cross, or the one just before
    first = np.maximum(rows - window + 1, 0)
    final = np.minimum(rows, n - window)
    a = _first_true(lambda a: dist(a) <= dist(a + window - 1), first, final, n - window)
    b = np.maximum(a - 1, first)
    d_max = np.minimum(
        np.maximum(dist(a), dist(a + window - 1)),
        np.maximum(dist(b), dist(b + window - 1)),
    )
    # widen to every point within d_max: ties at the boundary all enter
    lo = _first_true(lambda j: dist(j) <= d_max, np.zeros(n, dtype=np.intp), rows, n - 1)
    hi = _first_true(lambda j: dist(j) > d_max, rows + 1, np.full(n, n), n - 1)
    return lo, hi, d_max


def _is_uniform(t, half):
    """Whether t is t0 + i*h closely enough for one kernel to serve every row.

    The shared kernel's weights differ from a row's own by about the grid's
    deviation from t0 + i*h over the window radius half*h, so that ratio is
    what is bounded; it is unchanged when t is scaled.
    """
    n = len(t)
    h = (t[-1] - t[0]) / (n - 1)
    deviation = np.max(np.abs(t - (t[0] + np.arange(n) * h)))
    return h > 0.0 and deviation <= UNIFORM_TOLERANCE * half * h


def _block_ends(rows, lo, hi):
    """Split rows into runs whose weight matrices fit BLOCK_ELEMENTS."""
    # monotone envelopes bound the union of any run of consecutive rows
    lo_env = np.minimum.accumulate(lo[rows][::-1])[::-1]
    hi_env = np.maximum.accumulate(hi[rows])
    start = 0
    while start < len(rows):
        end = min(len(rows), start + max(1, BLOCK_ELEMENTS // (hi_env[start] - lo_env[start])))
        while end - start > 1:
            cols = hi_env[end - 1] - lo_env[start]
            if (end - start) * cols <= BLOCK_ELEMENTS:
                break
            end = start + max(1, BLOCK_ELEMENTS // cols)
        yield start, end
        start = end


def _fit_rows(t, values, rows, lo, hi, d_max, robustness):
    """Local linear fit at each of the sorted, distinct rows, block by block."""
    fitted = np.empty(len(rows))
    ones_values = np.column_stack([np.ones(len(values)), values])
    for start, end in _block_ends(rows, lo, hi):
        r = rows[start:end]
        c0 = lo[r].min()
        c1 = hi[r].max()
        x = t[c0:c1] - t[r, None]  # signed offsets; |x| is the distance
        # in-place arithmetic keeps a block to three matrices
        w = np.abs(x)
        w /= d_max[r, None]
        cube = w * w
        cube *= w
        # points past d_max have u > 1 and get weight 0
        np.subtract(1.0, cube, out=cube)
        np.maximum(cube, 0.0, out=cube)
        np.multiply(cube, cube, out=w)
        w *= cube
        if robustness is not None:
            w *= robustness[c0:c1]
        total, v_sum = (w @ ones_values[c0:c1]).T
        with np.errstate(divide="ignore", invalid="ignore"):
            x_bar = np.einsum("ij,ij->i", w, x) / total
            v_bar = v_sum / total
            # centred second pass: sum w*(x - x_bar)^2, never sum w*x^2 - total*x_bar^2
            dx = x
            dx -= x_bar[:, None]
            wdx = np.multiply(w, dx, out=cube)
            sxx = np.einsum("ij,ij->i", wdx, dx)
            wdx_sum, wdx_v = (wdx @ ones_values[c0:c1]).T
            sxv = wdx_v - v_bar * wdx_sum
            out = v_bar - sxv / sxx * x_bar
        # all effective weight at one location: no slope to estimate
        out = np.where(sxx > 0.0, out, v_bar)
        for k in np.flatnonzero(total <= 0.0):
            # a robustness pass can zero out a whole window; fall back to the plain mean
            out[k] = np.mean(values[lo[r[k]] : hi[r[k]]])
        fitted[start:end] = out
    return fitted


def lowess_values(t, values, fraction=0.3, robust_iterations=0):
    """Core array-level lowess. Returns smoothed values on the same grid.

    t may come in any order; the result follows the caller's order.
    """
    if not (0.0 < fraction <= 1.0):
        raise DomainError(f"fraction out of range (0, 1]: {fraction}")
    if int(robust_iterations) != robust_iterations or robust_iterations < 0:
        raise DomainError(
            f"robust_iterations must be a nonnegative integer, got {robust_iterations}"
        )
    t = _as_readonly_float_array(t, "t")
    values = _as_readonly_float_array(values, "values")
    n = len(t)
    if n < MIN_SAMPLES:
        raise DomainError(f"lowess needs at least {MIN_SAMPLES} samples, got {n}")
    if len(values) != n:
        raise DomainError(f"t and values lengths differ: {n} vs {len(values)}")
    if not np.all(np.isfinite(t)):
        raise DomainError("lowess needs finite t")
    if not np.all(np.isfinite(values)):
        raise DomainError("lowess needs finite values")
    window = max(MIN_WINDOW, math.ceil(fraction * n))

    order = np.argsort(t, kind="stable")
    t = t[order]
    values = values[order]
    lo, hi, d_max = _windows(t, window)

    smoothed = np.empty(n)
    # a constant window smooths to itself exactly, no arithmetic drift
    changes = np.flatnonzero(values[1:] != values[:-1]) + 1
    run_end = np.append(changes, n)[np.searchsorted(changes, lo, side="right")]
    constant = run_end >= hi
    smoothed[constant] = values[lo[constant]]
    flat = ~constant & (d_max == 0.0)
    for i in np.flatnonzero(flat):
        smoothed[i] = np.mean(values[lo[i] : hi[i]])
    fit = np.flatnonzero(~constant & ~flat)

    general = fit
    half = window // 2
    if _is_uniform(t, half):
        # interior rows: window inside [i-H, i+H]; it holds at least 2H points,
        # so it misses at most one end, which would sit at d_max and weigh 0
        interior = (
            (fit >= half)
            & (fit < n - half)
            & (lo[fit] >= fit - half)
            & (hi[fit] <= fit + half + 1)
        )
        if interior.any():
            u = np.abs(np.arange(-half, half + 1)) / half
            kernel = (1.0 - u * u * u) ** 3
            means = np.convolve(values, kernel, "valid") / kernel.sum()
            smoothed[fit[interior]] = means[fit[interior] - half]
            general = fit[~interior]
    smoothed[general] = _fit_rows(t, values, general, lo, hi, d_max, None)

    for _ in range(int(robust_iterations)):
        residuals = values - smoothed
        scale = np.median(np.abs(residuals))
        if scale == 0.0:
            break
        u = np.clip(residuals / (6.0 * scale), -1.0, 1.0)
        robustness = (1.0 - u**2) ** 2
        smoothed[fit] = _fit_rows(t, values, fit, lo, hi, d_max, robustness)

    out = np.empty(n)
    out[order] = smoothed
    return out


def lowess(series, fraction=0.3, robust_iterations=0):
    """Smooth a MetricSeries; the output keeps grid, name, orientation."""
    smoothed = lowess_values(series.t, series.values, fraction, robust_iterations)
    return MetricSeries(
        name=series.name, orientation=series.orientation, t=series.t, values=smoothed
    )
