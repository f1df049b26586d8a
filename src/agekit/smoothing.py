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

On a uniform grid the first pass fits the rows that share weights from
moments. All interior windows are symmetric and share one tricube kernel. A
symmetric kernel puts the weighted mean of t at the row itself, where the
local line equals the kernel-weighted mean of the values, so the whole
interior is one convolution. A left-edge row and its mirror on the right
edge share one row of tricube weights, one against the series and one
against its reverse, so one block of weights gives both bands' moments in
one matrix product. The pairing is read off the computed windows, never
assumed. Rows whose moments are ill posed (weight at one place), every
robustness pass, whose weights differ per row, and every row of an
irregular grid use the block fit.
"""

import math

import numpy as np

from .errors import DomainError, _is_integral, _is_real
from .timeseries import MetricSeries, _as_readonly_float_array

MIN_WINDOW = 2  # a lone point fits no line
MIN_SAMPLES = 3
# weight-matrix elements per block: bounds scratch memory and keeps each
# block's temporaries cache-resident
BLOCK_ELEMENTS = 1 << 15
# largest grid deviation from t0 + i*h, relative to the window radius, at
# which the uniform interior shares one kernel
UNIFORM_TOLERANCE = 1e-13
# a row fitted from moments needs S0*S2 - S1^2 above this share of S0*S2: the
# cancellation there costs about eps*S0*S2/(S0*S2 - S1^2) of relative
# precision, so below it the row goes to _fit_rows' centred second pass
_CONDITION_FLOOR = 1e-6


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
        # points past d_max get u = 1 and weight 0; clipping the distance
        # before the division keeps a point far outside the window from
        # overflowing u or its cube (d/d is exactly 1)
        np.minimum(w, d_max[r, None], out=w)
        w /= d_max[r, None]
        cube = w * w
        cube *= w
        np.subtract(1.0, cube, out=cube)
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
        # an x variance past the float range leaves the slope unknown, not 0
        out[np.isinf(sxx)] = np.nan
        for k in np.flatnonzero(total <= 0.0):
            # a robustness pass can zero out a whole window; fall back to the plain mean
            out[k] = np.mean(values[lo[r[k]] : hi[r[k]]])
        fitted[start:end] = out
    return fitted


def _line_at(s0, s1, s2, sy, sxy, x0):
    """Value at x0 of the weighted line with moments S0..Sxy, and whether it is well posed.

    The weighted x variance comes from S0*S2 - S1^2, which cancels when the
    weight sits at one place; a row where it is not clearly positive is not
    well posed here.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x_bar = s1 / s0
        y_bar = sy / s0
        var = s2 / s0 - x_bar * x_bar
        cov = sxy / s0 - x_bar * y_bar
        value = y_bar + cov / var * (x0 - x_bar)
        ok = var > _CONDITION_FLOOR * (s2 / s0)
    return value, ok


def _mirrored_rows(rows, lo, hi):
    """Left rows i <= n-1-i that share tricube weights with their mirror n-1-i.

    Only _windows' own output decides it: row i's window starts at 0 and the
    mirror's is [n - hi[i], n - lo[i]). Either row of a returned pair is one
    of rows.
    """
    n = len(lo)
    wanted = np.zeros(n, dtype=bool)
    wanted[rows] = True
    left = np.arange((n + 1) // 2)
    right = n - 1 - left
    mirrored = (
        (wanted[left] | wanted[right])
        & (lo[left] == 0)
        & (lo[right] == n - hi[left])
        & (hi[right] == n)
    )
    return left[mirrored]


def _band_lines(values, left, lo, hi):
    """Fits of the mirrored rows left and n-1-left from one tricube block.

    Row i weighs column j by tricube(|j - i| / r_i), r_i being the index
    distance of its window's farthest point, over the union [0, width) of the
    windows; the right band is the same block applied to the reversed series.
    Moments are taken about the block's centre. Returns (value, ok) per side.
    """
    width = int(hi[left].max())
    radius = np.maximum(left - lo[left], hi[left] - 1 - left)
    x = np.arange(width) - (width - 1) / 2
    y = values[:width]
    y_rev = values[::-1][:width]
    columns = np.column_stack([np.ones(width), x, x * x, y, x * y, y_rev, x * y_rev])

    sums = np.empty((len(left), columns.shape[1]))
    j = np.arange(width, dtype=float)
    rows = left.astype(float)
    inverse = 1.0 / radius
    step = max(1, BLOCK_ELEMENTS // width)
    for start in range(0, len(left), step):
        w = np.subtract.outer(rows[start : start + step], j)
        np.abs(w, out=w)
        w *= inverse[start : start + step, None]
        np.minimum(w, 1.0, out=w)  # past the radius the weight is 0
        cube = w * w
        cube *= w
        np.subtract(1.0, cube, out=cube)
        np.multiply(cube, cube, out=w)
        w *= cube
        sums[start : start + step] = w @ columns
    x0 = left - (width - 1) / 2
    s0, s1, s2, sy, sxy, sy_rev, sxy_rev = sums.T
    return _line_at(s0, s1, s2, sy, sxy, x0), _line_at(s0, s1, s2, sy_rev, sxy_rev, x0)


def _fit_shared_rows(values, fit, lo, hi, half, smoothed):
    """First pass on a uniform grid: fit the rows that share weights into smoothed.

    Returns the rows of fit left for _fit_rows.
    """
    n = len(values)
    pending = np.zeros(n, dtype=bool)
    pending[fit] = True
    # interior rows: window inside [i-H, i+H]; it holds at least 2H points,
    # so it misses at most one end, which would sit at d_max and weigh 0
    interior = fit[
        (fit >= half) & (fit < n - half) & (lo[fit] >= fit - half) & (hi[fit] <= fit + half + 1)
    ]
    if len(interior):
        u = np.abs(np.arange(-half, half + 1)) / half
        kernel = (1.0 - u * u * u) ** 3
        means = np.convolve(values, kernel, "valid") / kernel.sum()
        smoothed[interior] = means[interior - half]
        pending[interior] = False
    left = _mirrored_rows(np.flatnonzero(pending), lo, hi)
    if len(left):
        for band, (value, ok) in zip((left, n - 1 - left), _band_lines(values, left, lo, hi)):
            take = ok & pending[band]
            smoothed[band[take]] = value[take]
            pending[band[take]] = False
    return np.flatnonzero(pending)


# a span of t or values too large for float64 sums leave the fit non-finite;
# that is reported once, as a DomainError, in place of numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def lowess_values(t, values, fraction=0.3, robust_iterations=0):
    """Core array-level lowess. Returns smoothed values on the same grid.

    t may come in any order; the result follows the caller's order.
    """
    if not (_is_real(fraction) and 0.0 < fraction <= 1.0):
        raise DomainError(f"fraction out of range (0, 1]: {fraction}")
    if not _is_integral(robust_iterations) or robust_iterations < 0:
        raise DomainError(
            f"robust_iterations must be a nonnegative integer, got {robust_iterations}"
        )
    t = _as_readonly_float_array(t, "t", "lowess needs finite t")
    values = _as_readonly_float_array(values, "values", "lowess needs finite values")
    n = len(t)
    if n < MIN_SAMPLES:
        raise DomainError(f"lowess needs at least {MIN_SAMPLES} samples, got {n}")
    if len(values) != n:
        raise DomainError(f"t and values lengths differ: {n} vs {len(values)}")
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
        general = _fit_shared_rows(values, fit, lo, hi, half, smoothed)
    smoothed[general] = _fit_rows(t, values, general, lo, hi, d_max, None)

    for _ in range(int(robust_iterations)):
        residuals = values - smoothed
        scale = np.median(np.abs(residuals))
        if scale == 0.0:
            break
        u = np.clip(residuals / (6.0 * scale), -1.0, 1.0)
        robustness = (1.0 - u**2) ** 2
        smoothed[fit] = _fit_rows(t, values, fit, lo, hi, d_max, robustness)

    if not np.all(np.isfinite(smoothed)):
        raise DomainError("lowess overflowed: the span of t or the values are too large")
    out = np.empty(n)
    out[order] = smoothed
    return out


def lowess(series, fraction=0.3, robust_iterations=0):
    """Smooth a MetricSeries; the output keeps grid, name, orientation."""
    smoothed = lowess_values(series.t, series.values, fraction, robust_iterations)
    return MetricSeries(
        name=series.name, orientation=series.orientation, t=series.t, values=smoothed
    )
