"""Locally weighted scatterplot smoothing on the series' own time grid.

Each output point is an independent local weighted linear fit: the window is
the ceil(fraction*n) nearest neighbors by |t_j - t_i| (every point tied at the
boundary distance is included), weighted by the tricube kernel on d/d_max.

Evaluation is batched. The samples are sorted by t once (results are
scattered back to the caller's order), which makes every window a contiguous
run [lo, hi). The bounds of all windows are guessed, the window's start from
sums of sorted t and its ends from the block its radius came from, and each
guess is checked on the same computed distances the definition uses; a row
whose guess fails is found by bisection. So boundary ties are decided exactly
as a full scan would decide them. Every line is read off moments, taken a
block of consecutive rows at a time: one weight matrix over the union of the
block's windows times the columns [1, x, x^2, y, x*y], under a fixed element
budget. The lines of all rows are then read at once, and a row whose moments
are ill posed is refitted on its own by a centred second pass, which holds
every special case.

On a uniform grid the first pass shares weights between rows. The interior
windows share one symmetric tricube kernel, which puts each local line's
value at the kernel-weighted mean of the values: one convolution, taken as a
product of real FFTs. A left-edge row and its mirror on the right share one
row of tricube weights, so one block gives both bands' moments; the pairing
is read off the computed windows. On either side of its row and inside its
radius the tricube is a degree-9 polynomial in the index, so a band row
weighs the block's columns a chunk at a time through each chunk's ten power
sums, and point by point only in the chunk holding the row and the one
holding its last weighted point; that costs about sqrt(width) columns per
row instead of width.
"""

import math

import numpy as np
import numpy.fft  # loaded lazily by numpy; imported here so the first call does not pay for it

from .errors import DomainError, _is_integral, _is_real, _shown
from .timeseries import MetricSeries, _as_readonly_float_array

MIN_WINDOW = 2  # a lone point fits no line
MIN_SAMPLES = 3
DEFAULT_FRACTION = 0.3  # share of the samples in each window, and the CLI's --fraction default
# weight-matrix elements per block: bounds scratch memory and keeps each
# block's temporaries cache-resident
BLOCK_ELEMENTS = 1 << 15
# largest grid deviation from t0 + i*h, relative to the window radius, at
# which the uniform interior shares one kernel
UNIFORM_TOLERANCE = 1e-13
# a row fitted from moments needs S0*S2 - S1^2 above this share of S0*S2: the
# cancellation there (all of it when the weight sits at one place) costs about
# eps*S0*S2/(S0*S2 - S1^2) of relative precision, so below it the row is ill
# posed and goes to _fit_row's centred second pass
_CONDITION_FLOOR = 1e-6
# a row whose weighted spread of t is at most this share of its radius has its
# weight at one place up to rounding (a point at d_max up to rounding keeps a
# tricube weight near 1e-45, a spread near 1e-22 of the radius): its slope
# would be made of rounding error, so it takes the weighted mean
_SPREAD_FLOOR = 1e-12


def _first_true(pred, lo, hi, last, guess):
    """Per row, the smallest k in [lo, hi) with pred(rows, k), or hi if there is none.

    pred maps the rows (an index array, or a slice for all of them) and one
    candidate index per row to booleans and must be monotone (false, then true) over each row's range; last is the largest
    index pred accepts. So the answer is the one k with pred(k) (or k = hi) and
    not pred(k - 1) (or k = lo). A row whose guess, clipped to its range,
    passes that check keeps it; the other rows bisect, each step halving every
    range.
    """
    k = np.minimum(np.maximum(guess, lo), hi)
    found = (k == hi) | pred(slice(None), np.minimum(k, last))
    found &= (k == lo) | ~pred(slice(None), np.maximum(k - 1, 0))
    rows = np.flatnonzero(~found)
    lo, hi = lo[rows], hi[rows]
    for _ in range(int(np.max(hi - lo, initial=0)).bit_length()):
        mid = (lo + hi) // 2
        ok = pred(rows, np.minimum(mid, last))
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, np.minimum(mid + 1, hi))
    k[rows] = lo
    return k


def _windows(t, window):
    """Window bounds [lo, hi) and radius d_max of every row of sorted t."""
    n = len(t)
    rows = np.arange(n)

    def dist(r, j):
        d = t[j] - t[r]
        return np.abs(d, out=d)

    # the window nearest points around row i form a contiguous block [a, a+window);
    # the left distance falls and the right one rises as a moves right, so the
    # best block is where they cross, or the one just before; the crossing is
    # where t[a] + t[a+window-1] reaches 2*t[i], up to rounding
    first = np.maximum(rows - window + 1, 0)
    final = np.minimum(rows, n - window)
    a = _first_true(
        lambda r, a: dist(r, a) <= dist(r, a + window - 1),
        first,
        final,
        n - window,
        np.searchsorted(t[: n - window + 1] + t[window - 1 :], 2.0 * t),
    )
    b = np.maximum(a - 1, first)
    d_max = np.maximum(dist(rows, a), dist(rows, a + window - 1))
    reach_b = np.maximum(dist(rows, b), dist(rows, b + window - 1))
    # widen to every point within d_max: ties at the boundary all enter; the
    # block d_max came from is the window unless such ties lie outside it
    start = np.where(d_max <= reach_b, a, b)
    np.minimum(d_max, reach_b, out=d_max)
    lo = _first_true(
        lambda r, j: dist(r, j) <= d_max[r], np.zeros(n, dtype=np.intp), rows, n - 1, start
    )
    hi = _first_true(
        lambda r, j: dist(r, j) > d_max[r], rows + 1, np.full(n, n), n - 1, start + window
    )
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


def _tricube(u):
    """(1 - u^3)^3 of u in [0, 1], computed in place: u holds the result."""
    cube = u * u
    cube *= u
    np.subtract(1.0, cube, out=cube)
    np.multiply(cube, cube, out=u)
    u *= cube
    return u


def _fit_rows(t, values, rows, lo, hi, d_max, robustness):
    """Local linear fit at each sorted, distinct row from block moments, or by _fit_row."""
    if len(rows) == 0:  # a uniform first pass often leaves none: build no buffer
        return np.empty(0)
    # 1, x, x^2, y, x*y; x refilled in place: a new matrix per block costs more than its product
    columns = np.ones((len(t), 5))
    columns[:, 3] = values
    moments = np.empty((len(rows), 5))
    x0 = np.empty(len(rows))  # each row's x, about the centre of its block
    for start, end in _block_ends(rows, lo, hi):
        r = rows[start:end]
        c0 = lo[r].min()
        c1 = hi[r].max()
        w = np.subtract(t[c0:c1], t[r, None])
        np.abs(w, out=w)
        # clipped at d_max, a point past the window weighs 0 and cannot overflow u
        np.minimum(w, d_max[r, None], out=w)
        w /= d_max[r, None]
        _tricube(w)
        if robustness is not None:
            w *= robustness[c0:c1]
        x = columns[c0:c1, 1]
        np.subtract(t[c0:c1], t[c0] / 2 + t[c1 - 1] / 2, out=x)
        np.multiply(x, x, out=columns[c0:c1, 2])
        np.multiply(x, values[c0:c1], out=columns[c0:c1, 4])
        np.matmul(w, columns[c0:c1], out=moments[start:end])
        x0[start:end] = x[r - c0]
    fitted, ok = _line_at(*moments.T, x0, d_max[rows])
    for k in np.flatnonzero(~ok):
        fitted[k] = _fit_row(t, values, rows[k], lo, hi, d_max, robustness)
    return fitted


def _fit_row(t, values, i, lo, hi, d_max, robustness):
    """Local linear fit at row i alone, by a centred second pass.

    A zero radius or a window a robustness pass zeroed gives the plain mean,
    weight at one place (a spread within _SPREAD_FLOOR of the radius) the
    weighted mean, an infinite x variance NaN.
    """
    y = values[lo[i] : hi[i]]
    if d_max[i] == 0.0:
        return np.mean(y)
    x = t[lo[i] : hi[i]] - t[i]  # signed offsets; |x| is the distance
    w = _tricube(np.minimum(np.abs(x), d_max[i]) / d_max[i])
    if robustness is not None:
        w *= robustness[lo[i] : hi[i]]
    total = w.sum()
    if total <= 0.0:
        return np.mean(y)
    x_bar = w @ x / total
    y_bar = w @ y / total
    wdx = w * (x - x_bar)
    sxx = wdx @ (x - x_bar)
    if np.isinf(sxx):
        return np.nan
    if not math.sqrt(sxx / total) > _SPREAD_FLOOR * d_max[i]:
        return y_bar
    return y_bar - (wdx @ y - y_bar * wdx.sum()) / sxx * x_bar


def _line_at(s0, s1, s2, sy, sxy, x0, radius):
    """Value at x0 of the weighted line with moments S0..Sxy, and whether it is well posed.

    A row is ill posed where its moments cancel past _CONDITION_FLOOR or its
    weighted spread is within _SPREAD_FLOOR of its window radius.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        x_bar = s1 / s0
        y_bar = sy / s0
        var = s2 / s0 - x_bar * x_bar
        cov = sxy / s0 - x_bar * y_bar
        value = y_bar + cov / var * (x0 - x_bar)
        ok = (var > _CONDITION_FLOOR * (s2 / s0)) & (np.sqrt(var) > _SPREAD_FLOOR * radius)
    return value, ok


def _mirrored_rows(pending, lo, hi):
    """Left rows i <= n-1-i that share tricube weights with their mirror n-1-i.

    Only _windows' own output decides it: row i's window starts at 0 and the
    mirror's is [n - hi[i], n - lo[i]). Either row of a returned pair is
    pending, a boolean mask over the rows.
    """
    n = len(lo)
    left = np.arange((n + 1) // 2)
    right = n - 1 - left
    mirrored = (
        (pending[left] | pending[right])
        & (lo[left] == 0)
        & (lo[right] == n - hi[left])
        & (hi[right] == n)
    )
    return left[mirrored]


def _tricube_taylor():
    """Taylor table of the tricube (1 - w^3)^3 about a point e.

    (1 - w^3)^3 = sum_q a_q w^q with a_0, a_3, a_6, a_9 = 1, -3, 3, -1, and
    w^q = sum_p C(q, p) e^(q-p) (w - e)^p, so table[q - p, p] = a_q C(q, p).
    """
    table = np.zeros((10, 10))
    for m in range(4):
        q = 3 * m
        for p in range(q + 1):
            table[q - p, p] = (-1) ** m * math.comb(3, m) * math.comb(q, p)
    return table


_TRICUBE_TAYLOR = _tricube_taylor()


def _band_lines(values, left, lo, hi):
    """Fits of the mirrored rows left and n-1-left from one tricube block.

    Row i weighs column j by tricube(|j - i| / r_i), r_i being the index
    distance of its window's farthest point, over the union [0, width) of the
    windows; the right band is the same block applied to the reversed series.
    Moments are taken about the block's centre. Returns (value, ok) per side.

    The columns come in chunks. On one side of i and inside its radius the
    tricube is a degree-9 polynomial in j, so a chunk there contributes
    through its ten power sums about its centre, shifted to row i; only the
    chunk holding i and the one holding i + r_i are weighed point by point.
    """
    width = int(hi[left].max())
    radius = np.maximum(left - lo[left], hi[left] - 1 - left)
    chunk = _chunk_length(width)
    chunks = -(-width // chunk)
    x = np.arange(width) - (width - 1) / 2
    columns = np.zeros((chunks * chunk, 7))  # the last chunk padded with zeros
    y = values[:width]
    y_rev = values[::-1][:width]
    for c, column in enumerate((1.0, x, x * x, y, x * y, y_rev, x * y_rev)):
        columns[:width, c] = column

    sums = np.zeros((len(left), 7))
    x0 = left - (width - 1) / 2
    inverse = 1.0 / radius
    own = left // chunk  # the chunk holding i, and the one holding its last weighted point
    last = np.minimum(left + radius, width - 1) // chunk
    if chunks > 1:
        # power_sums[p, k] = sum over chunk k of u^p * columns, u = (j - centre) / half
        half = (chunk - 1) / 2
        u = (np.arange(chunk) - half) / half
        power_sums = np.matmul(_powers(u), columns.reshape(chunks, chunk, 7))
        power_sums = np.ascontiguousarray(power_sums.transpose(1, 0, 2))
        centres = np.arange(chunks) * chunk + half
        k = np.arange(chunks)
        step = max(1, BLOCK_ELEMENTS // (10 * chunks))
        for start in range(0, len(left), step):
            rows = slice(start, start + step)
            # |j - i| / r = e + side * (half / r) * u with e = |centre - i| / r, so
            # a chunk's weights are sum_p c_p(e) (side * half / r)^p u^p
            e = np.subtract(centres, left[rows, None]) * inverse[rows, None]
            side = np.sign(e)
            np.abs(e, out=e)
            inside = (k < last[rows, None]) & (k != own[rows, None])
            coef = _TRICUBE_TAYLOR.T @ _powers(e).reshape(10, -1)
            coef[0::2] *= inside.ravel()
            coef[1::2] *= (side * inside).ravel()
            part = np.matmul(coef.reshape(10, -1, chunks), power_sums)
            part *= _powers(half * inverse[rows])[:, :, None]
            sums[rows] = part.sum(axis=0)

    # the two chunks weighed point by point, one chunk at a time, each row's
    # own chunk before its last: the rows ascend, so each own chunk's rows
    # are a run of them; the rows whose last chunk is k are gathered by sort
    own_at = np.searchsorted(own, np.arange(chunks + 1))
    far = np.flatnonzero(last != own)
    far = far[np.argsort(last[far], kind="stable")]
    far_at = np.searchsorted(last[far], np.arange(chunks + 1))
    step = max(1, BLOCK_ELEMENTS // chunk)
    for k in range(chunks):
        cols = slice(k * chunk, min((k + 1) * chunk, width))
        own_blocks = [
            slice(start, min(start + step, own_at[k + 1]))
            for start in range(own_at[k], own_at[k + 1], step)
        ]
        far_blocks = [
            far[start : min(start + step, far_at[k + 1])]
            for start in range(far_at[k], far_at[k + 1], step)
        ]
        for rows in own_blocks + far_blocks:
            w = np.subtract.outer(x0[rows], x[cols])  # exactly i - j
            np.abs(w, out=w)
            w *= inverse[rows, None]
            np.minimum(w, 1.0, out=w)  # past the radius the weight is 0
            sums[rows] += _tricube(w) @ columns[cols]
    s0, s1, s2, sy, sxy, sy_rev, sxy_rev = sums.T
    return (
        _line_at(s0, s1, s2, sy, sxy, x0, radius),
        _line_at(s0, s1, s2, sy_rev, sxy_rev, x0, radius),
    )


def _powers(base):
    """base^0 .. base^9 along a new first axis."""
    out = np.empty((10,) + base.shape)
    out[0] = 1.0
    out[1] = base
    for p in range(2, 10):
        np.multiply(out[p - 1], base, out=out[p])
    return out


def _chunk_length(width):
    """Columns per chunk of _band_lines' block of width columns.

    A row's direct work grows with the chunk and its power-sum work with the
    number of chunks, so the chunk is about sqrt(8 * width); under 8 chunks
    the power sums do not pay for themselves and one chunk spans the block.
    """
    chunk = math.ceil(math.sqrt(8 * width))
    return chunk if width >= 8 * chunk else width


def _kernel_means(values, half):
    """Tricube-weighted mean of each full window [i - half, i + half], i from half to n - half - 1."""
    n = len(values)
    u = np.abs(np.arange(-half, half + 1)) / half
    # ** 3 keeps outputs: _tricube's c*c*c differs in 1 194 of 4 801 weights at half 2 400
    kernel = (1.0 - u * u * u) ** 3
    size = 1 << (n - 1).bit_length()  # the wrap-around stays in the 2 * half dropped outputs
    spectrum = np.fft.rfft(values, size)
    spectrum *= np.fft.rfft(kernel, size)
    means = np.fft.irfft(spectrum, size)[2 * half : n]
    means /= kernel.sum()
    return means


def _fit_shared_rows(values, fit, lo, hi, half, smoothed):
    """Fit the rows of fit that share weights on a uniform grid into smoothed; return the rest."""
    n = len(values)
    pending = np.zeros(n, dtype=bool)
    pending[fit] = True
    # interior rows: window inside [i-H, i+H]; it holds at least 2H points,
    # so it misses at most one end, which would sit at d_max and weigh 0
    interior = fit[
        (fit >= half) & (fit < n - half) & (lo[fit] >= fit - half) & (hi[fit] <= fit + half + 1)
    ]
    if len(interior):
        smoothed[interior] = _kernel_means(values, half)[interior - half]
        pending[interior] = False
    left = _mirrored_rows(pending, lo, hi)
    if len(left):
        for band, (value, ok) in zip((left, n - 1 - left), _band_lines(values, left, lo, hi)):
            take = ok & pending[band]
            smoothed[band[take]] = value[take]
            pending[band[take]] = False
    return np.flatnonzero(pending)


# a span of t or values too large for float64 sums leave the fit non-finite;
# that is reported once, as a DomainError, in place of numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def lowess_values(t, values, fraction=DEFAULT_FRACTION, robust_iterations=0):
    """Core array-level lowess. Returns smoothed values on the same grid.

    t may come in any order; the result follows the caller's order.
    """
    if not (_is_real(fraction) and 0.0 < fraction <= 1.0):
        raise DomainError(f"fraction out of range (0, 1]: {_shown(fraction)}")
    if not _is_integral(robust_iterations) or robust_iterations < 0:
        raise DomainError(
            f"robust_iterations must be a nonnegative integer, got {_shown(robust_iterations)}"
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
    fit = np.flatnonzero(~constant)

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


def lowess(series, fraction=DEFAULT_FRACTION, robust_iterations=0):
    """Smooth a MetricSeries; the output keeps grid, name, orientation."""
    smoothed = lowess_values(series.t, series.values, fraction, robust_iterations)
    return MetricSeries(
        name=series.name, orientation=series.orientation, t=series.t, values=smoothed
    )
