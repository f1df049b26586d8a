"""Locally weighted scatterplot smoothing on the series' own time grid.

Each output point is an independent local weighted linear fit: the window is
the ceil(fraction*n) nearest neighbors by |t_j - t_i| (every point tied at the
boundary distance is included), weighted by the tricube kernel on d/d_max.

Evaluation is batched. The samples are sorted by t once (results are
scattered back to the caller's order), which makes every window a contiguous
run [lo, hi), and neither lo nor hi falls from one row to the next, so a run
of rows spans [lo of its first, hi of its last). The bounds of all windows
are guessed, and each guess is checked on the same computed distances the
definition uses; a row whose guess fails is found by bisection, so boundary
ties are decided exactly as a full scan would decide them. One kernel, _lines,
reads every line off the moments of [1, x, x^2, y, x*y], a block of
consecutive rows at a time under a fixed element budget. A wide window is cut
into chunks of about sqrt(8 * window) points; on one side of a row and inside
its radius the tricube is a degree-9 polynomial in t, so such a chunk enters
through its ten power sums, and only the chunks holding the rows or their
windows' ends are weighed point by point. A row whose moments are ill posed
is refitted on its own by a centred second pass, which holds every special
case.

On a uniform grid the first pass shares weights between rows. The interior
windows share one symmetric tricube kernel, which puts each local line's
value at the kernel-weighted mean of the values: one convolution, taken as a
product of real FFTs. A left-edge row and its mirror on the right share one
row of tricube weights, so the kernel takes both bands at once, the reversed
values as two more columns; the pairing is read off the computed windows.
"""

import math

import numpy as np

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
    candidate index per row to booleans, monotone (false, then true) over each
    row's range; last is the largest index pred accepts. So the answer is the
    one k with pred(k) (or k = hi) and not pred(k - 1) (or k = lo). A row whose
    guess, clipped to its range, passes that check keeps it; the other rows
    bisect, each step halving every range.
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


def _block_ends(rows, held, lo, hi, chunk, chunks):
    """Split rows into runs whose blocks hold at most BLOCK_ELEMENTS: per row, weights on the
    run's held chunks (at most its union) and ten power-sum coefficients per other chunk.
    Over ascending rows, lo, hi and each held index never fall, so a run's union and held
    ranges are read off its first and last row."""
    def size(start, end):
        union = hi[rows[end - 1]] - lo[rows[start]]
        if not held:
            return union
        direct = sum(max(0, min(k[end - 1], chunks - 1) - max(k[start], 0) + 1) for k in held)
        return min(union, direct * chunk) + 10 * max(0, union // chunk - 1)

    start = 0
    while start < len(rows):
        end = min(len(rows), start + max(1, BLOCK_ELEMENTS // size(start, start + 1)))
        while end - start > 1:
            cols = size(start, end)
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
    ((fitted, ok),) = _lines(t, values[:, None], rows, lo, hi, d_max, robustness)
    for k in np.flatnonzero(~ok):
        fitted[k] = _fit_row(t, values, rows[k], lo, hi, d_max, robustness)
    return fitted


def _lines(t, ys, rows, lo, hi, d_max, robustness):
    """Per column of ys, _line_at's (value, ok) for the local lines at sorted, distinct rows.

    Row i weighs point j by tricube(min(|t_j - t_i|, d_i) / d_i), times its
    robustness weight on a robust pass; the moments of [1, x, x^2, then y and
    x*y per column of ys] are taken about the middle of each block's t.
    """
    c_lo = lo[rows[0]]
    span = hi[rows[-1]] - c_lo
    chunk = _chunk_length(int(np.max(hi[rows] - lo[rows]))) or span
    chunks = -(-span // chunk)
    width = 3 + 2 * ys.shape[1]
    # over the rows' union, padded with zeros to whole chunks; x is refilled in
    # place: a new matrix per block costs more than its product
    columns = np.zeros((chunks * chunk, width))
    columns[:span, 0] = 1.0
    columns[:span, 3::2] = ys[c_lo : c_lo + span]
    held = ()  # with one chunk, a block weighs its union point by point

    def x_about(origin, a, b):  # the columns [a, b) with x = t - origin
        block = columns[a - c_lo : b - c_lo]
        x = np.subtract(t[a:b], origin, out=block[:, 1])
        np.multiply(x, x, out=block[:, 2])
        np.multiply(x[:, None], ys[a:b], out=block[:, 4::2])
        return block

    if chunks > 1:
        # sums[k, p] = sum over chunk k of u^p times the columns (and the
        # robustness weights), x and u = x / half about the chunk's centre
        starts = c_lo + chunk * np.arange(chunks)
        ends = np.minimum(starts + chunk, c_lo + span) - 1
        centres = t[starts] / 2 + t[ends] / 2
        halves = t[ends] / 2 - t[starts] / 2
        x_about(np.repeat(centres, chunk)[:span], c_lo, c_lo + span)
        u = columns[:, 1] / np.repeat(np.where(halves > 0.0, halves, 1.0), chunk)
        power = np.ones(chunks * chunk)
        power[:span] = 1.0 if robustness is None else robustness[c_lo : c_lo + span]
        sums = np.empty((chunks, 10, width))
        blocks = columns.reshape(chunks, chunk, width)
        for p in range(10):
            np.matmul(power.reshape(chunks, 1, chunk), blocks, out=sums[:, p : p + 1])
            power *= u
        # held: the chunks holding each row and its window's ends, or the next
        # chunk where a window holds its end's chunk whole (padding included)
        first = (lo[rows] - c_lo - 1) // chunk
        own = (rows - c_lo) // chunk
        last = (hi[rows] - c_lo + (hi[rows] == c_lo + span) * (chunks * chunk - span)) // chunk
        held = (first, own, last)

    moments = np.zeros((len(rows), width))
    x0 = np.empty(len(rows))  # each row's x, about the middle of its block's t
    for start, end in _block_ends(rows, held, lo, hi, chunk, chunks):
        r = rows[start:end]
        c0, c1 = lo[r[0]], hi[r[-1]]
        mid = t[c0] / 2 + t[c1 - 1] / 2
        np.subtract(t[r], mid, out=x0[start:end])
        # the three ranges of held chunks, merged, are weighed point by point
        # for every row of the block: past its window a point weighs 0; as
        # first <= own <= last per row, the ranges come in that order
        runs = [] if held else [[0, 0]]
        for a, b in ((k[start], k[end - 1]) for k in held):
            if runs and a <= runs[-1][1] + 1:
                runs[-1][1] = max(runs[-1][1], b)
            else:
                runs.append([a, b])
        cut = [(max(c0, c_lo + a * chunk), min(c1, c_lo + (b + 1) * chunk)) for a, b in runs]
        for a, b in [(a, b) for a, b in cut if a < b]:
            w = np.subtract(t[a:b], t[r, None])
            np.abs(w, out=w)
            # clipped at d_max, a point past the window weighs 0 and cannot overflow u
            np.minimum(w, d_max[r, None], out=w)
            w /= d_max[r, None]
            _tricube(w)
            if robustness is not None:
                w *= robustness[a:b]
            moments[start:end] += w @ x_about(mid, a, b)
        between = [np.arange(b + 1, a) for (_, b), (a, _) in zip(runs, runs[1:])]
        if sum(map(len, between)):
            k = np.concatenate(between)
            # |t_j - t_i| / d_i = e + g u on chunk k, e = |centre - t_i| / d_i and
            # g = side * half / d_i (k holds no row of the block: one side for all),
            # so chunk k weighs sum_p c_p(e) g^p u^p
            scale = np.where(k < own[start], -1.0, 1.0) / d_max[r, None]
            e = (centres[k] - t[r, None]) * scale
            coef = (_TRICUBE_TAYLOR.T @ _powers(e).reshape(10, -1)).reshape((10,) + e.shape)
            inside = (k > first[start:end, None]) & (k < last[start:end, None])
            coef *= _powers(halves[k] * scale, inside)
            # the chunks' sums with x moved from each chunk's centre to mid
            shifted = sums[k]
            s = (centres[k] - mid)[:, None]
            shifted[..., 2] += s * (2.0 * shifted[..., 1] + s * shifted[..., 0])
            shifted[..., 1] += s * shifted[..., 0]
            shifted[..., 4::2] += s[..., None] * shifted[..., 3::2]
            moments[start:end] += np.matmul(coef, shifted.transpose(1, 0, 2)).sum(axis=0)
    s0, s1, s2 = moments.T[:3]
    pairs = zip(moments.T[3::2], moments.T[4::2])
    return [_line_at(s0, s1, s2, sy, sxy, x0, d_max[rows]) for sy, sxy in pairs]


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


def _powers(base, scale=1.0):
    """scale * base^0 .. base^9 along a new first axis."""
    out = np.empty((10,) + base.shape)
    out[0] = scale
    for p in range(1, 10):
        np.multiply(out[p - 1], base, out=out[p])
    return out


def _chunk_length(width):
    """Points per chunk of _lines for windows up to width points, or 0 for one chunk.

    A row's direct work grows with the chunk and its power-sum work with the
    chunks in its window, so the chunk is about sqrt(8 * width); under 8
    chunks the power sums do not pay for themselves.
    """
    chunk = math.ceil(math.sqrt(8 * width))
    return chunk if width >= 8 * chunk else 0


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


def _fit_shared_rows(t, values, fit, lo, hi, d_max, half, smoothed):
    """Fit the rows of fit that share weights on a uniform grid into smoothed; return the rest."""
    n = len(values)
    pending = np.zeros(n, dtype=bool)
    pending[fit] = True
    # interior rows: on a grid _is_uniform accepts, a window of at least 2H points
    # lies in [i-H, i+H] and misses at most one end, which would sit at d_max and weigh 0
    interior = fit[(fit >= half) & (fit < n - half)]
    if len(interior):
        smoothed[interior] = _kernel_means(values, half)[interior - half]
        pending[interior] = False
    left = _mirrored_rows(pending, lo, hi)
    if len(left):
        ys = np.column_stack((values, values[::-1]))[: hi[left[-1]]].copy()  # the bands' union
        fits = _lines(t, ys, left, lo, hi, d_max, None)
        for band, (value, ok) in zip((left, n - 1 - left), fits):
            take = ok & pending[band]
            smoothed[band[take]] = value[take]
            pending[band[take]] = False
    return np.flatnonzero(pending)


# a span of t or values too large for float64 sums leave the fit non-finite;
# that is reported once, as a DomainError, in place of numpy's warnings; a zero
# radius leaves its row's moments non-finite, and _fit_row takes the row
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
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
        general = _fit_shared_rows(t, values, fit, lo, hi, d_max, half, smoothed)
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
