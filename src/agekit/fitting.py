"""Least-squares fitting of the kinetic growth law to an aging curve.

Two stages, both in this module because the second is useless without the
first: a linear initializer (least squares on ln y = ln K + alpha*t + beta*ln t
over samples safely above zero, each row weighted by y_i) and a damped
Gauss-Newton refiner (Levenberg-Marquardt) on the original, untransformed
objective

    S(K, alpha, beta) = sum_i (y_i - K * exp(alpha*t_i) * t_i**beta)^2.

Unweighted, the log-space fit would weigh each sample by 1/y_i^2, so the
near-zero early samples would decide the start. Weighting row i by y_i makes
its residual y_i * (ln y_i - ln f_i), about y_i - f_i: to first order the
untransformed objective (Guo 2011, IEEE Signal Processing Magazine 28(5)).

The refiner is a projected LM with an active set (Kanzow, Yamashita &
Fukushima 2004): a parameter at its lower bound (K_MIN, alpha = 0, beta = 0)
whose descent direction points out of the domain is held there, the step is
solved on the free parameters and projected onto the bounds, and it is only
accepted when it lowers S, so the accepted-step S sequence is nonincreasing by
construction. It stops, as MINPACK's gtol test does (More 1978), once every
free Jacobian column is nearly orthogonal to the residual: the test is on a
cosine, so it holds at any scale of t, y or n. A step that no damping makes
acceptable is a stall; a stall is convergence when the Gauss-Newton step on
the free parameters promises a decrease within the rounding the SSR carries.
"""

import csv
import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import FeedbackLoopModel
from .timeseries import _as_readonly_float_array, format_float, write_text_atomic

Y_FLOOR = 1e-6  # below this a sample cannot inform the log-space initializer
K_MIN = 1e-12
LAMBDA_START = 1e-3
LAMBDA_MAX = 1e15
LAMBDA_MIN = 1e-15
GRADIENT_TOL = 1e-8  # converged: largest free residual-column cosine below this
# converged: a stall whose Gauss-Newton step promises an SSR decrease <= this * sum |y * r|,
# the rounding the SSR carries when each residual holds about 2 eps |y|
SSR_ROUNDING = 4.0 * math.ulp(1.0)
LOG_FLOAT_MAX = math.log(sys.float_info.max)  # the start's ln K stays below overflow
PARAMETERS = ("K", "alpha", "beta")
LOWER_BOUNDS = (K_MIN, 0.0, 0.0)

FIT_REPORT_HEADER = ("name", "K", "alpha", "beta", "rmse", "r_square")


def rmse(observed, predicted):
    """Root mean squared prediction error."""
    observed = _as_readonly_float_array(observed, "observed", "rmse needs finite values")
    predicted = _as_readonly_float_array(predicted, "predicted", "rmse needs finite values")
    if len(observed) != len(predicted) or len(observed) == 0:
        raise DomainError("rmse needs two equal-length nonempty vectors")
    residual = predicted - observed
    return float(np.sqrt(np.mean(residual * residual)))


def r_square(observed, predicted):
    """Coefficient of determination, 1 - SS_res/SS_tot. At most 1, may go negative."""
    observed = _as_readonly_float_array(observed, "observed", "r_square needs finite values")
    predicted = _as_readonly_float_array(predicted, "predicted", "r_square needs finite values")
    if len(observed) != len(predicted) or len(observed) < 2:
        raise DomainError("r_square needs two equal-length vectors of at least 2 samples")
    mean = observed.mean()
    ss_tot = float(np.sum((observed - mean) ** 2))
    if ss_tot == 0.0:
        raise DomainError("r_square undefined: observed values are all equal")
    ss_res = float(np.sum((observed - predicted) ** 2))
    return 1.0 - ss_res / ss_tot


def _model_and_jacobian(theta, t, log_t, jac):
    """Write the Jacobian's columns into the (n, 3) array ``jac``; return the model values."""
    K, alpha, beta = theta
    growth = np.exp(alpha * t) * np.exp(beta * log_t)  # exp(alpha*t) * t**beta
    f = K * growth
    jac[:, 0] = growth  # contiguous products, then strided stores: faster than out= columns
    jac[:, 1] = t * f
    jac[:, 2] = log_t * f
    return f


def _largest_cosine(gradient, diag, ssr, free):
    """Largest |J_j^T r| / (||J_j|| ||r||) over the free columns j: 0 when none, NaN if any is."""
    cosines = [0.0]
    for k in free:
        denominator = math.sqrt(diag[k]) * math.sqrt(ssr)
        cosines.append(abs(gradient[k]) / (denominator if denominator > 0.0 else 1.0))
    return math.nan if any(map(math.isnan, cosines)) else max(cosines)


def _promise_within_rounding(gradient, hessian, free, y, residual):
    """Whether the Gauss-Newton step on the free parameters promises an SSR decrease
    g_f^T H_ff^-1 g_f of at most SSR_ROUNDING * sum |y * r|; a singular H_ff promises no bound."""
    g = gradient[free]
    try:
        promise = float(g @ np.linalg.solve(hessian[np.ix_(free, free)], g))
    except np.linalg.LinAlgError:
        return False
    rounding = SSR_ROUNDING * float(np.einsum("i,i->", np.abs(y), np.abs(residual)))
    return promise <= rounding


@dataclass(frozen=True)
class LMResult:
    """Raw solver outcome: final parameters plus bookkeeping for diagnostics."""

    theta: np.ndarray
    converged: bool
    iterations: int
    ssr_path: tuple  # SSR at start, then after each accepted step
    gradient_cosine: float  # largest free-column cosine at theta
    active_bounds: tuple  # names of the parameters frozen at their lower bound at theta


@np.errstate(over="ignore", invalid="ignore")  # an overflowed SSR or step is rejected below
def levenberg_marquardt(t, y, start, max_iterations=200):
    """Minimize the untransformed SSR from ``start`` over K >= K_MIN, alpha, beta >= 0.

    Each iteration freezes the active set: every parameter at its lower bound
    whose descent direction (J^T r)_j points out of the domain. The damped
    normal equations are solved on the other, free parameters, the step is
    projected back onto the bounds, and it is accepted only if it lowers the
    SSR. Damping starts at 1e-3, grows tenfold on a rejected step and shrinks
    tenfold on an accepted one.

    Convergence means the largest cosine between the residual and a free
    Jacobian column, |J_j^T r| / (||J_j|| ||r||), fell below GRADIENT_TOL (a
    scale-free first-order test). A step that no damping makes acceptable is a
    stall. A stall is convergence when the undamped Gauss-Newton step on the
    free parameters promises an SSR decrease g_f^T H_ff^-1 g_f of at most
    SSR_ROUNDING * sum |y_i * r_i|: each residual carries about 2 eps |y_i| of
    rounding, so the SSR cannot resolve a smaller decrease, and the cosine
    there may be rounding noise. A singular H_ff is not convergence. A start whose SSR
    overflows float64, or a Gram matrix J^T J that does, ends the run
    unconverged with a NaN cosine.
    """
    t, y = np.asarray(t, dtype=float), np.asarray(y, dtype=float)
    log_t = np.log(t)
    theta = np.maximum(np.asarray(start, dtype=float), LOWER_BOUNDS).tolist()
    jac, trial_jac = np.empty((len(t), 3)), np.empty((len(t), 3))
    residual = y - _model_and_jacobian(theta, t, log_t, jac)
    # einsum, not @: OpenBLAS threads ddot past 10 000 elements, and its idle thread stalls it
    ssr = float(np.einsum("i,i->", residual, residual))
    ssr_path = [ssr]
    lam = LAMBDA_START
    converged = stalled = False
    iterations = 0
    cosine, free = math.nan, range(3)

    # an overflowed SSR or Gram matrix measures no step and would pass the cosine
    # test, so a start there returns unconverged; every accepted SSR is finite
    while math.isfinite(ssr):
        gradient, hessian = jac.T @ residual, jac.T @ jac
        g, diag = gradient.tolist(), hessian.diagonal().tolist()
        if not math.isfinite(sum(diag)):
            cosine = math.nan
            break
        free = [k for k in range(3) if theta[k] > LOWER_BOUNDS[k] or g[k] > 0.0]
        cosine = _largest_cosine(g, diag, ssr, free)
        converged = cosine < GRADIENT_TOL or (
            stalled and _promise_within_rounding(gradient, hessian, free, y, residual)
        )
        if converged or stalled or iterations == max_iterations:
            break
        iterations += 1
        system = hessian.copy() if len(free) == 3 else hessian[np.ix_(free, free)]
        rhs = gradient if len(free) == 3 else gradient[free]
        damping = [(diag[k], max(diag[k], 1e-30)) for k in free]  # keep it positive
        stalled = True
        while lam <= LAMBDA_MAX:
            for i, (h, d) in enumerate(damping):
                system[i, i] = h + lam * d
            try:
                solved = np.linalg.solve(system, rhs)
            except np.linalg.LinAlgError:
                solved = np.linalg.lstsq(system, rhs, rcond=None)[0]
            step = dict(zip(free, solved.tolist()))
            trial = [max(theta[k] + step.get(k, 0.0), LOWER_BOUNDS[k]) for k in range(3)]
            trial_residual = y - _model_and_jacobian(trial, t, log_t, trial_jac)
            trial_ssr = float(np.einsum("i,i->", trial_residual, trial_residual))
            if math.isfinite(trial_ssr) and trial_ssr < ssr:
                theta, residual, ssr = trial, trial_residual, trial_ssr
                jac, trial_jac = trial_jac, jac  # the old Jacobian is the next trial's buffer
                ssr_path.append(ssr)
                lam = max(lam / 10.0, LAMBDA_MIN)
                stalled = False
                break
            lam *= 10.0

    return LMResult(
        theta=np.array(theta),
        converged=converged,
        iterations=iterations,
        ssr_path=tuple(ssr_path),
        gradient_cosine=cosine,
        active_bounds=tuple(name for k, name in enumerate(PARAMETERS) if k not in free),
    )


@dataclass(frozen=True)
class FitReport:
    """Fitted growth law plus the goodness-of-fit numbers reported alongside it."""

    model: FeedbackLoopModel
    rmse: float
    r_square: float
    n_samples: int
    converged: bool
    iterations: int
    gradient_cosine: float
    active_bounds: tuple


def _initial_guess(t, y):
    """Start (K, alpha, beta): least squares on ln y = ln K + alpha*t + beta*ln t with
    each row weighted by y, over the samples above Y_FLOOR, clipped to the bounds.

    Where the clipped start's SSR or Gram matrix overflows, so that the solver
    could take no step from it (alpha clipped to 0 can leave beta near 100),
    the least squares is solved again with each clipped parameter held at its
    bound, and the free ones clipped once more.
    """
    usable = y > Y_FLOOR
    count = int(usable.sum())
    if count == 0:
        raise DomainError(
            f"all samples at or below y_floor={Y_FLOOR}; log-space initialization impossible"
        )
    if count < 3:
        raise DomainError(
            f"only {count} samples above y_floor={Y_FLOOR}; need 3 to initialize 3 parameters"
        )
    tm, ym = t[usable], y[usable]
    design = np.column_stack((ym, ym * tm, ym * np.log(tm)))
    target = ym * np.log(ym)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    bounds = ((math.log(K_MIN), 0.0, 0.0), (LOG_FLOAT_MAX, math.inf, math.inf))
    start = np.clip(coef, *bounds)  # ln K, alpha, beta
    held = start != coef
    if 0 < held.sum() < 3:
        jac = np.empty((len(t), 3))
        with np.errstate(over="ignore", invalid="ignore"):
            f = _model_and_jacobian((math.exp(start[0]), *start[1:]), t, np.log(t), jac)
            overflows = not math.isfinite(np.sum((y - f) ** 2) + np.sum(jac * jac))
        if overflows:
            shifted = target - design[:, held] @ start[held]
            start[~held] = np.linalg.lstsq(design[:, ~held], shifted, rcond=None)[0]
            start = np.clip(start, *bounds)
    return np.array([math.exp(start[0]), start[1], start[2]])


def fit(curve):
    """Fit the growth law to an aging curve and report goodness of fit.

    ``converged=False`` is a report outcome, not an exception; degenerate
    input (constant y, everything under the floor, bad grid) raises, and so
    does an SSR that overflows float64.
    """
    t = _as_readonly_float_array(curve.t, "t", "fit input has non-finite entries")
    y = _as_readonly_float_array(curve.y, "y", "fit input has non-finite entries")
    if len(t) != len(y):
        raise DomainError("fit needs matching one-dimensional t and y")
    if len(t) < 4:
        raise DomainError(f"fit needs at least 4 samples, got {len(t)}")
    if np.any(t <= 0.0) or not np.all(np.diff(t) > 0):
        raise DomainError("fit times must be strictly positive and increasing")
    if np.all(y == y[0]):
        raise DomainError("degenerate curve: constant aging degree cannot be fitted")

    result = levenberg_marquardt(t, y, _initial_guess(t, y))
    ssr = result.ssr_path[-1]
    with np.errstate(over="ignore"):
        ss_tot = float(np.sum((y - y.mean()) ** 2))
    if not math.isfinite(ssr) or not math.isfinite(ss_tot):
        raise DomainError("fit overflowed: the values are too large for float64 sums")
    return FitReport(
        model=FeedbackLoopModel(*(float(p) for p in result.theta)),
        rmse=math.sqrt(ssr / len(t)),
        r_square=1.0 - ssr / ss_tot,
        n_samples=len(t),
        converged=result.converged,
        iterations=result.iterations,
        gradient_cosine=result.gradient_cosine,
        active_bounds=result.active_bounds,
    )


def fit_report_rows(named_reports):
    """Render (name, FitReport) pairs as CSV text, Table-1 column order."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(FIT_REPORT_HEADER)
    for name, report in named_reports:
        writer.writerow(
            [
                name,
                format_float(report.model.K),
                format_float(report.model.alpha),
                format_float(report.model.beta),
                format_float(report.rmse),
                format_float(report.r_square),
            ]
        )
    return buffer.getvalue()


def write_fit_reports(path, named_reports):
    """Serialize fit reports to CSV atomically."""
    write_text_atomic(path, fit_report_rows(named_reports))
