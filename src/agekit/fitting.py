"""Least-squares fitting of the kinetic growth law to an aging curve.

Two stages, both in this module because the second is useless without the
first: a linear initializer (ordinary least squares on ln y = ln K + alpha*t
+ beta*ln t over samples safely above zero) and a damped Gauss-Newton refiner
(Levenberg-Marquardt) on the original, untransformed objective

    S(K, alpha, beta) = sum_i (y_i - K * exp(alpha*t_i) * t_i**beta)^2.

The refiner is a projected LM with an active set (Kanzow, Yamashita &
Fukushima 2004): a parameter at its lower bound (K_MIN, alpha = 0, beta = 0)
whose descent direction points out of the domain is held there, the step is
solved on the free parameters and projected onto the bounds, and it is only
accepted when it lowers S, so the accepted-step S sequence is nonincreasing by
construction. It stops, as MINPACK's gtol test does (More 1978), once every
free Jacobian column is nearly orthogonal to the residual: the test is on a
cosine, so it holds at any scale of t, y or n.
"""

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import FeedbackLoopModel, eval_model
from .timeseries import _as_readonly_float_array, format_float, write_text_atomic

Y_FLOOR = 1e-6  # below this a sample cannot inform the log-space initializer
K_MIN = 1e-12
LAMBDA_START = 1e-3
LAMBDA_MAX = 1e15
LAMBDA_MIN = 1e-15
STEP_TOL = 1e-10  # converged: largest relative parameter step below this
GRADIENT_TOL = 1e-8  # converged: largest free residual-column cosine below this
PARAMETERS = ("K", "alpha", "beta")
LOWER_BOUNDS = np.array([K_MIN, 0.0, 0.0])

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


def _model_and_jacobian(theta, t, log_t):
    K, alpha, beta = theta
    growth = np.exp(alpha * t) * np.exp(beta * log_t)  # exp(alpha*t) * t**beta
    f = K * growth
    jac = np.column_stack((growth, t * f, log_t * f))
    return f, jac


def _project(theta):
    return np.maximum(theta, LOWER_BOUNDS)


def _largest_cosine(gradient, diag, ssr, free):
    """Largest |J_j^T r| / (||J_j|| ||r||) over the free columns j, 0 when none."""
    denominator = np.sqrt(diag) * np.sqrt(ssr)
    cosines = np.abs(gradient) / np.where(denominator > 0.0, denominator, 1.0)
    return float(np.max(cosines, initial=0.0, where=free))


@dataclass(frozen=True)
class LMResult:
    """Raw solver outcome: final parameters plus bookkeeping for diagnostics."""

    theta: np.ndarray
    converged: bool
    iterations: int
    ssr_path: tuple  # SSR at start, then after each accepted step
    gradient_cosine: float  # largest free-column cosine at theta
    active_bounds: tuple  # names of the parameters frozen at their lower bound at theta


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
    scale-free first-order test), or the relative parameter step fell below
    STEP_TOL. A step that no damping makes acceptable is a stall, not
    convergence.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    log_t = np.log(t)
    theta = _project(np.asarray(start, dtype=float))
    f, jac = _model_and_jacobian(theta, t, log_t)
    residual = y - f
    # not residual @ residual: past 10 000 elements OpenBLAS threads ddot, and a
    # second thread waking from idle stalls each such dot by milliseconds
    ssr = float(np.einsum("i,i->", residual, residual))
    ssr_path = [ssr]
    lam = LAMBDA_START
    converged = False
    stalled = False
    iterations = 0

    while True:
        gradient = jac.T @ residual
        hessian = jac.T @ jac
        diag = np.diag(hessian)
        free = (theta > LOWER_BOUNDS) | (gradient > 0.0)
        cosine = _largest_cosine(gradient, diag, ssr, free)
        if cosine < GRADIENT_TOL:
            converged = True
        if converged or stalled or iterations == max_iterations:
            break
        iterations += 1
        index = np.flatnonzero(free)
        reduced = hessian[np.ix_(index, index)]
        damping = np.diag(np.maximum(diag[index], 1e-30))  # keep it positive
        stalled = True
        while lam <= LAMBDA_MAX:
            system = reduced + lam * damping
            try:
                solved = np.linalg.solve(system, gradient[index])
            except np.linalg.LinAlgError:
                solved = np.linalg.lstsq(system, gradient[index], rcond=None)[0]
            delta = np.zeros_like(theta)
            delta[index] = solved
            candidate = _project(theta + delta)
            with np.errstate(over="ignore", invalid="ignore"):  # such a step is rejected below
                f_new, jac_new = _model_and_jacobian(candidate, t, log_t)
                residual_new = y - f_new
                ssr_new = float(np.einsum("i,i->", residual_new, residual_new))
            if np.isfinite(ssr_new) and ssr_new < ssr:
                step = np.abs(candidate - theta)
                scale = np.maximum(np.abs(candidate), np.abs(theta))
                rel_step = float(np.max(step / np.maximum(scale, 1e-12)))
                theta, f, jac, residual, ssr = candidate, f_new, jac_new, residual_new, ssr_new
                ssr_path.append(ssr)
                lam = max(lam / 10.0, LAMBDA_MIN)
                stalled = False
                converged = rel_step < STEP_TOL
                break
            lam *= 10.0

    return LMResult(
        theta=theta,
        converged=converged,
        iterations=iterations,
        ssr_path=tuple(ssr_path),
        gradient_cosine=cosine,
        active_bounds=tuple(name for name, is_free in zip(PARAMETERS, free) if not is_free),
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
    tm = t[usable]
    design = np.column_stack((np.ones(count), tm, np.log(tm)))
    coef, *_ = np.linalg.lstsq(design, np.log(y[usable]), rcond=None)
    k0 = float(np.exp(np.clip(coef[0], np.log(K_MIN), np.log(1e12))))
    return np.array([k0, max(float(coef[1]), 0.0), max(float(coef[2]), 0.0)])


def fit(curve):
    """Fit the growth law to an aging curve and report goodness of fit.

    ``converged=False`` is a report outcome, not an exception; degenerate
    input (constant y, everything under the floor, bad grid) raises.
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

    start = _initial_guess(t, y)
    result = levenberg_marquardt(t, y, start)
    model = FeedbackLoopModel(*(float(p) for p in result.theta))
    predicted = eval_model(model, t)
    return FitReport(
        model=model,
        rmse=rmse(y, predicted),
        r_square=r_square(y, predicted),
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
