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

S is linear in K, so the refiner solves K in closed form for each (alpha,
beta) and runs on those two alone (variable projection: Golub & Pereyra 1973;
Kaufman 1975). K has no bound and no start; only alpha and beta have one, at
0. The refiner is a projected LM with an active set (Kanzow, Yamashita &
Fukushima 2004): alpha or beta at 0 whose descent direction points out of the
domain is held there, the step is solved on the free parameters and projected
onto the bounds, and it is only accepted when it lowers S, so the
accepted-step S sequence is nonincreasing by construction. It stops, as
MINPACK's gtol test does (More 1978), once every free Jacobian column is
nearly orthogonal to the residual: the test is on a cosine, so it holds at any
scale of t, y or n. A step that no damping makes acceptable is a stall; a
stall is convergence when the Gauss-Newton step on the free parameters
promises a decrease within the rounding the SSR carries.
"""

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import FeedbackLoopModel
from .timeseries import _as_readonly_float_array, format_float, write_text_atomic

Y_FLOOR = 1e-6  # below this a sample cannot inform the log-space initializer
LAMBDA_START = 1e-3
LAMBDA_MAX = 1e15
LAMBDA_MIN = 1e-15
GRADIENT_TOL = 1e-8  # converged: largest free residual-column cosine below this
# converged: a stall whose Gauss-Newton step promises an SSR decrease <= this * sum |y * r|,
# the rounding the SSR carries when each residual holds about 2 eps |y|
SSR_ROUNDING = 4.0 * math.ulp(1.0)
PARAMETERS = ("K", "alpha", "beta")

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


def _project(alpha, beta, t, log_t, y, jac):
    """Solve K in closed form at (alpha, beta); write g and the alpha and beta columns
    t*f and ln t*f into the (n, 3) array ``jac``; return [K, alpha, beta] and y - f.

    g is exp(alpha*t) * t**beta scaled to a maximum of 1, so neither the model nor
    its Jacobian overflows; K = <g, y>/<g, g> for it, kept at 0 when <g, y> <= 0.
    """
    ell = alpha * t + beta * log_t
    top = float(ell.max())
    g = np.exp(ell - top)
    # einsum, not @: OpenBLAS threads ddot past 10 000 elements, and its idle thread stalls it
    scale = max(float(np.einsum("i,i->", g, y)), 0.0) / float(np.einsum("i,i->", g, g))
    f = scale * g
    jac[:, 0] = g  # contiguous products, then strided stores: faster than out= columns
    jac[:, 1] = t * f
    jac[:, 2] = log_t * f
    return [scale * float(np.exp(-top)), alpha, beta], y - f


def _largest_cosine(gradient, diag, ssr, free):
    """Largest |J_j^T r| / (||J_j|| ||r||) over the free columns j: 0 when none, NaN if any is."""
    cosines = [0.0]
    for k in free:
        denominator = math.sqrt(diag[k]) * math.sqrt(ssr)
        cosines.append(abs(gradient[k]) / (denominator if denominator > 0.0 else 1.0))
    return math.nan if any(map(math.isnan, cosines)) else max(cosines)


def _solve_step(hessian, gradient, free, lam):
    """The step s of (H + lam D) s = g, D = diag(H) floored at 1e-30, or None if singular.
    A held parameter's row and column are the identity's and its g entry 0: its step is 0."""
    system, rhs = [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]
    for j in free:
        system[j] = [hessian[j][k] if k in free else 0.0 for k in range(2)]
        system[j][j] += lam * max(hessian[j][j], 1e-30)  # keep the damping positive
        rhs[j] = gradient[j]
    try:
        return np.linalg.solve(system, rhs).tolist()
    except np.linalg.LinAlgError:
        return None


def _promise_within_rounding(hessian, gradient, free, y, residual):
    """Whether the Gauss-Newton step on the free parameters promises an SSR decrease
    g_f^T H_ff^-1 g_f of at most SSR_ROUNDING * sum |y * r|; a singular H_ff promises no bound."""
    step = _solve_step(hessian, gradient, free, 0.0)
    rounding = SSR_ROUNDING * float(np.einsum("i,i->", np.abs(y), np.abs(residual)))
    return step is not None and float(np.dot(gradient, step)) <= rounding


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
    """Minimize the untransformed SSR from ``start`` = (alpha, beta) over alpha, beta >= 0.

    K is solved in closed form at each (alpha, beta), so the solver runs on those
    two alone and each step solves on Kaufman's reduced Gram matrix
    J^T J - (J^T g)(g^T J)/(g^T g), with J the alpha and beta columns. Each
    iteration freezes the active set: alpha or beta at 0 whose descent direction
    (J^T r)_j points out of the domain. A held parameter's row and column of the damped
    normal equations are the identity's and its gradient entry 0, so one 2x2 solve
    steps only the free ones; the step is projected back onto the bounds and accepted
    only if it lowers the SSR, and a singular damped system is a rejected step. Damping
    starts at 1e-3, grows tenfold on a rejected step and shrinks tenfold on an accepted one.

    Convergence means the largest cosine between the residual and a free
    Jacobian column, |J_j^T r| / (||J_j|| ||r||), fell below GRADIENT_TOL (a
    scale-free first-order test; K's column g is orthogonal to r by
    construction). A step that no damping makes acceptable is a stall. A stall
    is convergence when the undamped Gauss-Newton step on the free parameters
    promises an SSR decrease g_f^T H_ff^-1 g_f of at most
    SSR_ROUNDING * sum |y_i * r_i|: each residual carries about 2 eps |y_i| of
    rounding, so the SSR cannot resolve a smaller decrease, and the cosine
    there may be rounding noise. A singular H_ff is not convergence. A start whose
    SSR overflows float64, or a Gram matrix J^T J that does, ends the run
    unconverged with a NaN cosine. ``theta`` is (K, alpha, beta).
    """
    t, y = np.asarray(t, dtype=float), np.asarray(y, dtype=float)
    log_t = np.log(t)
    jac, trial_jac = np.empty((len(t), 3)), np.empty((len(t), 3))
    theta, residual = _project(*np.maximum(start, 0.0).tolist(), t, log_t, y, jac)
    ssr = float(np.einsum("i,i->", residual, residual))
    ssr_path = [ssr]
    lam = LAMBDA_START
    converged = stalled = False
    iterations = 0
    cosine, free = math.nan, range(2)

    # an overflowed SSR or Gram matrix measures no step and would pass the cosine
    # test, so a start there returns unconverged; every accepted SSR is finite
    while math.isfinite(ssr):
        gram, jr = (jac.T @ jac).tolist(), (jac.T @ residual).tolist()
        gg, gj, jj = gram[0][0], gram[0][1:], [row[1:] for row in gram[1:]]
        diag = [jj[0][0], jj[1][1]]
        if not math.isfinite(sum(diag)):
            cosine = math.nan
            break
        # project g out of the alpha and beta columns: (P J)^T r and (P J)^T (P J)
        cross = [v / gg for v in gj]
        grad = [jr[j + 1] - cross[j] * jr[0] for j in range(2)]
        reduced = [[jj[j][k] - cross[j] * gj[k] for k in range(2)] for j in range(2)]
        free = [k for k in range(2) if theta[k + 1] > 0.0 or grad[k] > 0.0]
        cosine = _largest_cosine(grad, diag, ssr, free)
        converged = cosine < GRADIENT_TOL or (
            stalled and _promise_within_rounding(reduced, grad, free, y, residual)
        )
        if converged or stalled or iterations == max_iterations:
            break
        iterations += 1
        stalled = True
        while lam <= LAMBDA_MAX:
            step = _solve_step(reduced, grad, free, lam)
            if step is not None:  # a singular damped system is a rejected step
                trial = [max(theta[k + 1] + step[k], 0.0) for k in range(2)]
                trial, trial_residual = _project(*trial, t, log_t, y, trial_jac)
                trial_ssr = float(np.einsum("i,i->", trial_residual, trial_residual))
                if math.isfinite(trial_ssr) and trial_ssr < ssr:
                    theta, residual, ssr = trial, trial_residual, trial_ssr
                    # the old Jacobian is the next trial's buffer: a 16k fit 5.2 vs 5.7 ms
                    jac, trial_jac = trial_jac, jac
                    ssr_path.append(ssr)
                    lam = max(lam / 10.0, LAMBDA_MIN)
                    stalled = False
                    break
            lam *= 10.0

    held = ("K",) * (theta[0] == 0.0) + tuple(PARAMETERS[k + 1] for k in range(2) if k not in free)
    return LMResult(
        theta=np.array(theta),
        converged=converged,
        iterations=iterations,
        ssr_path=tuple(ssr_path),
        gradient_cosine=cosine,
        active_bounds=held,
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
    """Start (alpha, beta): least squares on ln y = ln K + alpha*t + beta*ln t with each
    row weighted by y, over the samples above Y_FLOOR. The solver clips the start at 0
    and sets K in closed form, so ln K is only a nuisance column here."""
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
    coef, *_ = np.linalg.lstsq(design, ym * np.log(ym), rcond=None)
    return coef[1:]


def fit(curve):
    """Fit the growth law to an aging curve and report goodness of fit.

    ``converged=False`` is a report outcome, not an exception; degenerate
    input (constant y, everything under the floor, bad grid, a curve that only
    K = 0 fits) raises, and so does an SSR that overflows float64.
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
