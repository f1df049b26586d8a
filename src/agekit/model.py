"""Closed-form growth laws for aging degree and their self-consistency check.

The headline law is the kinetic form

    f(t) = K * exp(alpha * t) * t**beta,      t > 0

whose log-derivative is alpha + beta/t. The mechanistic building blocks it was
distilled from are also evaluable: an unbounded generation term z0*exp(a*t)
(the aging driver keeps producing stale state) and a saturating repair term
K*(1 - exp(-(1/t + v)*t)) (cleanup capacity levels off), plus their product
and a many-loop sum of such products.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _is_real, _shown
from .timeseries import _as_float_array


def _require(name, value, sign):
    """A parameter must be finite and then, as sign says, "positive", "nonnegative" or "finite"."""
    if not _is_real(value):
        raise DomainError(f"{name} must be finite, got {_shown(value)}")
    if (sign == "positive" and value <= 0) or (sign == "nonnegative" and value < 0):
        raise DomainError(f"{name} must be {sign}, got {_shown(value)}")


@dataclass(frozen=True)
class FeedbackLoopModel:
    """Parameters of the kinetic growth law K * exp(alpha*t) * t**beta."""

    K: float
    alpha: float
    beta: float

    def __post_init__(self):
        _require("K", self.K, "positive")
        _require("alpha", self.alpha, "nonnegative")
        _require("beta", self.beta, "nonnegative")

    @classmethod
    def unchecked(cls, K, alpha, beta):
        """Skip the sign checks. Research escape hatch; evaluators still need t > 0."""
        model = object.__new__(cls)
        object.__setattr__(model, "K", float(K))
        object.__setattr__(model, "alpha", float(alpha))
        object.__setattr__(model, "beta", float(beta))
        return model


@dataclass(frozen=True)
class PositiveLoop:
    """Unbounded generation z(t) = z0 * exp(a * t)."""

    z0: float
    a: float

    def __post_init__(self):
        _require("z0", self.z0, "nonnegative")
        _require("a", self.a, "nonnegative")


@dataclass(frozen=True)
class NegativeLoop:
    """Saturating repair y(t) = K * (1 - exp(-(1/t + v) * t))."""

    K: float
    v: float

    def __post_init__(self):
        _require("K", self.K, "finite")
        _require("v", self.v, "nonnegative")


def _check_times(t):
    arr = _as_float_array(t, "evaluation times")
    if not np.all(np.isfinite(arr)):
        raise DomainError("evaluation times must be finite")
    if np.any(arr <= 0.0):
        raise DomainError("evaluation times must be strictly positive")
    return arr


def _scalar_like(t, out):
    if np.isscalar(t) or getattr(t, "ndim", 1) == 0:
        return float(out)
    return out


def eval_model(model, t):
    """Evaluate K * exp(alpha*t) * t**beta at scalar or array t > 0."""
    arr = _check_times(t)
    out = model.K * np.exp(model.alpha * arr) * arr**model.beta
    return _scalar_like(t, out)


def eval_positive(loop, t):
    arr = _check_times(t)
    return _scalar_like(t, loop.z0 * np.exp(loop.a * arr))


def eval_negative(loop, t):
    arr = _check_times(t)
    rate = 1.0 / arr + loop.v
    return _scalar_like(t, loop.K * (1.0 - np.exp(-rate * arr)))


def eval_combined(positive, v, t):
    """One generation/repair pair; literally the product of the two evaluators.

    The repair level is fixed at 1 here (the generation amplitude z0 carries
    the scale), so the product identity with eval_positive * eval_negative is
    exact, not merely close.
    """
    return eval_positive(positive, t) * eval_negative(NegativeLoop(1.0, v), t)


def eval_multi_loop(pairs, t):
    """Sum of generation*repair products over (PositiveLoop, NegativeLoop) pairs."""
    if not pairs:
        raise DomainError("eval_multi_loop needs at least one loop pair")
    total = None
    for positive, negative in pairs:
        term = eval_positive(positive, t) * eval_negative(negative, t)
        total = term if total is None else total + term
    return total


def ode_residual(model, ts):
    """Max deviation of d(ln f)/dt from alpha + beta/t on the given grid.

    Centered differences on interior points; second-order accurate, so
    halving a uniform grid spacing shrinks the residual about fourfold.
    Needs K > 0 so the log exists.
    """
    ts = _as_float_array(ts, "ode_residual grid")
    if ts.ndim != 1 or len(ts) < 3:
        raise DomainError("ode_residual needs a one-dimensional grid of at least 3 times")
    if np.any(ts <= 0.0) or not np.all(np.diff(ts) > 0):
        raise DomainError("ode_residual grid must be strictly positive and increasing")
    if model.K <= 0:
        raise DomainError("ode_residual needs K > 0")
    log_f = np.log(eval_model(model, ts))
    approx = (log_f[2:] - log_f[:-2]) / (ts[2:] - ts[:-2])
    exact = model.alpha + model.beta / ts[1:-1]
    return float(np.max(np.abs(approx - exact)))
