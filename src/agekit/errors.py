"""Exception types shared across the package, and the numeric input rules behind them.

The CLI maps these onto exit codes: ParseError -> 2, DomainError -> 3.
A numeric input that is not a finite real number (a string, None, NaN or
+-inf) raises DomainError; so does a count or a seed that is not an integral
value, and a seed must also be nonnegative.
"""

import math
import numbers


class AgekitError(Exception):
    """Base class for every error raised by this package."""


class ParseError(AgekitError):
    """Structurally malformed input: bad CSV rows, bad tuples, bad config text."""


class DomainError(AgekitError):
    """Well-formed input that violates a domain invariant."""


def _is_real(value):
    """A finite real number; rejects NaN, +-inf, strings, None and ints past the float range."""
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        return False


def _shown(value):
    """A rejected value as messages echo it: str for a number (np.float64(2) is 2.0), else repr."""
    return str(value) if isinstance(value, numbers.Number) else repr(value)


def _is_integral(value):
    """A finite real number with an integral value."""
    return _is_real(value) and int(value) == value
