"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: integration failures exit 4,
every other error of this hierarchy exits 3 (validation problems of the
command line exit 2).
"""

from __future__ import annotations

import cmath
import functools


class DP3Error(Exception):
    """Base class for all errors raised by this package."""


class PoleError(DP3Error):
    """Evaluation requested at a pole of gamma/digamma."""


class ConditionViolationError(DP3Error):
    """A validity condition or operation precondition does not hold."""


class SingularityError(DP3Error):
    """A formula was evaluated where it is singular (u = 0 or tau = 0)."""


class IntegrationFailureError(DP3Error):
    """The ODE integrator could not continue (step underflow near a
    zero or pole of the solution).  Carries the approach location."""

    def __init__(self, message: str, tau_abs: float | None = None):
        super().__init__(message)
        self.tau_abs = tau_abs


class LadderBreakdownError(DP3Error):
    """A Backlund ladder entry could not be built; names the failing step."""

    def __init__(self, message: str, n: int | None = None):
        super().__init__(message)
        self.n = n


class SamplingExhaustedError(DP3Error):
    """Rejection sampling exceeded its attempt budget."""


_NUMBERS = (complex, float, int)


def _finite(value) -> bool:
    """Whether a number, the sum of a tuple or list of numbers (a numpy
    array is read as one), or the sum of the number fields of a result
    object (a chart, a point; numpy's float64 and complex128 scalars are
    numbers) is finite.  One non-finite entry makes the sum non-finite,
    and so does a sum beyond the largest float."""
    if type(value) in _NUMBERS:
        return cmath.isfinite(value)
    if isinstance(value, (tuple, list)):
        return cmath.isfinite(sum(value))
    if hasattr(value, "__dict__"):
        return cmath.isfinite(sum([v for v in vars(value).values() if isinstance(v, _NUMBERS)]))
    return _finite(value.tolist())  # a numpy array or scalar


def finite_result(fn, finite=_finite, name=None):
    """Make ``fn`` raise ``ConditionViolationError`` where its arithmetic
    fails (an overflow, a division by zero, a math domain error, a singular
    matrix) or ``finite`` of its value is false.  The message starts with
    ``name``, by default ``fn``'s own: a private helper names the public
    function it serves."""
    name = name or fn.__name__

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            value = fn(*args, **kwargs)
        except (ArithmeticError, ValueError) as exc:  # numpy's LinAlgError is a ValueError
            raise ConditionViolationError(f"{name}: {exc}") from exc
        if not finite(value):
            raise ConditionViolationError(f"{name}: the result is not finite")
        return value
    return checked
