"""Complex-argument gamma, log-gamma, and digamma.

Every asymptotic chart in this package feeds complex arguments to these
three functions, so they are implemented once here: a Lanczos sum for the
right half-plane, the reflection formula for ``Re z < 1/2`` (for ``ln
Gamma`` with the 2 pi i k that keeps it on its principal branch), and the
Bernoulli asymptotic series for the digamma.  Target accuracy is ~1e-14
relative for ``|z| <= 50``, comfortably inside what the charts need.  An
overflow or a value that is not finite, as from a NaN or infinite
argument, raises ``ConditionViolationError``.
"""

from __future__ import annotations

import cmath
import math

from . import _EXPORTS, errors
from .errors import PoleError

__all__ = _EXPORTS["specfun"]

# Lanczos coefficients for g = 607/128, N = 15, recovered by collocation of
# Gamma(z) e^t t^{-(z-1/2)} / sqrt(2 pi), t = z + g - 1/2, at z = 1..15 in
# 60-digit arithmetic; worst relative error ~1e-15 on Re z >= 1/2, |z| <= 85.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.9999999999999971,
    57.15623566586292,
    -59.59796035547549,
    14.136097974741746,
    -0.4919138160976202,
    3.399464998481189e-05,
    4.652362892704858e-05,
    -9.837447530487956e-05,
    0.0001580887032249125,
    -0.00021026444172410488,
    0.00021743961811521265,
    -0.0001643181065367639,
    8.441822398385275e-05,
    -2.6190838401581408e-05,
    3.6899182659531625e-06,
)

_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LN_PI, _LN_2 = math.log(math.pi), math.log(2.0)

# Asymptotic digamma series: psi(z) ~ ln z - 1/(2z) - sum B_2n / (2n z^2n).
_PSI_ASYMP = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def _lanczos_log(z: complex) -> complex:
    """Principal ln Gamma(z) for Re z >= 1/2 via the Lanczos sum."""
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z + (k - 1))
    t = z + (_LANCZOS_G - 0.5)
    return _LN_SQRT_2PI + (z - 0.5) * cmath.log(t) - t + cmath.log(acc)


def _log_sinpi(z: complex) -> complex:
    """Principal ``log sin(pi z)``.  Re z is reduced exactly to r in
    [-1/2, 1/2] about its nearest integer n, and sin(pi z) is written as
    (-1)^n e^{pi |Im z|} / 2 times a factor of modulus at most 2, so
    nothing overflows and sin(pi r) keeps its digits near the poles."""
    n = round(z.real)
    r, y = math.pi * (z.real - n), math.pi * abs(z.imag)
    sign = -1.0 if n % 2 else 1.0
    w = complex(sign * math.sin(r) * (1.0 + math.exp(-2.0 * y)),
                sign * math.copysign(math.cos(r) * -math.expm1(-2.0 * y), z.imag))
    return y - _LN_2 + cmath.log(w)


@errors.finite_result
def ln_gamma(z: complex) -> complex:
    """Principal branch of ``ln Gamma(z)`` (branch cut on the negative
    real axis, whose lower side an imaginary part of -0.0 takes, as in
    ``cmath``), normalised so that ``exp(ln_gamma(z)) == Gamma(z)``.  Its
    cost does not depend on ``z``: for ``Re z < 1/2`` it is the reflection
    formula, ``ln pi - log sin(pi z) - ln Gamma(1 - z)`` plus the 2 pi i k
    of D. E. G. Hare (J. Algorithms 25 (1997) 221), where k =
    sign(Im z) floor(Re z / 2 + 1/4).

    Raises
    ------
    PoleError
        If ``z`` is a non-positive integer.
    ConditionViolationError
        If the arithmetic overflows or the value is not finite.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"ln_gamma pole at z = {z}")
    if z.real >= 0.5:
        return _lanczos_log(z)
    k = math.copysign(2.0 * math.pi, z.imag) * math.floor(0.5 * z.real + 0.25)
    return complex(_LN_PI, k) - _log_sinpi(z) - _lanczos_log(1.0 - z)


@errors.finite_result
def gamma(z: complex) -> complex:
    """``Gamma(z)`` for complex ``z`` off the non-positive integers."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z}")
    if z.real >= 0.5:
        return cmath.exp(_lanczos_log(z))
    # Reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z).
    return math.pi / (cmath.sin(math.pi * z) * cmath.exp(_lanczos_log(1.0 - z)))


@errors.finite_result
def digamma(z: complex) -> complex:
    """``psi(z) = d/dz ln Gamma(z)`` for complex ``z``.

    Uses the reflection formula for ``Re z < 1/2``, then the recurrence
    ``psi(z+1) = psi(z) + 1/z`` until the Bernoulli asymptotic series
    applies.
    """
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleError(f"digamma pole at z = {z}")
    if z.real < 0.5:
        # psi(z) = psi(1 - z) - pi cot(pi z)
        return digamma(1.0 - z) - math.pi / cmath.tan(math.pi * z)
    acc = 0.0 + 0.0j
    while abs(z) < 16.0:
        acc -= 1.0 / z
        z += 1.0
    w = 1.0 / (z * z)
    series = 0.0 + 0.0j
    power = w
    for coeff in _PSI_ASYMP:
        series += coeff * power
        power *= w
    return acc + cmath.log(z) - 0.5 / z - series
