"""The manifold of monodromy data and its group actions.

A point of the manifold is the 8-tuple ``(a, s00, s0inf, s1inf, g11, g12,
g21, g22)``: the formal-monodromy parameter, three independent Stokes
multipliers, and the connection-matrix entries.  The defining relations
(five scalar equations, one of which is ``det G = 1``) are exposed as a
residual vector; the three rational parametrisations of the variety are
exposed as constructors.  On top of that sit the Stokes-matrix algebra
(triangular factors, their half-period conjugation symmetry, the monodromy
matrices at both irregular points, cyclic and semi-cyclic residuals) and
the discrete group actions used by the asymptotic charts: the two families
of sector rotations, the Backlund shift of ``a``, and the Lie-point
symmetries.

Apart from the Backlund shift, every group action composes three
primitives, the only code that writes out matrix entries: ``_shift``
(``G -> (i S sigma1)^k G``, ``S`` the Stokes factor at the origin),
``_scale`` (``G -> G diag(d, 1/d)``) and ``_flip_a`` (``F(0, 1)``,
``a -> -a``).  The docstrings of the public actions give the compositions.
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

# the errors module, not its decorator: perfbench/tracer.py wraps the
# functions bound in this namespace and looks each up in its own module
from . import _EXPORTS, errors
from .errors import ConditionViolationError

if TYPE_CHECKING:
    import numpy as np

__all__ = _EXPORTS["monodromy"]

# The Stokes algebra runs on 2x2 tuples of rows, so that the residuals and
# the group actions run without numpy; numpy is imported only inside the
# functions that return arrays.  The Pauli matrices sigma1 and sigma3 of the
# semi-cyclic relation are such tuples.
_SIGMA1 = (0.0, 1.0), (1.0, 0.0)
_SIGMA3 = (1.0, 0.0), (0.0, -1.0)

_JSON_KEYS = ("a", "s00", "s0inf", "s1inf", "g11", "g12", "g21", "g22")


def _matmul(*factors: tuple) -> tuple:
    """The product of 2x2 tuple matrices, left to right."""
    (a, b), (c, d) = factors[0]
    for (e, f), (g, h) in factors[1:]:
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return (a, b), (c, d)


def _inverse(m: tuple) -> tuple:
    """The explicit inverse; a zero determinant raises ``ZeroDivisionError``."""
    (a, b), (c, d) = m
    det = a * d - b * c
    return (d / det, -b / det), (-c / det, a / det)


def _max_abs_diff(m: tuple, n: tuple) -> float:
    """Entrywise max norm of ``m - n``; NaN if an entry is NaN."""
    diffs = [abs(x - y) for row_m, row_n in zip(m, n) for x, y in zip(row_m, row_n)]
    return math.nan if any(map(math.isnan, diffs)) else max(diffs)


def _exp_sigma3(alpha: complex) -> tuple:
    """diag(e^alpha, e^-alpha)."""
    return (cmath.exp(alpha), 0.0), (0.0, cmath.exp(-alpha))


def _lower(s: complex) -> tuple:
    return (1.0, 0.0), (s, 1.0)


def _upper(s: complex) -> tuple:
    return (1.0, s), (0.0, 1.0)


@dataclass(frozen=True, init=False)
class MonodromyPoint:
    """A point of the monodromy manifold."""

    a: complex
    s00: complex
    s0inf: complex
    s1inf: complex
    g11: complex
    g12: complex
    g21: complex
    g22: complex

    def __init__(self, a, s00, s0inf, s1inf, g11, g12, g21, g22):
        # the generated frozen __init__ makes eight object.__setattr__ calls;
        # writing the instance dict costs a third of that, and every group
        # action builds one to three points
        d = self.__dict__
        d["a"], d["s00"], d["s0inf"], d["s1inf"] = a, s00, s0inf, s1inf
        d["g11"], d["g12"], d["g21"], d["g22"] = g11, g12, g21, g22

    @property
    def G(self) -> np.ndarray:
        """Connection matrix as a 2x2 array."""
        import numpy as np

        return np.array([[self.g11, self.g12], [self.g21, self.g22]], dtype=complex)


@dataclass(frozen=True)
class StokesSet:
    """Stokes matrices on an index window plus both monodromy matrices."""

    s_zero: dict  # k -> 2x2 array, Stokes factors at the origin
    s_inf: dict  # k -> 2x2 array, Stokes factors at infinity
    m_zero: np.ndarray
    m_inf: np.ndarray


def manifold_residual(pt: MonodromyPoint) -> np.ndarray:
    """Absolute residuals of the five defining relations, in order:
    the multiplier product relation, the mixed G relation, the two
    quadratic G relations, and ``det G - 1``.  An arithmetic failure or a
    non-finite residual raises ``ConditionViolationError``."""
    import numpy as np

    return np.array(_relation_residuals(pt))


@functools.partial(errors.finite_result, name="manifold_residual")
def _relation_residuals(pt: MonodromyPoint) -> tuple[float, ...]:
    """The five floats of ``manifold_residual``, without numpy."""
    a, s00, s0, s1 = pt.a, pt.s00, pt.s0inf, pt.s1inf
    g11, g12, g21, g22 = pt.g11, pt.g12, pt.g21, pt.g22
    epa = cmath.exp(cmath.pi * a)
    ema = 1.0 / epa
    res = (
        s0 * s1 + 1.0 + ema * ema + 1j * s00 * ema,
        g22 * g21 - g11 * g12 + s00 * g11 * g22 - 1j * ema,
        g11 * g11 - g21 * g21 - s00 * g11 * g21 - 1j * ema * s0,
        g22 * g22 - g12 * g12 + s00 * g12 * g22 - 1j * epa * s1,
        g11 * g22 - g12 * g21 - 1.0,
    )
    return tuple(abs(r) for r in res)


def from_branch(branch: int, a: complex, **free) -> MonodromyPoint:
    """Build a manifold point from one of the three branch systems.

    branch 1: free = g11, g12, g21, g22 (unit determinant, g11*g22 != 0)
    branch 2: free = s00, g22 (g11 = 0)
    branch 3: free = s00, g11 (g22 = 0)

    Raises ``ConditionViolationError`` when a free coordinate is missing or
    a coordinate of the point is not a finite float, e.g. when ``e^{pi a}``
    overflows.
    """
    try:
        values = _branch_coordinates(branch, complex(a), free)
    except KeyError as exc:
        raise ConditionViolationError(f"branch {branch} needs the coordinate {exc}") from None
    except (ArithmeticError, ValueError) as exc:  # cmath's domain errors are ValueErrors
        raise ConditionViolationError(
            f"branch {branch} point overflows at a = {a}: {exc}") from None
    if not all(cmath.isfinite(v) for v in values):
        raise ConditionViolationError(f"branch {branch} point is not finite at a = {a}")
    return MonodromyPoint(*values)


def _branch_coordinates(branch: int, a: complex, free: dict) -> tuple:
    epa = cmath.exp(cmath.pi * a)
    ema = 1.0 / epa
    if branch == 1:
        g11, g12 = complex(free["g11"]), complex(free["g12"])
        g21, g22 = complex(free["g21"]), complex(free["g22"])
        if g11 * g22 == 0:
            raise ConditionViolationError("branch 1 requires g11*g22 != 0")
        if abs(g11 * g22 - g12 * g21 - 1.0) > 1e-9:
            raise ConditionViolationError("branch 1 input must have det G = 1")
        s0 = -(g21 + 1j * g11 * epa) / g22
        # the e^{-2 pi a} factor on g12 is forced by the quadratic relation
        # g22^2 - g12^2 + s00 g12 g22 = i e^{pi a} s1inf
        s1 = (g12 * ema * ema - 1j * g22 * ema) / g11
        s00 = 1j * ema / (g11 * g22) + g12 / g22 - g21 / g11
    elif branch == 2:
        s00, g22 = complex(free["s00"]), complex(free["g22"])
        if g22 == 0:
            raise ConditionViolationError("branch 2 requires g22 != 0")
        g11 = 0.0j
        g12 = 1j * g22 * epa
        g21 = 1j * ema / g22
        s0 = -1j * ema / (g22 * g22)
        s1 = -1j * g22 * g22 * (1.0 + epa * epa + 1j * s00 * epa) * ema
    elif branch == 3:
        s00, g11 = complex(free["s00"]), complex(free["g11"])
        if g11 == 0:
            raise ConditionViolationError("branch 3 requires g11 != 0")
        g22 = 0.0j
        g12 = -1j * ema / g11
        g21 = -1j * epa * g11
        s1 = -1j * ema**3 / (g11 * g11)
        s0 = -1j * g11 * g11 * (1.0 + epa * epa + 1j * s00 * epa) * epa
    else:
        raise ConditionViolationError(f"unknown branch {branch!r}")
    return a, s00, s0, s1, g11, g12, g21, g22


def rho_from(pt: MonodromyPoint) -> complex:
    """Canonical small-argument exponent: solves cos(2*pi*rho) = -i*s00/2
    with Re rho in [0, 1/2] and Im rho >= 0 whenever Re rho = 0."""
    rho = cmath.acos(-0.5j * pt.s00) / (2.0 * cmath.pi)
    if abs(rho.real) < 1e-15 and rho.imag < 0.0:
        rho = -rho
    return rho


def _nu_plus_1(g11: complex, g22: complex) -> complex:
    """nu + 1 = (i / 2 pi) ln(g11 g22), unchecked, for the charts and the sampler."""
    return 0.5j / math.pi * cmath.log(g11 * g22)


def _stokes_mult_inf(pt: MonodromyPoint, k: int) -> complex:
    """Stokes multiplier at infinity for arbitrary index, generated from
    s0inf, s1inf by the half/full-period conjugation rules."""
    epa = cmath.exp(cmath.pi * pt.a)
    if k % 2 == 0:
        return pt.s0inf * epa**k
    return pt.s1inf * epa ** (-(k - 1))


def _stokes_inf(pt: MonodromyPoint, k: int) -> tuple:
    s = _stokes_mult_inf(pt, k)
    return _lower(s) if k % 2 == 0 else _upper(s)


def _stokes_zero(pt: MonodromyPoint, k: int) -> tuple:
    # period 2 and sigma1-conjugation make every multiplier equal s00
    return _upper(pt.s00) if k % 2 == 0 else _lower(pt.s00)


def _monodromy_matrices(pt: MonodromyPoint) -> tuple[tuple, tuple]:
    """``M_0`` and ``M_inf``, built from the canonical factors."""
    m_zero = _matmul(_stokes_zero(pt, 0), _stokes_zero(pt, 1))
    m_inf = _matmul(*(_stokes_inf(pt, k) for k in range(4)),
                    _exp_sigma3(-2.0 * cmath.pi * (pt.a - 0.5j)))
    return m_zero, m_inf


def _finite_stokes(st: StokesSet) -> bool:
    """Whether every entry of every matrix of ``st`` is finite."""
    import numpy as np

    return all(np.isfinite(m).all() for m in (*st.s_zero.values(), *st.s_inf.values(),
                                               st.m_zero, st.m_inf))


@functools.partial(errors.finite_result, finite=_finite_stokes)
def stokes_structure(pt: MonodromyPoint, k_min: int = 0, k_max: int = 3) -> StokesSet:
    """Stokes matrices for indices ``k_min..k_max`` at infinity (the window
    at the origin is clipped to at most two indices, one full period) and
    the monodromy matrices built from the canonical factors, each a complex
    2x2 array.  A ``k_min`` or ``k_max`` that is not an integer, a
    ``k_min`` above ``k_max``, an overflow or a non-finite entry raises
    ``ConditionViolationError``."""
    import numbers

    import numpy as np

    if not (isinstance(k_min, numbers.Integral) and isinstance(k_max, numbers.Integral)):
        raise ConditionViolationError("k_min and k_max must be integers")
    if k_min > k_max:
        raise ConditionViolationError(f"k_min = {k_min} exceeds k_max = {k_max}")

    def array(m: tuple) -> np.ndarray:
        return np.array(m, dtype=complex)

    m_zero, m_inf = _monodromy_matrices(pt)
    return StokesSet(
        s_zero={k: array(_stokes_zero(pt, k))
                for k in range(k_min, min(k_max, k_min + 1) + 1)},
        s_inf={k: array(_stokes_inf(pt, k)) for k in range(k_min, k_max + 1)},
        m_zero=array(m_zero),
        m_inf=array(m_inf),
    )


@errors.finite_result
def cyclic_residuals(pt: MonodromyPoint) -> tuple[float, float]:
    """Entrywise max-norm residuals of the cyclic relation
    ``G M_inf = M_0 G`` and of the semi-cyclic relation
    ``G^-1 S0_0 sigma1 G = S_inf_0 S_inf_1 sigma3 e^{-pi(a - i/2) sigma3}``.
    An overflow, a singular G or a non-finite residual raises
    ``ConditionViolationError``."""
    G = (pt.g11, pt.g12), (pt.g21, pt.g22)
    m_zero, m_inf = _monodromy_matrices(pt)
    cyc = _max_abs_diff(_matmul(G, m_inf), _matmul(m_zero, G))
    lhs = _matmul(_inverse(G), _stokes_zero(pt, 0), _SIGMA1, G)
    rhs = _matmul(_stokes_inf(pt, 0), _stokes_inf(pt, 1), _SIGMA3,
                  _exp_sigma3(-cmath.pi * (pt.a - 0.5j)))
    return cyc, _max_abs_diff(lhs, rhs)


def _shift(pt: MonodromyPoint, k: int) -> MonodromyPoint:
    """``G -> (i S sigma1)^k G`` for ``k in {0, +1, -1}``, where
    ``S = [[1, s00], [0, 1]]`` is the Stokes factor at the origin; ``a`` and
    the multipliers are unchanged."""
    if k == 0:
        return pt
    s00, g11, g12, g21, g22 = pt.s00, pt.g11, pt.g12, pt.g21, pt.g22
    if k == 1:
        return MonodromyPoint(
            pt.a, s00, pt.s0inf, pt.s1inf,
            1j * (g21 + s00 * g11), 1j * (g22 + s00 * g12), 1j * g11, 1j * g12,
        )
    return MonodromyPoint(
        pt.a, s00, pt.s0inf, pt.s1inf,
        -1j * g21, -1j * g22, -1j * (g11 - s00 * g21), -1j * (g12 - s00 * g22),
    )


def _scale(pt: MonodromyPoint, d: complex) -> MonodromyPoint:
    """``G -> G diag(d, 1/d)`` with ``s0inf -> d^2 s0inf`` and
    ``s1inf -> s1inf / d^2``; stays on the manifold for every ``d != 0``."""
    d2 = d * d
    return MonodromyPoint(
        pt.a, pt.s00, pt.s0inf * d2, pt.s1inf / d2,
        pt.g11 * d, pt.g12 / d, pt.g21 * d, pt.g22 / d,
    )


def _flip_a(pt: MonodromyPoint) -> MonodromyPoint:
    """The coupling-sector rotation ``F(0, 1)``: ``a -> -a``, ``s00`` fixed."""
    a, s00, s0, s1 = pt.a, pt.s00, pt.s0inf, pt.s1inf
    g11, g12, g21, g22 = pt.g11, pt.g12, pt.g21, pt.g22
    eh = cmath.exp(0.5 * cmath.pi * a)  # e^{pi a / 2}
    ep = eh * eh
    em = 1.0 / ep
    return MonodromyPoint(
        -a, s00, s1 * em, s0 * ep**3,
        -1j * g12 / eh,
        -1j * (g11 + s0 * g12) * eh,
        -1j * g22 / eh,
        -1j * (g21 + s0 * g22) * eh,
    )


def _rotate_tau(pt: MonodromyPoint, p: int, l: int) -> MonodromyPoint:
    """The quarter rotation ``tau -> i tau`` on the manifold."""
    return _shift(_scale(pt, cmath.exp(0.25 * l * cmath.pi * pt.a)), (p + l) // 2)


@errors.finite_result
def apply_F(pt: MonodromyPoint, eps1: int, eps2: int) -> MonodromyPoint:
    """Sector-rotation action on the manifold for real-axis charts,
    indexed by ``eps1, eps2 in {0, +1, -1}``.  ``s00`` is always fixed and
    ``a`` maps to ``(-1)**eps2 * a``.

    ``F(eps1, 0) = shift^eps1 . scale((-i e^{pi a/2})^eps1)``,
    ``F(0, -1) = shift^-1 . F(0, 1)``, and the mixed cases apply the ray
    rotation first: ``F(eps1, eps2) = F(0, eps2) . F(eps1, 0)``.  The
    reverse order is a different map.  Where the arithmetic fails or the
    image is not finite, ``ConditionViolationError`` is raised."""
    if eps1 not in (0, 1, -1) or eps2 not in (0, 1, -1):
        raise ConditionViolationError("eps1 and eps2 must be 0 or +-1")
    if eps1:
        d = -1j * cmath.exp(0.5 * cmath.pi * pt.a)
        pt = _shift(_scale(pt, d if eps1 == 1 else 1.0 / d), eps1)
    if eps2:
        pt = _flip_a(pt)
        if eps2 == -1:
            pt = _shift(pt, -1)
    return pt


@errors.finite_result
def apply_Fhat(pt: MonodromyPoint, eps1: int, eps2: int) -> MonodromyPoint:
    """Sector-rotation action for the imaginary axes, indexed by
    ``eps1 in {+1, -1}`` and ``eps2 in {0, +1, -1}``; ``imag_chart`` rotates
    with ``lie_point_monodromy(..., "rotate_tau")`` instead.  ``s00`` is fixed;
    the ``eps2 = 0`` cases compose a quarter rotation with a coupling-sign
    flip and therefore send ``a -> -a`` (the ``eps2 = +-1`` cases fix ``a``).

    With ``R(p, l)`` the ``rotate_tau`` of ``lie_point_monodromy``:
    ``Fhat(eps1, +-1) = R(+-1, eps1)`` and
    ``Fhat(eps1, 0) = F(0, eps1) . R(eps1, -eps1)``, the rotation first.
    Where the arithmetic fails or the image is not finite,
    ``ConditionViolationError`` is raised."""
    if eps1 not in (1, -1) or eps2 not in (0, 1, -1):
        raise ConditionViolationError("eps1 must be +-1 and eps2 in {0, +-1}")
    if eps2:
        return _rotate_tau(pt, eps2, eps1)
    return apply_F(_rotate_tau(pt, eps1, -eps1), 0, eps1)


def backlund_monodromy(pt: MonodromyPoint, direction: str) -> MonodromyPoint:
    """Monodromy shadow of the Backlund transformation: ``up`` shifts
    ``a -> a - i``, ``down`` is its exact inverse: the same map with ``-i``
    for ``i`` (``a - (-i)`` and ``a + i`` are the same float)."""
    if direction not in ("up", "down"):
        raise ConditionViolationError("direction must be 'up' or 'down'")
    i = 1j if direction == "up" else -1j
    return MonodromyPoint(
        pt.a - i, -pt.s00, pt.s0inf, pt.s1inf,
        i * pt.g11, i * pt.g12, -i * pt.g21, -i * pt.g22,
    )


@errors.finite_result
def lie_point_monodromy(pt: MonodromyPoint, kind: str, p: int = 1, l: int = 1) -> MonodromyPoint:
    """Action on the manifold of the three Lie-point symmetries:
    ``negate_tau`` (tau -> -tau), ``negate_a`` (a -> -a), and
    ``rotate_tau`` (tau -> i tau).  For the first two the result is
    independent of ``l``; for the rotation all four (p, l) sign cases
    are distinct.

    ``negate_tau(p) = F(p, 0)``, ``negate_a(p) = scale(e^{pi a}) . F(0, p)``
    with ``a`` the input's, and
    ``rotate_tau(p, l) = shift^((p + l)/2) . scale(e^{l pi a/4})``.  Where
    the arithmetic fails or the image is not finite,
    ``ConditionViolationError`` is raised."""
    if p not in (1, -1) or l not in (1, -1):
        raise ConditionViolationError("p and l must be +-1")
    if kind == "negate_tau":
        return apply_F(pt, p, 0)
    if kind == "negate_a":
        return _scale(apply_F(pt, 0, p), cmath.exp(cmath.pi * pt.a))
    if kind == "rotate_tau":
        return _rotate_tau(pt, p, l)
    raise ConditionViolationError(f"unknown Lie-point symmetry kind {kind!r}")


def point_to_json(pt: MonodromyPoint) -> str:
    """Serialize as the canonical JSON object of [re, im] pairs."""
    payload = {
        key: [getattr(pt, key).real, getattr(pt, key).imag] for key in _JSON_KEYS
    }
    return json.dumps(payload)


def point_from_json(text: str) -> MonodromyPoint:
    """Parse the canonical JSON object of [re, im] pairs; malformed text
    raises ``ValueError``."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("monodromy point JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("monodromy point JSON must be an object")
    missing = [k for k in _JSON_KEYS if k not in data]
    if missing:
        raise ValueError(f"monodromy point JSON is missing keys: {missing}")
    vals = {}
    for key in _JSON_KEYS:
        pair = data[key]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"key {key!r} must be a [re, im] pair")
        # JSON numbers only: float() would also take "0.5" and false
        if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair):
            raise ValueError(f"key {key!r} must be a pair of numbers")
        try:
            vals[key] = complex(float(pair[0]), float(pair[1]))
        except OverflowError:  # an integer beyond the float range
            raise ValueError(f"key {key!r} must be finite") from None
        if not cmath.isfinite(vals[key]):
            raise ValueError(f"key {key!r} must be finite")
    return MonodromyPoint(**vals)
