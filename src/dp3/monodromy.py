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
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConditionViolationError

__all__ = [
    "MonodromyPoint",
    "StokesSet",
    "manifold_residual",
    "from_branch",
    "rho_from",
    "stokes_structure",
    "cyclic_residuals",
    "apply_F",
    "apply_Fhat",
    "backlund_monodromy",
    "lie_point_monodromy",
    "point_to_json",
    "point_from_json",
]

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

_JSON_KEYS = ("a", "s00", "s0inf", "s1inf", "g11", "g12", "g21", "g22")


def _exp_sigma3(alpha: complex) -> np.ndarray:
    """diag(e^alpha, e^-alpha)."""
    return np.array([[cmath.exp(alpha), 0.0], [0.0, cmath.exp(-alpha)]], dtype=complex)


def _lower(s: complex) -> np.ndarray:
    return np.array([[1.0, 0.0], [s, 1.0]], dtype=complex)


def _upper(s: complex) -> np.ndarray:
    return np.array([[1.0, s], [0.0, 1.0]], dtype=complex)


@dataclass(frozen=True)
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

    @property
    def G(self) -> np.ndarray:
        """Connection matrix as a 2x2 array."""
        return np.array([[self.g11, self.g12], [self.g21, self.g22]], dtype=complex)

    def with_G(self, G: np.ndarray, **kw) -> "MonodromyPoint":
        return replace(
            self,
            g11=complex(G[0, 0]),
            g12=complex(G[0, 1]),
            g21=complex(G[1, 0]),
            g22=complex(G[1, 1]),
            **kw,
        )


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
    quadratic G relations, and ``det G - 1``."""
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
    return np.array([abs(r) for r in res], dtype=float)


def from_branch(branch: int, a: complex, **free) -> MonodromyPoint:
    """Build a manifold point from one of the three branch systems.

    branch 1: free = g11, g12, g21, g22 (unit determinant, g11*g22 != 0)
    branch 2: free = s00, g22 (g11 = 0)
    branch 3: free = s00, g11 (g22 = 0)
    """
    a = complex(a)
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
    return MonodromyPoint(a, s00, s0, s1, g11, g12, g21, g22)


def rho_from(pt: MonodromyPoint) -> complex:
    """Canonical small-argument exponent: solves cos(2*pi*rho) = -i*s00/2
    with Re rho in [0, 1/2] and Im rho >= 0 whenever Re rho = 0."""
    rho = cmath.acos(-0.5j * pt.s00) / (2.0 * cmath.pi)
    if abs(rho.real) < 1e-15 and rho.imag < 0.0:
        rho = -rho
    return rho


def _stokes_mult_inf(pt: MonodromyPoint, k: int) -> complex:
    """Stokes multiplier at infinity for arbitrary index, generated from
    s0inf, s1inf by the half/full-period conjugation rules."""
    epa = cmath.exp(cmath.pi * pt.a)
    if k % 2 == 0:
        return pt.s0inf * epa**k
    return pt.s1inf * epa ** (-(k - 1))


def _stokes_inf(pt: MonodromyPoint, k: int) -> np.ndarray:
    s = _stokes_mult_inf(pt, k)
    return _lower(s) if k % 2 == 0 else _upper(s)


def _stokes_zero(pt: MonodromyPoint, k: int) -> np.ndarray:
    # period 2 and sigma1-conjugation make every multiplier equal s00
    return _upper(pt.s00) if k % 2 == 0 else _lower(pt.s00)


def stokes_structure(pt: MonodromyPoint, k_min: int = 0, k_max: int = 3) -> StokesSet:
    """Stokes matrices for indices ``k_min..k_max`` at infinity (the window
    at the origin is clipped to at most two indices, one full period) and
    the monodromy matrices built from the canonical factors."""
    s_inf = {k: _stokes_inf(pt, k) for k in range(k_min, k_max + 1)}
    s_zero = {k: _stokes_zero(pt, k) for k in range(k_min, min(k_max, k_min + 1) + 1)}
    m_zero = _stokes_zero(pt, 0) @ _stokes_zero(pt, 1)
    m_inf = (
        _stokes_inf(pt, 0)
        @ _stokes_inf(pt, 1)
        @ _stokes_inf(pt, 2)
        @ _stokes_inf(pt, 3)
        @ _exp_sigma3(-2.0 * cmath.pi * (pt.a - 0.5j))
    )
    return StokesSet(s_zero=s_zero, s_inf=s_inf, m_zero=m_zero, m_inf=m_inf)


def cyclic_residuals(pt: MonodromyPoint) -> tuple[float, float]:
    """Entrywise max-norm residuals of the cyclic relation
    ``G M_inf = M_0 G`` and of the semi-cyclic relation
    ``G^-1 S0_0 sigma1 G = S_inf_0 S_inf_1 sigma3 e^{-pi(a - i/2) sigma3}``."""
    ss = stokes_structure(pt)
    G = pt.G
    cyc = np.max(np.abs(G @ ss.m_inf - ss.m_zero @ G))
    lhs = np.linalg.solve(G, _stokes_zero(pt, 0) @ SIGMA1 @ G)
    rhs = (
        _stokes_inf(pt, 0)
        @ _stokes_inf(pt, 1)
        @ SIGMA3
        @ _exp_sigma3(-cmath.pi * (pt.a - 0.5j))
    )
    semi = np.max(np.abs(lhs - rhs))
    return float(cyc), float(semi)


def apply_F(pt: MonodromyPoint, eps1: int, eps2: int) -> MonodromyPoint:
    """Sector-rotation action on the manifold for real-axis charts,
    indexed by ``eps1, eps2 in {0, +1, -1}``.  ``s00`` is always fixed and
    ``a`` maps to ``(-1)**eps2 * a``.

    The ``s1inf`` images of the a-flipping cases carry an extra
    ``e^{4 pi a}`` relative to their naive half-period scalings: the image
    multiplier is read in the index frame of the new parameter, and the
    defining relations of the manifold (which pin ``s1inf`` through the
    quadratic relation in ``g12, g22``) force this normalisation."""
    if eps1 not in (0, 1, -1) or eps2 not in (0, 1, -1):
        raise ConditionViolationError("eps1 and eps2 must be 0 or +-1")
    a, s00, s0, s1 = pt.a, pt.s00, pt.s0inf, pt.s1inf
    g11, g12, g21, g22 = pt.g11, pt.g12, pt.g21, pt.g22
    eh = cmath.exp(0.5 * cmath.pi * a)  # e^{pi a / 2}
    ep = eh * eh
    em = 1.0 / ep
    a_new = a if eps2 == 0 else -a
    case = (eps1, eps2)
    if case == (0, 0):
        return pt
    if case == (0, -1):
        return MonodromyPoint(
            a_new, s00, s1 * em, s0 * ep**3,
            -g22 / eh,
            -(g21 + s0 * g22) * eh,
            -(g12 - s00 * g22) / eh,
            -(g11 - s00 * g21 + (g12 - s00 * g22) * s0) * eh,
        )
    if case == (0, 1):
        return MonodromyPoint(
            a_new, s00, s1 * em, s0 * ep**3,
            -1j * g12 / eh,
            -1j * (g11 + s0 * g12) * eh,
            -1j * g22 / eh,
            -1j * (g21 + s0 * g22) * eh,
        )
    if case == (-1, 0):
        return MonodromyPoint(
            a_new, s00, -s0 * em, -s1 * ep,
            g21 / eh,
            -g22 * eh,
            (g11 - s00 * g21) / eh,
            -(g12 - s00 * g22) * eh,
        )
    if case == (-1, -1):
        return MonodromyPoint(
            a_new, s00, -s1, -s0 * ep * ep,
            g12 - s00 * g22,
            -g11 + s00 * g21 - (g12 - s00 * g22) * s0,
            g22 - (g12 - s00 * g22) * s00,
            -g21 + (g11 - s00 * g21) * s00 - (g22 - (g12 - s00 * g22) * s00) * s0,
        )
    if case == (-1, 1):
        return MonodromyPoint(
            a_new, s00, -s1, -s0 * ep * ep,
            1j * g22,
            -1j * (g21 + s0 * g22),
            1j * (g12 - s00 * g22),
            -1j * (g11 - s00 * g21 + (g12 - s00 * g22) * s0),
        )
    if case == (1, 0):
        return MonodromyPoint(
            a_new, s00, -s0 * ep, -s1 * em,
            (g21 + s00 * g11) * eh,
            -(g22 + s00 * g12) / eh,
            g11 * eh,
            -g12 / eh,
        )
    if case == (1, -1):
        return MonodromyPoint(
            a_new, s00, -s1 * em * em, -s0 * ep**4,
            g12 * em,
            -(g11 + s0 * g12) * ep,
            g22 * em,
            -(g21 + s0 * g22) * ep,
        )
    # case (1, 1); the g21 component follows from composing the pure
    # eps2-rotation after the pure eps1-rotation, which reproduces every
    # other component of this case
    return MonodromyPoint(
        a_new, s00, -s1 * em * em, -s0 * ep**4,
        1j * (g22 + s00 * g12) * em,
        -1j * (g21 + s00 * g11 + (g22 + s00 * g12) * s0) * ep,
        1j * g12 * em,
        -1j * (g11 + s0 * g12) * ep,
    )


def apply_Fhat(pt: MonodromyPoint, eps1: int, eps2: int) -> MonodromyPoint:
    """Sector-rotation action used by the imaginary-axis charts, indexed by
    ``eps1 in {+1, -1}`` and ``eps2 in {0, +1, -1}``.  ``s00`` is fixed;
    the ``eps2 = 0`` cases compose a quarter rotation with a coupling-sign
    flip and therefore send ``a -> -a`` (the ``eps2 = +-1`` cases fix ``a``)."""
    if eps1 not in (1, -1) or eps2 not in (0, 1, -1):
        raise ConditionViolationError("eps1 must be +-1 and eps2 in {0, +-1}")
    a, s00, s0, s1 = pt.a, pt.s00, pt.s0inf, pt.s1inf
    g11, g12, g21, g22 = pt.g11, pt.g12, pt.g21, pt.g22
    q = cmath.exp(0.25 * cmath.pi * a)  # e^{pi a / 4}
    h = q * q  # e^{pi a / 2}
    case = (eps1, eps2)
    if case == (-1, 0):
        return MonodromyPoint(
            -a, s00, s1 / h**3, s0 * h**7,
            -g22 / q**3,
            -(g21 + s0 * g22) * q**3,
            -(g12 - s00 * g22) / q**3,
            -(g11 + s0 * g12 - (g21 + s0 * g22) * s00) * q**3,
        )
    if case == (-1, -1):
        return MonodromyPoint(
            a, s00, s0 / h, s1 * h,
            -1j * g21 / q,
            -1j * g22 * q,
            -1j * (g11 - s00 * g21) / q,
            -1j * (g12 - s00 * g22) * q,
        )
    if case == (-1, 1):
        return MonodromyPoint(
            a, s00, s0 / h, s1 * h,
            g11 / q, g12 * q, g21 / q, g22 * q,
        )
    if case == (1, 0):
        return MonodromyPoint(
            -a, s00, s1 / h, s0 * h**5,
            -1j * g12 / q,
            -1j * (g11 + s0 * g12) * q,
            -1j * g22 / q,
            -1j * (g21 + s0 * g22) * q,
        )
    if case == (1, -1):
        return MonodromyPoint(
            a, s00, s0 * h, s1 / h,
            g11 * q, g12 / q, g21 * q, g22 / q,
        )
    # case (1, 1)
    return MonodromyPoint(
        a, s00, s0 * h, s1 / h,
        1j * (g21 + s00 * g11) * q,
        1j * (g22 + s00 * g12) / q,
        1j * g11 * q,
        1j * g12 / q,
    )


def backlund_monodromy(pt: MonodromyPoint, direction: str) -> MonodromyPoint:
    """Monodromy shadow of the Backlund transformation: ``up`` shifts
    ``a -> a - i``, ``down`` is its exact inverse."""
    if direction == "up":
        return MonodromyPoint(
            pt.a - 1j, -pt.s00, pt.s0inf, pt.s1inf,
            1j * pt.g11, 1j * pt.g12, -1j * pt.g21, -1j * pt.g22,
        )
    if direction == "down":
        return MonodromyPoint(
            pt.a + 1j, -pt.s00, pt.s0inf, pt.s1inf,
            -1j * pt.g11, -1j * pt.g12, 1j * pt.g21, 1j * pt.g22,
        )
    raise ConditionViolationError("direction must be 'up' or 'down'")


def _new_stokes_from_shift(pt: MonodromyPoint, shift: int, D: np.ndarray,
                           flip: bool) -> tuple[complex, complex, np.ndarray]:
    """New (s0inf, s1inf, S0_{new,0}) when the new Stokes factors are
    ``D (sigma1?) S_inf_{old, k+shift} (sigma1?) D^-1``."""
    Dinv = np.diag(1.0 / np.diag(D))

    def conj(mat: np.ndarray) -> np.ndarray:
        if flip:
            mat = SIGMA1 @ mat @ SIGMA1
        return D @ mat @ Dinv

    s_new_0 = conj(_stokes_inf(pt, shift))
    s_new_1 = conj(_stokes_inf(pt, shift + 1))
    if abs(s_new_0[0, 1]) > 1e-12 * max(1.0, abs(s_new_0[1, 0])) or abs(
        s_new_1[1, 0]
    ) > 1e-12 * max(1.0, abs(s_new_1[0, 1])):
        raise ConditionViolationError("transformed Stokes factors lost triangularity")
    return complex(s_new_0[1, 0]), complex(s_new_1[0, 1]), _upper(pt.s00)


def lie_point_monodromy(pt: MonodromyPoint, kind: str, p: int = 1, l: int = 1) -> MonodromyPoint:
    """Action on the manifold of the three Lie-point symmetries:
    ``negate_tau`` (tau -> -tau), ``negate_a`` (a -> -a), and
    ``rotate_tau`` (tau -> i tau).  For the first two the result is
    independent of ``l``; for the rotation all four (p, l) sign cases
    are distinct."""
    if p not in (1, -1) or l not in (1, -1):
        raise ConditionViolationError("p and l must be +-1")
    a = pt.a
    G = pt.G
    s_zero_0 = _upper(pt.s00)
    if kind == "negate_tau":
        D = _exp_sigma3(0.5 * cmath.pi * l * (a - 1j))
        s0n, s1n, s_zero_new = _new_stokes_from_shift(pt, p + l, D, flip=False)
        if p == 1:
            Gn = 1j * s_zero_new @ SIGMA1 @ G @ _exp_sigma3(-0.25j * cmath.pi) \
                @ _exp_sigma3(0.5 * cmath.pi * (a - 0.5j))
        else:
            Gn = -1j * SIGMA1 @ np.linalg.inv(s_zero_new) @ G \
                @ _exp_sigma3(0.25j * cmath.pi) @ _exp_sigma3(-0.5 * cmath.pi * (a - 0.5j))
        out = pt.with_G(Gn, s0inf=s0n, s1inf=s1n)
    elif kind == "negate_a":
        a_new = -a
        D = _exp_sigma3(0.5 * cmath.pi * a_new * l)
        s0n, s1n, s_zero_new = _new_stokes_from_shift(pt, l, D, flip=True)
        s_inf_new_1 = _upper(s1n)
        K = (
            _exp_sigma3(cmath.pi * (a_new - 0.5j))
            @ SIGMA3
            @ np.linalg.inv(s_inf_new_1)
            @ SIGMA3
            @ _exp_sigma3(-cmath.pi * (a_new - 0.5j))
            @ _exp_sigma3(0.5 * cmath.pi * a_new)
        )
        Kinv = np.linalg.inv(K)
        if p == 1:
            Gn = -1j * G @ SIGMA1 @ Kinv
        else:
            Gn = -SIGMA1 @ np.linalg.inv(s_zero_new) @ G @ SIGMA1 @ Kinv
        out = pt.with_G(Gn, a=a_new, s0inf=s0n, s1inf=s1n)
    elif kind == "rotate_tau":
        quarter = _exp_sigma3(0.25 * cmath.pi * a)
        quarter_inv = _exp_sigma3(-0.25 * cmath.pi * a)
        s0n = pt.s0inf * cmath.exp(0.5 * cmath.pi * l * a)
        s1n = pt.s1inf * cmath.exp(-0.5 * cmath.pi * l * a)
        if p == -1 and l == 1:
            Gn = G @ quarter
        elif p == 1 and l == -1:
            Gn = G @ quarter_inv
        elif p == -1 and l == -1:
            Gn = -1j * SIGMA1 @ np.linalg.inv(s_zero_0) @ G @ quarter_inv
        else:  # p == l == 1
            Gn = 1j * s_zero_0 @ SIGMA1 @ G @ quarter
        out = pt.with_G(Gn, s0inf=s0n, s1inf=s1n)
    else:
        raise ConditionViolationError(f"unknown Lie-point symmetry kind {kind!r}")
    return out


def point_to_json(pt: MonodromyPoint) -> str:
    """Serialize as the canonical JSON object of [re, im] pairs."""
    payload = {
        key: [getattr(pt, key).real, getattr(pt, key).imag] for key in _JSON_KEYS
    }
    return json.dumps(payload)


def point_from_json(text: str) -> MonodromyPoint:
    """Parse the canonical JSON object of [re, im] pairs."""
    data = json.loads(text)
    missing = [k for k in _JSON_KEYS if k not in data]
    if missing:
        raise ValueError(f"monodromy point JSON is missing keys: {missing}")
    vals = {}
    for key in _JSON_KEYS:
        pair = data[key]
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"key {key!r} must be a [re, im] pair")
        vals[key] = complex(float(pair[0]), float(pair[1]))
        if not cmath.isfinite(vals[key]):
            raise ValueError(f"key {key!r} must be finite")
    return MonodromyPoint(**vals)
