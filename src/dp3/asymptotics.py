"""Asymptotic charts: the finite parameter sets that determine a solution's
behaviour at the ends of a ray, built from a point of the monodromy
manifold, plus the evaluators of every asymptotic formula (solution and
Hamiltonian at large and small argument, real and imaginary rays, the
tau-function form, and the cross-ray connection identities).

A "chart" fixes the ray label ``eps1``, the equation parameters,
and the handful of complex constants entering the formulas; evaluators
then take only the positive magnitude ``|tau|``.  Each chart also keeps
what its evaluators derive from those fields alone (the ray phase, the
scales, the bracket coefficients), built once in ``__post_init__``.  Each
such constant is a left prefix of the product or sum that reads it, or a
factor evaluated on its own, so keeping it changes no evaluator's float.
"""

from __future__ import annotations

import cmath
import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple

# the errors module, not its decorator: perfbench/tracer.py wraps the
# functions bound in this namespace and looks each up in its own module
from . import _EXPORTS, errors
from .errors import ConditionViolationError
from .monodromy import MonodromyPoint, _nu_plus_1, apply_F, lie_point_monodromy, rho_from
from .params import EquationParams, _shifted_a
from .specfun import digamma, gamma

__all__ = _EXPORTS["asymptotics"]

_SQRT3 = math.sqrt(3.0)
_LN_2_PLUS_SQRT3 = math.log(2.0 + _SQRT3)
_EULER_PSI1 = -0.5772156649015328606
_ZERO_TOL = 1e-12
_NAN = complex(math.nan, math.nan)


def _theta_scale(params: EquationParams) -> float:
    """3 sqrt(3) |eps b|^{1/3}, theta at |tau| = 1."""
    return 3.0 * _SQRT3 * params.abs_coupling ** (1.0 / 3.0)


def _theta(params: EquationParams, m):
    """theta at a magnitude m, a float or an array, unchecked."""
    return _theta_scale(params) * m ** (2.0 / 3.0)


def theta_phase(params: EquationParams, tau_abs: float) -> float:
    """theta(tau) = 3 sqrt(3) |eps b|^{1/3} |tau|^{2/3}, |tau| > 0 finite."""
    return _theta(params, _magnitude(tau_abs))


@errors.finite_result
def nu_plus_1_of(g11: complex, g22: complex) -> complex:
    """Index of the large-argument chart, (i / 2 pi) ln(g11 g22)."""
    return _nu_plus_1(g11, g22)


def _omega_and_nu_plus_1(g11: complex, g12: complex, g22: complex) -> tuple[complex, complex]:
    """(g12 / g22, nu + 1) of a generic large chart, nu + 1 in the strip |Re(nu+1)| < 1/6."""
    nu1 = nu_plus_1_of(g11, g22)
    if abs(nu1.real) >= 1.0 / 6.0:
        raise ConditionViolationError(
            f"|Re(nu+1)| = {abs(nu1.real):.4f} >= 1/6: outside the chart's validity strip")
    return g12 / g22, nu1


def _check_a(a: complex) -> None:
    if not cmath.isfinite(a):
        raise ConditionViolationError("charts need a finite a")


def _magnitude(tau_abs: float) -> float:
    """``tau_abs`` as a float, which the evaluators need positive and finite
    (a NaN fails the comparison too)."""
    m = float(tau_abs)
    if not 0.0 < m < math.inf:
        raise ConditionViolationError("tau magnitude must be positive and finite")
    return m


def _ray_phase(eps1: int) -> complex:
    return cmath.exp(1j * math.pi * eps1)


def _ray_sign(eps1: int) -> float:
    return (-1.0) ** (eps1 % 2)


def _large_scale(params: EquationParams, eps1: int) -> float:
    """C = (-1)^eps1 eps sqrt|eps b| / 3^{1/4}, the scale of u at large |tau|."""
    return _ray_sign(eps1) * params.eps * math.sqrt(params.abs_coupling) / 3.0 ** 0.25


def _weight_scale(nu_plus_1: complex) -> complex:
    """sqrt(nu+1) e^{3 i pi/4}: u's oscillation weights are C times it times e^{+-z} / 2."""
    return cmath.sqrt(nu_plus_1) * cmath.exp(0.75j * math.pi)


def _cbrt_on_ray(eps1: int, m: float) -> complex:
    """tau^{1/3} for tau = m e^{i pi eps1}: negative cube roots taken
    real and negative."""
    return _ray_sign(eps1) * m ** (1.0 / 3.0)


def _or_nan(f, *args) -> complex:
    """``f(*args)``, or a complex NaN where its arithmetic overflows: the
    chart still builds, and each evaluator that reads the constant raises,
    as it would forming the constant itself."""
    try:
        return f(*args)
    except ArithmeticError:
        return _NAN


class _LargeConstants(NamedTuple):
    """A large chart's derived constants.  A tuple, so that the charts'
    finiteness check, which reads number fields, leaves them out."""

    phase: complex  # e^{i pi eps1}
    theta_scale: float  # _theta_scale
    scale: float  # _large_scale
    weight: complex  # _weight_scale(nu + 1)
    algebraic: float  # eps (eps b)^{2/3}, the special charts' cube-root coefficient
    oscillation: complex | None  # the special charts' oscillation coefficient
    # H_large = h_cbrt tau^{1/3} + h_inv_cbrt / tau^{1/3} h_nu + h_inv / (2 tau)
    h_cbrt: float  # 3 (eps b)^{2/3}
    h_inv_cbrt: float  # 2 |eps b|^{1/3}
    h_nu: complex  # a_shifted - 2 sqrt(3) i (nu + 1)
    h_inv: complex  # a_shifted^2


@dataclass(frozen=True)
class LargeTauChart:
    """Parameters of the large-argument expansion on one ray."""

    params: EquationParams
    eps1: int
    a: complex
    special: str  # "none" | "g21_zero" | "g12_zero"
    nu_plus_1: complex
    omega: complex | None
    z: complex | None
    s00: complex
    _k: _LargeConstants = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        P = self.params
        b23 = P.coupling_pow23
        ash = _shifted_a(self.a, P.sign2)
        self.__dict__["_k"] = _LargeConstants(
            _ray_phase(self.eps1), _theta_scale(P), _large_scale(P, self.eps1),
            _weight_scale(self.nu_plus_1), P.eps * b23,
            None if self.special == "none" else _or_nan(_special_coefficient, self),
            3.0 * b23, 2.0 * P.abs_coupling ** (1.0 / 3.0),
            ash - 2.0 * _SQRT3 * 1j * self.nu_plus_1, ash * ash)


class _SmallConstants(NamedTuple):
    """A small chart's derived constants (the last four off the log branch
    only).  A tuple, so that the charts' finiteness check leaves them out."""

    phase: complex  # e^{i pi eps1}
    exponent: complex  # _small_exponent
    two_rho: complex | None = None  # 2 rho
    # p+ chi1+, p- chi1-, q+ e^{-i pi rho} chi2+, q- e^{i pi rho} chi2-
    brackets: tuple | None = None
    e_a: complex | None = None  # e^{(-1)^eps2 pi a / 2}, u_small's factor
    du_scale: complex | None = None  # (-1)^eps2 b / (16 pi) e^{(-1)^eps2 pi a / 2}


@dataclass(frozen=True)
class SmallTauChart:
    """Parameters of the small-argument expansion on one ray.  When
    ``log_mode`` the chart follows the logarithmic (resonant) branch."""

    params: EquationParams
    eps1: int
    a: complex
    rho: complex
    log_mode: bool
    # generic branch: p-values at ((-1)^eps2 a, +-rho), ((-1)^(eps2+1) a, +-rho)
    p_plus: complex | None
    p_minus: complex | None
    q_plus: complex | None
    q_minus: complex | None
    chi1_plus: complex | None
    chi1_minus: complex | None
    chi2_plus: complex | None
    chi2_minus: complex | None
    # log branch: bracket constants with a2 + b2 ln|tau| structure
    a2: complex | None = None
    b2: complex | None = None
    a2_second: complex | None = None
    b2_second: complex | None = None
    prefactor: complex | None = None
    _k: _SmallConstants = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        phase, exponent = _ray_phase(self.eps1), _small_exponent(self)
        if self.log_mode:
            k = _SmallConstants(phase, exponent)
        else:
            P, rho = self.params, self.rho
            s = P.sign2
            e_a = _or_nan(cmath.exp, s * math.pi * self.a / 2.0)
            brackets = (self.p_plus * self.chi1_plus, self.p_minus * self.chi1_minus,
                        self.q_plus * cmath.exp(-1j * math.pi * rho) * self.chi2_plus,
                        self.q_minus * cmath.exp(1j * math.pi * rho) * self.chi2_minus)
            k = _SmallConstants(phase, exponent, 2.0 * rho, brackets,
                                e_a, s * P.b / (16.0 * math.pi) * e_a)
        self.__dict__["_k"] = k


def _mapped_g(pt: MonodromyPoint, eps1: int, params: EquationParams):
    mapped = apply_F(pt, eps1, params.eps2)
    return mapped.g11, mapped.g12, mapped.g21, mapped.g22


@errors.finite_result
def large_tau_chart(pt: MonodromyPoint, eps1: int, params: EquationParams) -> LargeTauChart:
    """Chart for the expansion as |tau| -> infinity on arg tau = pi eps1."""
    _check_a(pt.a)
    g11, g12, g21, g22 = _mapped_g(pt, eps1, params)
    s00, a = pt.s00, pt.a
    scale = max(abs(g11), abs(g12), abs(g21), abs(g22), 1.0)
    if abs(g21) <= _ZERO_TOL * scale:
        return LargeTauChart(params, eps1, a, "g21_zero", 0.0j, None, None, s00)
    if abs(g12) <= _ZERO_TOL * scale:
        return LargeTauChart(params, eps1, a, "g12_zero", 0.0j, None, None, s00)
    if g11 == 0 or g22 == 0:
        raise ConditionViolationError(
            "large-argument chart needs g11 g12 g21 g22 != 0 after the sector map")
    omega, nu1 = _omega_and_nu_plus_1(g11, g12, g22)
    if nu1 == 0:
        z = None  # degenerate: the oscillatory normalisation is singular
    else:
        # the two i pi/2 coefficients are calibrated against trajectories
        # seeded from the small-argument expansion (their signs and the
        # nu-coefficient are the only parts of z not fixed by the
        # triangular-G degenerations); both corrections are invariant
        # under the branch choice of sqrt(nu+1)
        z = 0.5 * math.log(2.0 * math.pi) + 0.5j * math.pi + 0.5j * math.pi * nu1 \
            + params.sign2 * 1j * a * _LN_2_PLUS_SQRT3 + nu1 * math.log(12.0) \
            - cmath.log(omega * cmath.sqrt(nu1) * gamma(nu1))
    return LargeTauChart(params, eps1, a, "none", nu1, omega, z, s00)


def _special_coefficient(chart: LargeTauChart) -> complex:
    """The degenerate (triangular-G) charts' oscillation coefficient: their
    oscillatory term is this times e^{-i (theta - pi/4)} (g21 = 0) or
    e^{i (theta + 3 pi/4)} (g12 = 0)."""
    P = chart.params
    coeff = _ray_sign(chart.eps1) * P.eps * math.sqrt(P.abs_coupling) \
        * (chart.s00 - 1j * cmath.exp(-P.sign2 * math.pi * chart.a)) \
        / (2.0 ** 1.5 * 3.0 ** 0.25 * math.sqrt(math.pi))
    ratio = (_SQRT3 - 1.0) / (_SQRT3 + 1.0)
    log_ratio = math.log(ratio) if chart.special == "g21_zero" else math.log(1.0 / ratio)
    return coeff * cmath.exp(P.sign2 * 1j * chart.a * log_ratio)


@errors.finite_result
def u_large(chart: LargeTauChart, tau_abs: float) -> complex:
    """Leading large-argument value at |tau| = tau_abs on the chart's ray
    (all dropped correction terms set to zero)."""
    k = chart._k
    m = _magnitude(tau_abs)
    theta = k.theta_scale * m ** (2.0 / 3.0)
    if chart.special != "none":
        phi = -1j * (theta - math.pi / 4.0) if chart.special == "g21_zero" \
            else 1j * (theta + 3.0 * math.pi / 4.0)
        return k.algebraic * _cbrt_on_ray(chart.eps1, m) / 2.0 + k.oscillation * cmath.exp(phi)
    if chart.nu_plus_1 == 0 or chart.z is None:
        raise ConditionViolationError(
            "degenerate chart: nu + 1 = 0 with nontrivial off-diagonal entries; "
            "use the triangular special charts")
    return k.scale * (cmath.sqrt(theta / 12.0) + k.weight
                      * cmath.cosh(1j * theta + chart.nu_plus_1 * cmath.log(theta) + chart.z))


@errors.finite_result
def H_large(chart: LargeTauChart, tau_abs: float) -> complex:
    """Leading Hamiltonian value on the chart's ray; the degenerate charts
    share the generic formula with nu + 1 = 0."""
    k = chart._k
    m = _magnitude(tau_abs)
    t13 = _cbrt_on_ray(chart.eps1, m)
    return k.h_cbrt * t13 + k.h_inv_cbrt / t13 * k.h_nu + k.h_inv / (2.0 * (k.phase * m))


# The values of _p_factors by the exact bits of (|eps b|, z2, z1), so that
# +0.0 and -0.0 stay apart.  The small charts of one point on the real and
# the imaginary rays read the same {+-rho} x {+-a} values.  The memo holds
# at most _P_MEMO_SIZE values and is emptied when a call would overfill it.
_P_MEMO: dict[bytes, complex] = {}
_P_MEMO_SIZE = 16
_P_KEY = struct.Struct("5d").pack


def _p_factors(params: EquationParams, z2: complex, z1s: tuple) -> list[complex]:
    """The small-argument expansion's gamma-ratio coefficients p(z1, z2),
    one per z1 in ``z1s``.  Values come from ``_P_MEMO`` when all of them
    are there, and are the floats the computation below gives; a call that
    raises stores nothing."""
    keys = [_P_KEY(params.abs_coupling, z2.real, z2.imag, z1.real, z1.imag) for z1 in z1s]
    found = [_P_MEMO.get(key) for key in keys]
    if None not in found:
        return found
    base = cmath.log(params.abs_coupling / 32.0) + 0.5j * math.pi
    ratio = gamma(0.5 - z2) / gamma(1.0 + z2)
    w = cmath.exp(z2 * base) * ratio * ratio
    t = cmath.tan(math.pi * z2)
    values = [w * gamma(1.0 + z2 + 0.5j * z1) / t for z1 in z1s]
    if len(_P_MEMO) + len(keys) > _P_MEMO_SIZE:
        _P_MEMO.clear()
    _P_MEMO.update(zip(keys, values))
    return values


def _chi(ga: complex, gb: complex, z: complex) -> complex:
    """chi(ga, gb; z) = ga e^{i pi z} e^{i pi/4} + gb e^{-i pi z} e^{-i pi/4}."""
    return ga * cmath.exp(1j * math.pi * z + 0.25j * math.pi) \
        + gb * cmath.exp(-1j * math.pi * z - 0.25j * math.pi)


@errors.finite_result
def small_tau_chart(pt: MonodromyPoint, eps1: int, params: EquationParams) -> SmallTauChart:
    """Chart for the expansion as |tau| -> 0 on arg tau = pi eps1."""
    _check_a(pt.a)
    g11, g12, g21, g22 = _mapped_g(pt, eps1, params)
    s00, a = pt.s00, pt.a
    if abs(a.imag) >= 1.0:
        raise ConditionViolationError("small-argument charts need |Im a| < 1")
    if g11 * g22 == 0:
        raise ConditionViolationError("small-argument charts need g11 g22 != 0")
    s = params.sign2
    if abs(s00 - 2j) <= _ZERO_TOL:
        if a == 0:
            raise ConditionViolationError("logarithmic chart needs a != 0")
        # the second bracket is the first with (g11, g21, Q(s a), +) -> (g22, g12, Q(-s a), -)
        (a2, b2), (a2s, b2s) = (
            (chi0 * (1.0 - sg * s * 0.5j * a * _q_factor(params, sg * s * a))
             + s * (math.pi * a / 4.0) * (g_b * cmath.exp(-sg * 0.25j * math.pi)
                                          - 3.0 * g_a * cmath.exp(sg * 0.25j * math.pi)),
             sg * s * 1j * a * chi0)
            for g_a, g_b, sg, chi0 in ((g11, g21, 1, _chi(g11, g21, 0.0)),
                                       (g22, g12, -1, _chi(g12, g22, 0.0))))
        pref = s * params.b * cmath.exp(s * math.pi * a / 2.0) \
            / (2.0 * a * cmath.sinh(math.pi * a / 2.0))
        return SmallTauChart(params, eps1, a, 0.0j, True,
                             None, None, None, None, None, None, None, None,
                             a2=a2, b2=b2, a2_second=a2s, b2_second=b2s,
                             prefactor=pref)
    rho = rho_from(MonodromyPoint(a, s00, 0, 0, 1, 0, 0, 1))
    if abs(rho) <= _ZERO_TOL:
        raise ConditionViolationError("rho = 0 but s00 != 2i: inconsistent point")
    if rho.real >= 0.5 - _ZERO_TOL:
        raise ConditionViolationError("|Re rho| = 1/2: on the boundary of the chart")
    # p at z1 = s a, q at z1 = -s a, each at z2 = +-rho
    p_plus, q_plus = _p_factors(params, rho, (s * a, -s * a))
    p_minus, q_minus = _p_factors(params, -rho, (s * a, -s * a))
    return SmallTauChart(
        params, eps1, a, rho, False,
        p_plus=p_plus, p_minus=p_minus, q_plus=q_plus, q_minus=q_minus,
        chi1_plus=_chi(g11, g21, rho),
        chi1_minus=_chi(g11, g21, -rho),
        chi2_plus=_chi(g12, g22, rho),
        chi2_minus=_chi(g12, g22, -rho),
    )


def _q_factor(params: EquationParams, z: complex) -> complex:
    """Q(z) = 4 psi(1) - psi(i z / 2) + ln 2 - ln|eps b|."""
    return 4.0 * _EULER_PSI1 - digamma(0.5j * z) + math.log(2.0) \
        - math.log(params.abs_coupling)


def _small_brackets(chart: SmallTauChart, m: float):
    """(F1, F2) and their rho-odd partners at |tau| = m.  The +-rho powers
    are evaluated as exponentials of exactly negated arguments so that the
    rho -> -rho swap is a bitwise symmetry of the result."""
    k = chart._k
    c1p, c1m, c2p, c2m = k.brackets
    x = k.two_rho * math.log(m)
    mp = cmath.exp(x)
    mm = cmath.exp(-x)
    t1p = c1p * mp
    t1m = c1m * mm
    t2p = c2p * mp
    t2m = c2m * mm
    return t1p + t1m, t2p + t2m, t1p - t1m, t2p - t2m


def _log_brackets(chart: SmallTauChart, m: float) -> tuple[complex, complex]:
    """The log branch's (a2 + b2 ln m, a2' + b2' ln m) at |tau| = m."""
    log_m = math.log(m)
    return chart.a2 + chart.b2 * log_m, chart.a2_second + chart.b2_second * log_m


def _small_exponent(chart: SmallTauChart) -> complex:
    """a (a - (-1)^eps2 i) + 1/4 (+ 8 rho^2 off the log branch): 2 tau H_small's constant."""
    e = chart.a * (chart.a - chart.params.sign2 * 1j) + 0.25
    return e if chart.log_mode else e + 8.0 * chart.rho**2


@errors.finite_result
def u_small(chart: SmallTauChart, tau_abs: float) -> complex:
    """Leading small-argument value at |tau| = tau_abs on the chart's ray."""
    k = chart._k
    m = _magnitude(tau_abs)
    tau = k.phase * m
    if chart.log_mode:
        L1, L2 = _log_brackets(chart, m)
        return chart.prefactor * tau * L1 * L2
    F1, F2, _, _ = _small_brackets(chart, m)
    P = chart.params
    return P.sign2 * tau * P.b / (16.0 * math.pi) * k.e_a * F1 * F2


@errors.finite_result
def du_small(chart: SmallTauChart, tau_abs: float) -> complex:
    """Analytic tau-derivative of ``u_small`` along the ray."""
    m = _magnitude(tau_abs)
    if chart.log_mode:
        L1, L2 = _log_brackets(chart, m)
        return chart.prefactor * (L1 * L2 + chart.b2 * L2 + chart.b2_second * L1)
    F1, F2, G1, G2 = _small_brackets(chart, m)
    k = chart._k
    return k.du_scale * (F1 * F2 + k.two_rho * (G1 * F2 + F1 * G2))


@errors.finite_result
def H_small(chart: SmallTauChart, tau_abs: float) -> complex:
    """Leading small-argument Hamiltonian on the chart's ray."""
    k = chart._k
    m = _magnitude(tau_abs)
    tau = k.phase * m
    if chart.log_mode:
        return k.exponent / (2.0 * tau) + chart.b2 / (tau * _log_brackets(chart, m)[0])
    F1, _, G1, _ = _small_brackets(chart, m)
    return k.two_rho / tau * (G1 / F1) + k.exponent / (2.0 * tau)


@errors.finite_result
def tau_function_asymptotic(chart: SmallTauChart, tau_abs: float, const: complex = 1.0) -> complex:
    """Small-argument tau-function form; ``const`` is the undetermined
    overall factor."""
    k = chart._k
    m = _magnitude(tau_abs)
    tau = k.phase * m
    F1 = _log_brackets(chart, m)[0] if chart.log_mode else _small_brackets(chart, m)[0]
    return const * (tau ** (0.5 * k.exponent) * F1)


def imag_chart(pt: MonodromyPoint, eps1: int, params: EquationParams,
               regime: str) -> LargeTauChart | SmallTauChart:
    """The real-axis chart of the rotated problem behind ``u_imag``: the
    value on the imaginary ray is ``i * eps1`` times this chart's
    positive-ray evaluation at the same magnitude.

    The quarter rotation sending the ray arg tau = pi eps1 / 2 to the
    positive axis flips the coupling sign and acts on the monodromy data.
    For positive original coupling both admissible sector labels of the
    rotated problem give identical chart values; the +1 sector is used."""
    _check_a(pt.a)
    if eps1 not in (1, -1):
        raise ConditionViolationError("imaginary-ray charts need eps1 = +-1")
    p = params.eps2 if params.eps2 != 0 else -1
    rotated = lie_point_monodromy(pt, "rotate_tau", p=p, l=eps1)
    new_params = EquationParams(-params.eps, params.b, 0 if params.eps2 != 0 else -p)
    if regime == "large":
        return large_tau_chart(rotated, 0, new_params)
    if regime == "small":
        return small_tau_chart(rotated, 0, new_params)
    raise ConditionViolationError("regime must be 'large' or 'small'")


@errors.finite_result
def u_imag(pt: MonodromyPoint, eps1: int, params: EquationParams,
           tau_abs: float, regime: str) -> complex:
    """Leading value on the imaginary ray arg tau = pi eps1 / 2.

    Composes the two independently verified pieces: the quarter rotation
    of the ray (which flips the coupling sign and acts on the monodromy
    data) and the real-axis kernels, with the overall prefactor i * eps1
    coming from the rotation's action on solutions.  An arithmetic failure
    or a non-finite value raises ``ConditionViolationError``."""
    _magnitude(tau_abs)
    chart = imag_chart(pt, eps1, params, regime)
    if regime == "large":
        return 1j * eps1 * u_large(chart, tau_abs)
    return 1j * eps1 * u_small(chart, tau_abs)


def du_imag(pt: MonodromyPoint, eps1: int, params: EquationParams,
            tau_abs: float) -> complex:
    """Analytic tau-derivative of the small-regime imaginary-ray value:
    the i*eps1 prefactor cancels against d tau_rotated / d tau."""
    _magnitude(tau_abs)
    chart = imag_chart(pt, eps1, params, "small")
    return du_small(chart, tau_abs)


@errors.finite_result
def cross_ray_residuals(pt: MonodromyPoint) -> list[float]:
    """Absolute residuals of the four identities connecting the charts on
    the three real rays (eps2 = 0): omega(+-1, 0) and nu(+-1, 0) + 1 in
    terms of omega, nu + 1, and a.  An arithmetic failure or a non-finite
    residual raises ``ConditionViolationError``."""
    def chart_pair(eps1: int):
        m = apply_F(pt, eps1, 0)
        if m.g11 * m.g12 * m.g21 * m.g22 == 0:
            raise ConditionViolationError("a chart on one of the rays is degenerate")
        return _omega_and_nu_plus_1(m.g11, m.g12, m.g22)

    omega, nu1 = chart_pair(0)
    omega_p, nu1_p = chart_pair(1)
    omega_m, nu1_m = chart_pair(-1)
    a = pt.a
    ema = cmath.exp(-math.pi * a)
    E = cmath.exp(2j * math.pi * nu1)
    r1 = omega_p - (omega + (1j * ema + 1.0 / omega) * E)
    r2 = cmath.exp(-2j * math.pi * nu1_p) + omega * (omega / E + 1j * ema)
    # the negative-ray weight: the determinant relation pins
    # g21 g22 = (1/E - 1)/omega, whence omega(-1, 0) as below
    r3 = omega_m - omega / (1.0 - E - 1j * omega * E * ema)
    r4 = cmath.exp(-2j * math.pi * nu1_m) \
        - (1.0 - E) * (1.0 - 1.0 / E + 1j * omega * ema) / (omega * omega)
    return [abs(r1), abs(r2), abs(r3), abs(r4)]
