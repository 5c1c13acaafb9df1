"""Numerical side of the nonlinear equation: the right-hand side, adaptive
integration along rays with an in-house Dormand-Prince 8(5,3) (DOP853)
stepper, Hamiltonian evaluation in all three coordinate systems, the
canonical-variable and matrix-entry conversions, and finite-difference
residual checks.  The Hamiltonians and the conversions raise
``ConditionViolationError`` where their arithmetic fails or their value
is not finite.

The equation itself is

    u'' = (u')^2/u - u'/tau + (-8 eps u^2 + 2 a b)/tau + b^2/u,

singular exactly at u = 0 and tau = 0.  Its code is the one expression
``_DDU``, in tau, u, u' and three per-ray constants.  All integration
happens along a fixed ray in the complex tau plane, parametrised by
s = |tau|.

The stepper's step and interpolant are straight-line code generated from
the DOP853 tableau below, once per component count, the first time they
are needed (never at import).  Each expression keeps the nonzero
coefficients in ascending stage order, so the steps, ``nfev`` and output
samples are the same floats as the dense formula y + h sum_j a_sj K_j.
One generator writes the kernels of each right-hand side from its record,
a ``_System``, as one triple (rhs, step, interpolant) over the record's
bound constants.  ``_GENERIC``'s one constant is a Python closure that its
stages call; ``_RAY``'s stages, which ``integrate_ray`` uses, write
``_DDU`` inline with a ray's constants and give the floats of the generic
ones on that closure.

The dense output is filled in one pass after the last step: the same
generated interpolant runs once over every step that holds a requested
|tau|, and the interpolating polynomial once over every sample, on numpy
"lanes" (``_Lanes``) whose arithmetic repeats CPython's scalar complex
arithmetic bit for bit.  So the samples are the same floats as a
step-by-step pass, for a few hundred numpy operations per ray in place of
the Python work of every step.
"""

from __future__ import annotations

import cmath
import io
import math
import time
from dataclasses import dataclass

import numpy as np

# the errors module, not its decorator: perfbench/tracer.py wraps the
# functions bound in this namespace and looks each up in its own module
from . import _EXPORTS, errors
from .errors import ConditionViolationError, IntegrationFailureError, SingularityError
from .params import EquationParams, _shifted_a, _shifted_ai

__all__ = _EXPORTS["ode"]

_TOL_RANGE = (1e-13, 1e-6)
_U_BOUNDS = (1e-8, 1e8)  # integrate_ray stops where |u| leaves these: a zero or pole


@dataclass(frozen=True)
class SolutionState:
    """One sample (tau, u, u', optionally phi) of a solution."""

    tau: complex
    u: complex
    du: complex
    phi: complex | None = None


@dataclass(frozen=True)
class HamiltonianSplit:
    """Hamiltonian value and its origin/infinity parts,
    H = H0 + Hinf with H0 - Hinf = -(a - i/2)^2 / (2 tau)."""

    H: complex
    H0: complex
    Hinf: complex


@dataclass
class Trajectory:
    """Samples of a solution along a ray, with per-sample Hamiltonian."""

    params: EquationParams
    a: complex
    tau: np.ndarray  # complex, on one ray: the accepted steps or the requested |tau|
    u: np.ndarray
    du: np.ndarray
    phi: np.ndarray | None
    H: np.ndarray
    nsteps: int = 0  # accepted solver steps; 0 when not built by integrate_ray
    nfev: int = 0  # right-hand-side calls, dense-output stages included
    # solver statistics, also 0.0 when not built by integrate_ray
    h_min: float = 0.0  # smallest and largest accepted step in |tau|
    h_max: float = 0.0
    u_abs_min: float = 0.0  # smallest and largest |u| at the seed and the accepted steps
    u_abs_max: float = 0.0
    wall_s: float = 0.0  # integrate_ray's wall time in seconds


def _check_state(state: SolutionState) -> tuple[complex, complex, complex]:
    if state.u == 0:
        raise SingularityError("u = 0 is a singular point of the equation")
    if state.tau == 0:
        raise SingularityError("tau = 0 is a singular point of the equation")
    return state.tau, state.u, state.du


# The equation's right-hand side: u'' in terms of tau, u, du and the per-ray
# constants of _ray_constants.  It is written only here; _ddu and the fused
# stages of the generated kernels are both compiled from it.  The constants
# fold exactly: ((-8.0 * eps) * u) * u and (2.0 * a) * b associate left.
_DDU = "du * du / u - du / tau + (c_u2 * u * u + c_ab) / tau + b2 / u"
_ddu_expr = eval(compile(f"lambda tau, u, du, c_u2, c_ab, b2: {_DDU}", "<u''>", "eval"))


def _ray_constants(a: complex, params: EquationParams) -> tuple:
    """(c_u2, c_ab, b2) = (-8 eps, 2 a b, b^2), the constants of ``_DDU``."""
    b = float(params.b)
    return float(-8.0 * params.eps), 2.0 * a * b, b**2


def _ddu(tau, u, du, a: complex, params: EquationParams):
    """u'' from the equation, for scalars or numpy arrays (no singularity
    check)."""
    return _ddu_expr(tau, u, du, *_ray_constants(a, params))


def dp3_rhs(state: SolutionState, a: complex, params: EquationParams) -> tuple[complex, complex]:
    """(u', u'') at the given state.  A u'' that is a number and not finite
    raises ``ConditionViolationError`` (it is finite only where u' is); the
    lanes and arrays that the generic dense pass and array callers pass are
    not checked."""
    tau, u, du = _check_state(state)
    ddu = _ddu(tau, u, du, a, params)
    if isinstance(ddu, (complex, float)) and not cmath.isfinite(ddu):
        raise ConditionViolationError(f"dp3_rhs: u'' = {ddu} is not finite")
    return du, ddu


def _hamiltonian(tau, u, du, a: complex, params: EquationParams):
    """Hamiltonian in terms of (tau, u, u'), for scalars or numpy arrays
    (no singularity check)."""
    ash = _shifted_a(a, params.sign2)
    return ash * params.b / u + ash * ash / (2.0 * tau) \
        + (tau / (4.0 * u * u)) * (du * du + params.b**2) + 4.0 * params.eps * u


@errors.finite_result
def hamiltonian_u(state: SolutionState, a: complex, params: EquationParams) -> complex:
    """Hamiltonian in terms of (tau, u, u'), at the sector's shifted a."""
    tau, u, du = _check_state(state)
    return _hamiltonian(tau, u, du, a, params)


# The one canonical channel, eps1 = -1 (+1 generates the equation in no
# sector).  Its -2.0 and -1.0 factors keep the label's signed zeros.
@errors.finite_result
def hamiltonian_pq(p: complex, q: complex, tau: complex, a: complex,
                   params: EquationParams) -> complex:
    """Canonical-variables Hamiltonian H_{-1}(p, q; tau); its formal constant
    is i times ``hamiltonian_u``'s shifted a, in which the channel is covariant."""
    k = _shifted_ai(a, params.sign2)
    return p * p * q * q / tau - -2.0 * p * q * k / tau \
        + 4.0 * params.eps * q + 1j * params.b * p + k * k / (2.0 * tau)


@errors.finite_result
def hamiltonian_system_rhs(p: complex, q: complex, tau: complex, a: complex,
                           params: EquationParams) -> tuple[complex, complex]:
    """Hamilton's equations: (dp/dtau, dq/dtau) = (-dH/dq, +dH/dp).  With
    q = u and p = ``p_from_u`` this is the equation at a when eps b > 0,
    and at a + i when eps b < 0 (the sector constant k = i a - 1/2)."""
    if tau == 0:
        raise SingularityError("tau = 0 is a singular point of the system")
    k = _shifted_ai(a, params.sign2)
    dp = -(2.0 * p * p * q / tau - -2.0 * p * k / tau + 4.0 * params.eps)
    dq = 2.0 * p * q * q / tau - -2.0 * q * k / tau + 1j * params.b
    return dp, dq


def _momentum(tau, u, du, k: complex, params: EquationParams) -> complex:
    """p = tau (u' - i b) / (2 u^2) - k / u at the channel constant k."""
    return tau * (du - 1j * params.b) / (2.0 * u * u) + k * -1.0 / u


@errors.finite_result
def p_from_u(state: SolutionState, a: complex, params: EquationParams) -> complex:
    """Conjugate momentum for q = u at the channel's sector constant
    k = i a + sign2 / 2: Hamilton's equations from it give the equation at
    a when eps b > 0 and at a + i when eps b < 0."""
    tau, u, du = _check_state(state)
    return _momentum(tau, u, du, _shifted_ai(a, params.sign2), params)


@errors.finite_result
def sigma_and_f(state: SolutionState, a: complex, params: EquationParams) -> tuple[complex, complex]:
    """(sigma, f) built on the canonical channel:
    f = p q / 2 and sigma = (p q + a i + 1)^2 + tau (4 eps q + i b p).

    This channel is sector-free (its defining equations never reference
    the coupling's argument), so the plain constant ``ai + 1/2`` is used
    regardless of eps2."""
    tau, u, du = _check_state(state)
    k = _shifted_ai(a, 1)
    p = _momentum(tau, u, du, k, params)
    q = u
    f = p * q / 2.0
    sigma = (p * q - -1 * (k - -0.5)) ** 2 \
        + tau * (4.0 * params.eps * q + 1j * params.b * p)
    return sigma, f


@errors.finite_result
def to_abcd(state: SolutionState, a: complex, params: EquationParams
            ) -> tuple[complex, complex, complex, complex]:
    """Matrix-entry functions (A, B, C, D) built from (u, u', phi);
    A' and B' are expanded through u' and phi' = 2a/tau + b/u."""
    if state.phi is None:
        raise ConditionViolationError("to_abcd requires a state with phi")
    tau, u, du = _check_state(state)
    eiphi = cmath.exp(1j * state.phi)
    dphi = 2.0 * a / tau + params.b / u
    A = (u / tau) * eiphi
    B = -(u / tau) / eiphi
    dA = eiphi * (du / tau - u / tau**2 + 1j * (u / tau) * dphi)
    dB = -(du / tau - u / tau**2 - 1j * (u / tau) * dphi) / eiphi
    C = (params.eps * tau / (4.0 * u)) * dA
    D = -(params.eps * tau / (4.0 * u)) * dB
    return A, B, C, D


@errors.finite_result
def hamiltonian_abcd(A: complex, B: complex, C: complex, D: complex, tau: complex,
                     a: complex, params: EquationParams,
                     sqrt_ab: complex) -> HamiltonianSplit:
    """Hamiltonian from the matrix entries, split into origin/infinity
    parts.  ``sqrt_ab`` fixes the branch of sqrt(-A B); it must equal
    u/(eps tau) when the entries come from a solution."""
    if A * B == 0:
        raise SingularityError("A B = 0 is outside the parametrised stratum")
    k = _shifted_ai(a, 1)
    H = (k + 2.0 * tau * A * D / sqrt_ab) ** 2 / (2.0 * tau) + 4.0 * tau * sqrt_ab \
        - 1j * params.eps * params.b * D / B + 2.0 * tau * C * D + A * D / sqrt_ab
    ash = _shifted_a(a, params.sign2)
    if params.sign2 != 1:
        # the matrix-entry line is written in the plain convention; the
        # sector form differs by the a-linear terms only
        u = params.eps * tau * sqrt_ab
        ash_1 = _shifted_a(a, 1)
        H += (ash - ash_1) * params.b / u + (ash**2 - ash_1**2) / (2.0 * tau)
    H0 = 0.5 * (H - ash * ash / (2.0 * tau))
    return HamiltonianSplit(H=H, H0=H0, Hinf=H - H0)


@errors.finite_result
def algebraic_solution(tau: complex, params: EquationParams,
                       with_phi: bool = False, phi0: complex = 0.0) -> SolutionState:
    """The exact cube-root solution at ``a = 0``: ``u = b^{2/3} tau^{1/3} /
    (2 eps)`` with the real-cube-root convention, plus its derivative (and
    phi on the positive ray when requested).  Singular at tau = 0; a
    non-finite tau or state raises ``ConditionViolationError``."""
    if tau == 0:
        raise SingularityError("tau = 0 is a singular point of the equation")
    c = params.coupling_pow23 / (2.0 * params.eps)
    t13 = _ray_cbrt(tau)
    u = c * t13
    du = c * t13 / (3.0 * tau)
    phi = None
    if with_phi:
        # phi' = b/u for a = 0 integrates to (3 b / (2 c)) tau^{2/3}
        phi = phi0 + 1.5 * (params.b / c) * t13 * t13
    return SolutionState(tau=tau, u=u, du=du, phi=phi)


def _ray_cbrt(tau: complex) -> complex:
    """Cube root along a ray: real cube root on the real axis (negative
    for negative tau), principal branch elsewhere.  ``np.cbrt``, not
    ``math.cbrt``: the latter differs on about half of all inputs, by up to
    3 ulp against ``np.cbrt``'s 0.53, and these bits seed the ladder and
    the algebraic oracle."""
    if tau.imag == 0.0:
        return complex(np.cbrt(tau.real))
    return tau ** (1.0 / 3.0)


def integrate_ray(initial: SolutionState, a: complex, params: EquationParams,
                  tau_end: float, tol: float = 1e-10,
                  dense_at: np.ndarray | None = None) -> Trajectory:
    """Integrate from ``initial`` along its ray until ``|tau| = tau_end``
    with the Dormand-Prince 8(5,3) pair (the in-house DOP853 stepper
    ``solve_ivp`` below, ``rtol = tol``, ``atol = 1e-3 tol``), stopping
    with a located failure if ``|u|`` leaves the fixed bounds
    ``[1e-8, 1e8]``.  A seed outside those bounds raises
    ``ConditionViolationError`` before the first step.

    ``dense_at`` selects output magnitudes |tau| in any order, filled from
    the 7th-order interpolant (default: the accepted steps).  They must lie
    between |tau0| and ``tau_end``, endpoints included: the interpolant is
    not extrapolated.  ``phi`` is advanced by the same stepper when present
    on the seed.  The trajectory records the solver's accepted steps
    (``nsteps``), right-hand-side calls (``nfev``), the smallest and largest
    accepted step, the smallest and largest ``|u|`` at the seed and the
    accepted steps, and the wall time of the call.

    ``tol`` controls each step's local error, not the global error, which
    after a near-zero of u can be orders larger: on arg tau = pi/2 the
    path of the second generic point of ``tests/test_taylor_oracle.py``
    passes |u| = 0.006 at |tau| = 8.6, and at |tau| = 10 its relative
    error is 114 tol at tol 1e-10 and 2.3e3 tol at tol 1e-8.  A small
    ``u_abs_min`` on the trajectory shows such an approach.

    The equation is not called per stage: the kernels of ``_RAY`` evaluate
    ``_DDU`` inline with this ray's phase and constants bound, and are
    handed to ``solve_ivp``, which is called through the module global.
    """
    t_start = time.perf_counter()
    if not (_TOL_RANGE[0] <= tol <= _TOL_RANGE[1]):
        raise ConditionViolationError(f"tol must lie in [{_TOL_RANGE[0]}, {_TOL_RANGE[1]}]")
    with_phi = initial.phi is not None
    values = (initial.tau, initial.u, initial.du, a, tau_end)
    if not all(cmath.isfinite(v) for v in values + ((initial.phi,) if with_phi else ())):
        raise ConditionViolationError("the seed state, a and tau_end must be finite")
    if dense_at is not None and not np.all(np.isfinite(dense_at)):
        raise ConditionViolationError("dense_at must be finite")
    s0 = abs(initial.tau)
    if s0 == 0:
        raise SingularityError("cannot start integration at tau = 0")
    phase = initial.tau / s0
    s1 = float(tau_end)
    if s1 <= 0 or s1 == s0:
        raise ConditionViolationError("tau_end must be a positive magnitude distinct from |tau0|")
    u_floor, u_ceil = _U_BOUNDS
    if not u_floor <= abs(initial.u) <= u_ceil:
        raise ConditionViolationError(
            f"the seed's |u(tau0)| = {abs(initial.u):.6g} lies outside "
            f"the fixed |u| bounds [{u_floor:g}, {u_ceil:g}]")
    if dense_at is not None:
        s_req = np.asarray(dense_at, dtype=float)
        if not np.all((min(s0, s1) <= s_req) & (s_req <= max(s0, s1))):
            raise ConditionViolationError("dense_at must lie between |tau0| and tau_end")

    y0 = [complex(initial.u), complex(initial.du)] + ([complex(initial.phi)] if with_phi else [])
    # Python numbers only, so that the scalar steps and the dense pass's
    # lanes both follow CPython's arithmetic, whatever the caller passed
    ca = complex(a)
    kernels = _kernels(_RAY, len(y0))(
        complex(phase), *_ray_constants(ca, params), 2.0 * ca, float(params.b))
    sol = solve_ivp(kernels, (s0, s1), y0, rtol=tol, atol=tol * 1e-3, dense_at=dense_at,
                    bounds=_U_BOUNDS)
    if sol.status == 1:  # approached a zero or pole
        raise IntegrationFailureError(
            f"|u| left [{u_floor}, {u_ceil}] near |tau| = {sol.t_fail:.6g}; "
            "the ray hits a zero or pole of the solution", tau_abs=sol.t_fail)
    if sol.status != 0:
        raise IntegrationFailureError(f"{sol.message} near |tau| = {sol.t_fail:.6g}",
                                      tau_abs=sol.t_fail)

    s_out = sol.t if dense_at is None else np.asarray(dense_at, dtype=float)
    tau_arr = phase * s_out
    u_arr, du_arr = sol.y[0], sol.y[1]
    phi_arr = sol.y[2] if with_phi else None
    if not (np.all(tau_arr) and np.all(u_arr)):  # only an interpolated u of exactly 0 can do this
        raise SingularityError("u = 0 or tau = 0 at an output sample")
    H = _hamiltonian(tau_arr, u_arr, du_arr, a, params)
    steps = np.abs(np.diff(sol.t))
    return Trajectory(params=params, a=a, tau=tau_arr, u=u_arr, du=du_arr,
                      phi=phi_arr, H=H, nsteps=steps.size, nfev=sol.nfev,
                      h_min=float(steps.min()), h_max=float(steps.max()),
                      u_abs_min=sol.u_abs_range[0], u_abs_max=sol.u_abs_range[1],
                      wall_s=time.perf_counter() - t_start)


# ------------------------------------------------------------ DOP853 stepper
#
# The explicit Runge-Kutta pair of order 8 with error estimators of orders 5
# and 3 and a 7th-order dense output (Hairer, Norsett & Wanner, "Solving
# Ordinary Differential Equations I", II.10), with the constants of Hairer's
# DOP853.  _A_NONZERO[s - 1] holds the nonzero a_sj of row s: rows 1-11 are
# the stages of a step, row 12 the solution weights, rows 13-15 the extra
# stages of the interpolant.  The 3rd-order error weights are the solution
# weights less _E3_SHIFT.  _kernel_source turns these rows into code.

_C = (0.0, 0.526001519587677318785587544488e-01,
      0.789002279381515978178381316732e-01, 0.118350341907227396726757197510,
      0.281649658092772603273242802490, 0.333333333333333333333333333333,
      0.25, 0.307692307692307692307692307692,
      0.651282051282051282051282051282, 0.6,
      0.857142857142857142857142857142, 1.0,
      1.0, 0.1,
      0.2, 0.777777777777777777777777777778)
_A_NONZERO = (
    {0: 5.26001519587677318785587544488e-2},
    {0: 1.97250569845378994544595329183e-2, 1: 5.91751709536136983633785987549e-2},
    {0: 2.95875854768068491816892993775e-2, 2: 8.87627564304205475450678981324e-2},
    {0: 2.41365134159266685502369798665e-1, 2: -8.84549479328286085344864962717e-1,
     3: 9.24834003261792003115737966543e-1},
    {0: 3.7037037037037037037037037037e-2, 3: 1.70828608729473871279604482173e-1,
     4: 1.25467687566822425016691814123e-1},
    {0: 3.7109375e-2, 3: 1.70252211019544039314978060272e-1,
     4: 6.02165389804559606850219397283e-2, 5: -1.7578125e-2},
    {0: 3.70920001185047927108779319836e-2, 3: 1.70383925712239993810214054705e-1,
     4: 1.07262030446373284651809199168e-1, 5: -1.53194377486244017527936158236e-2,
     6: 8.27378916381402288758473766002e-3},
    {0: 6.24110958716075717114429577812e-1, 3: -3.36089262944694129406857109825,
     4: -8.68219346841726006818189891453e-1, 5: 2.75920996994467083049415600797e1,
     6: 2.01540675504778934086186788979e1, 7: -4.34898841810699588477366255144e1},
    {0: 4.77662536438264365890433908527e-1, 3: -2.48811461997166764192642586468,
     4: -5.90290826836842996371446475743e-1, 5: 2.12300514481811942347288949897e1,
     6: 1.52792336328824235832596922938e1, 7: -3.32882109689848629194453265587e1,
     8: -2.03312017085086261358222928593e-2},
    {0: -9.3714243008598732571704021658e-1, 3: 5.18637242884406370830023853209,
     4: 1.09143734899672957818500254654, 5: -8.14978701074692612513997267357,
     6: -1.85200656599969598641566180701e1, 7: 2.27394870993505042818970056734e1,
     8: 2.49360555267965238987089396762, 9: -3.0467644718982195003823669022},
    {0: 2.27331014751653820792359768449, 3: -1.05344954667372501984066689879e1,
     4: -2.00087205822486249909675718444, 5: -1.79589318631187989172765950534e1,
     6: 2.79488845294199600508499808837e1, 7: -2.85899827713502369474065508674,
     8: -8.87285693353062954433549289258, 9: 1.23605671757943030647266201528e1,
     10: 6.43392746015763530355970484046e-1},
    {0: 5.42937341165687622380535766363e-2, 5: 4.45031289275240888144113950566,
     6: 1.89151789931450038304281599044, 7: -5.8012039600105847814672114227,
     8: 3.1116436695781989440891606237e-1, 9: -1.52160949662516078556178806805e-1,
     10: 2.01365400804030348374776537501e-1, 11: 4.47106157277725905176885569043e-2},
    {0: 5.61675022830479523392909219681e-2, 6: 2.53500210216624811088794765333e-1,
     7: -2.46239037470802489917441475441e-1, 8: -1.24191423263816360469010140626e-1,
     9: 1.5329179827876569731206322685e-1, 10: 8.20105229563468988491666602057e-3,
     11: 7.56789766054569976138603589584e-3, 12: -8.298e-3},
    {0: 3.18346481635021405060768473261e-2, 5: 2.83009096723667755288322961402e-2,
     6: 5.35419883074385676223797384372e-2, 7: -5.49237485713909884646569340306e-2,
     10: -1.08347328697249322858509316994e-4, 11: 3.82571090835658412954920192323e-4,
     12: -3.40465008687404560802977114492e-4, 13: 1.41312443674632500278074618366e-1},
    {0: -4.28896301583791923408573538692e-1, 5: -4.69762141536116384314449447206,
     6: 7.68342119606259904184240953878, 7: 4.06898981839711007970213554331,
     8: 3.56727187455281109270669543021e-1, 12: -1.39902416515901462129418009734e-3,
     13: 2.9475147891527723389556272149, 14: -9.15095847217987001081870187138},
)
_E5_NONZERO = {0: 0.1312004499419488073250102996e-1, 5: -0.1225156446376204440720569753e+1,
               6: -0.4957589496572501915214079952, 7: 0.1664377182454986536961530415e+1,
               8: -0.3503288487499736816886487290, 9: 0.3341791187130174790297318841,
               10: 0.8192320648511571246570742613e-1, 11: -0.2235530786388629525884427845e-1}
_E3_SHIFT = {0: 0.244094488188976377952755905512, 8: 0.733846688281611857341361741547,
              11: 0.220588235294117647058823529412e-1}
_D_NONZERO = (
    {0: -0.84289382761090128651353491142e+1, 5: 0.56671495351937776962531783590,
     6: -0.30689499459498916912797304727e+1, 7: 0.23846676565120698287728149680e+1,
     8: 0.21170345824450282767155149946e+1, 9: -0.87139158377797299206789907490,
     10: 0.22404374302607882758541771650e+1, 11: 0.63157877876946881815570249290,
     12: -0.88990336451333310820698117400e-1, 13: 0.18148505520854727256656404962e+2,
     14: -0.91946323924783554000451984436e+1, 15: -0.44360363875948939664310572000e+1},
    {0: 0.10427508642579134603413151009e+2, 5: 0.24228349177525818288430175319e+3,
     6: 0.16520045171727028198505394887e+3, 7: -0.37454675472269020279518312152e+3,
     8: -0.22113666853125306036270938578e+2, 9: 0.77334326684722638389603898808e+1,
     10: -0.30674084731089398182061213626e+2, 11: -0.93321305264302278729567221706e+1,
     12: 0.15697238121770843886131091075e+2, 13: -0.31139403219565177677282850411e+2,
     14: -0.93529243588444783865713862664e+1, 15: 0.35816841486394083752465898540e+2},
    {0: 0.19985053242002433820987653617e+2, 5: -0.38703730874935176555105901742e+3,
     6: -0.18917813819516756882830838328e+3, 7: 0.52780815920542364900561016686e+3,
     8: -0.11573902539959630126141871134e+2, 9: 0.68812326946963000169666922661e+1,
     10: -0.10006050966910838403183860980e+1, 11: 0.77771377980534432092869265740,
     12: -0.27782057523535084065932004339e+1, 13: -0.60196695231264120758267380846e+2,
     14: 0.84320405506677161018159903784e+2, 15: 0.11992291136182789328035130030e+2},
    {0: -0.25693933462703749003312586129e+2, 5: -0.15418974869023643374053993627e+3,
     6: -0.23152937917604549567536039109e+3, 7: 0.35763911791061412378285349910e+3,
     8: 0.93405324183624310003907691704e+2, 9: -0.37458323136451633156875139351e+2,
     10: 0.10409964950896230045147246184e+3, 11: 0.29840293426660503123344363579e+2,
     12: -0.43533456590011143754432175058e+2, 13: 0.96324553959188282948394950600e+2,
     14: -0.39177261675615439165231486172e+2, 15: -0.14972683625798562581422125276e+3},
)


_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # error estimator of order 7
_MAX_STEPS = 100_000  # accepted steps per call, Hairer's NMAX; a ray to |tau| = 400 takes ~1000

_KERNELS: dict[tuple, object] = {}  # (record, n) -> bind(*record's constants)


def _dot(row: dict, i: int) -> str:
    """Source of sum_j row[j] K_j[i] over the nonzero coefficients.

    The kernels put the complex operand of a product first (``k * c``,
    ``(...) * h``): Python then calls complex multiplication at once rather
    than after float's, and the product is the same to the bit."""
    return " + ".join(f"k{j}_{i} * {c!r}" for j, c in sorted(row.items()) if c != 0.0)


def _tup(items) -> str:
    """Source of a tuple, with the trailing comma that one item needs."""
    return "(" + "".join(f"{x}, " for x in items) + ")"


@dataclass(frozen=True, eq=False)  # a module singleton, cached by identity
class _System:
    """A right-hand side as ``_kernel_source`` writes it into the kernels:
    ``_GENERIC`` calls fun at each stage, ``_RAY`` is ``_DDU`` along a ray."""

    constants: str  # the parameters of bind, which the kernels close over
    stage: object  # (outs, s, args) -> lines setting the names outs to the derivative
    guard: str  # SingularityError message for a division by zero in the stages; "" for none


def _ray_stage(outs: list, s: str, args: list) -> list:
    """Lines setting outs to d/ds of (u, du, phi) at s and (u, du) = args[:2]."""
    values = ("phase * du", f"phase * ({_DDU})", "phase * (a2 / tau + b / u)")
    return [f"s = {s}", f"u = {args[0]}", f"du = {args[1]}", "tau = phase * s"] \
        + [f"{out} = {v}" for out, v in zip(outs, values)]


_GENERIC = _System("fun", lambda outs, s, args: [f"{_tup(outs)} = fun({s}, {_tup(args)})"], "")
_RAY = _System("phase, c_u2, c_ab, b2, a2, b", _ray_stage,  # a2 = 2 a
               "u vanished at |tau| = {s}")


def _kernel_source(system: _System, n: int) -> str:
    """Source of ``bind(<system.constants>)``, which closes ``rhs``,
    ``step`` and ``interpolant`` for n components over its arguments and
    returns the three in that order.

    ``rhs(t, y)`` is the derivative at (t, y).  ``step(t, h, y, f, atol,
    rtol)`` takes f = rhs(t, y) and returns the 8th-order solution at t + h,
    the sums over components of the squared scaled 5th- and 3rd-order error
    estimates, and the stages K_0..K_11 as one flat tuple, component index
    fastest.  ``interpolant(t, h, y, y_new, f_new, ks)`` computes the three
    extra stages and returns, per component, the seven coefficients that
    ``_evaluate`` reads.

    Each stage, and ``rhs``'s body, is the lines of ``system.stage``, given
    the s and the arguments of every component; a stage reads the ones it
    needs.  ``_GENERIC``'s stage calls its bound ``fun``; ``_RAY``'s writes
    ``_DDU`` inline, and each of its stages keeps the operations of the
    closure it replaces, in the same order, so both give the same floats.
    """
    comps = range(n)

    def guarded(body: list[str]) -> list[str]:
        """``body``, with a division by zero in it raised as the system's
        singularity at the stage's s."""
        if not system.guard:
            return [f"    {line}" for line in body]
        return ["    try:"] + [f"        {line}" for line in body] \
            + ["    except ZeroDivisionError:",
               f'        raise SingularityError(f"{system.guard}") from None']

    def stage(s: int) -> list[str]:
        args = [f"y{i} + ({_dot(_A_NONZERO[s - 1], i)}) * h" for i in comps]
        return system.stage([f"k{s}_{i}" for i in comps], f"t + {_C[s]!r} * h", args)

    weights = _A_NONZERO[11]
    e3 = {j: weights.get(j, 0.0) - _E3_SHIFT.get(j, 0.0) for j in range(12)}
    ys, news = _tup(f"y{i}" for i in comps), _tup(f"n{i}" for i in comps)
    ks = _tup(f"k{j}_{i}" for j in range(12) for i in comps)
    outs = [f"f{i}" for i in comps]
    lines = ["def rhs(t, y):"] + guarded(system.stage(outs, "t", [f"y[{i}]" for i in comps]))
    lines += [f"    return {_tup(outs)}",
              "",
              "def step(t, h, y, f, atol, rtol):",
              f"    {ys} = y",
              f"    {_tup(f'k0_{i}' for i in comps)} = f"]
    lines += guarded([line for s in range(1, 12) for line in stage(s)])
    lines += [f"    n{i} = y{i} + ({_dot(weights, i)}) * h" for i in comps]
    for i in comps:
        acc = "=" if i == 0 else "+="  # 0.0 + e * e is e * e, since e * e >= 0
        lines += [f"    sc = atol + max(abs(y{i}), abs(n{i})) * rtol",
                  f"    e5 = abs({_dot(_E5_NONZERO, i)}) / sc",
                  f"    e3 = abs({_dot(e3, i)}) / sc",
                  f"    err5 {acc} e5 * e5",
                  f"    err3 {acc} e3 * e3"]
    lines += [f"    return {news}, err5, err3, {ks}",
              "",
              "def interpolant(t, h, y, y_new, f_new, ks):",
              f"    {ys} = y",
              f"    {news} = y_new",
              f"    {_tup(f'k12_{i}' for i in comps)} = f_new",
              f"    {ks} = ks"]
    lines += guarded([line for s in range(13, 16) for line in stage(s)])
    lines += [f"    d{i} = n{i} - y{i}" for i in comps]
    coeffs = (f"(d{i}, k0_{i} * h - d{i}, d{i} * 2.0 - (k12_{i} + k0_{i}) * h, "
              + "".join(f"({_dot(row, i)}) * h, " for row in _D_NONZERO) + ")"
              for i in comps)
    lines.append(f"    return [{', '.join(coeffs)}]")
    return "\n".join([f"def bind({system.constants}):"]
                     + [f"    {line}" if line else "" for line in lines]
                     + ["    return rhs, step, interpolant"]) + "\n"


def _kernels(system: _System, n: int):
    """``bind`` of the kernels of ``system`` for n components, generated on
    first use and cached in ``_KERNELS``; binding constants compiles
    nothing."""
    bind = _KERNELS.get((system, n))
    if bind is None:
        namespace: dict = {"SingularityError": SingularityError}
        exec(compile(_kernel_source(system, n),
                     f"<DOP853 kernels, bind({system.constants}), n = {n}>", "exec"), namespace)
        bind = _KERNELS[system, n] = namespace["bind"]
    return bind


@dataclass
class _RaySolution:
    """Result of ``solve_ivp``; the field names follow scipy's."""

    t: np.ndarray  # accepted step points, starting at t_span[0]
    y: np.ndarray | None  # (n, m) states at t, or at dense_at in caller order
    nfev: int  # every right-hand-side call, dense-output stages included
    status: int  # 0 reached the end, 1 |y[0]| left the bounds, -1 failed
    message: str = ""
    t_fail: float | None = None  # where a status != 0 integration stopped
    u_abs_range: tuple[float, float] = (math.nan, math.nan)  # min, max |y[0]| at t


class _Lanes:
    """Numbers held in a numpy array, one per lane, whose arithmetic repeats
    CPython's scalar arithmetic bit for bit.  ``v`` is an (m,) float array
    for m real lanes, or a (2, m) one, real and imaginary parts, for m
    complex lanes.  The generated interpolant runs on lanes, one per held
    step, and ``_evaluate`` on lanes, one per sample.

    As CPython does, an operation with a complex operand first makes a real
    operand x complex(x, 0.0), then applies ``_Py_c_sum``, ``_Py_c_diff``,
    ``_Py_c_prod`` or ``_Py_c_quot``, here written out in float operations:
    numpy's own complex loops may fuse a multiply and an add, and then
    differ from CPython even in the sign of an underflowed zero.  A zero
    divisor in any lane raises ZeroDivisionError, as a scalar would.  The
    other operand is a lane or a Python number; numpy never takes lanes for
    an array.  An overflow gives inf or NaN silently only under
    ``np.errstate(all="ignore")``, which ``_dense_output`` sets; NaN
    payloads may differ.
    """

    __slots__ = ("v", "_mix")
    __array_ufunc__ = None
    __hash__ = None

    def __init__(self, v: np.ndarray):
        self.v, self._mix = v, None

    def take(self, index: np.ndarray) -> _Lanes:
        return _Lanes(self.v[..., index])

    def mix(self) -> np.ndarray:
        """(-(im * 0.0), re * 0.0), the terms that a product with a real x
        adds to (re * x, im * x); cached, since a stage meets many x."""
        if self._mix is None:
            self._mix = _mix(self.v)
        return self._mix

    def __eq__(self, other):
        """Whether any lane equals ``other``, so that a right-hand side's
        ``if u == 0`` guard fires when one lane vanishes."""
        a, b = _complex(self), _complex(other)
        return bool(np.any((a[0] == b[0]) & (a[1] == b[1])))

    def __neg__(self):
        return _Lanes(-self.v)

    def __add__(self, other):
        return _Lanes(_binary(np.add, self, other))

    __radd__ = __add__  # both sums are the same floats

    def __sub__(self, other):
        return _Lanes(_binary(np.subtract, self, other))

    def __rsub__(self, other):
        return _Lanes(_binary(np.subtract, other, self))

    def __mul__(self, other):
        v = self.v
        if isinstance(other, _Lanes):
            w = other.v
            if w.ndim == 1:
                return _Lanes(v * w if v.ndim == 1 else v * w + self.mix())
            if v.ndim == 1:
                return _Lanes(w * v + other.mix())
            return _Lanes(_c_prod(v, w))
        if isinstance(other, complex):
            w = _complex(other)
            return _Lanes(w * v + _mix(w) if v.ndim == 1 else _c_prod(v, w))
        return _Lanes(v * other if v.ndim == 1 else v * other + self.mix())

    __rmul__ = __mul__  # _Py_c_prod(a, b) and _Py_c_prod(b, a) are the same floats

    def __truediv__(self, other):
        return _Lanes(_quotient(self, other))

    def __rtruediv__(self, other):
        return _Lanes(_quotient(other, self))


_MIX = np.array([[-0.0], [0.0]])


def _mix(w: np.ndarray) -> np.ndarray:
    """(-(im * 0.0), re * 0.0) of the (2, ...) parts ``w``, as products."""
    return w[::-1] * _MIX


def _real(x) -> bool:
    return x.v.ndim == 1 if isinstance(x, _Lanes) else not isinstance(x, complex)


def _complex(x) -> np.ndarray:
    """The (2, ...) real and imaginary parts of a lane or a number; a real
    x gets the imaginary part 0.0, as in CPython's conversion to complex."""
    if isinstance(x, _Lanes):
        v = x.v
        return v if v.ndim == 2 else np.stack((v, np.zeros_like(v)))
    x = complex(x)
    return np.array([[x.real], [x.imag]])


def _binary(op, a, b) -> np.ndarray:
    """a op b for a sum or a difference, on parts (CPython's ``_Py_c_sum``
    and ``_Py_c_diff`` apply op to each)."""
    if _real(a) and _real(b):
        return op(*(x.v if isinstance(x, _Lanes) else float(x) for x in (a, b)))
    return op(_complex(a), _complex(b))


def _c_prod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """CPython's ``_Py_c_prod`` on (2, ...) parts."""
    p, q = a * b, a * b[::-1]  # (ar br, ai bi), (ar bi, ai br)
    out = np.empty_like(p)
    np.subtract(p[0], p[1], out=out[0])
    np.add(q[0], q[1], out=out[1])
    return out


def _quotient(a, b) -> np.ndarray:
    """a / b as CPython computes it: a float division when both are real,
    else ``_Py_c_quot``, which divides through by the larger part p of b,
    with the roles of re and im swapped when that is b.im.  A NaN in b gives
    NaN through the same formulas."""
    if _real(a) and _real(b):
        a, b = (x.v if isinstance(x, _Lanes) else float(x) for x in (a, b))
        if not np.all(b):
            raise ZeroDivisionError("float division by zero")
        return a / b
    a, b = _complex(a), _complex(b)
    by_re = np.abs(b[0]) >= np.abs(b[1])
    (p, q), xy = np.where(by_re, b, b[::-1]), np.where(by_re, a, a[::-1])
    if not p.all() and (by_re & (p == 0)).any():
        raise ZeroDivisionError("complex division by zero")
    x, y = xy
    ratio = q / p
    denom = p + q * ratio
    xr = x * ratio
    out = np.empty_like(xy)  # xy has the shape of the quotient
    np.divide(x + y * ratio, denom, out=out[0])
    np.divide(np.where(by_re, y - xr, xr - y), denom, out=out[1])
    return out


def _rms(values) -> float:
    total = 0.0
    for v in values:
        m = abs(v)
        total += m * m
    return math.sqrt(total / len(values))


def _evaluate(coeffs: list, y: list, x: float) -> list:
    """The interpolant at the step fraction x."""
    w = 1.0 - x
    return [yi + x * (F0 + w * (F1 + x * (F2 + w * (F3 + x * (F4 + w * (F5 + x * F6))))))
            for yi, (F0, F1, F2, F3, F4, F5, F6) in zip(y, coeffs)]


def _dense_output(interpolant, held: list, counts: list, s: np.ndarray, n: int) -> np.ndarray:
    """(n, len(s)) interpolated states at the ordered magnitudes ``s``,
    whose first counts[0] lie in the step held[0] = (t, h, *y, *y_new,
    *f_new, *ks), the next counts[1] in held[1], and so on.

    ``interpolant`` runs once, on lanes over the held steps, and
    ``_evaluate`` once, on lanes over the samples: the floats of a
    step-by-step pass, computed in a few hundred numpy operations.  A
    SingularityError (u = 0 at an extra stage) is raised again by the first
    step at fault, replayed alone, as a step-by-step pass would raise it.
    """
    def split(row):  # (y, y_new, f_new, ks) of one step's numbers, or of the lanes
        return row[:n], row[n:2 * n], row[2 * n:3 * n], row[3 * n:]

    packed = np.array(held, dtype=complex)
    t, h = _Lanes(packed[:, 0].real.copy()), _Lanes(packed[:, 1].real.copy())
    lanes = [_Lanes(v) for v in np.stack((packed.real.T[2:], packed.imag.T[2:]), axis=1)]
    y = lanes[:n]
    with np.errstate(all="ignore"):
        try:
            coeffs = interpolant(t, h, *split(lanes))
        except SingularityError:
            for step in held:
                interpolant(step[0], step[1], *split(step[2:]))
            raise
        index = np.repeat(np.arange(len(held)), counts)
        x = _Lanes((s - t.v[index]) / h.v[index])
        samples = _evaluate([[c.take(index) for c in ci] for ci in coeffs],
                            [yi.take(index) for yi in y], x)
    out = np.empty((n, s.size), dtype=complex)
    out.real, out.imag = [v.v[0] for v in samples], [v.v[1] for v in samples]
    return out


def _exit_fraction(coeffs: list, y: list, lo: float, hi: float) -> float:
    """Step fraction, found by bisection on the interpolant, at which
    |y[0]| leaves [lo, hi] (inside at 0, outside at 1)."""
    inside, outside = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (inside + outside)
        if lo <= abs(_evaluate(coeffs, y, mid)[0]) <= hi:
            inside = mid
        else:
            outside = mid
    return outside


def solve_ivp(kernels: tuple, t_span: tuple[float, float], y0, rtol: float, atol: float,
              dense_at=None, bounds: tuple[float, float] = (0.0, math.inf)) -> _RaySolution:
    """Integrate y' = fun(t, y) over ``t_span`` with the DOP853 pair.

    ``kernels`` is the triple (fun, step, interpolant) that a record's
    ``bind`` returns, ``_kernels(record, len(y0))(*constants)``; a Python
    closure runs through ``_kernels(_GENERIC, len(y0))(closure)``.  ``fun``
    maps a float and a sequence of complex scalars to a sequence of
    complex scalars.  The error norm (combined 5th/3rd-order estimate),
    the step-size rule (safety 0.9, factor in [0.2, 10], exponent -1/8) and
    the initial step are those of scipy's DOP853, so the accepted steps
    agree with ``scipy.integrate.solve_ivp(..., method="DOP853")``.  A step
    below 10 ulp of t stalls the integration, and a non-finite error
    estimate or more than ``_MAX_STEPS`` accepted steps stops it
    (status -1).  The interpolant's three extra stages are
    computed only on steps that contain a point of ``dense_at`` (``nfev``
    counts 3 for each): the loop keeps those steps, and after the last one
    ``_dense_output`` runs the interpolant once over all of them and the
    polynomial once over all samples, on lanes that give the floats of the
    scalar kernels step by step.  The generic interpolant then passes
    lanes to its closure: t and the components of y are lanes, so the
    closure may use only the arithmetic operators (+, -, *, / and unary -)
    and ``== 0``, which holds when any lane is zero, between them and Python
    numbers.  The pass runs only once the integration has succeeded.  The
    integration stops with status 1 when ``|y[0]|`` leaves ``bounds``, with
    the exit located inside the step by the scalar interpolant; otherwise
    ``u_abs_range`` holds the extremes of ``|y[0]|`` over ``t``.

    The kernels are generated from the tableau; they give the same floats
    as the dense formula over the full tableau, whose terms they drop only
    where the coefficient is zero.  ``fun`` is called for the initial step
    and the end-of-step derivative, and ``nfev`` counts every stage as a
    call, also where a record evaluates it inline (``integrate_ray`` passes
    ``_RAY``'s kernels).  The name and the ``t`` and ``nfev`` fields follow
    scipy's ``solve_ivp``: ``perfbench/tracer.py`` replaces this module
    attribute to count steps and right-hand-side calls, so ``integrate_ray``
    calls it through the module global.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    direction = 1.0 if t_bound > t else -1.0
    lo, hi = bounds
    y = list(y0)
    n = len(y)
    fun, step, interpolant = kernels

    # initial step (Hairer, Norsett & Wanner II.4)
    f = fun(t, y)
    scale = [atol + abs(yi) * rtol for yi in y]
    d0 = _rms([yi / sc for yi, sc in zip(y, scale)])
    d1 = _rms([fi / sc for fi, sc in zip(f, scale)])
    if not math.isfinite(d1):
        return _RaySolution(np.array([t]), None, 1, -1, "non-finite derivative", t)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, abs(t_bound - t))
    f1 = fun(t + h0 * direction, [yi + h0 * direction * fi for yi, fi in zip(y, f)])
    d2 = _rms([(a - b) / sc for a, b, sc in zip(f1, f, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (-_ERROR_EXPONENT)
    h_abs = min(100.0 * h0, h1, abs(t_bound - t))
    nfev = 2

    if dense_at is not None:
        s_req = np.asarray(dense_at, dtype=float).ravel()
        order = np.argsort(direction * s_req, kind="stable")
        pending = s_req[order].tolist()
    else:
        pending = []
    held, counts, ts, states = [], [], [t], [y]  # the steps holding samples, samples per step
    u_min = u_max = abs(y[0])
    i_next = 0
    max_steps = _MAX_STEPS
    while direction * (t - t_bound) < 0:
        if len(ts) > max_steps:
            return _RaySolution(np.array(ts), None, nfev, -1,
                                f"step budget of {max_steps} accepted steps exhausted", t)
        min_step = 10.0 * abs(math.nextafter(t, direction * math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                return _RaySolution(np.array(ts), None, nfev, -1, "integrator stalled", t)
            t_new = t + h_abs * direction
            if direction * (t_new - t_bound) > 0:
                t_new = t_bound
            h = t_new - t
            h_abs = abs(h)
            y_new, err5, err3, ks = step(t, h, y, f, atol, rtol)
            nfev += 11
            err = 0.0 if err5 == 0 and err3 == 0 \
                else h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * n)
            if not math.isfinite(err):  # a NaN would never pass err < 1
                return _RaySolution(np.array(ts), None, nfev, -1,
                                    "non-finite error estimate", t)
            if err < 1.0:
                factor = _MAX_FACTOR if err == 0 \
                    else min(_MAX_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err ** _ERROR_EXPONENT)
            rejected = True
        f_new = fun(t_new, y_new)
        nfev += 1

        u_abs = abs(y_new[0])
        if not lo <= u_abs <= hi:
            coeffs = interpolant(t, h, y, y_new, f_new, ks)
            nfev += 3
            t_exit = t + _exit_fraction(coeffs, y, lo, hi) * h
            return _RaySolution(np.array(ts), None, nfev, 1, t_fail=t_exit)
        if u_abs < u_min:
            u_min = u_abs
        elif u_abs > u_max:
            u_max = u_abs
        last = t_new == t_bound
        i_first = i_next
        while i_next < len(pending) and (last or direction * (pending[i_next] - t_new) <= 0):
            i_next += 1
        if i_next > i_first:  # one flat tuple of numbers, which the collector soon untracks
            held.append((t, h, *y, *y_new, *f_new, *ks))
            counts.append(i_next - i_first)
            nfev += 3
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        if dense_at is None:
            states.append(y)

    if dense_at is None:
        y_out = np.array(states, dtype=complex).T
    else:
        y_out = np.empty((n, len(pending)), dtype=complex)
        if held:
            y_out[:, order] = _dense_output(interpolant, held, counts, np.array(pending), n)
    return _RaySolution(np.array(ts), y_out, nfev, 0, u_abs_range=(u_min, u_max))


@errors.finite_result
def residual_on_grid(tau: np.ndarray, u: np.ndarray, a: complex,
                     params: EquationParams) -> float:
    """Max interior residual of the equation by second-order central
    differences over >= 5 equally spaced samples of the ray parameter.  An
    interior u = 0 raises ``SingularityError``, a residual that is not
    finite ``ConditionViolationError``."""
    tau = np.asarray(tau, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if len(tau) < 5:
        raise ConditionViolationError("need at least 5 samples")
    s = np.abs(tau)
    h = np.diff(s)
    if not np.allclose(h, h[0], rtol=1e-9, atol=0.0):
        raise ConditionViolationError("samples must be equally spaced in |tau|")
    phase = tau[0] / s[0]
    if not np.allclose(tau / s, phase, rtol=1e-12, atol=1e-300):
        raise ConditionViolationError("samples must lie on one ray")
    if not np.all(u[1:-1]):
        raise SingularityError("u = 0 at an interior sample")
    h0 = h[0]
    with np.errstate(all="ignore"):  # an overflow gives inf or NaN, which raises
        du = (u[2:] - u[:-2]) / (2.0 * h0 * phase)
        ddu = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h0 * phase) ** 2
        rhs = _ddu(tau[1:-1], u[1:-1], du, a, params)
        return float(np.max(np.abs(ddu - rhs)))


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV dump: one row per sample, phi columns NaN when untracked."""
    buf = io.StringIO()
    buf.write("tau_re,tau_im,u_re,u_im,du_re,du_im,phi_re,phi_im,H_re,H_im\n")
    phi = traj.phi if traj.phi is not None else np.full(len(traj.tau), complex(np.nan, np.nan))
    for t, u, du, p, h in zip(traj.tau, traj.u, traj.du, phi, traj.H):
        buf.write(f"{t.real:.17g},{t.imag:.17g},{u.real:.17g},{u.imag:.17g},"
                  f"{du.real:.17g},{du.imag:.17g},{p.real:.17g},{p.imag:.17g},"
                  f"{h.real:.17g},{h.imag:.17g}\n")
    return buf.getvalue()
