"""Numerical side of the nonlinear equation: the right-hand side, adaptive
integration along rays with an in-house Dormand-Prince 8(5,3) (DOP853)
stepper, Hamiltonian evaluation in all three coordinate systems, the
canonical-variable and matrix-entry conversions, and finite-difference
residual checks.

The equation itself is

    u'' = (u')^2/u - u'/tau + (-8 eps u^2 + 2 a b)/tau + b^2/u,

singular exactly at u = 0 and tau = 0.  All integration happens along a
fixed ray in the complex tau plane, parametrised by s = |tau|.
"""

from __future__ import annotations

import cmath
import io
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import ConditionViolationError, IntegrationFailureError, SingularityError
from .params import EquationParams

__all__ = [
    "SolutionState",
    "Trajectory",
    "HamiltonianSplit",
    "dp3_rhs",
    "integrate_ray",
    "hamiltonian_u",
    "hamiltonian_pq",
    "hamiltonian_system_rhs",
    "p_from_u",
    "sigma_and_f",
    "to_abcd",
    "hamiltonian_abcd",
    "residual_on_grid",
    "algebraic_solution",
    "trajectory_to_csv",
]

_TOL_RANGE = (1e-13, 1e-6)


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

    @property
    def ray_phase(self) -> complex:
        return self.tau[0] / abs(self.tau[0])

    def states(self) -> list[SolutionState]:
        phis = self.phi if self.phi is not None else [None] * len(self.tau)
        return [
            SolutionState(complex(t), complex(u), complex(du), None if p is None else complex(p))
            for t, u, du, p in zip(self.tau, self.u, self.du, phis)
        ]


def _check_state(tau: complex, u: complex):
    if u == 0:
        raise SingularityError("u = 0 is a singular point of the equation")
    if tau == 0:
        raise SingularityError("tau = 0 is a singular point of the equation")


def _ddu(tau, u, du, a: complex, params: EquationParams):
    """u'' from the equation, for scalars or numpy arrays (no singularity
    check)."""
    return du * du / u - du / tau + (-8.0 * params.eps * u * u + 2.0 * a * params.b) / tau \
        + params.b**2 / u


def dp3_rhs(state: SolutionState, a: complex, params: EquationParams) -> tuple[complex, complex]:
    """(u', u'') at the given state."""
    tau, u, du = state.tau, state.u, state.du
    _check_state(tau, u)
    return du, _ddu(tau, u, du, a, params)


def hamiltonian_u(state: SolutionState, a: complex, params: EquationParams) -> complex:
    """Hamiltonian in terms of (tau, u, u'); the eps2 = +-1 sectors replace
    i/2 by (-1)**eps2 i/2 in the two a-dependent terms."""
    tau, u, du = state.tau, state.u, state.du
    _check_state(tau, u)
    ash = a - 0.5j * params.sign2
    return ash * params.b / u + ash * ash / (2.0 * tau) \
        + (tau / (4.0 * u * u)) * (du * du + params.b**2) + 4.0 * params.eps * u


def hamiltonian_pq(p: complex, q: complex, tau: complex, a: complex,
                   params: EquationParams, eps1_h: int = -1) -> complex:
    """Canonical-variables Hamiltonian H_{eps1_h}(p, q; tau).  The formal
    constant is ``ai + (-1)^{eps2}/2``, mirroring the sector form of
    ``hamiltonian_u`` (the whole channel is covariant in that constant)."""
    k = a * 1j + 0.5 * params.sign2
    return p * p * q * q / tau - 2.0 * eps1_h * p * q * k / tau \
        + 4.0 * params.eps * q + 1j * params.b * p + k * k / (2.0 * tau)


def hamiltonian_system_rhs(p: complex, q: complex, tau: complex, a: complex,
                           params: EquationParams, eps1_h: int = -1) -> tuple[complex, complex]:
    """Hamilton's equations: (dp/dtau, dq/dtau) = (-dH/dq, +dH/dp)."""
    if tau == 0:
        raise SingularityError("tau = 0 is a singular point of the system")
    k = a * 1j + 0.5 * params.sign2
    dp = -(2.0 * p * p * q / tau - 2.0 * eps1_h * p * k / tau + 4.0 * params.eps)
    dq = 2.0 * p * q * q / tau - 2.0 * eps1_h * q * k / tau + 1j * params.b
    return dp, dq


def p_from_u(state: SolutionState, a: complex, params: EquationParams,
             eps1_h: int = -1) -> complex:
    """Conjugate momentum for q = u (same sector constant as the
    Hamiltonian channel)."""
    tau, u, du = state.tau, state.u, state.du
    _check_state(tau, u)
    k = a * 1j + 0.5 * params.sign2
    return tau * (du - 1j * params.b) / (2.0 * u * u) + k * eps1_h / u


def sigma_and_f(state: SolutionState, a: complex, params: EquationParams) -> tuple[complex, complex]:
    """(sigma, f) built on the eps1_h = -1 channel:
    f = p q / 2 and sigma = (p q - eps1 (a i + 1/2 - eps1/2))^2
    + tau (4 eps q + i b p).

    This channel is sector-free (its defining equations never reference
    the coupling's argument), so the plain constant ``ai + 1/2`` is used
    regardless of eps2."""
    eps1_h = -1
    tau, u, du = state.tau, state.u, state.du
    _check_state(tau, u)
    p = tau * (du - 1j * params.b) / (2.0 * u * u) + (a * 1j + 0.5) * eps1_h / u
    q = u
    f = p * q / 2.0
    sigma = (p * q - eps1_h * (a * 1j + 0.5 - eps1_h / 2.0)) ** 2 \
        + tau * (4.0 * params.eps * q + 1j * params.b * p)
    return sigma, f


def to_abcd(state: SolutionState, a: complex, params: EquationParams
            ) -> tuple[complex, complex, complex, complex]:
    """Matrix-entry functions (A, B, C, D) built from (u, u', phi);
    A' and B' are expanded through u' and phi' = 2a/tau + b/u."""
    if state.phi is None:
        raise ConditionViolationError("to_abcd requires a state with phi")
    tau, u, du, phi = state.tau, state.u, state.du, state.phi
    _check_state(tau, u)
    eiphi = cmath.exp(1j * phi)
    dphi = 2.0 * a / tau + params.b / u
    A = (u / tau) * eiphi
    B = -(u / tau) / eiphi
    dA = eiphi * (du / tau - u / tau**2 + 1j * (u / tau) * dphi)
    dB = -(du / tau - u / tau**2 - 1j * (u / tau) * dphi) / eiphi
    C = (params.eps * tau / (4.0 * u)) * dA
    D = -(params.eps * tau / (4.0 * u)) * dB
    return A, B, C, D


def hamiltonian_abcd(A: complex, B: complex, C: complex, D: complex, tau: complex,
                     a: complex, params: EquationParams,
                     sqrt_ab: complex | None = None) -> HamiltonianSplit:
    """Hamiltonian from the matrix entries, split into origin/infinity
    parts.  ``sqrt_ab`` fixes the branch of sqrt(-A B); it must equal
    u/(eps tau) when the entries come from a solution (pass it explicitly;
    the principal root is only a fallback)."""
    if A * B == 0:
        raise SingularityError("A B = 0 is outside the parametrised stratum")
    if sqrt_ab is None:
        sqrt_ab = cmath.sqrt(-A * B)
    k = a * 1j + 0.5
    H = (k + 2.0 * tau * A * D / sqrt_ab) ** 2 / (2.0 * tau) + 4.0 * tau * sqrt_ab \
        - 1j * params.eps * params.b * D / B + 2.0 * tau * C * D + A * D / sqrt_ab
    if params.sign2 != 1:
        # the matrix-entry line is written in the plain convention; the
        # sector form differs by the a-linear terms only
        u = params.eps * tau * sqrt_ab
        ash_s = a - 0.5j * params.sign2
        ash_1 = a - 0.5j
        H += (ash_s - ash_1) * params.b / u + (ash_s**2 - ash_1**2) / (2.0 * tau)
    ash = a - 0.5j * params.sign2
    H0 = 0.5 * (H - ash * ash / (2.0 * tau))
    return HamiltonianSplit(H=H, H0=H0, Hinf=H - H0)


def algebraic_solution(tau: complex, params: EquationParams,
                       with_phi: bool = False, phi0: complex = 0.0) -> SolutionState:
    """The exact cube-root solution at ``a = 0``: ``u = b^{2/3} tau^{1/3} /
    (2 eps)`` with the real-cube-root convention, plus its derivative (and
    phi on the positive ray when requested)."""
    c = params.b_pow23 / (2.0 * params.eps)
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
    for negative tau), principal branch elsewhere."""
    if tau.imag == 0.0:
        return complex(np.cbrt(tau.real))
    return tau ** (1.0 / 3.0)


def integrate_ray(initial: SolutionState, a: complex, params: EquationParams,
                  tau_end: float, tol: float = 1e-10,
                  dense_at: np.ndarray | None = None,
                  u_floor: float = 1e-8, u_ceil: float = 1e8) -> Trajectory:
    """Integrate from ``initial`` along its ray until ``|tau| = tau_end``
    with the Dormand-Prince 8(5,3) pair (the in-house DOP853 stepper
    ``solve_ivp`` below, ``rtol = tol``, ``atol = 1e-3 tol``), stopping
    with a located failure if ``|u|`` leaves ``[u_floor, u_ceil]``.

    ``dense_at`` selects output magnitudes |tau| in any order, filled from
    the 7th-order interpolant (default: the accepted steps).  ``phi`` is
    advanced by the same stepper when present on the seed.
    """
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

    def rhs(s, y):
        tau = phase * s
        u, du = y[0], y[1]
        if u == 0:
            raise SingularityError(f"u vanished at |tau| = {s}")
        ddu = _ddu(tau, u, du, a, params)
        if with_phi:
            return phase * du, phase * ddu, phase * (2.0 * a / tau + params.b / u)
        return phase * du, phase * ddu

    y0 = [complex(initial.u), complex(initial.du)] + ([complex(initial.phi)] if with_phi else [])
    sol = solve_ivp(rhs, (s0, s1), y0, rtol=tol, atol=tol * 1e-3, dense_at=dense_at,
                    bounds=(u_floor, u_ceil))
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
    H = np.array([
        hamiltonian_u(SolutionState(t, u, du), a, params)
        for t, u, du in zip(tau_arr, u_arr, du_arr)
    ])
    return Trajectory(params=params, a=a, tau=tau_arr, u=u_arr, du=du_arr,
                      phi=phi_arr, H=H)


# ------------------------------------------------------------ DOP853 stepper
#
# The explicit Runge-Kutta pair of order 8 with error estimators of orders 5
# and 3 and a 7th-order dense output (Hairer, Norsett & Wanner, "Solving
# Ordinary Differential Equations I", II.10), with the constants of Hairer's
# DOP853.  _A_NONZERO[s - 1] holds the nonzero a_sj of row s: rows 1-11 are
# the stages of a step, row 12 the solution weights, rows 13-15 the extra
# stages of the interpolant.

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


def _dense_row(nonzero: dict, size: int) -> tuple[float, ...]:
    return tuple(nonzero.get(j, 0.0) for j in range(size))


_A = [()] + [_dense_row(row, s) for s, row in enumerate(_A_NONZERO, start=1)]
_B = _A[12]
_E5 = _dense_row(_E5_NONZERO, 12)
_E3 = tuple(w - _E3_SHIFT.get(j, 0.0) for j, w in enumerate(_B))
_D = tuple(_dense_row(row, 16) for row in _D_NONZERO)
_STEP_STAGES = tuple(zip(_A[1:12], _C[1:12]))
_EXTRA_STAGES = tuple(zip(_A[13:16], _C[13:16]))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERROR_EXPONENT = -1.0 / 8.0  # error estimator of order 7


@dataclass
class _RaySolution:
    """Result of ``solve_ivp``; the field names follow scipy's."""

    t: np.ndarray  # accepted step points, starting at t_span[0]
    y: np.ndarray | None  # (n, m) states at t, or at dense_at in caller order
    nfev: int  # every right-hand-side call, dense-output stages included
    status: int  # 0 reached the end, 1 |y[0]| left the bounds, -1 failed
    message: str = ""
    t_fail: float | None = None  # where a status != 0 integration stopped


def _combine(y: list, h: float, coeffs: tuple, cols: list) -> list:
    """y + h sum_j coeffs[j] K_j, componentwise (cols[i] lists K_j[i])."""
    return [yi + h * sum(map(mul, coeffs, col)) for yi, col in zip(y, cols)]


def _rms(values) -> float:
    total = 0.0
    for v in values:
        m = abs(v)
        total += m * m
    return math.sqrt(total / len(values))


def _interpolant(fun, t: float, h: float, y: list, y_new: list, f_new, cols: list) -> list:
    """Per-component coefficients of the 7th-order interpolant on the step
    from t to t + h; appends K_12 = f_new and the three extra stages to
    ``cols``."""
    for col, k in zip(cols, f_new):
        col.append(k)
    for row, c in _EXTRA_STAGES:
        for col, k in zip(cols, fun(t + c * h, _combine(y, h, row, cols))):
            col.append(k)
    coeffs = []
    for yi, yn, fn, col in zip(y, y_new, f_new, cols):
        dy = yn - yi
        coeffs.append((dy, h * col[0] - dy, 2.0 * dy - h * (fn + col[0]),
                       *(h * sum(map(mul, d, col)) for d in _D)))
    return coeffs


def _evaluate(coeffs: list, y: list, x: float) -> list:
    """The interpolant at the step fraction x."""
    w = 1.0 - x
    return [yi + x * (F0 + w * (F1 + x * (F2 + w * (F3 + x * (F4 + w * (F5 + x * F6))))))
            for yi, (F0, F1, F2, F3, F4, F5, F6) in zip(y, coeffs)]


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


def solve_ivp(fun, t_span: tuple[float, float], y0, rtol: float, atol: float,
              dense_at=None, bounds: tuple[float, float] = (0.0, math.inf)) -> _RaySolution:
    """Integrate y' = fun(t, y) over ``t_span`` with the DOP853 pair.

    ``fun`` maps a float and a sequence of complex scalars to a sequence
    of complex scalars.  The error norm (combined 5th/3rd-order estimate),
    the step-size rule (safety 0.9, factor in [0.2, 10], exponent -1/8) and
    the initial step are those of scipy's DOP853, so the accepted steps
    agree with ``scipy.integrate.solve_ivp(..., method="DOP853")``.  A step
    below 10 ulp of t stalls the integration and a non-finite error
    estimate stops it (status -1).  The interpolant's three extra stages are
    computed only on steps that contain a point of ``dense_at``.  The
    integration stops with status 1 when ``|y[0]|`` leaves ``bounds``, with
    the exit located inside the step.  The name and the ``t`` and ``nfev``
    fields follow scipy's ``solve_ivp``: ``perfbench/tracer.py`` counts
    steps and right-hand-side calls through them.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    direction = 1.0 if t_bound > t else -1.0
    lo, hi = bounds
    y = list(y0)
    n = len(y)

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
    samples, ts, states = [], [t], [y]
    i_next = 0
    while direction * (t - t_bound) < 0:
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
            cols = [[fi] for fi in f]
            for row, c in _STEP_STAGES:
                for col, k in zip(cols, fun(t + c * h, _combine(y, h, row, cols))):
                    col.append(k)
            nfev += 11
            y_new = _combine(y, h, _B, cols)
            err5 = err3 = 0.0
            for yi, yn, col in zip(y, y_new, cols):
                sc = atol + max(abs(yi), abs(yn)) * rtol
                e5 = abs(sum(map(mul, _E5, col))) / sc
                e3 = abs(sum(map(mul, _E3, col))) / sc
                err5 += e5 * e5
                err3 += e3 * e3
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

        coeffs = None
        if not lo <= abs(y_new[0]) <= hi:
            coeffs = _interpolant(fun, t, h, y, y_new, f_new, cols)
            nfev += 3
            t_exit = t + _exit_fraction(coeffs, y, lo, hi) * h
            return _RaySolution(np.array(ts), None, nfev, 1, t_fail=t_exit)
        last = t_new == t_bound
        while i_next < len(pending) and (last or direction * (pending[i_next] - t_new) <= 0):
            if coeffs is None:
                coeffs = _interpolant(fun, t, h, y, y_new, f_new, cols)
                nfev += 3
            samples.append(_evaluate(coeffs, y, (pending[i_next] - t) / h))
            i_next += 1
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        if dense_at is None:
            states.append(y)

    if dense_at is None:
        y_out = np.array(states, dtype=complex).T
    else:
        y_out = np.empty((n, len(pending)), dtype=complex)
        y_out[:, order] = np.array(samples, dtype=complex).reshape(-1, n).T
    return _RaySolution(np.array(ts), y_out, nfev, 0)


def residual_on_grid(tau: np.ndarray, u: np.ndarray, a: complex,
                     params: EquationParams) -> float:
    """Max interior residual of the equation by second-order central
    differences over >= 5 equally spaced samples of the ray parameter."""
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
    h0 = h[0]
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
