"""Closing the loop numerically: recover the large-argument chart
parameters from trajectory samples by separable nonlinear least squares
(variable projection with an in-house Levenberg-Marquardt), and verify a
monodromy point's connection formulae end to end (seed at small |tau|
from the small-argument chart, integrate along the ray, fit the
large-argument chart, compare with the prediction).
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _EXPORTS
from .asymptotics import (_large_scale, _ray_phase, _theta, _weight_scale, du_small,
                          large_tau_chart, small_tau_chart, u_small)
from .errors import ConditionViolationError
from .monodromy import MonodromyPoint
from .ode import SolutionState, Trajectory, integrate_ray
from .params import EquationParams

__all__ = _EXPORTS["connection"]

_TWO_PI = 2.0 * math.pi
_THETA_MIN = 50.0  # every fit window lies above theta = 50
_MAX_STEPS = 1024  # largest tau0_steps and tau1_steps: 2**(steps - 1) is a finite float


@dataclass(frozen=True)
class LargeTauFit:
    """Result of fitting the large-argument model to trajectory samples."""

    nu_plus_1: complex
    z: complex  # reported modulo 2 pi i
    residual_norm: float
    condition: float
    oscillation_amplitude: float
    special: bool  # no resolvable oscillation: degenerate-chart candidate


def _wrap_mod_2pi_i(z: complex) -> complex:
    return complex(z.real, math.remainder(z.imag, _TWO_PI))


def fit_large_tau(traj: Trajectory, params: EquationParams,
                  eps1: int | None = None) -> LargeTauFit:
    """Fit the two chart constants (nu + 1, z) of the large-argument
    expansion to trajectory samples.

    At fixed nu + 1 the model is linear in its four weights: the two
    oscillatory terms e^{+-(i theta + (nu + 1) ln theta)} and the leading
    power tails theta^{-1/2}, theta^{-3/2} of the algebraic part.  The fit
    is therefore separable: one projection onto that basis (QR) gives the
    optimal weights and the residual at any nu + 1, ``least_squares``
    minimises the projected residual over the one complex parameter
    nu + 1, started at 0, and z follows from the optimal oscillatory
    weights at the minimum.  ``residual_norm`` and ``condition`` are the
    norm of that residual and the condition number of the basis there.
    Fewer than 5 samples, non-finite samples, windows that start below
    theta = 50, samples off the ray arg tau = pi ``eps1`` (by default the
    real ray nearest the first sample) and windows with fewer than 4
    distinct |tau| (a singular basis) raise ``ConditionViolationError``.
    """
    m = np.abs(traj.tau)
    if len(m) <= 4:
        raise ConditionViolationError("the fit needs more than 4 samples")
    if not (np.all(np.isfinite(traj.tau)) and np.all(np.isfinite(traj.u))):
        raise ConditionViolationError("trajectory samples must be finite")
    if eps1 is None:
        ph = traj.tau[0] / m[0]
        eps1 = int(round(cmath.phase(ph) / math.pi))
    theta = _theta(params, m)
    if theta.min() < _THETA_MIN:
        raise ConditionViolationError(
            f"fit window starts at |tau| = {m.min():.4g} "
            f"(theta = {theta.min():.1f} < {_THETA_MIN:g}); "
            f"it must start at |tau| >= {_theta_floor(params):.4g}")
    if not _on_ray(traj.tau, eps1):
        raise ConditionViolationError(
            f"the samples lie off the ray arg tau = pi eps1 (eps1 = {eps1}) of the model")
    C = _large_scale(params, eps1)
    osc = np.asarray(traj.u, dtype=complex) / C - np.sqrt(theta / 12.0)
    amp = float(np.max(np.abs(osc)))
    if amp < 1e-9:
        return LargeTauFit(0.0j, 0.0j, float(np.linalg.norm(osc)), 1.0, amp, True)

    # variable projection: at fixed nu + 1, the two oscillatory columns plus
    # the leading smooth corrections of the algebraic part (so that
    # non-oscillatory power tails are not forced into the exponentials);
    # the nu-independent parts of the basis are hoisted
    log_theta = np.log(theta)
    e_i_theta = np.exp(1j * theta)
    basis = np.empty((len(theta), 4), dtype=complex)
    basis[:, 2] = theta ** -0.5
    basis[:, 3] = theta ** -1.5
    rcond = len(theta) * np.finfo(float).eps

    def project(nu1):
        e_plus = e_i_theta * np.exp(nu1 * log_theta)
        e_minus = 1.0 / e_plus
        basis[:, 0] = e_plus
        basis[:, 1] = e_minus
        q, r = np.linalg.qr(basis)
        diag = np.abs(np.diagonal(r))
        if not diag.min() > rcond * diag.max():  # singular R (or NaN): reject
            return None
        w = np.linalg.solve(r, q.conj().T @ osc)
        return w, basis @ w - osc, q, r, e_plus, e_minus

    def residual_and_derivative(nu1):
        p = project(nu1)
        if p is None:
            return None, None
        w, resid, q, _, e_plus, e_minus = p
        # Kaufman's Jacobian of the projected residual: d/d(nu + 1) of the
        # basis, applied to the weights and projected onto range(B)^perp
        d = log_theta * (e_plus * w[0] - e_minus * w[1])
        d -= q @ (q.conj().T @ d)
        return resid, d

    nu1 = least_squares(residual_and_derivative, 0.0j).x
    p = project(nu1)
    if p is None:
        raise ConditionViolationError(
            "the fit basis is singular: the window needs at least 4 distinct |tau|")
    sol, resid, _, r, e_plus, e_minus = p
    res_norm = float(np.linalg.norm(resid))
    cond = float(np.linalg.cond(r))  # = cond(basis), as Q is unitary
    osc_amp = float(np.max(np.abs(e_plus * sol[0]) + np.abs(e_minus * sol[1])))
    if osc_amp < 1e-8 * (1.0 + amp):
        # power tail only: degenerate-chart candidate
        return LargeTauFit(0.0j, 0.0j, res_norm, cond, osc_amp, True)
    # weights: w+- = _weight_scale(nu + 1) e^{+-z} / 2
    pref = _weight_scale(nu1) / 2.0
    if pref == 0 or sol[0] == 0 or sol[1] == 0:
        return LargeTauFit(nu1, 0.0j, res_norm, cond, osc_amp, True)
    z_plus = cmath.log(sol[0] / pref)
    z_minus = -cmath.log(sol[1] / pref)
    # the two estimates agree modulo 2 pi i; average on the cylinder
    dz = math.remainder((z_minus - z_plus).imag, _TWO_PI)
    z = _wrap_mod_2pi_i(complex(0.5 * (z_plus.real + z_minus.real),
                                z_plus.imag + 0.5 * dz))
    return LargeTauFit(nu1, z, res_norm, cond, osc_amp, False)


_LM_TOL = 1e-14  # xtol and ftol, in MINPACK's sense
_LM_MAX_NFEV = 100


@dataclass(frozen=True)
class LeastSquaresResult:
    """Result of ``least_squares``; the field names follow scipy's."""

    x: complex
    nfev: int  # every call of the residual function, rejected trials included


def least_squares(fun, x0: complex) -> LeastSquaresResult:
    """Minimise ||r(x)||^2 over one complex parameter x by
    Levenberg-Marquardt.

    ``fun(x)`` returns the complex residual vector r and its derivative
    d = dr/dx, or ``(None, None)`` where the residual is undefined.  Since
    r is holomorphic in x, the real Jacobian in (Re x, Im x) has the two
    orthogonal columns [Re d; Im d] and [-Im d; Re d] of equal norm, so the
    damped normal equations reduce to the scalar step
    -d^H r / (||d||^2 + damping).  The damping follows Nielsen's rule
    (started at 1e-3 ||d||^2).  A trial with an undefined or non-finite
    residual, or one that does not lower the cost, is rejected and the
    damping raised.  The iteration stops when a trial changes the cost by
    at most 1e-14 of it and the linear model predicts no larger decrease
    (MINPACK's ftol test), when a trial step is at most
    1e-14 (|x| + 1e-14) long (its xtol test; also at once when d vanishes
    at x0), or after 100 calls of ``fun``.  ``x`` is the last accepted
    point.

    The name and the ``x`` and ``nfev`` fields follow
    ``scipy.optimize.least_squares``, which this replaces in
    ``fit_large_tau``: ``perfbench/tracer.py`` counts the fit's residual
    evaluations by wrapping this module attribute and reading ``nfev``,
    so ``fit_large_tau`` calls it through the module global.
    """
    x = complex(x0)
    r, d = fun(x)
    nfev = 1
    if r is None or not (np.all(np.isfinite(r)) and np.all(np.isfinite(d))):
        return LeastSquaresResult(x, nfev)
    cost = 0.5 * float(np.vdot(r, r).real)
    dd = float(np.vdot(d, d).real)
    damping, growth = 1e-3 * dd, 2.0
    if damping == 0.0:  # the derivative vanishes: x0 is stationary
        return LeastSquaresResult(x, nfev)
    while nfev < _LM_MAX_NFEV:
        grad = complex(np.vdot(d, r))  # (Re, Im) of the cost gradient
        step = -grad / (dd + damping)
        small_step = abs(step) <= _LM_TOL * (abs(x) + _LM_TOL)
        r_new, d_new = fun(x + step)
        nfev += 1
        cost_new = math.inf  # a NaN cost is rejected as well: NaN > 0 is false
        if r_new is not None and np.all(np.isfinite(d_new)):
            cost_new = 0.5 * float(np.vdot(r_new, r_new).real)
        actual = cost - cost_new
        predicted = -(step.conjugate() * grad).real - 0.5 * dd * abs(step) ** 2
        converged = abs(actual) <= _LM_TOL * cost and predicted <= _LM_TOL * cost
        if actual > 0:
            gain = actual / predicted if predicted > 0 else 0.0
            damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            growth = 2.0
            x, r, d, cost = x + step, r_new, d_new, cost_new
            dd = float(np.vdot(d, d).real)
        else:
            damping *= growth
            growth *= 2.0
        if converged or small_step:
            return LeastSquaresResult(x, nfev)
    return LeastSquaresResult(x, nfev)


@dataclass
class ConnectionReport:
    """Outcome of one end-to-end connection verification."""

    predicted_nu_plus_1: complex
    predicted_z: complex | None
    fitted_nu_plus_1: complex
    fitted_z: complex | None
    err_nu: float
    err_z: float | None
    oscillation_amplitude: float
    convergence_table: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        def cpx(v):
            return None if v is None else [v.real, v.imag]

        payload = {
            "predicted": {"nu_plus_1": cpx(self.predicted_nu_plus_1),
                          "z": cpx(self.predicted_z)},
            "fitted": {"nu_plus_1": cpx(self.fitted_nu_plus_1),
                       "z": cpx(self.fitted_z)},
            "abs_errors": {"err_nu": self.err_nu, "err_z": self.err_z},
            "oscillation_amplitude": self.oscillation_amplitude,
            "convergence_table": self.convergence_table,
        }
        return json.dumps(payload, indent=2)


def _z_distance(z1: complex, z2: complex) -> float:
    return abs(_wrap_mod_2pi_i(z1 - z2))


def _z_on_branch(fit: LargeTauFit, nu_plus_1: complex) -> complex:
    """The fitted z on the branch of sqrt(nu + 1) continued from the
    predicted ``nu_plus_1``.  ``fit_large_tau`` divides its weights by the
    principal sqrt of the fitted nu + 1, which changes sign across the
    negative real axis, so a fit just across that axis from the prediction
    moves z by i pi; this takes the i pi back when Re(sqrt(fitted) /
    sqrt(predicted)) < 0."""
    if (cmath.sqrt(fit.nu_plus_1) * cmath.sqrt(nu_plus_1).conjugate()).real < 0:
        return _wrap_mod_2pi_i(fit.z + 1j * math.pi)
    return fit.z


def _on_ray(tau, eps1: int) -> bool:
    """Whether tau (a nonzero number or array) lies on the ray arg tau = pi eps1."""
    return bool(np.all(np.abs(tau / np.abs(tau) - _ray_phase(eps1)) <= 1e-12))


def _chart_seed(pt: MonodromyPoint, params: EquationParams, tau0: float,
                eps1: int) -> SolutionState:
    """(tau, u, u') at |tau| = tau0 on the ray arg tau = pi eps1, from the
    point's small-argument chart."""
    sc = small_tau_chart(pt, eps1, params)
    return SolutionState(tau0 * _ray_phase(eps1), u_small(sc, tau0), du_small(sc, tau0))


def verify_connection(pt: MonodromyPoint, params: EquationParams,
                      tau0: float = 0.02, tau1: float = 400.0,
                      eps1: int = 0, tol: float = 1e-10,
                      tau0_steps: int = 1, tau1_steps: int = 3,
                      seed_state: SolutionState | None = None) -> ConnectionReport:
    """Seed (u, u') at ``tau0`` from the small-argument chart, integrate to
    ``tau1``, fit the large-argument chart, and compare with the
    prediction.  A convergence table over the seeds tau0 * 2**k (k <
    ``tau0_steps``) and the 240-sample fit windows [t1 / 8, t1], t1 =
    tau1 / 2**k (k < ``tau1_steps``), quantifies the dropped-correction
    error; each row keeps the |tau| its ray started from, the fit's
    residual norm and its basis condition number.  The fitted z
    (``fitted_z`` and every ``err_z``) is taken on the predicted nu + 1's
    branch of sqrt(nu + 1), so that a fitted nu + 1 just across the
    negative real axis from the prediction does not read as err_z = pi.

    ``seed_state`` replaces the small-chart seeds when the exact solution
    is known (then only the large side is under test, the small-chart
    conditions are not required); its ray is the only one, so every row's
    tau0 is |seed_state.tau|.  A ``seed_state`` off the ray arg tau =
    pi ``eps1``, whose chart the fit reads, raises
    ``ConditionViolationError`` before anything is integrated.

    Every fit window lies above the theta > 50 floor, so a smallest rung
    ``tau1 / 2**(tau1_steps - 1)`` below it raises
    ``ConditionViolationError`` before anything is integrated, as do a
    non-finite ``tau0`` or ``tau1``, a ``tau0`` that is not positive (unless
    a ``seed_state`` is given), a largest seed |tau| above the smallest
    window start, and ``tau0_steps`` or ``tau1_steps`` that is not an
    integer in [1, 1024] (where 2**(steps - 1) is a finite float).
    """
    for name, count in (("tau0_steps", tau0_steps), ("tau1_steps", tau1_steps)):
        if not (isinstance(count, numbers.Integral) and 1 <= count <= _MAX_STEPS):
            raise ConditionViolationError(f"{name} must be an integer in [1, {_MAX_STEPS}]")
    if not (math.isfinite(tau0) and math.isfinite(tau1)):
        raise ConditionViolationError("tau0 and tau1 must be finite")
    if seed_state is None and not tau0 > 0:
        raise ConditionViolationError(
            f"verify_connection: tau0 = {tau0!r} must be positive (the seed |tau|)")
    # tau = 0 is left to integrate_ray's SingularityError
    if seed_state is not None and seed_state.tau != 0 and not _on_ray(seed_state.tau, eps1):
        raise ConditionViolationError(
            f"seed_state.tau = {seed_state.tau} is off the ray arg tau = pi eps1 "
            f"(eps1 = {eps1}) whose large-argument chart is fitted")
    floor = _theta_floor(params)
    halvings = 2.0 ** (tau1_steps - 1)
    if tau1 / halvings < floor:
        raise ConditionViolationError(
            f"the smallest fit window ends at tau1 / 2**(tau1_steps - 1) = {tau1 / halvings:.4g}, "
            f"below the theta > {_THETA_MIN:g} floor |tau| = {floor:.4g}; "
            f"with tau1_steps = {tau1_steps} "
            f"the smallest admissible tau1 is {floor * halvings:.1f}")
    tau1_list = [tau1 / 2.0**k for k in range(tau1_steps - 1, -1, -1)]
    grid = np.concatenate([np.linspace(max(t1 / 8.0, floor), t1, 240) for t1 in tau1_list])
    # the largest rung, checked before any chart seed is evaluated there
    seed_max = abs(seed_state.tau) if seed_state is not None else tau0 * 2.0 ** (tau0_steps - 1)
    if seed_max > grid[0]:
        raise ConditionViolationError(
            f"the largest seed |tau| = {seed_max:.4g} lies above the smallest fit window "
            f"start |tau| = {grid[0]:.4g}; lower tau0 or raise tau1")
    seeds = [seed_state] if seed_state is not None else [
        _chart_seed(pt, params, tau0 * 2.0**k, eps1) for k in range(tau0_steps - 1, -1, -1)]
    lc = large_tau_chart(pt, eps1, params)

    table = []
    for seed in seeds:
        traj = integrate_ray(seed, pt.a, params, tau1, tol=tol, dense_at=grid)
        windows = zip(*(np.split(x, tau1_steps) for x in (traj.tau, traj.u, traj.du, traj.H)))
        for t1, (tau, u, du, H) in zip(tau1_list, windows):
            fit = fit_large_tau(Trajectory(params, pt.a, tau, u, du, None, H), params, eps1)
            z = None if fit.special else _z_on_branch(fit, lc.nu_plus_1)
            err_nu = abs(fit.nu_plus_1 - lc.nu_plus_1)
            err_z = None if (lc.z is None or z is None) else _z_distance(z, lc.z)
            table.append({"tau0": abs(seed.tau), "tau1": t1, "err_nu": err_nu,
                          "err_z": err_z, "amplitude": fit.oscillation_amplitude,
                          "residual_norm": fit.residual_norm, "condition": fit.condition})
    # the last row is the smallest tau0 and the largest tau1
    return ConnectionReport(
        predicted_nu_plus_1=lc.nu_plus_1,
        predicted_z=lc.z,
        fitted_nu_plus_1=fit.nu_plus_1,
        fitted_z=z,
        err_nu=table[-1]["err_nu"],
        err_z=table[-1]["err_z"],
        oscillation_amplitude=fit.oscillation_amplitude,
        convergence_table=table,
    )


def _theta_floor(params: EquationParams) -> float:
    """Smallest |tau| with theta(|tau|) > 50 (fit-window precondition),
    from theta at |tau| = 1, where 1.0 ** (2/3) is exactly 1."""
    return (_THETA_MIN / _theta(params, 1.0)) ** 1.5 * 1.02
