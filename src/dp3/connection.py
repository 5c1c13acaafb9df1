"""Closing the loop numerically: recover the large-argument chart
parameters from trajectory samples by nonlinear least squares, and verify
a monodromy point's connection formulae end to end (seed at small |tau|
from the small-argument chart, integrate along the ray, fit the
large-argument chart, compare with the prediction).
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import least_squares

from .asymptotics import (
    LargeTauChart,
    du_small,
    large_tau_chart,
    small_tau_chart,
    u_small,
)
from .errors import ConditionViolationError
from .monodromy import MonodromyPoint
from .ode import SolutionState, Trajectory, integrate_ray
from .params import EquationParams

__all__ = ["LargeTauFit", "fit_large_tau", "verify_connection", "ConnectionReport"]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LargeTauFit:
    """Result of fitting the large-argument model to trajectory samples."""

    nu_plus_1: complex
    z: complex  # reported modulo 2 pi i
    residual_norm: float
    condition: float
    oscillation_amplitude: float
    special: bool  # no resolvable oscillation: degenerate-chart candidate

    def chart(self, params: EquationParams, eps1: int, a: complex) -> LargeTauChart:
        special = "g21_zero" if self.special else "none"
        return LargeTauChart(params, eps1, a, special, self.nu_plus_1,
                             None, self.z, 0.0j, "real")


def _wrap_mod_2pi_i(z: complex) -> complex:
    return complex(z.real, math.remainder(z.imag, _TWO_PI))


def fit_large_tau(traj: Trajectory, params: EquationParams,
                  eps1: int | None = None) -> LargeTauFit:
    """Fit the two chart constants (nu + 1, z) of the large-argument
    expansion to trajectory samples.

    The model is linear in the two oscillatory weights at fixed nu + 1, so
    the fit alternates a linear solve for the weights with a
    Levenberg-style nonlinear refinement of all four real parameters,
    initialised from envelope/phase extraction of the residual left after
    subtracting the algebraic part.
    """
    m = np.abs(traj.tau)
    if eps1 is None:
        ph = traj.tau[0] / m[0]
        eps1 = int(round(cmath.phase(ph) / math.pi))
    theta = 3.0 * math.sqrt(3.0) * params.abs_coupling ** (1.0 / 3.0) * m ** (2.0 / 3.0)
    if theta.min() < 50.0:
        raise ConditionViolationError(
            f"fit window starts at theta = {theta.min():.1f} < 50; move tau_a outward")
    C = ((-1.0) ** (eps1 % 2)) * params.eps * math.sqrt(params.abs_coupling) / 3.0 ** 0.25
    osc = np.asarray(traj.u, dtype=complex) / C - np.sqrt(theta / 12.0)
    amp = float(np.max(np.abs(osc)))
    if amp < 1e-9:
        return LargeTauFit(0.0j, 0.0j, float(np.linalg.norm(osc)), 1.0, amp, True)

    def weights_for(nu1: complex):
        # two oscillatory columns plus the leading smooth corrections of
        # the algebraic part, so that non-oscillatory power tails are not
        # forced into the exponentials
        basis = np.column_stack([
            np.exp(1j * theta + nu1 * np.log(theta)),
            np.exp(-1j * theta - nu1 * np.log(theta)),
            theta ** -0.5,
            theta ** -1.5,
        ])
        sol, *_ = np.linalg.lstsq(basis, osc, rcond=None)
        resid = basis @ sol - osc
        return sol, resid, basis

    # initial nu + 1: slope of the forward-component envelope in ln theta.
    # Project out each exponential locally over half-overlapping windows.
    nwin = max(4, len(m) // 24)
    centers, fw = [], []
    idx = np.array_split(np.arange(len(m)), nwin)
    for block in idx:
        if len(block) < 6:
            continue
        th = theta[block]
        basis = np.column_stack([np.exp(1j * th), np.exp(-1j * th)])
        sol, *_ = np.linalg.lstsq(basis, osc[block], rcond=None)
        if abs(sol[0]) > 0:
            centers.append(math.log(float(np.mean(th))))
            fw.append(cmath.log(sol[0]))
    if len(centers) >= 2:
        centers = np.asarray(centers)
        vals = np.asarray(fw)
        re = np.polyfit(centers, vals.real, 1)
        im_d = np.unwrap(vals.imag)
        im = np.polyfit(centers, im_d, 1)
        nu0 = complex(re[0], im[0])
    else:
        nu0 = 0.0j
    if abs(nu0) > 0.5:
        nu0 = 0.0j

    def residual_vec(x):
        sol, resid, _ = weights_for(complex(x[0], x[1]))
        return np.concatenate([resid.real, resid.imag])

    fit = least_squares(residual_vec, [nu0.real, nu0.imag], method="lm",
                        xtol=1e-14, ftol=1e-14)
    nu1 = complex(fit.x[0], fit.x[1])
    sol, resid, basis = weights_for(nu1)
    cond = float(np.linalg.cond(basis))
    osc_part = np.abs(np.exp(nu1 * np.log(theta)) * sol[0]) \
        + np.abs(np.exp(-nu1 * np.log(theta)) * sol[1])
    osc_amp = float(np.max(osc_part))
    if osc_amp < 1e-8 * (1.0 + amp):
        # power tail only: degenerate-chart candidate
        return LargeTauFit(0.0j, 0.0j, float(np.linalg.norm(resid)), cond, osc_amp, True)
    # weights: w+- = sqrt(nu+1) e^{3 i pi / 4} e^{+-z} / 2
    pref = cmath.sqrt(nu1) * cmath.exp(0.75j * math.pi) / 2.0
    if pref == 0 or sol[0] == 0 or sol[1] == 0:
        return LargeTauFit(nu1, 0.0j, float(np.linalg.norm(resid)), cond, osc_amp, True)
    z_plus = cmath.log(sol[0] / pref)
    z_minus = -cmath.log(sol[1] / pref)
    # the two estimates agree modulo 2 pi i; average on the cylinder
    dz = math.remainder((z_minus - z_plus).imag, _TWO_PI)
    z = _wrap_mod_2pi_i(complex(0.5 * (z_plus.real + z_minus.real),
                                z_plus.imag + 0.5 * dz))
    return LargeTauFit(nu1, z, float(np.linalg.norm(resid)), cond, osc_amp, False)


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
    d = z1 - z2
    return abs(complex(d.real, math.remainder(d.imag, _TWO_PI)))


def verify_connection(pt: MonodromyPoint, params: EquationParams,
                      tau0: float = 0.02, tau1: float = 400.0,
                      eps1: int = 0, tol: float = 1e-11,
                      tau0_steps: int = 2, tau1_steps: int = 3,
                      fit_points: int = 240, window_factor: float = 8.0,
                      seed_state: SolutionState | None = None) -> ConnectionReport:
    """Seed (u, u') at ``tau0`` from the small-argument chart, integrate to
    ``tau1``, fit the large-argument chart, and compare with the
    prediction.  A convergence table over decreasing tau0 and increasing
    tau1 quantifies the dropped-correction error.

    ``seed_state`` replaces the small-chart seed when the exact solution
    is known (then only the large side is under test and the small-chart
    conditions are not required).
    """
    if tau0_steps < 1 or tau1_steps < 1:
        raise ConditionViolationError("tau0_steps and tau1_steps must be at least 1")
    sc = None if seed_state is not None else small_tau_chart(pt, eps1, params)
    lc = large_tau_chart(pt, eps1, params)
    phase = cmath.exp(1j * math.pi * eps1)

    tau1_list = [tau1 / (2.0**k) for k in range(tau1_steps - 1, -1, -1)]
    tau0_list = [tau0 * (2.0**k) for k in range(tau0_steps - 1, -1, -1)]

    grids = []
    for t1 in tau1_list:
        win_lo = max(t1 / window_factor, _theta_floor(params))
        grids.append(np.linspace(win_lo, t1, fit_points))

    table = []
    final = None
    for t0 in tau0_list:
        if seed_state is not None:
            seed = seed_state
        else:
            seed = SolutionState(t0 * phase, u_small(sc, t0), du_small(sc, t0))
        all_m = np.concatenate(grids)
        traj = integrate_ray(seed, pt.a, params, tau1_list[-1], tol=tol, dense_at=all_m)
        for k, t1 in enumerate(tau1_list):
            sl = slice(k * fit_points, (k + 1) * fit_points)
            window = Trajectory(params, pt.a, traj.tau[sl], traj.u[sl],
                                traj.du[sl], None, traj.H[sl])
            fit = fit_large_tau(window, params, eps1)
            err_nu = abs(fit.nu_plus_1 - lc.nu_plus_1)
            err_z = None if (lc.z is None or fit.special) \
                else _z_distance(fit.z, lc.z)
            table.append({"tau0": t0, "tau1": t1, "err_nu": err_nu,
                          "err_z": err_z, "amplitude": fit.oscillation_amplitude})
            if t0 == tau0_list[-1] and t1 == tau1_list[-1]:
                final = fit
    return ConnectionReport(
        predicted_nu_plus_1=lc.nu_plus_1,
        predicted_z=lc.z,
        fitted_nu_plus_1=final.nu_plus_1,
        fitted_z=None if final.special else final.z,
        err_nu=abs(final.nu_plus_1 - lc.nu_plus_1),
        err_z=None if (lc.z is None or final.special) else _z_distance(final.z, lc.z),
        oscillation_amplitude=final.oscillation_amplitude,
        convergence_table=table,
    )


def _theta_floor(params: EquationParams) -> float:
    """Smallest |tau| with theta(|tau|) > 50 (fit-window precondition)."""
    return (50.0 / (3.0 * math.sqrt(3.0) * params.abs_coupling ** (1.0 / 3.0))) ** 1.5 * 1.02
