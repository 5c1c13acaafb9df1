"""Equation right-hand side, ray integration, Hamiltonians in all three
coordinate systems, conversions, and finite-difference residual checks."""

import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from conftest import cauchy_derivative
from dp3 import ode
from dp3.asymptotics import du_small, large_tau_chart, small_tau_chart, u_small
from dp3.backlund import backlund_step
from dp3.errors import ConditionViolationError, IntegrationFailureError, SingularityError
from dp3.ode import (
    SolutionState,
    algebraic_solution,
    dp3_rhs,
    hamiltonian_abcd,
    hamiltonian_pq,
    hamiltonian_system_rhs,
    hamiltonian_u,
    integrate_ray,
    p_from_u,
    residual_on_grid,
    sigma_and_f,
    to_abcd,
    trajectory_to_csv,
)
from dp3.params import EquationParams
from dp3.sampling import sample_manifold

P1 = EquationParams.make(1, 1.0)


# ------------------------------------------------------------------- rhs

def test_rhs_hand_value():
    st = algebraic_solution(1.0, P1)
    assert abs(st.u - 0.5) < 1e-15 and abs(st.du - 1.0 / 6.0) < 1e-15
    _, ddu = dp3_rhs(st, 0.0, P1)
    assert abs(ddu + 1.0 / 9.0) < 1e-14


def test_params_validation():
    # the zero-coupling family is excluded (it is solvable in closed form
    # and the equation degenerates); sector labels must match the sign
    with pytest.raises(ConditionViolationError):
        EquationParams.make(1, 0.0)
    with pytest.raises(ConditionViolationError):
        EquationParams(eps=1, b=1.0, eps2=1)
    with pytest.raises(ConditionViolationError):
        EquationParams(eps=1, b=-1.0, eps2=0)
    assert EquationParams.make(1, -2.0).eps2 == 1
    assert EquationParams.make(-1, -2.0).eps2 == 0


def test_rhs_singular_at_zero_u():
    with pytest.raises(SingularityError):
        dp3_rhs(SolutionState(1.0, 0.0, 0.1), 0.0, P1)
    with pytest.raises(SingularityError):
        dp3_rhs(SolutionState(0.0, 0.5, 0.1), 0.0, P1)


def test_rhs_quadratic_term_scaling():
    st1 = SolutionState(2.0, 0.3 + 0.1j, 0.05)
    st2 = SolutionState(2.0, 2 * (0.3 + 0.1j), 0.05)
    _, d1 = dp3_rhs(st1, 0.0, P1)
    _, d2 = dp3_rhs(st2, 0.0, P1)
    # isolate the -8 eps u^2 / tau contribution
    t1 = d1 - (st1.du**2 / st1.u - st1.du / 2.0 + 1.0 / st1.u)
    t2 = d2 - (st2.du**2 / st2.u - st2.du / 2.0 + 1.0 / st2.u)
    assert abs(t2 - 4.0 * t1) < 1e-12


# ------------------------------------------------------------- integrate

def test_integrate_algebraic_solution():
    seed = algebraic_solution(0.1, P1)
    grid = np.linspace(0.1, 100.0, 400)
    traj = integrate_ray(seed, 0.0, P1, 100.0, tol=1e-11, dense_at=grid)
    exact = np.array([algebraic_solution(t, P1).u for t in grid])
    assert np.max(np.abs(traj.u - exact)) < 1e-9


def test_integrate_backlund_image():
    # first ladder rung: u_1 = tau^{1/3}/2 - i tau^{-1/3}/6 at a = -i
    st, a1 = backlund_step(algebraic_solution(0.3, P1), 0.0, P1, "up")
    grid = np.linspace(0.3, 30.0, 200)
    traj = integrate_ray(st, a1, P1, 30.0, tol=1e-11, dense_at=grid)
    exact = grid ** (1.0 / 3.0) / 2.0 - 1j * grid ** (-1.0 / 3.0) / 6.0
    assert np.max(np.abs(traj.u - exact)) < 1e-9


def test_integrator_order_vs_tolerance():
    seed = algebraic_solution(0.5, P1)
    errs = []
    for tol in (1e-7, 1e-9):
        traj = integrate_ray(seed, 0.0, P1, 50.0, tol=tol, dense_at=np.array([50.0]))
        errs.append(abs(traj.u[0] - algebraic_solution(50.0, P1).u))
    assert errs[0] / max(errs[1], 1e-16) >= 10.0


def test_integrate_reports_pole_location():
    # drive the solution into u = 0 by seeding off the solution manifold
    seed = SolutionState(1.0, 1e-6 + 0j, -1.0 + 0j)
    with pytest.raises(IntegrationFailureError) as exc:
        integrate_ray(seed, 0.0, P1, 50.0, tol=1e-9)
    assert exc.value.tau_abs is not None


def test_integrate_validates_tolerance():
    seed = algebraic_solution(1.0, P1)
    with pytest.raises(ConditionViolationError):
        integrate_ray(seed, 0.0, P1, 2.0, tol=1e-3)


def test_trajectory_fd_residual_tracks_tolerance():
    seed = algebraic_solution(1.0, P1)
    tol = 1e-8
    grid = np.linspace(2.0, 2.002, 21)
    traj = integrate_ray(seed, 0.0, P1, 2.002, tol=tol, dense_at=grid)
    assert residual_on_grid(traj.tau, traj.u, 0.0, P1) < 100 * tol


def test_trajectory_csv_format():
    seed = algebraic_solution(1.0, P1, with_phi=True)
    traj = integrate_ray(seed, 0.0, P1, 2.0, tol=1e-10, dense_at=np.array([1.5, 2.0]))
    text = trajectory_to_csv(traj)
    lines = text.strip().splitlines()
    assert lines[0] == "tau_re,tau_im,u_re,u_im,du_re,du_im,phi_re,phi_im,H_re,H_im"
    assert len(lines) == 3 and len(lines[1].split(",")) == 10


def test_integrate_validates_finiteness():
    seed = algebraic_solution(1.0, P1, with_phi=True)
    nan = float("nan")
    bad_seeds = [SolutionState(seed.tau, complex(nan, 0.0), seed.du),
                 SolutionState(seed.tau, seed.u, complex(0.0, math.inf)),
                 SolutionState(seed.tau, seed.u, seed.du, complex(nan, 0.0))]
    for bad in bad_seeds:
        with pytest.raises(ConditionViolationError):
            integrate_ray(bad, 0.0, P1, 2.0)
    with pytest.raises(ConditionViolationError):
        integrate_ray(seed, nan, P1, 2.0)
    with pytest.raises(ConditionViolationError):
        integrate_ray(seed, 0.0, P1, math.inf)
    with pytest.raises(ConditionViolationError):
        integrate_ray(seed, 0.0, P1, 2.0, dense_at=np.array([1.5, nan]))


def test_integrate_overflowing_seed_raises():
    # u'' overflows at the seed; the stepper must stop, not loop
    with pytest.raises(IntegrationFailureError):
        integrate_ray(SolutionState(1.0, 1.0 + 0j, 1e200 + 0j), 0.0, P1, 2.0)


def test_stepper_nonfinite_error_stops():
    def rhs(t, y):
        return (complex(math.nan, 0.0) if t > 1.5 else 1j,)

    sol = ode.solve_ivp(rhs, (1.0, 2.0), [1.0 + 0j], rtol=1e-10, atol=1e-13)
    assert sol.status == -1 and sol.message == "non-finite error estimate"
    assert 1.0 <= sol.t_fail < 1.5


# --------------------------------------------------------- DOP853 stepper

def crit10_seed(tau0: float = 0.02):
    """First point of the criterion-10 draw (seed 97) with a generic a,
    seeded from its small chart on the positive ray."""
    for pt in sample_manifold(seed=97, count=80, branch=1, nu_max=0.08,
                              re_rho_max=0.15, abs_a_max=0.6, max_entry=20.0):
        sc = small_tau_chart(pt, 0, P1)
        if sc.log_mode or abs(sc.rho) < 0.02 or abs(pt.a) < 0.1:
            continue
        if large_tau_chart(pt, 0, P1).special == "none":
            seed = SolutionState(complex(tau0), u_small(sc, tau0), du_small(sc, tau0))
            return seed, pt.a
    raise AssertionError("no generic-a criterion-10 point in the draw")


def test_integrate_matches_mpmath_oracle():
    # independent reference: mpmath's Taylor-series integrator at 20 digits
    # on the equation written out again here
    seed, a = crit10_seed()
    with mpmath.workdps(20):
        am, eps, b = mpmath.mpc(a), P1.eps, P1.b

        def rhs(t, y):
            u, du = y
            return [du, du * du / u - du / t + (-8 * eps * u * u + 2 * am * b) / t + b * b / u]

        ref = mpmath.odefun(rhs, mpmath.mpf(0.02), [mpmath.mpc(seed.u), mpmath.mpc(seed.du)])
        u_ref, du_ref = (complex(v) for v in ref(2))
    errs = []
    for tol in (1e-8, 1e-10, 1e-12):
        traj = integrate_ray(seed, a, P1, 2.0, tol=tol)
        err = max(abs(traj.u[-1] - u_ref) / abs(u_ref), abs(traj.du[-1] - du_ref) / abs(du_ref))
        assert err <= 10 * tol
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]


def test_stepper_matches_scipy_dop853():
    # same error norm, step control and initial step: the same accepted
    # steps up to rounding, and the same interpolant
    seed, a = crit10_seed()

    def rhs(s, y):
        return y[1], dp3_rhs(SolutionState(s, y[0], y[1]), a, P1)[1]

    grid = np.linspace(1.0, 50.0, 97)
    ours = ode.solve_ivp(rhs, (0.02, 50.0), [seed.u, seed.du], rtol=1e-10, atol=1e-13,
                         dense_at=grid)
    ref = solve_ivp(lambda s, y: np.asarray(rhs(s, y)), (0.02, 50.0),
                    np.array([seed.u, seed.du]), method="DOP853", rtol=1e-10,
                    atol=1e-13, dense_output=True)
    assert ours.status == 0 and ref.success
    assert ours.t.size == ref.t.size
    assert np.allclose(ours.t, ref.t, rtol=1e-7, atol=0.0)
    assert np.allclose(ours.y, ref.sol(grid), rtol=1e-9, atol=0.0)


def test_integrate_backward_ray():
    seed = algebraic_solution(40.0, P1)
    grid = np.linspace(40.0, 0.5, 50)
    traj = integrate_ray(seed, 0.0, P1, 0.5, tol=1e-11, dense_at=grid)
    exact = np.array([algebraic_solution(t, P1).u for t in grid])
    assert np.max(np.abs(traj.u - exact)) < 1e-9
    steps = integrate_ray(seed, 0.0, P1, 0.5, tol=1e-11)
    assert np.all(np.diff(np.abs(steps.tau)) < 0) and abs(steps.tau[-1]) == 0.5


def test_dense_output_in_caller_order():
    # overlapping, unsorted windows, as verify_connection passes them
    seed, a = crit10_seed()
    grid = np.concatenate([np.linspace(50.0, 100.0, 40), np.linspace(25.0, 60.0, 40),
                           np.linspace(80.0, 30.0, 40)])
    traj = integrate_ray(seed, a, P1, 100.0, tol=1e-10, dense_at=grid)
    order = np.argsort(grid, kind="stable")
    ref = integrate_ray(seed, a, P1, 100.0, tol=1e-10, dense_at=grid[order])
    assert np.array_equal(np.abs(traj.tau), grid)
    assert np.array_equal(traj.u[order], ref.u)
    assert np.array_equal(traj.du[order], ref.du)


def test_integrate_without_dense_returns_steps():
    seed, a = crit10_seed()
    traj = integrate_ray(seed, a, P1, 20.0, tol=1e-10)
    s = np.abs(traj.tau)
    assert s[0] == 0.02 and s[-1] == 20.0
    assert np.all(np.diff(s) > 0)
    assert traj.u[0] == seed.u and traj.du[0] == seed.du


def test_bound_failure_located_in_failing_step(monkeypatch):
    original, results = ode.solve_ivp, []

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(ode, "solve_ivp", recording)
    seed = SolutionState(1.0, 1e-6 + 0j, -1.0 + 0j)
    with pytest.raises(IntegrationFailureError) as exc:
        integrate_ray(seed, 0.0, P1, 50.0, tol=1e-9)
    (sol,) = results
    assert sol.status == 1
    assert sol.t[-1] < exc.value.tau_abs <= 50.0


def test_integrate_tracks_phi():
    seed = algebraic_solution(1.0, P1, with_phi=True, phi0=0.3)
    grid = np.linspace(1.0, 8.0, 30)
    traj = integrate_ray(seed, 0.0, P1, 8.0, tol=1e-11, dense_at=grid)
    exact = np.array([algebraic_solution(t, P1, with_phi=True, phi0=0.3).phi for t in grid])
    assert np.max(np.abs(traj.phi - exact)) < 1e-9


def test_import_leaves_scipy_integrate_unloaded():
    src = Path(ode.__file__).resolve().parents[1]
    code = "import sys, dp3.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src, timeout=60)
    assert out.stdout.strip() == "False"


# ----------------------------------------------------------- Hamiltonians

def test_hamiltonian_hand_value():
    st = algebraic_solution(1.0, P1)
    H = hamiltonian_u(st, 0.0, P1)
    assert abs(H - (209.0 / 72.0 - 1j)) < 1e-14


def test_hamiltonian_matches_canonical_channel():
    for tau in (0.7, 1.0, 2.3):
        st = algebraic_solution(tau, P1)
        p = p_from_u(st, 0.0, P1, -1)
        assert abs(hamiltonian_pq(p, st.u, tau, 0.0, P1, -1)
                   - hamiltonian_u(st, 0.0, P1)) < 1e-13


def test_p_from_u_hand_value_and_channel_shift():
    st = algebraic_solution(1.0, P1)
    p = p_from_u(st, 0.0, P1, -1)
    assert abs(p - (-2.0 / 3.0 - 2.0j)) < 1e-14
    p_plus = p_from_u(st, 0.0, P1, 1)
    assert abs(p_plus - p - 2.0 * (0.5) / st.u) < 1e-14


def test_sigma_and_f_hand_values():
    st = algebraic_solution(1.0, P1)
    sigma, f = sigma_and_f(st, 0.0, P1)
    assert abs(f - (-1.0 / 6.0 - 0.5j)) < 1e-14
    assert abs(sigma - (31.0 / 9.0 - 2.0j)) < 1e-14


def sigma_f_ode_residuals(params, a, states, taus, h):
    """Max residuals of the sigma- and f-form equations, derivatives by
    Richardson-extrapolated central finite differences (the sign of the
    32 i eps b tau term is the one the trajectories actually satisfy)."""
    eps1h = -1
    vals = np.array([sigma_and_f(st, a, params) for st in states])
    out = {}
    for col, which in ((0, "sigma"), (1, "f")):
        arr = vals[:, col]
        d1h = (arr[4:] - arr[:-4])[1:-1] / (4 * h)  # stride-2 stencil
        d1 = (arr[3:-1] - arr[1:-3])[1:-1] / (2 * h)
        d2h = (arr[4:] - 2 * arr[2:-2] + arr[:-4])[1:-1] / (4 * h**2)
        d2 = (arr[3:-1] - 2 * arr[2:-2] + arr[1:-3])[1:-1] / h**2
        d1r = (4 * d1 - d1h) / 3.0
        d2r = (4 * d2 - d2h) / 3.0
        t = taus[3:-3]
        v = arr[3:-3]
        ieb = 1j * params.eps * params.b
        if which == "sigma":
            res = (t * d2r - d1r) ** 2 - 2 * (2 * v - t * d1r) * d1r**2 \
                - 32 * ieb * t * (((1 - eps1h) / 2 - a * 1j * eps1h) * d1r + 2 * ieb * t)
        else:
            res = t**2 * (d2r + 4 * ieb) ** 2 \
                - (4 * v - eps1h * (2j * a + 1)) ** 2 * (d1r**2 + 8 * ieb * v)
        out[which] = float(np.max(np.abs(res)))
    return out


def test_sigma_and_f_ode_residuals():
    taus = np.linspace(1.0, 3.0, 1001)
    h = taus[1] - taus[0]
    states = [algebraic_solution(t, P1) for t in taus]
    res = sigma_f_ode_residuals(P1, 0.0, states, taus, h)
    assert res["sigma"] < 1e-6
    assert res["f"] < 1e-6


# ------------------------------------------------------------ conversions

def test_to_abcd_identities():
    st = algebraic_solution(1.3, P1, with_phi=True)
    A, B, C, D = to_abcd(st, 0.0, P1)
    sqrt_ab = st.u / (P1.eps * st.tau)
    # u = eps tau sqrt(-AB) with the solution branch
    assert abs(-A * B - sqrt_ab**2) < 1e-15
    # the off-diagonal determinant combination equals eps b
    alpha = -(2.0 / B) * (0.0 * sqrt_ab + st.tau * (A * D + B * C))  # a = 0
    assert abs(-1j * alpha * B - P1.eps * P1.b) < 1e-12
    # closing relation for the derivative
    assert abs(st.du - (st.u / st.tau + 2.0 * P1.eps * st.tau * (A * D - B * C))) < 1e-12


def test_to_abcd_requires_phi():
    with pytest.raises(ConditionViolationError):
        to_abcd(SolutionState(1.0, 0.5, 0.1), 0.0, P1)


def test_abcd_system_residual_along_trajectory():
    # the first four deformation equations, derivatives by contour
    # differentiation of the exact solution family
    a = 0.0

    def abcd(tau: complex):
        return to_abcd(algebraic_solution(tau, P1, with_phi=True), a, P1)

    for tau in (0.8, 1.7, 3.1):
        A, B, C, D = abcd(tau)
        sqrt_ab = algebraic_solution(tau, P1).u / (P1.eps * tau)
        dA = cauchy_derivative(lambda s: abcd(s)[0], tau, 0.05 * tau)
        dB = cauchy_derivative(lambda s: abcd(s)[1], tau, 0.05 * tau)
        dtc = cauchy_derivative(lambda s: s * abcd(s)[2], tau, 0.05 * tau)
        dtd = cauchy_derivative(lambda s: s * abcd(s)[3], tau, 0.05 * tau)
        assert abs(dA - 4.0 * C * sqrt_ab) < 1e-10
        assert abs(dB + 4.0 * D * sqrt_ab) < 1e-10
        assert abs(dtc - (2j * a * C - 2.0 * tau * A)) < 1e-10
        assert abs(dtd - (-2j * a * D + 2.0 * tau * B)) < 1e-10


def test_hamiltonian_abcd_matches_and_splits():
    for tau, params in ((1.0, P1), (2.1, EquationParams.make(-1, 8.0))):
        st = algebraic_solution(tau, params, with_phi=True)
        A, B, C, D = to_abcd(st, 0.0, params)
        hs = hamiltonian_abcd(A, B, C, D, tau, 0.0, params,
                              sqrt_ab=st.u / (params.eps * tau))
        assert abs(hs.H - hamiltonian_u(st, 0.0, params)) < 1e-11
        ash = 0.0 - 0.5j * params.sign2
        assert abs(hs.H0 - hs.Hinf + ash * ash / (2.0 * tau)) < 1e-12
        assert abs(hs.H - hs.H0 - hs.Hinf) < 1e-13
    st = algebraic_solution(1.0, P1, with_phi=True)
    A, B, C, D = to_abcd(st, 0.0, P1)
    hs = hamiltonian_abcd(A, B, C, D, 1.0, 0.0, P1, sqrt_ab=st.u / st.tau)
    assert abs(hs.H - (209.0 / 72.0 - 1j)) < 1e-13


# ----------------------------------------------------------- grid residual

def test_residual_on_grid_examples():
    taus = np.linspace(1.0, 2.0, 1001)
    u = np.array([algebraic_solution(t, P1).u for t in taus])
    assert residual_on_grid(taus, u, 0.0, P1) < 1e-6

    p2 = EquationParams.make(-1, 8.0)
    u2 = np.array([algebraic_solution(t, p2).u for t in taus])
    assert residual_on_grid(taus, u2, 0.0, p2) < 1e-6

    junk = np.cos(taus) + 1.5
    assert residual_on_grid(taus, junk.astype(complex), 0.0, P1) > 1e-1


def test_residual_on_grid_validates_input():
    with pytest.raises(ConditionViolationError):
        residual_on_grid(np.array([1.0, 2.0, 3.0]), np.ones(3, complex), 0.0, P1)
    taus = np.array([1.0, 1.1, 1.25, 1.3, 1.4])
    with pytest.raises(ConditionViolationError):
        residual_on_grid(taus, np.ones(5, complex), 0.0, P1)


# ------------------------------------------------------ Hamiltonian system

def test_hamiltonian_system_reproduces_solution():
    a, eps1h = 0.0, -1
    st = algebraic_solution(1.0, P1)
    p0 = p_from_u(st, a, P1, eps1h)

    def rhs(t, y):
        dp, dq = hamiltonian_system_rhs(y[0], y[1], t, a, P1, eps1h)
        return [dp, dq]

    sol = solve_ivp(rhs, (1.0, 10.0), np.array([p0, st.u], dtype=complex),
                    rtol=1e-11, atol=1e-13, dense_output=True)
    assert sol.success
    for t in np.linspace(1.0, 10.0, 19):
        q = sol.sol(t)[1]
        assert abs(q - algebraic_solution(t, P1).u) < 1e-8


def test_hamiltonian_system_derivative_identity():
    st = algebraic_solution(1.0, P1)
    p0 = p_from_u(st, 0.0, P1, -1)
    _, dq = hamiltonian_system_rhs(p0, st.u, 1.0, 0.0, P1, -1)
    assert abs(dq - 1.0 / 6.0) < 1e-12


def test_hamiltonian_total_vs_partial_time_derivative():
    # along the flow dH/dtau equals the explicit partial derivative
    a, eps1h = 0.0, -1

    def pq(tau):
        st = algebraic_solution(tau, P1)
        return p_from_u(st, a, P1, eps1h), st.u

    for tau in (1.0, 2.5):
        h = 1e-5 * tau
        vals = [hamiltonian_pq(*pq(tau + k * h), tau + k * h, a, P1, eps1h)
                for k in (-1, 0, 1)]
        total = (vals[2] - vals[0]) / (2 * h)
        p, q = pq(tau)
        k = a * 1j + 0.5
        partial = -p * p * q * q / tau**2 + 2.0 * eps1h * p * q * k / tau**2 \
            - k * k / (2.0 * tau**2)
        assert abs(total - partial) < 1e-8


def test_hamiltonian_u_smoothness_along_trajectory():
    # numerical dH/dtau matches the partial derivative at the canonical pair
    a, eps1h = 0.0, -1
    for tau in (1.0, 3.0):
        h = 1e-5 * tau
        vals = [hamiltonian_u(algebraic_solution(tau + k * h, P1), a, P1)
                for k in (-1, 0, 1)]
        total = (vals[2] - vals[0]) / (2 * h)
        st = algebraic_solution(tau, P1)
        p, q = p_from_u(st, a, P1, eps1h), st.u
        k = a * 1j + 0.5
        partial = -p * p * q * q / tau**2 + 2.0 * eps1h * p * q * k / tau**2 \
            - k * k / (2.0 * tau**2)
        assert abs(total - partial) < 1e-6
