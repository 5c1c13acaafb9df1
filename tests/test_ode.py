"""Equation right-hand side, ray integration, Hamiltonians in all three
coordinate systems, conversions, and finite-difference residual checks."""

import math
import subprocess
import sys
from operator import mul
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


def test_params_reject_nonfinite_b():
    for b in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConditionViolationError):
            EquationParams.make(1, b)


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


def test_dense_at_outside_span_raises():
    # the interpolant was extrapolated here, with errors 5.1e-3 and 0.89
    # against the exact solution
    seed = algebraic_solution(1.0, P1)
    for outside in (0.2, 9.0):
        with pytest.raises(ConditionViolationError):
            integrate_ray(seed, 0.0, P1, 5.0, dense_at=np.array([2.0, outside]))
    traj = integrate_ray(seed, 0.0, P1, 5.0, dense_at=np.linspace(1.0, 5.0, 9))
    assert abs(traj.u[-1] - algebraic_solution(5.0, P1).u) < 1e-9


def test_integrate_overflowing_seed_raises():
    # u'' overflows at the seed; the stepper must stop, not loop
    with pytest.raises(IntegrationFailureError):
        integrate_ray(SolutionState(1.0, 1.0 + 0j, 1e200 + 0j), 0.0, P1, 2.0)


def test_stepper_nonfinite_error_stops():
    def rhs(t, y):
        return (complex(math.nan, 0.0) if t > 1.5 else 1j,)

    sol = ode.solve_ivp(ode._kernels(ode._GENERIC, 1)(rhs), (1.0, 2.0), [1.0 + 0j],
                        rtol=1e-10, atol=1e-13)
    assert sol.status == -1 and sol.message == "non-finite error estimate"
    assert 1.0 <= sol.t_fail < 1.5


def test_stepper_stalls_at_a_jump():
    # the derivative jumps from 0 to 1e300 at t = 1.5: every step across
    # the jump is rejected until the step falls below 10 ulp of t
    def rhs(t, y):
        return (0j if t < 1.5 else 1e300 + 0j,)

    sol = ode.solve_ivp(ode._kernels(ode._GENERIC, 1)(rhs), (1.0, 2.0), [1.0 + 0j],
                        rtol=1e-10, atol=1e-13)
    assert sol.status == -1 and sol.message == "integrator stalled"
    assert sol.t_fail == 1.4999999999999967


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
    ours = ode.solve_ivp(ode._kernels(ode._GENERIC, 2)(rhs), (0.02, 50.0), [seed.u, seed.du],
                         rtol=1e-10, atol=1e-13, dense_at=grid)
    ref = solve_ivp(lambda s, y: np.asarray(rhs(s, y)), (0.02, 50.0),
                    np.array([seed.u, seed.du]), method="DOP853", rtol=1e-10,
                    atol=1e-13, dense_output=True)
    assert ours.status == 0 and ref.success
    assert ours.t.size == ref.t.size
    assert np.allclose(ours.t, ref.t, rtol=1e-7, atol=0.0)
    assert np.allclose(ours.y, ref.sol(grid), rtol=1e-9, atol=0.0)

    # a zero derivative takes the initial-step rule's other branch (a first
    # step of 1e-6, then each step grows by the factor cap of 10): the same
    # steps exactly
    def zero(s, y):
        return (0j,)

    ours = ode.solve_ivp(ode._kernels(ode._GENERIC, 1)(zero), (1.0, 2.0), [1.0 + 0j],
                         rtol=1e-10, atol=1e-13)
    ref = solve_ivp(lambda s, y: np.zeros(1, dtype=complex), (1.0, 2.0),
                    np.array([1.0 + 0j]), method="DOP853", rtol=1e-10, atol=1e-13)
    assert ours.status == 0 and ref.success
    assert ours.t.size == 8 and ours.t.tolist() == ref.t.tolist()


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


def test_step_budget_stops_an_ordinary_ray(monkeypatch):
    seed, a = crit10_seed()
    full = integrate_ray(seed, a, P1, 400.0, tol=1e-10)
    assert 50 < full.nsteps < ode._MAX_STEPS
    monkeypatch.setattr(ode, "_MAX_STEPS", 50)
    with pytest.raises(IntegrationFailureError, match="step budget of 50") as exc:
        integrate_ray(seed, a, P1, 400.0, tol=1e-10)
    # stopped at the 50th accepted step of the same ray
    assert exc.value.tau_abs == pytest.approx(abs(full.tau[50]), rel=1e-12)
    assert abs(seed.tau) < exc.value.tau_abs < 400.0
    assert str(exc.value).endswith(f"near |tau| = {exc.value.tau_abs:.6g}")


def test_trajectory_records_solver_counts(monkeypatch):
    original, results = ode.solve_ivp, []

    def recording(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(ode, "solve_ivp", recording)
    seed, a = crit10_seed()
    for dense in (None, np.linspace(10.0, 20.0, 30)):
        traj = integrate_ray(seed, a, P1, 20.0, tol=1e-10, dense_at=dense)
        sol = results[-1]
        assert traj.nsteps == sol.t.size - 1 > 0 and traj.nfev == sol.nfev > 0
    # the positional form verify_connection builds its fit windows with
    window = ode.Trajectory(P1, a, traj.tau, traj.u, traj.du, None, traj.H)
    assert window.nsteps == window.nfev == 0


def _dense_dop853(fun, t, h, y, f, atol, rtol):
    """One step and its interpolant by the dense formula y + h sum_j a_sj K_j
    over every coefficient of ode's tableau, zeros included."""
    rows = [{}] + list(ode._A_NONZERO)  # rows[s] holds row s

    def dense(row, size):
        return [row.get(j, 0.0) for j in range(size)]

    cols = [[fi] for fi in f]

    def combine(s):
        return [yi + h * sum(map(mul, dense(rows[s], s), col)) for yi, col in zip(y, cols)]

    def add_stage(s):
        for col, k in zip(cols, fun(t + ode._C[s] * h, combine(s))):
            col.append(k)

    for s in range(1, 12):
        add_stage(s)
    y_new = combine(12)
    e5_row = dense(ode._E5_NONZERO, 12)
    e3_row = [w - ode._E3_SHIFT.get(j, 0.0) for j, w in enumerate(dense(rows[12], 12))]
    err5 = err3 = 0.0
    for yi, yn, col in zip(y, y_new, cols):
        sc = atol + max(abs(yi), abs(yn)) * rtol
        e5 = abs(sum(map(mul, e5_row, col))) / sc
        e3 = abs(sum(map(mul, e3_row, col))) / sc
        err5 += e5 * e5
        err3 += e3 * e3
    f_new = fun(t + h, y_new)
    for col, k in zip(cols, f_new):
        col.append(k)
    for s in range(13, 16):
        add_stage(s)
    coeffs = [(yn - yi, h * col[0] - (yn - yi), 2.0 * (yn - yi) - h * (col[12] + col[0]),
               *(h * sum(map(mul, dense(d, 16), col)) for d in ode._D_NONZERO))
              for yi, yn, col in zip(y, y_new, cols)]
    return y_new, err5, err3, f_new, coeffs


def test_generated_kernels_equal_dense_formula():
    rng = np.random.default_rng(11)

    def cplx(*shape):
        return (rng.normal(size=shape) + 1j * rng.normal(size=shape)).tolist()

    for n in (1, 2, 3):
        m, c = cplx(n, n), cplx(n)

        def fun(t, y):
            return tuple(sum(mij * yj for mij, yj in zip(mi, y)) + ci * t + y[i] * y[i - 1] / 4
                         for i, (mi, ci) in enumerate(zip(m, c)))

        _, step, interpolant = ode._kernels(ode._GENERIC, n)(fun)
        for t, h in rng.uniform(-1.0, 1.0, size=(8, 2)).tolist():
            y = cplx(n)
            f = fun(t, y)
            y_new, err5, err3, ks = step(t, h, y, f, 1e-13, 1e-10)
            ref_y, ref_err5, ref_err3, f_new, ref_coeffs = _dense_dop853(
                fun, t, h, y, f, 1e-13, 1e-10)
            assert list(y_new) == ref_y and (err5, err3) == (ref_err5, ref_err3)
            assert interpolant(t, h, y, y_new, f_new, ks) == ref_coeffs


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


def test_import_leaves_all_of_scipy_unloaded():
    src = Path(ode.__file__).resolve().parents[1]
    code = ("import sys, dp3.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src, timeout=60)
    assert out.stdout.strip() == "[]"


def test_import_generates_no_kernels():
    # a CLI child that never integrates must not pay for kernel generation
    src = Path(ode.__file__).resolve().parents[1]
    code = "import dp3.cli, dp3.ode; print(len(dp3.ode._KERNELS))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src, timeout=60)
    assert out.stdout.strip() == "0"


# ----------------------------------------------------------- Hamiltonians

def test_trajectory_H_matches_hamiltonian_u_per_sample():
    pt = sample_manifold(seed=5, count=1, branch=1, nu_max=0.1)[0]
    sc = small_tau_chart(pt, 0, P1)
    seed = SolutionState(0.05, u_small(sc, 0.05), du_small(sc, 0.05))
    for dense in (None, np.linspace(0.05, 30.0, 120)):
        traj = integrate_ray(seed, pt.a, P1, 30.0, tol=1e-10, dense_at=dense)
        per_sample = np.array([hamiltonian_u(SolutionState(complex(t), complex(u), complex(du)),
                                             pt.a, P1)
                               for t, u, du in zip(traj.tau, traj.u, traj.du)])
        assert np.max(np.abs(traj.H - per_sample) / np.abs(per_sample)) <= 1e-14


def test_hamiltonian_hand_value():
    st = algebraic_solution(1.0, P1)
    H = hamiltonian_u(st, 0.0, P1)
    assert abs(H - (209.0 / 72.0 - 1j)) < 1e-14


def test_hamiltonian_matches_canonical_channel():
    for tau in (0.7, 1.0, 2.3):
        st = algebraic_solution(tau, P1)
        p = p_from_u(st, 0.0, P1)
        assert abs(hamiltonian_pq(p, st.u, tau, 0.0, P1)
                   - hamiltonian_u(st, 0.0, P1)) < 1e-13


def test_p_from_u_hand_value():
    st = algebraic_solution(1.0, P1)
    p = p_from_u(st, 0.0, P1)
    assert abs(p - (-2.0 / 3.0 - 2.0j)) < 1e-14


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
    a = 0.0
    st = algebraic_solution(1.0, P1)
    p0 = p_from_u(st, a, P1)

    def rhs(t, y):
        dp, dq = hamiltonian_system_rhs(y[0], y[1], t, a, P1)
        return [dp, dq]

    sol = solve_ivp(rhs, (1.0, 10.0), np.array([p0, st.u], dtype=complex),
                    rtol=1e-11, atol=1e-13, dense_output=True)
    assert sol.success
    for t in np.linspace(1.0, 10.0, 19):
        q = sol.sol(t)[1]
        assert abs(q - algebraic_solution(t, P1).u) < 1e-8


def test_hamiltonian_system_derivative_identity():
    st = algebraic_solution(1.0, P1)
    p0 = p_from_u(st, 0.0, P1)
    _, dq = hamiltonian_system_rhs(p0, st.u, 1.0, 0.0, P1)
    assert abs(dq - 1.0 / 6.0) < 1e-12


@pytest.mark.parametrize("params, shift", [
    (P1, 0.0), (EquationParams.make(-1, 2.0), 1j), (EquationParams.make(1, -1.0, -1), 1j),
], ids=["eps-b-positive", "eps-b-negative", "eps-b-negative-eps2-minus"])
def test_channel_generates_the_equation_at_its_sector_a(params, shift):
    # Hamilton's equations from p_from_u against the u-flow, whose dp/dtau is
    # a finite difference of p along the flow's tangent (1, u', u''): the
    # flow at a when eps b > 0, at a + i when eps b < 0 (k = i a - 1/2)
    a = 0.3 + 0.2j
    st = SolutionState(0.5, 0.7 - 0.4j, 0.2 + 0.9j)
    dp, dq = hamiltonian_system_rhs(p_from_u(st, a, params), st.u, st.tau, a, params)

    def flow_dp(a_flow):
        du, ddu = ode.dp3_rhs(st, a_flow, params)
        h = 1e-3
        p = [p_from_u(SolutionState(st.tau + k * h, st.u + k * h * du, st.du + k * h * ddu),
                      a, params) for k in (-2, -1, 1, 2)]
        return (p[0] - 8.0 * p[1] + 8.0 * p[2] - p[3]) / (12.0 * h)

    assert abs(dq - st.du) < 1e-12
    assert abs(dp - flow_dp(a + shift)) < 1e-8
    assert abs(dp - flow_dp(a + 1j - shift)) > 0.5  # the other a is off by order 1


def test_hamiltonian_total_vs_partial_time_derivative():
    # along the flow dH/dtau equals the explicit partial derivative
    a, eps1h = 0.0, -1

    def pq(tau):
        st = algebraic_solution(tau, P1)
        return p_from_u(st, a, P1), st.u

    for tau in (1.0, 2.5):
        h = 1e-5 * tau
        vals = [hamiltonian_pq(*pq(tau + k * h), tau + k * h, a, P1)
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
        p, q = p_from_u(st, a, P1), st.u
        k = a * 1j + 0.5
        partial = -p * p * q * q / tau**2 + 2.0 * eps1h * p * q * k / tau**2 \
            - k * k / (2.0 * tau**2)
        assert abs(total - partial) < 1e-6


def test_algebraic_solution_singular_at_zero():
    with pytest.raises(SingularityError):
        algebraic_solution(0.0, P1)
    with pytest.raises(SingularityError):
        algebraic_solution(0j, P1, with_phi=True)


def test_trajectory_records_solver_statistics():
    seed, a = crit10_seed()
    steps = integrate_ray(seed, a, P1, 60.0, tol=1e-10)
    h = np.abs(np.diff(np.abs(steps.tau)))
    assert (steps.h_min, steps.h_max) == (h.min(), h.max()) and 0 < h.min() < h.max()
    u_abs = [abs(complex(u)) for u in steps.u]  # numpy's abs can differ by an ulp
    assert (steps.u_abs_min, steps.u_abs_max) == (min(u_abs), max(u_abs))
    assert steps.wall_s > 0
    # the dense samples come from the same steps, so the statistics agree
    dense = integrate_ray(seed, a, P1, 60.0, tol=1e-10, dense_at=np.linspace(30.0, 60.0, 7))
    for name in ("nsteps", "h_min", "h_max", "u_abs_min", "u_abs_max"):
        assert getattr(dense, name) == getattr(steps, name), name
    # kept out of the CSV dump; hand-built windows carry the defaults
    assert trajectory_to_csv(steps).splitlines()[0].count(",") == 9
    window = ode.Trajectory(P1, a, steps.tau, steps.u, steps.du, None, steps.H)
    assert (window.h_min, window.h_max, window.u_abs_min, window.u_abs_max,
            window.wall_s) == (0.0, 0.0, 0.0, 0.0, 0.0)


def test_seed_outside_the_u_bounds_raises_before_any_step(monkeypatch):
    # this seed read "|u| left [1e-08, 1e+08] near |tau| = 0.5; the ray hits a
    # zero or pole of the solution", an IntegrationFailureError
    monkeypatch.setattr(ode, "solve_ivp", None)  # any step would call it
    for u0 in (1e-10, 3e8 + 4e8j):
        with pytest.raises(ConditionViolationError) as exc:
            integrate_ray(SolutionState(0.5, u0, 1e-3), 0.0, P1, 2.0)
        assert str(exc.value) == (f"the seed's |u(tau0)| = {abs(u0):.6g} lies outside "
                                  "the fixed |u| bounds [1e-08, 1e+08]")
