"""Large-argument chart fitting and end-to-end connection verification."""

import json

import numpy as np
import pytest

from conftest import sample_generic_charts
from dp3.asymptotics import large_tau_chart, u_large
from dp3.connection import fit_large_tau, verify_connection
from dp3.errors import ConditionViolationError
from dp3.monodromy import from_branch
from dp3.ode import Trajectory, algebraic_solution
from dp3.params import EquationParams

P1 = EquationParams.make(1, 1.0)


def synthetic_trajectory(chart, grid, params=P1, a=0.0):
    u = np.array([u_large(chart, m) for m in grid])
    zeros = np.zeros_like(u)
    return Trajectory(params, a, grid.astype(complex), u, zeros, None, zeros)


@pytest.fixture(scope="module")
def fit_point():
    g11, g12, g21 = 1.05, 0.21 + 0.1j, -0.15 + 0.05j
    g22 = (1 + g12 * g21) / g11
    return from_branch(1, 0.1 + 0.05j, g11=g11, g12=g12, g21=g21, g22=g22)


def test_fit_round_trip(fit_point):
    ch = large_tau_chart(fit_point, 0, P1)
    grid = np.linspace(100.0, 400.0, 300)
    fit = fit_large_tau(synthetic_trajectory(ch, grid), P1)
    assert not fit.special
    assert abs(fit.nu_plus_1 - ch.nu_plus_1) < 1e-8
    assert abs(fit.z - ch.z) < 1e-8


def test_fit_flags_algebraic_as_special():
    grid = np.linspace(100.0, 300.0, 200)
    u = np.array([algebraic_solution(m, P1).u for m in grid])
    zeros = np.zeros_like(u)
    traj = Trajectory(P1, 0.0, grid.astype(complex), u, zeros, None, zeros)
    fit = fit_large_tau(traj, P1)
    assert fit.special
    assert fit.oscillation_amplitude < 1e-10


def test_fit_requires_large_phase():
    ch_grid = np.linspace(1.0, 2.0, 50)
    u = np.array([algebraic_solution(m, P1).u for m in ch_grid])
    zeros = np.zeros_like(u)
    traj = Trajectory(P1, 0.0, ch_grid.astype(complex), u, zeros, None, zeros)
    with pytest.raises(ConditionViolationError):
        fit_large_tau(traj, P1)


def test_verify_connection_generic(fit_point):
    rep = verify_connection(fit_point, P1, tau0=0.02, tau1=400.0,
                            tol=1e-10, tau0_steps=1)
    assert rep.err_nu < 2e-2
    errs = [row["err_nu"] for row in rep.convergence_table]
    assert errs[-1] <= errs[0]
    payload = json.loads(rep.to_json())
    assert set(payload) == {"predicted", "fitted", "abs_errors",
                            "oscillation_amplitude", "convergence_table"}
    assert len(payload["convergence_table"]) == 3


def test_verify_connection_error_decreases_with_tau1(unit_params):
    pts = sample_generic_charts(55, 3, unit_params, nu_max=0.07, require_rho=True)
    hits = 0
    for pt in pts:
        try:
            rep = verify_connection(pt, unit_params, tau0=0.02, tau1=400.0,
                                    tol=1e-10, tau0_steps=1)
        except Exception:
            continue
        errs = [row["err_nu"] for row in rep.convergence_table]
        if errs[2] <= errs[0]:
            hits += 1
    assert hits >= 2


def test_backlund_solution_and_monodromy_maps_compatible():
    # shifting the distinguished point's monodromy data and fitting the
    # stepped solution's trajectory predict the same leading asymptotics
    from dp3.backlund import backlund_step
    from dp3.monodromy import backlund_monodromy

    pt = from_branch(1, 0.0, g11=1, g12=0, g21=0, g22=1)
    pt_up = backlund_monodromy(pt, "up")
    ch_up = large_tau_chart(pt_up, 0, P1)
    assert ch_up.special != "none" and ch_up.nu_plus_1 == 0

    from dp3.ode import integrate_ray
    seed, a1 = backlund_step(algebraic_solution(0.5, P1), 0.0, P1, "up")
    assert a1 == pt_up.a
    grid = np.linspace(60.0, 150.0, 120)
    traj = integrate_ray(seed, a1, P1, 150.0, tol=1e-11, dense_at=grid)
    fit = fit_large_tau(traj, P1)
    assert abs(fit.nu_plus_1 - ch_up.nu_plus_1) < 2e-2


def test_log_mode_seed_connects_to_large_chart():
    # the logarithmic small-argument branch seeds the same solution the
    # large-argument chart predicts
    import cmath
    import math

    from dp3.asymptotics import du_small, small_tau_chart, u_small
    from dp3.ode import SolutionState, integrate_ray

    a = 0.3j
    g12 = 2j - 1j * cmath.exp(-math.pi * a)
    pt = from_branch(1, a, g11=1.0, g12=g12, g21=0.0, g22=1.0)
    sc = small_tau_chart(pt, 0, P1)
    assert sc.log_mode
    lc = large_tau_chart(pt, 0, P1)
    t0 = 1e-3
    seed = SolutionState(t0, u_small(sc, t0), du_small(sc, t0))
    grid = np.linspace(120.0, 240.0, 3)
    traj = integrate_ray(seed, pt.a, P1, 240.0, tol=1e-11, dense_at=grid)
    from dp3.asymptotics import u_large
    for m, u_num in zip(grid, traj.u):
        assert abs(u_num - u_large(lc, m)) < 5e-2


def test_verify_connection_rejects_invalid_chart():
    # the strip bound fails for this point on the positive ray
    import cmath
    import math
    g11 = 2.0 * cmath.exp(0.8j * math.pi)
    g22 = 0.5 * cmath.exp(0.8j * math.pi)
    g12 = 0.5 + 0j
    g21 = (g11 * g22 - 1.0) / g12
    pt = from_branch(1, 0.0, g11=g11, g12=g12, g21=g21, g22=g22)
    with pytest.raises(ConditionViolationError):
        verify_connection(pt, P1, tau0=0.02, tau1=100.0, tau0_steps=1,
                          tau1_steps=1)


def test_verify_connection_rejects_empty_table(fit_point):
    for steps in ({"tau0_steps": 0}, {"tau1_steps": 0}):
        with pytest.raises(ConditionViolationError):
            verify_connection(fit_point, P1, **steps)


def test_verify_connection_algebraic_point():
    # exact-solution oracle: seed with the closed form itself, so only the
    # large-argument side is under test
    pt = from_branch(1, 0.0, g11=1, g12=0, g21=0, g22=1)
    seed = algebraic_solution(0.01, P1)
    rep = verify_connection(pt, P1, tau0=0.01, tau1=100.0, tol=1e-11,
                            tau0_steps=1, tau1_steps=1, seed_state=seed)
    assert rep.oscillation_amplitude < 1e-6
    assert rep.fitted_z is None  # flagged special: no oscillation to fit


def test_verify_connection_small_seed_amplitude_scales_with_tau0():
    # seeding from the truncated small-argument expansion excites a real
    # oscillation proportional to the dropped corrections at tau0
    pt = from_branch(1, 0.0, g11=1, g12=0, g21=0, g22=1)
    amps = []
    for t0 in (0.01, 0.001):
        rep = verify_connection(pt, P1, tau0=t0, tau1=100.0, tol=1e-11,
                                tau0_steps=1, tau1_steps=1)
        amps.append(rep.oscillation_amplitude)
    assert amps[1] < 0.2 * amps[0]
