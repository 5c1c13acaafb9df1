"""Large-argument chart fitting and end-to-end connection verification."""

import cmath
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import sample_generic_charts
from dp3.asymptotics import large_tau_chart, u_large
from dp3.connection import _z_distance, fit_large_tau, verify_connection
from dp3.errors import ConditionViolationError
from dp3.monodromy import MonodromyPoint, from_branch
from dp3.ode import Trajectory, algebraic_solution, integrate_ray
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
    # the fit starts at nu + 1 = 0; the sampled points reach |nu + 1| ~ 0.28
    from dp3.connection import _z_distance
    from dp3.sampling import sample_manifold

    charts = [large_tau_chart(fit_point, 0, P1)]
    for pt in sample_manifold(seed=5, count=256, branch=1, nu_max=0.4):
        try:
            ch = large_tau_chart(pt, 0, P1)
        except ConditionViolationError:  # outside the valid strip
            continue
        if ch.special == "none":
            charts.append(ch)
    assert len(charts) > 200 and max(abs(ch.nu_plus_1) for ch in charts) > 0.25
    grid = np.linspace(100.0, 400.0, 300)
    theta = 3.0 * math.sqrt(3.0) * P1.abs_coupling ** (1.0 / 3.0) * grid ** (2.0 / 3.0)
    for ch in charts:
        fit = fit_large_tau(synthetic_trajectory(ch, grid), P1)
        assert not fit.special
        assert abs(fit.nu_plus_1 - ch.nu_plus_1) < 1e-8
        assert _z_distance(fit.z, ch.z) < 1e-8
        osc = np.exp(1j * theta + fit.nu_plus_1 * np.log(theta))
        basis = np.column_stack([osc, 1.0 / osc, theta ** -0.5, theta ** -1.5])
        assert fit.condition == pytest.approx(np.linalg.cond(basis), rel=1e-6)


def test_fit_singular_window_raises(fit_point):
    # six samples at one |tau|: the 4-column basis has rank 1
    ch = large_tau_chart(fit_point, 0, P1)
    with pytest.raises(ConditionViolationError, match="at least 4 distinct"):
        fit_large_tau(synthetic_trajectory(ch, np.full(6, 100.0)), P1)


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


def test_given_seed_is_integrated_once(monkeypatch):
    # a seed_state is one ray, whatever tau0_steps says; its rows carry
    # the |tau| that ray started from
    from dp3 import connection

    starts = []

    def counting(seed, *args, **kw):
        starts.append(abs(seed.tau))
        return integrate_ray(seed, *args, **kw)

    monkeypatch.setattr(connection, "integrate_ray", counting)
    pt = from_branch(1, 0.0, g11=1, g12=0, g21=0, g22=1)
    rep = verify_connection(pt, P1, tau0=0.02, tau1=100.0, tol=1e-11, tau0_steps=2,
                            tau1_steps=1, seed_state=algebraic_solution(0.01, P1))
    assert starts == [0.01]
    assert [row["tau0"] for row in rep.convergence_table] == [0.01]


def test_overflowing_step_counts_raise_before_integrating(fit_point, monkeypatch):
    # 2**(steps - 1) overflows a float from steps = 1025 on
    from dp3 import connection

    def no_integration(*args, **kw):
        raise AssertionError("integrate_ray must not run")

    monkeypatch.setattr(connection, "integrate_ray", no_integration)
    for name in ("tau0_steps", "tau1_steps"):
        for steps in (1100, 2000):
            with pytest.raises(ConditionViolationError, match=rf"{name} must be .*1024"):
                verify_connection(fit_point, P1, **{name: steps})


def test_small_chart_seed_written_once_in_source():
    # the library and the CLI seed a ray through the same connection helper
    from dp3 import connection

    src = Path(connection.__file__).resolve().parent
    hits = [p.name for p in sorted(src.glob("*.py")) for line in p.read_text().splitlines()
            if "du_small(" in line and p.name != "asymptotics.py"]
    assert hits == ["connection.py"]


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


# ------------------------------------------------- in-house least squares

def _criterion10_windows(count=3):
    """Fit windows of verify_connection (tau1 = 100, 200, 400) on rays
    seeded from criterion-10 points."""
    from dp3.asymptotics import du_small, small_tau_chart, u_small
    from dp3.connection import _theta_floor
    from dp3.ode import SolutionState, integrate_ray
    from dp3.sampling import sample_manifold

    windows = []
    for pt in sample_manifold(seed=97, count=80, branch=1, nu_max=0.08,
                              re_rho_max=0.15, abs_a_max=0.6, max_entry=20.0):
        sc = small_tau_chart(pt, 0, P1)
        if sc.log_mode or abs(sc.rho) < 0.02 or large_tau_chart(pt, 0, P1).special != "none":
            continue
        grids = [np.linspace(max(t1 / 8.0, _theta_floor(P1)), t1, 240)
                 for t1 in (100.0, 200.0, 400.0)]
        seed = SolutionState(0.02, u_small(sc, 0.02), du_small(sc, 0.02))
        traj = integrate_ray(seed, pt.a, P1, 400.0, tol=1e-10,
                             dense_at=np.concatenate(grids))
        for k in range(3):
            sl = slice(240 * k, 240 * (k + 1))
            windows.append(Trajectory(P1, pt.a, traj.tau[sl], traj.u[sl],
                                      traj.du[sl], None, traj.H[sl]))
        if len(windows) == 3 * count:
            return windows
    raise AssertionError("too few criterion-10 points")


def test_fit_matches_scipy_least_squares(monkeypatch):
    # the same objective minimised by MINPACK's Levenberg-Marquardt over
    # (Re, Im) of nu + 1 with a finite-difference Jacobian
    from scipy.optimize import least_squares as scipy_least_squares

    import dp3.connection as connection

    def scipy_lm(fun, x0):
        def stacked(x):
            r = fun(complex(x[0], x[1]))[0]
            return np.concatenate([r.real, r.imag])
        res = scipy_least_squares(stacked, [x0.real, x0.imag], method="lm",
                                  xtol=1e-14, ftol=1e-14)
        return connection.LeastSquaresResult(complex(res.x[0], res.x[1]), res.nfev)

    for window in _criterion10_windows():
        ours = fit_large_tau(window, P1, 0)
        with monkeypatch.context() as mp:
            mp.setattr(connection, "least_squares", scipy_lm)
            ref = fit_large_tau(window, P1, 0)
        assert not ours.special and not ref.special
        assert abs(ours.nu_plus_1 - ref.nu_plus_1) <= 1e-7
        assert abs(ours.z - ref.z) <= 1e-6
        assert ours.residual_norm <= ref.residual_norm * (1.0 + 1e-12)


class _Counted:
    """Residual-and-derivative function that records every call."""

    def __init__(self, fun):
        self.fun = fun
        self.calls = []

    def __call__(self, x):
        self.calls.append(x)
        return self.fun(x)


def test_least_squares_rejects_nonfinite_and_undefined_trials():
    from dp3.connection import least_squares

    # r = e^x - 1: the first Gauss-Newton-like step from x = -5 overshoots
    # to x ~ 140, where the residual is reported as NaN (or undefined)
    for bad in (np.array([math.nan]), None):
        def fun(x, bad=bad):
            if x.real > 10.0:
                return bad, None if bad is None else np.array([1.0])
            return np.array([cmath.exp(x) - 1.0]), np.array([cmath.exp(x)])

        counted = _Counted(fun)
        res = least_squares(counted, -5.0)
        assert any(x.real > 10.0 for x in counted.calls)
        assert abs(res.x) < 1e-7
        assert res.nfev == len(counted.calls) < 100


def test_least_squares_evaluation_cap():
    from dp3.connection import least_squares

    # r = x^2 converges only linearly, so neither tolerance stops it early
    counted = _Counted(lambda x: (np.array([x * x]), np.array([2.0 * x])))
    res = least_squares(counted, 1.0)
    assert res.nfev == len(counted.calls) == 100
    assert 0.0 < abs(res.x) < 1e-6


def test_least_squares_stops_at_once_on_a_vanishing_derivative():
    from dp3.connection import least_squares

    counted = _Counted(lambda x: (np.array([1.0, 2.0j]), np.zeros(2)))
    res = least_squares(counted, 0.3 + 0.4j)
    assert res.nfev == len(counted.calls) == 1
    assert res.x == 0.3 + 0.4j


def test_least_squares_counts_every_evaluation_in_fit(fit_point, monkeypatch):
    import dp3.connection as connection

    calls, results = [0], []
    inner = connection.least_squares

    def wrapped(fun, x0):
        def counted(x):
            calls[0] += 1
            return fun(x)
        res = inner(counted, x0)
        results.append(res)
        return res

    monkeypatch.setattr(connection, "least_squares", wrapped)
    ch = large_tau_chart(fit_point, 0, P1)
    fit_large_tau(synthetic_trajectory(ch, np.linspace(100.0, 400.0, 300)), P1)
    (res,) = results
    assert res.nfev == calls[0] >= 2


def test_fit_rejects_nonfinite_or_too_few_samples(fit_point):
    ch = large_tau_chart(fit_point, 0, P1)
    traj = synthetic_trajectory(ch, np.linspace(100.0, 400.0, 300))
    traj.u[17] = complex(math.nan, 0.0)
    with pytest.raises(ConditionViolationError):
        fit_large_tau(traj, P1)
    with pytest.raises(ConditionViolationError):
        fit_large_tau(synthetic_trajectory(ch, np.linspace(100.0, 400.0, 4)), P1)


def test_convergence_rows_keep_fit_diagnostics(fit_point):
    rep = verify_connection(fit_point, P1, tau0=0.02, tau1=200.0, tol=1e-10,
                            tau0_steps=1, tau1_steps=2)
    for row in json.loads(rep.to_json())["convergence_table"]:
        assert row["residual_norm"] > 0 and math.isfinite(row["residual_norm"])
        assert row["condition"] >= 1


def test_tau1_below_theta_floor_raises_before_integrating(fit_point, monkeypatch):
    # at |b| = 1 the floor is |tau| = 30.45, so three rungs need tau1 >= 121.8
    from dp3 import connection

    def no_integration(*args, **kw):
        raise AssertionError("integrate_ray must not run")

    monkeypatch.setattr(connection, "integrate_ray", no_integration)
    for tau1 in (20.0, 100.0):
        with pytest.raises(ConditionViolationError,
                           match=r"floor \|tau\| = 30\.45.*smallest admissible tau1 is 121\.8"):
            verify_connection(fit_point, P1, tau1=tau1)


def test_fit_window_below_floor_names_its_start(fit_point):
    ch = large_tau_chart(fit_point, 0, P1)
    traj = synthetic_trajectory(ch, np.linspace(25.0, 100.0, 50))
    with pytest.raises(ConditionViolationError,
                       match=r"starts at \|tau\| = 25 .* must start at \|tau\| >= 30\.45"):
        fit_large_tau(traj, P1)


def test_verify_connection_rejects_bad_arguments_before_integrating(fit_point, monkeypatch):
    import warnings

    from dp3 import connection

    def no_integration(*args, **kw):
        raise AssertionError("integrate_ray must not run")

    monkeypatch.setattr(connection, "integrate_ray", no_integration)
    bad = [({"tau0_steps": 1.5}, "tau0_steps")]
    bad += [({"tau0": 500.0, "tau1": 400.0}, "tau0 or raise tau1")]
    bad += [({k: v}, "tau0 and tau1") for k in ("tau0", "tau1")
            for v in (math.nan, math.inf, -math.inf)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kwargs, name in bad:
            with pytest.raises(ConditionViolationError, match=name):
                verify_connection(fit_point, P1, **kwargs)


def test_fitted_z_across_the_negative_real_axis_compares_on_the_predicted_branch():
    # sample_manifold(seed=11, count=200, branch=1, nu_max=0.4, re_rho_max=0.49,
    # abs_a_max=1.5, max_entry=50)[11]: predicted nu + 1 = -0.0757 - 0.0035i,
    # fitted -0.0657 + 0.0006i; on the principal sqrt branch err_z read 3.115
    pt = MonodromyPoint(
        a=(0.7812469218605314 - 0.44221060377087495j),
        s00=(-0.9648634722631406 + 1.1464580502585013j),
        s0inf=(1.9616966862667695 + 10.129001452211753j),
        s1inf=(-0.009083040809665285 + 0.1025800134976222j),
        g11=(0.6953772347844267 - 0.6019904497910247j),
        g12=(-0.8690508529526568 - 0.2630639193380453j),
        g21=(-0.005183153061532497 - 0.5140268456712703j),
        g22=(0.3957008938720827 + 0.9869278054919323j))
    rep = verify_connection(pt, EquationParams.make(1, 1.0), tau0=2e-4, tau1=400.0, tol=1e-10,
                            tau0_steps=1, tau1_steps=1)
    predicted, fitted = rep.predicted_nu_plus_1, rep.fitted_nu_plus_1
    assert predicted.real < 0 and fitted.real < 0 and predicted.imag * fitted.imag < 0
    assert rep.err_nu < 2e-2 and rep.err_z < 0.1
    assert rep.err_z == _z_distance(rep.fitted_z, rep.predicted_z)
    assert _z_distance(rep.fitted_z + 1j * math.pi, rep.predicted_z) > 3.0
