"""The equation fused into the generated DOP853 kernels: the fused stages,
the bound right-hand side and ``integrate_ray`` give the same floats as the
generic kernels driven by a Python closure of the equation."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dp3 import ode
from dp3.errors import SingularityError
from dp3.ode import _DDU, _GENERIC, _RAY, _kernels, _ray_constants, integrate_ray
from dp3.params import EquationParams
from test_ode import P1, crit10_seed


def closure_rhs(phase, a, params, with_phi):
    """``integrate_ray``'s right-hand side before the fusion, with the
    equation written out."""
    def rhs(s, y):
        tau = phase * s
        u, du = y[0], y[1]
        if u == 0:
            raise SingularityError(f"u vanished at |tau| = {s}")
        ddu = du * du / u - du / tau + (-8.0 * params.eps * u * u + 2.0 * a * params.b) / tau \
            + params.b**2 / u
        if with_phi:
            return phase * du, phase * ddu, phase * (2.0 * a / tau + params.b / u)
        return phase * du, phase * ddu
    return rhs


def bits(*values) -> bytes:
    return b"".join(np.asarray(v, dtype=complex).tobytes() for v in values)


def bind(n, phase, a, params):
    return _kernels(_RAY, n)(phase, *_ray_constants(a, params), 2.0 * a, params.b)


def test_fused_kernels_equal_generic_kernels():
    rng = np.random.default_rng(3)

    def cplx(size):
        return (rng.normal(size=size) + 1j * rng.normal(size=size)).tolist()

    for n in (2, 3):
        for phase in (1.0 + 0j, -1.0 + 0j, 1j, -1j):
            for eps in (1, -1):
                b = float(rng.uniform(-3.0, 3.0))
                params = EquationParams.make(eps, b)
                a = complex(*rng.normal(size=2))
                fun = closure_rhs(phase, a, params, n == 3)
                _, step, interpolant = _kernels(_GENERIC, n)(fun)
                rhs, fused_step, fused_interpolant = bind(n, phase, a, params)
                for t, h in zip(rng.uniform(0.5, 5.0, 4).tolist(),
                                rng.uniform(-0.3, 0.3, 4).tolist()):
                    y = cplx(n)
                    f = fun(t, y)
                    assert bits(rhs(t, y)) == bits(f)
                    y_new, err5, err3, ks = step(t, h, y, f, 1e-13, 1e-10)
                    fy_new, ferr5, ferr3, fks = fused_step(t, h, y, f, 1e-13, 1e-10)
                    assert bits(y_new, [err5, err3], ks) == bits(fy_new, [ferr5, ferr3], fks)
                    f_new = fun(t + h, y_new)
                    assert bits(rhs(t + h, y_new)) == bits(f_new)
                    coeffs = interpolant(t, h, y, y_new, f_new, ks)
                    assert bits(coeffs) == bits(fused_interpolant(t, h, y, y_new, f_new, ks))


def test_fused_stage_at_u_zero_raises_same_error():
    # stage 1 reads u = y0 + h * (a_10 * k0_0): zero for k0_0 = 1, h = 1
    a = 0.3 + 0.1j
    y, f = [-ode._A_NONZERO[0][0] + 0j, 1.0 + 0j], (1.0 + 0j, 0.5 + 0j)
    _, step, _ = _kernels(_GENERIC, 2)(closure_rhs(1.0 + 0j, a, P1, False))
    with pytest.raises(SingularityError) as generic:
        step(2.0, 1.0, y, f, 1e-13, 1e-10)
    rhs, fused_step, _ = bind(2, 1.0 + 0j, a, P1)
    with pytest.raises(SingularityError) as fused:
        fused_step(2.0, 1.0, y, f, 1e-13, 1e-10)
    assert str(fused.value) == str(generic.value) == f"u vanished at |tau| = {2.0 + ode._C[1]}"
    with pytest.raises(SingularityError, match=r"u vanished at \|tau\| = 2\.0$"):
        rhs(2.0, [0j, 1.0 + 0j])


@pytest.mark.parametrize("with_phi", [False, True])
def test_integrate_ray_equals_closure_driven_stepper(with_phi):
    seed, a = crit10_seed()
    if with_phi:
        seed = ode.SolutionState(seed.tau, seed.u, seed.du, 0.25 - 0.5j)
    y0 = [seed.u, seed.du] + ([seed.phi] if with_phi else [])
    fun = closure_rhs(1.0 + 0j, a, P1, with_phi)
    grid = np.concatenate([np.linspace(50.0, 100.0, 60), np.linspace(80.0, 20.0, 30)])
    for dense in (None, grid):
        traj = integrate_ray(seed, a, P1, 100.0, tol=1e-10, dense_at=dense)
        sol = ode.solve_ivp(_kernels(_GENERIC, len(y0))(fun), (0.02, 100.0), y0, rtol=1e-10,
                            atol=1e-13, dense_at=dense, bounds=(1e-8, 1e8))
        s = sol.t if dense is None else dense
        phase = seed.tau / abs(seed.tau)
        assert bits(traj.tau, traj.u, traj.du) == bits(phase * s, sol.y[0], sol.y[1])
        if with_phi:
            assert bits(traj.phi) == bits(sol.y[2])
        assert (traj.nsteps, traj.nfev) == (sol.t.size - 1, sol.nfev)


def test_ddu_equals_written_out_equation():
    rng = np.random.default_rng(5)
    for params in (P1, EquationParams.make(-1, 2.5), EquationParams.make(1, -0.7)):
        a = complex(*rng.normal(size=2))
        tau, u, du = (rng.normal(size=16) + 1j * rng.normal(size=16) for _ in range(3))
        ref = du * du / u - du / tau + (-8.0 * params.eps * u * u + 2.0 * a * params.b) / tau \
            + params.b**2 / u
        assert bits(ode._ddu(tau, u, du, a, params)) == bits(ref)
        for k in range(16):
            t, x, d = complex(tau[k]), complex(u[k]), complex(du[k])
            one = d * d / x - d / t + (-8.0 * params.eps * x * x + 2.0 * a * params.b) / t \
                + params.b**2 / x
            assert bits(ode._ddu(t, x, d, a, params)) == bits(one)


def test_equation_written_once_in_source():
    src = Path(ode.__file__).resolve().parent
    hits = [p.name for p in sorted(src.glob("*.py")) for line in p.read_text().splitlines()
            if "du * du / u" in line]
    assert hits == ["ode.py"] and "du * du / u" in _DDU


def test_integrating_generates_only_fused_kernels():
    src = Path(ode.__file__).resolve().parents[1]
    code = ("import dp3.cli, dp3.ode as o; p = o.EquationParams.make(1, 1.0); "
            "print(list(o._KERNELS)); "
            "o.integrate_ray(o.algebraic_solution(1.0, p), 0.0, p, 2.0); "
            "print(list(o._KERNELS) == [(o._RAY, 2)])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src, timeout=60)
    assert out.stdout.split("\n")[:2] == ["[]", "True"]
