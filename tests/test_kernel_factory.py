"""The DOP853 kernel generator is general: a toy right-hand side written as
its own record gives the same floats as the generic kernels driven by the
equivalent closure."""

import numpy as np
import pytest

from dp3 import ode
from dp3.errors import SingularityError

# y' = lam * y, with lam bound by bind(lam)
LINEAR = ode._System("lam", lambda outs, s, args: [f"x = {args[0]}", f"{outs[0]} = lam * x"],
                     "")
# y' = lam / y, whose division by zero the guard names
RECIPROCAL = ode._System("lam", lambda outs, s, args: [f"s = {s}", f"x = {args[0]}",
                                                        f"{outs[0]} = lam / x"],
                         "y vanished at s = {s}")


def linear(lam):
    return lambda s, y: (lam * y[0],)


def reciprocal(lam):
    def fun(s, y):
        if y[0] == 0:
            raise SingularityError(f"y vanished at s = {s}")
        return (lam / y[0],)
    return fun


def bits(*values) -> bytes:
    return b"".join(np.asarray(v, dtype=complex).tobytes() for v in values)


@pytest.mark.parametrize("system, closure", [(LINEAR, linear), (RECIPROCAL, reciprocal)],
                         ids=["linear", "reciprocal"])
def test_toy_record_equals_generic_kernels(system, closure):
    rng = np.random.default_rng(7)
    for _ in range(24):
        lam = complex(*rng.normal(size=2))
        fun = closure(lam)
        _, step, interpolant = ode._kernels(ode._GENERIC, 1)(fun)
        rhs, toy_step, toy_interpolant = ode._kernels(system, 1)(lam)
        t, h = rng.uniform(-3.0, 3.0), rng.uniform(-0.5, 0.5)
        y = [complex(*rng.normal(size=2))]
        f = fun(t, y)
        assert bits(rhs(t, y)) == bits(f)
        y_new, err5, err3, ks = step(t, h, y, f, 1e-13, 1e-10)
        ty_new, terr5, terr3, tks = toy_step(t, h, y, f, 1e-13, 1e-10)
        assert bits(y_new, [err5, err3], ks) == bits(ty_new, [terr5, terr3], tks)
        f_new = fun(t + h, y_new)
        assert bits(rhs(t + h, y_new)) == bits(f_new)
        coeffs = interpolant(t, h, y, y_new, f_new, ks)
        assert bits(coeffs) == bits(toy_interpolant(t, h, y, y_new, f_new, ks))


def test_toy_record_guard_names_the_stage():
    # stage 1 reads y0 + h * (a_10 * k0_0): zero for k0_0 = 1, h = 1
    y, f = [-ode._A_NONZERO[0][0] + 0j], (1.0 + 0j,)
    _, step, _ = ode._kernels(ode._GENERIC, 1)(reciprocal(0.5j))
    with pytest.raises(SingularityError) as generic:
        step(2.0, 1.0, y, f, 1e-13, 1e-10)
    rhs, toy_step, _ = ode._kernels(RECIPROCAL, 1)(0.5j)
    with pytest.raises(SingularityError) as toy:
        toy_step(2.0, 1.0, y, f, 1e-13, 1e-10)
    assert str(toy.value) == str(generic.value) == f"y vanished at s = {2.0 + ode._C[1]}"
    with pytest.raises(SingularityError, match=r"y vanished at s = 2\.0$"):
        rhs(2.0, [0j])


def test_linear_record_integrates_the_exponential():
    kernels = ode._kernels(LINEAR, 1)(-0.5 + 2.0j)
    grid = np.linspace(0.0, 3.0, 13)
    sol = ode.solve_ivp(kernels, (0.0, 3.0), [1.0 + 0j], rtol=1e-11, atol=1e-14, dense_at=grid)
    assert sol.status == 0
    assert np.max(np.abs(sol.y[0] - np.exp((-0.5 + 2.0j) * grid))) < 1e-9
