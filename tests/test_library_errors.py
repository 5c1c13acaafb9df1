"""Properties over the library entry points: on any point of eight finite
complex coordinates (off the manifold, zero or huge), the charts, their
evaluators, the group actions, the manifold and cyclic residuals, the
imaginary-ray values, the cross-ray residuals and ``rho_from`` return
finite values or raise a ``DP3Error``; so do the Hamiltonian family and
the conversions on any finite state or (p, q), and the tau-function form
on any small-argument chart.  ``theta_phase`` returns a positive float
for a positive finite magnitude and raises for any other, and
``nu_plus_1_of`` is finite or raises on any pair of coordinates.  The
special functions, the algebraic solution and ``stokes_structure`` are
finite or raise on any complex argument, infinite and NaN ones included.
The equation's right-hand side, the Backlund step and the grid residual
are finite or raise on any finite state, and ``from_branch`` on any set of
free coordinates, missing ones included.
"""

import cmath
import math

import numpy as np
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from dp3.asymptotics import (
    H_large,
    H_small,
    cross_ray_residuals,
    du_small,
    large_tau_chart,
    nu_plus_1_of,
    small_tau_chart,
    tau_function_asymptotic,
    theta_phase,
    u_imag,
    u_large,
    u_small,
)
from dp3.backlund import backlund_step
from dp3.errors import DP3Error
from dp3.monodromy import (
    MonodromyPoint,
    apply_F,
    apply_Fhat,
    cyclic_residuals,
    from_branch,
    lie_point_monodromy,
    manifold_residual,
    rho_from,
    stokes_structure,
)
from dp3.ode import (
    SolutionState,
    algebraic_solution,
    dp3_rhs,
    hamiltonian_abcd,
    hamiltonian_pq,
    hamiltonian_system_rhs,
    hamiltonian_u,
    p_from_u,
    residual_on_grid,
    sigma_and_f,
    to_abcd,
)
from dp3.params import EquationParams
from dp3.specfun import digamma, gamma, ln_gamma

SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e20, 1e150, 1e300, -1e300, 700.0, -700.0)
REAL = st.one_of(st.sampled_from(SPECIAL), st.floats(-3.0, 3.0),
                 st.floats(allow_nan=False, allow_infinity=False))
COORD = st.builds(complex, REAL, REAL)
POINT = st.builds(MonodromyPoint, *[COORD] * 8)
PARAMS = st.builds(EquationParams.make, st.sampled_from((1, -1)),
                   st.sampled_from((1.0, -1.0, 0.3, 5.0, 1e-200, 1e150)))
SIGN = st.sampled_from((0, 1, -1))
PM = st.sampled_from((1, -1))
KIND = st.sampled_from(("negate_tau", "negate_a", "rotate_tau"))
REGIME = st.sampled_from(("large", "small"))
TAU = st.one_of(st.sampled_from((1e-300, 1e-3, 0.5, 1.0, 50.0, 1e6, 1e300)),
                st.floats(min_value=1e-300, max_value=1e300))
STATE = st.builds(SolutionState, COORD, COORD, COORD, st.one_of(st.none(), COORD))


def finite(value) -> bool:
    """A number, every number in a sequence or an array, or every number
    field of a point or a chart, is finite."""
    numbers = (complex, float, int)
    if isinstance(value, numbers):
        return cmath.isfinite(value)
    if isinstance(value, (tuple, list, np.ndarray)):
        return all(finite(complex(v)) for v in value)
    return all(cmath.isfinite(v) for v in vars(value).values() if isinstance(v, numbers))


def call(fn, *args):
    """``fn(*args)`` if it returns finite values, ``None`` if it raises a
    ``DP3Error``; any other outcome fails the property."""
    try:
        value = fn(*args)
    except DP3Error:
        return None
    assert finite(value), (fn.__name__, args, value)
    return value


# no explain phase: its line tracing makes a failing run slow and large
@settings(max_examples=200, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(POINT, PARAMS, SIGN, SIGN, TAU, PM, PM, KIND, REGIME)
def test_entry_points_return_finite_values_or_raise_typed_errors(
        pt, params, eps1, eps2, tau, p, l, kind, regime):
    call(apply_F, pt, eps1, eps2)
    call(apply_Fhat, pt, p, eps2)
    call(lie_point_monodromy, pt, kind, p, l)
    call(manifold_residual, pt)
    call(cyclic_residuals, pt)
    call(cross_ray_residuals, pt)
    call(u_imag, pt, l, params, tau, regime)
    call(rho_from, pt)
    large = call(large_tau_chart, pt, eps1, params)
    if large is not None:
        for fn in (u_large, H_large):
            call(fn, large, tau)
    small = call(small_tau_chart, pt, eps1, params)
    if small is not None:
        for fn in (u_small, du_small, H_small):
            call(fn, small, tau)


PARAMS_1 = EquationParams.make(1, 1.0)


def _branch1(a: complex) -> MonodromyPoint:
    g11, g12, g21 = 1.05, 0.21 + 0.1j, -0.15 + 0.05j
    return from_branch(1, a, g11=g11, g12=g12, g21=g21, g22=(1.0 + g12 * g21) / g11)


# the u*u underflow of the Hamiltonian family, hamiltonian_pq's NaN, and
# the tau-function's NaN and overflows at the ends of the magnitude range
@example(SolutionState(1.0, 1e-200, 1.0), 1e200, 1e200, 1e-300, 0.0, 0.3,
         EquationParams.make(1, 1.0), _branch1(0.9 + 0.5j), 1e300, 1.0)
@example(SolutionState(1.0, 1.0, 1.0), 1.0, 1.0, 1.0, 1.0, 0.0,
         EquationParams.make(1, 1.0), _branch1(2.5 + 0.9j), 1e300, 1.0)
@example(SolutionState(1.0, 1.0, 1.0), 1.0, 1.0, 1.0, 1.0, 0.0,
         EquationParams.make(1, 1.0), _branch1(-3.0 + 0.5j), 1e-300, 1.0)
@settings(max_examples=200, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(STATE, COORD, COORD, COORD, COORD, COORD, PARAMS, POINT, TAU, COORD)
def test_state_functions_return_finite_values_or_raise_typed_errors(
        state, p, q, tau, sqrt_ab, a, params, pt, tau_abs, const):
    for fn in (hamiltonian_u, p_from_u, sigma_and_f):
        call(fn, state, a, params)
    abcd = call(to_abcd, state, a, params)
    if abcd is not None:
        call(hamiltonian_abcd, *abcd, state.tau, a, params, sqrt_ab)
    call(hamiltonian_pq, p, q, tau, a, params)
    call(hamiltonian_system_rhs, p, q, tau, a, params)
    small = call(small_tau_chart, pt, 0, params)
    if small is not None:
        call(tau_function_asymptotic, small, tau_abs, const)


MAGNITUDE = st.one_of(st.sampled_from((0.0, -0.0, -1.0, math.inf, -math.inf, math.nan)),
                      TAU, st.floats())


# a negative magnitude gave a complex theta and an infinite one gave inf;
# g11 g22 = 0 raised the raw math domain error of the logarithm
@example(EquationParams.make(1, 1.0), -1.0, 1.0, 1.0)
@example(EquationParams.make(1, 1.0), math.inf, 1.0, 1.0)
@example(EquationParams.make(1, 1e150), 1.7e308, 0j, 1.0)
@settings(max_examples=200, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(PARAMS, MAGNITUDE, COORD, COORD)
def test_theta_phase_and_nu_plus_1_of_return_finite_values_or_raise_typed_errors(
        params, tau_abs, g11, g22):
    theta = call(theta_phase, params, tau_abs)
    if 0.0 < tau_abs < math.inf:
        assert theta is None or (type(theta) is float and theta > 0.0), (tau_abs, theta)
    else:
        assert theta is None, (tau_abs, theta)
    call(nu_plus_1_of, g11, g22)


ANY_COMPLEX = st.one_of(COORD, st.complex_numbers())


# gamma(200.0) raised a raw OverflowError, gamma and digamma of NaN returned
# NaN, algebraic_solution of inf and NaN returned a non-finite state, and
# stokes_structure over 10**4 indices raised a raw OverflowError
@example(200.0 + 0j, 1.0 + 0j, PARAMS_1, _branch1(0.3j), 3)
@example(complex(math.nan, 0.0), 1.0 + 0j, PARAMS_1, _branch1(0.3j), 3)
@example(1.0 + 0j, complex(math.inf, 0.0), PARAMS_1, _branch1(0.3j), 3)
@example(1.0 + 0j, complex(math.nan, 0.0), PARAMS_1, _branch1(0.3j), 3)
@example(1.0 + 0j, 1.0 + 0j, PARAMS_1, _branch1(0.9 + 0.5j), 10**4)
@settings(max_examples=200, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(ANY_COMPLEX, ANY_COMPLEX, PARAMS, POINT, st.integers(0, 10**4))
def test_special_functions_algebraic_solution_and_stokes_return_finite_values_or_raise(
        z, tau, params, pt, k_max):
    for fn in (digamma, gamma, ln_gamma):
        call(fn, z)
    for with_phi in (False, True):
        call(algebraic_solution, tau, params, with_phi)
    stokes = call(stokes_structure, pt, 0, k_max)
    if stokes is not None:
        matrices = (*stokes.s_zero.values(), *stokes.s_inf.values(), stokes.m_zero, stokes.m_inf)
        assert all(np.isfinite(m).all() for m in matrices), (pt, k_max)


BRANCH_FREE = st.dictionaries(st.sampled_from(("s00", "g11", "g12", "g21", "g22")), COORD)
GRID = np.linspace(1.0, 2.0, 5) + 0j
FINITE_STATE = st.builds(SolutionState, COORD, COORD, COORD)


# dp3_rhs returned (1e200, inf+nanj); backlund_step raised a raw
# ZeroDivisionError where u*u underflows; residual_on_grid returned NaN at
# an interior u = 0 and inf at |u| = 1e300; from_branch raised a raw
# KeyError for a missing coordinate and a raw ValueError for a huge Im a
@example(SolutionState(1 + 0j, 1e-300 + 0j, 1e200 + 0j), 0j, PARAMS_1, 1 + 0j, 1, {})
@example(SolutionState(1 + 0j, 1e-200 + 0j, 0j), 0j, PARAMS_1, 1 + 0j, 1, {})
@example(SolutionState(1 + 0j, 1 + 0j, 0j), 0j, PARAMS_1, 0j, 1, {})
@example(SolutionState(1 + 0j, 1 + 0j, 0j), 0j, PARAMS_1, 1e300 + 0j, 1, {})
@example(SolutionState(1 + 0j, 1 + 0j, 0j), 0j, PARAMS_1, 1 + 0j, 1, {"g11": 1 + 0j})
@example(SolutionState(1 + 0j, 1 + 0j, 0j), 1e308j, PARAMS_1, 1 + 0j, 2,
         {"s00": 1 + 0j, "g22": 1 + 0j})
@settings(max_examples=200, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(FINITE_STATE, COORD, PARAMS, COORD, st.sampled_from((1, 2, 3)), BRANCH_FREE)
def test_rhs_backlund_step_grid_residual_and_branches_return_finite_values_or_raise(
        state, a, params, u_mid, branch, free):
    call(dp3_rhs, state, a, params)
    for direction in ("up", "down"):
        try:
            image, a_new = backlund_step(state, a, params, direction)
        except DP3Error:
            continue
        assert finite(image) and cmath.isfinite(a_new), (state, a, direction, image, a_new)
    call(residual_on_grid, GRID, np.array([1, 1, u_mid, 1, 1], dtype=complex), a, params)
    call(lambda: from_branch(branch, a, **free))
