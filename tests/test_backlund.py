"""Backlund steps, ladders, lattice identities, and Lie-point symmetries
on solutions."""

import cmath
import math

import numpy as np
import pytest

from conftest import cauchy_derivative
from dp3.backlund import backlund_step, ladder, lattice_residuals, lie_point_solution
from dp3.errors import ConditionViolationError, LadderBreakdownError, SingularityError
from dp3.ode import SolutionState, algebraic_solution, dp3_rhs
from dp3.params import EquationParams

P1 = EquationParams.make(1, 1.0)


def algebraic_eval(params):
    return lambda tau: algebraic_solution(tau, params)


def rung_state(tau, n, params=P1):
    """Exact states of the first rungs by repeated stepping."""
    st, a = algebraic_solution(tau, params), 0.0
    for _ in range(n):
        st, a = backlund_step(st, a, params, "up")
    return st, a


# ------------------------------------------------------------------ step

def test_up_step_closed_form():
    for tau in (0.5, 1.0, 2.7):
        st, a1 = backlund_step(algebraic_solution(tau, P1), 0.0, P1, "up")
        expect = tau ** (1 / 3) / 2 - 1j * tau ** (-1 / 3) / 6
        d_expect = tau ** (-2 / 3) / 6 + 1j * tau ** (-4 / 3) / 18
        assert abs(st.u - expect) < 1e-12
        assert abs(st.du - d_expect) < 1e-12
        assert a1 == -1j


def test_down_inverts_up():
    st0 = algebraic_solution(1.7, P1)
    st1, a1 = backlund_step(st0, 0.0, P1, "up")
    st2, a2 = backlund_step(st1, a1, P1, "down")
    assert abs(st2.u - st0.u) < 1e-12 and abs(st2.du - st0.du) < 1e-12
    assert abs(a2) < 1e-15


def test_step_singular_at_zero_u():
    with pytest.raises(SingularityError):
        backlund_step(SolutionState(1.0, 0.0, 0.3), 0.0, P1, "up")


# ---------------------------------------------------------------- ladder

def test_ladder_matches_single_steps():
    entries = ladder(algebraic_solution(1.0, P1), 0.0, P1, 3,
                     seed_eval=algebraic_eval(P1))
    st1, _ = backlund_step(entries[0].state, 0.0, P1, "up")
    assert abs(entries[1].state.u - st1.u) < 1e-15
    for e in entries:
        assert e.a_n == -1j * e.n
        assert abs(e.v - e.state.u / e.state.tau) < 1e-15


def test_ladder_rejects_non_solution_seed():
    bad = SolutionState(1.0, 0.7 + 0.1j, -0.3)
    with pytest.raises(ConditionViolationError):
        ladder(bad, 0.0, P1, 2, seed_eval=lambda t: SolutionState(t, 0.7 + 0.1j, -0.3))


def test_ladder_rungs_solve_their_equations():
    # equation residual of each rung via contour differentiation of the
    # exact ladder algebra (independent of the u''-elimination inside)
    for tau in np.linspace(0.5, 5.0, 8):
        for n in range(0, 6):
            def u_n(t, n=n):
                return rung_state(t, n)[0].u

            def du_n(t, n=n):
                return rung_state(t, n)[0].du

            st, a_n = rung_state(tau, n)
            r = 0.05 * tau
            assert abs(cauchy_derivative(u_n, tau, r) - st.du) < 1e-9
            _, ddu = dp3_rhs(st, a_n, P1)
            assert abs(cauchy_derivative(du_n, tau, r) - ddu) < 1e-9


# --------------------------------------------------------------- lattices

@pytest.fixture(scope="module")
def ladder7():
    return ladder(algebraic_solution(1.0, P1), 0.0, P1, 7,
                  seed_eval=algebraic_eval(P1))


def test_km_residuals(ladder7):
    for n, r in lattice_residuals(ladder7, "km", 0.0, P1):
        assert r < 1e-8


def test_dp_residuals(ladder7):
    for n, r in lattice_residuals(ladder7, "dp", 0.0, P1):
        assert r < 1e-8


def test_f_rec_residuals(ladder7):
    for n, r in lattice_residuals(ladder7, "f_rec", 0.0, P1):
        assert r < 1e-6


def test_toda_residuals(ladder7):
    rows = lattice_residuals(ladder7, "toda", 0.0, P1, seed_eval=algebraic_eval(P1))
    assert rows, "no testable rung"
    for n, r in rows:
        assert r < 1e-5


def test_v_consistency_with_km_flow(ladder7):
    # advance v_n by one RK4 step of the exact differential-difference flow
    # and compare with the re-evaluated ladder
    tau, h = 1.0, 1e-3
    by_n = {e.n: e for e in ladder7}
    n = 2
    ieb = 1j * P1.eps * P1.b

    def v_of(t, m):
        return ladder(algebraic_solution(t, P1), 0.0, P1, 7)[m].v

    def dv(t, vn):
        return (-4.0 / ieb) * t * vn**2 * (v_of(t, n - 1) - v_of(t, n + 1))

    v0 = by_n[n].v
    k1 = dv(tau, v0)
    k2 = dv(tau + h / 2, v0 + h / 2 * k1)
    k3 = dv(tau + h / 2, v0 + h / 2 * k2)
    k4 = dv(tau + h, v0 + h * k3)
    v_step = v0 + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    assert abs(v_step - v_of(tau + h, n)) < 1e-10


# -------------------------------------------------------------- Lie point

def check_equation_residual(state, a, params, eval_new):
    """Equation residual for a transformed solution: both derivatives by
    contour differentiation of the (analytic) transformed evaluator."""
    tau = state.tau
    r = 0.05 * abs(tau)
    du_c = cauchy_derivative(lambda t: eval_new(t).u, tau, r)
    ddu_c = cauchy_derivative(lambda t: eval_new(t).du, tau, r)
    st = eval_new(tau)
    _, ddu = dp3_rhs(st, a, params)
    return max(abs(du_c - st.du), abs(ddu_c - ddu))


def test_negate_tau_involution():
    st = algebraic_solution(2.0, P1)
    s1, a1, p1 = lie_point_solution(st, 0.0, P1, "negate_tau", p=1)
    s2, a2, p2 = lie_point_solution(s1, a1, p1, "negate_tau", p=-1)
    assert abs(s2.tau - st.tau) < 1e-15 and abs(s2.u - st.u) < 1e-15
    assert abs(s2.du - st.du) < 1e-15 and p2 == P1


def test_negate_tau_image_solves_equation():
    st = algebraic_solution(2.0, P1)
    stn, an, pn = lie_point_solution(st, 0.0, P1, "negate_tau", p=1)

    def eval_new(tn):
        to = tn * cmath.exp(1j * math.pi)
        so = algebraic_solution(to, P1)
        return SolutionState(tn, -so.u, so.du)

    assert abs(stn.u - eval_new(stn.tau).u) < 1e-15
    assert check_equation_residual(stn, an, pn, eval_new) < 1e-10


@pytest.mark.parametrize("relabel", ["flip_eps", "flip_b"])
def test_negate_a_image_solves_equation(relabel):
    st = algebraic_solution(2.0, P1)
    stn, an, pn = lie_point_solution(st, 0.0, P1, "negate_a", relabel=relabel)
    assert an == 0.0  # -a with a = 0
    sign = -1 if relabel == "flip_eps" else 1

    def eval_new(tn):
        so = algebraic_solution(tn, P1)
        return SolutionState(tn, sign * so.u, sign * so.du)

    assert check_equation_residual(stn, an, pn, eval_new) < 1e-10


@pytest.mark.parametrize("p,l,relabel", [(1, 1, "flip_eps"), (-1, -1, "flip_b"),
                                         (1, -1, "flip_eps")])
def test_rotate_tau_image_solves_equation(p, l, relabel):
    st = algebraic_solution(2.0, P1)
    stn, an, pn = lie_point_solution(st, 0.0, P1, "rotate_tau", p=p, l=l,
                                     relabel=relabel)
    sign = -1 if relabel == "flip_eps" else 1

    def eval_new(tn):
        to = tn * 1j * l
        so = algebraic_solution(to, P1)
        return SolutionState(tn, 1j * sign * l * so.u, -sign * so.du)

    assert abs(stn.u - eval_new(stn.tau).u) < 1e-15
    assert check_equation_residual(stn, an, pn, eval_new) < 1e-10


def test_ladder_and_lattice_raise_typed_errors_out_of_range():
    seed_eval = algebraic_eval(P1)
    with pytest.raises(SingularityError):
        ladder(SolutionState(0.0, 1.0, 0.0), 0.0, P1, 2)
    for tau in (1e300, 1e-159):  # the rungs, or the seed check's h**2, overflow
        with pytest.raises(LadderBreakdownError):
            ladder(seed_eval(tau), 0.0, P1, 3, seed_eval=seed_eval)
    entries = ladder(seed_eval(1e-100), 0.0, P1, 7)
    for which in ("dp", "toda"):  # NaN residuals before
        with pytest.raises(ConditionViolationError, match="not finite"):
            lattice_residuals(entries, which, 0.0, P1, seed_eval=seed_eval)
    with pytest.raises(ConditionViolationError, match="b\\*\\*2 overflows"):
        EquationParams.make(1, 1e300)
