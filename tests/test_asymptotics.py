"""Asymptotic charts and evaluators: chart construction, the formula
values, invariances, the tau-function form, imaginary-ray kernels, and the
cross-ray connection identities."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from conftest import sample_generic_charts
from dp3.asymptotics import (
    H_large,
    H_small,
    du_small,
    imag_chart,
    large_tau_chart,
    nu_plus_1_of,
    cross_ray_residuals,
    small_tau_chart,
    tau_function_asymptotic,
    theta_phase,
    u_imag,
    u_large,
    u_small,
)
from dp3.asymptotics import _small_brackets
from dp3.errors import ConditionViolationError
from dp3.monodromy import MonodromyPoint, apply_F, from_branch, point_from_json, point_to_json
from dp3.ode import SolutionState, hamiltonian_u
from dp3.params import EquationParams

P1 = EquationParams.make(1, 1.0)


@pytest.fixture(scope="module")
def identity_point():
    return from_branch(1, 0.0, g11=1, g12=0, g21=0, g22=1)


# ------------------------------------------------------------ large chart

def test_identity_point_routes_special(identity_point):
    ch = large_tau_chart(identity_point, 0, P1)
    assert ch.special == "g21_zero"
    assert ch.nu_plus_1 == 0
    # oscillation coefficient vanishes: exact cube-root values
    for tau in (1.0, 8.0, 1000.0):
        assert abs(u_large(ch, tau) - tau ** (1 / 3) / 2) < 1e-14


def test_H_large_hand_value(identity_point):
    ch = large_tau_chart(identity_point, 0, P1)
    assert abs(H_large(ch, 1.0) - (2.875 - 1j)) < 1e-14


def test_H_large_vs_exact_hamiltonian_gap(identity_point):
    # at tau = 1 the dropped corrections of the leading Hamiltonian
    # asymptotics amount to exactly 1/36 on the cube-root solution
    from dp3.ode import algebraic_solution, hamiltonian_u
    ch = large_tau_chart(identity_point, 0, P1)
    exact = hamiltonian_u(algebraic_solution(1.0, P1), 0.0, P1)
    assert abs(abs(exact - H_large(ch, 1.0)) - 1.0 / 36.0) < 1e-12


def test_H_large_dominant_power(identity_point):
    ch = large_tau_chart(identity_point, 0, P1)
    ratio = H_large(ch, 8e6) / H_large(ch, 1e6)
    assert abs(ratio - 2.0) < 1e-2


def test_H_large_imaginary_index_shift(generic_point):
    # purely imaginary nu+1 shifts the tau^{-1/3} coefficient by a real
    # amount through -2 sqrt(3) i (nu+1)
    ch = large_tau_chart(generic_point, 0, P1)
    base = dataclasses.replace(ch, nu_plus_1=0.0j)
    shifted = dataclasses.replace(ch, nu_plus_1=0.05j)
    m = 64.0
    diff = H_large(shifted, m) - H_large(base, m)
    expect = 2.0 * m ** (-1 / 3) * (-2.0 * math.sqrt(3.0) * 1j * 0.05j)
    assert abs(diff - expect) < 1e-14
    assert abs(diff.imag) < 1e-14 and diff.real > 0


def test_nu_definitional(generic_point):
    ch = large_tau_chart(generic_point, 0, P1)
    m = apply_F(generic_point, 0, 0)
    assert abs(ch.nu_plus_1 - nu_plus_1_of(m.g11, m.g22)) == 0.0


def test_strip_violation_rejected():
    g11 = 2.0 * cmath.exp(0.8j * math.pi)
    g22 = 0.5 * cmath.exp(0.8j * math.pi)
    g12 = 0.5 + 0j
    g21 = (g11 * g22 - 1.0) / g12
    pt = from_branch(1, 0.0, g11=g11, g12=g12, g21=g21, g22=g22)
    with pytest.raises(ConditionViolationError):
        large_tau_chart(pt, 0, P1)


def test_algebraic_identity_of_nonoscillatory_part():
    # sqrt(theta/12) sqrt|eps b| / 3^{1/4} = |eps b|^{2/3} |tau|^{1/3} / 2
    for eb in (1.0, 8.0, 0.3):
        params = EquationParams.make(1, eb)
        for m in (1.0, 1000.0):
            lhs = math.sqrt(theta_phase(params, m) / 12.0) * math.sqrt(eb) / 3 ** 0.25
            assert abs(lhs - eb ** (2 / 3) * m ** (1 / 3) / 2.0) < 1e-12 * lhs


def test_u_large_degenerate_chart_rejected():
    # a generic chart forced to nu + 1 = 0 must refuse to evaluate: the
    # oscillatory normalisation is singular there
    g11, g21 = 1.3, 0.2 + 0j
    g22 = (1.0 + 0.3 * g21) / g11
    pt = from_branch(1, 0.15j, g11=g11, g12=0.3, g21=g21, g22=g22)
    ch = large_tau_chart(pt, 0, P1)
    target = dataclasses.replace(ch, nu_plus_1=0.0j, z=None)
    with pytest.raises(ConditionViolationError):
        u_large(target, 10.0)
    # a chart built at nu + 1 = 0 (g11 g22 = 1) with nonzero off-diagonal
    # entries (det G = 0.75, off the manifold) has no z either; its
    # Hamiltonian is still the generic formula at nu + 1 = 0
    ch = large_tau_chart(MonodromyPoint(0.15j, 1.0, 0j, 0j, 1.0, 0.5, 0.5, 1.0), 0, P1)
    assert ch.special == "none" and ch.nu_plus_1 == 0 and ch.z is None
    with pytest.raises(ConditionViolationError, match="degenerate chart"):
        u_large(ch, 10.0)
    assert cmath.isfinite(H_large(ch, 10.0))


# ------------------------------------------------------------ small chart

def test_small_chart_identity_point(identity_point):
    sc = small_tau_chart(identity_point, 0, P1)
    assert abs(sc.rho - 1.0 / 6.0) < 1e-15
    expect = cmath.exp(1j * math.pi / 6.0) * cmath.exp(0.25j * math.pi)
    assert abs(sc.chi1_plus - expect) < 1e-15


def test_small_chart_boundary_rejected(identity_point):
    pt = dataclasses.replace(identity_point, s00=-2j)
    with pytest.raises(ConditionViolationError):
        small_tau_chart(pt, 0, P1)


def test_small_chart_log_mode_routing():
    pt = from_branch(1, 0.5j, g11=1.0, g12=2j - 1.0, g21=0.0, g22=1.0)
    assert abs(pt.s00 - 2j) < 1e-15
    sc = small_tau_chart(pt, 0, P1)
    assert sc.log_mode
    pt0 = from_branch(1, 0.0, g11=1.0, g12=1j, g21=0.0, g22=1.0)  # s00 = 2i, a = 0
    assert abs(pt0.s00 - 2j) < 1e-15
    with pytest.raises(ConditionViolationError):
        small_tau_chart(pt0, 0, P1)


def test_u_small_exponent_bookkeeping(identity_point):
    sc = small_tau_chart(identity_point, 0, P1)  # rho = 1/6
    vals = [u_small(sc, m) / m ** (1 / 3) for m in (1e-4, 1e-6, 1e-8)]
    assert abs(vals[-1] - 0.5) < 1e-6
    assert abs(vals[-1] - vals[-2]) < 1e-5


def test_u_small_imaginary_rho_modulus():
    # purely imaginary rho (s00 = 2.5i): |tau|^{+-2 rho} has unit modulus,
    # so u/tau is bounded above and below near the origin
    pt = from_branch(1, 0.0, g11=1.0, g12=1.5j, g21=0.0, g22=1.0)
    sc = small_tau_chart(pt, 0, P1)
    assert abs(sc.rho.real) < 1e-12 and abs(sc.rho.imag) > 0.03
    vals = [abs(u_small(sc, m) / m) for m in np.geomspace(1e-8, 1e-2, 25)]
    assert max(vals) < 10 * min(vals)


def test_u_small_rho_negation_invariance(generic_point):
    sc = small_tau_chart(generic_point, 0, P1)
    flipped = dataclasses.replace(
        sc, rho=-sc.rho, p_plus=sc.p_minus, p_minus=sc.p_plus,
        q_plus=sc.q_minus, q_minus=sc.q_plus,
        chi1_plus=sc.chi1_minus, chi1_minus=sc.chi1_plus,
        chi2_plus=sc.chi2_minus, chi2_minus=sc.chi2_plus)
    for m in (1e-5, 1e-3, 0.3):
        assert u_small(sc, m) == u_small(flipped, m)
        assert H_small(sc, m) == H_small(flipped, m)


def test_H_small_quarter_rho_constant():
    pt = from_branch(1, 0.0, g11=1.0, g12=0.0, g21=1j, g22=1.0)  # s00 = 0
    sc = small_tau_chart(pt, 0, P1)
    assert abs(sc.rho - 0.25) < 1e-14
    m = 1e-8
    F1, _, G1, _ = _small_brackets(sc, m)
    val = 2.0 * m * H_small(sc, m) - 4.0 * sc.rho * (G1 / F1)
    assert abs(val - 0.75) < 1e-12


def test_H_small_log_mode_tail():
    pt = from_branch(1, 0.5j, g11=1.0, g12=2j - 1.0, g21=0.0, g22=1.0)
    sc = small_tau_chart(pt, 0, P1)
    tails = []
    for m in (1e-4, 1e-8, 1e-16):
        lead = (sc.a * (sc.a - 1j) + 0.25) / (2.0 * m)
        tails.append(abs(m * H_small(sc, m) - m * lead))
    assert tails[0] > tails[1] > tails[2]
    assert tails[2] < 5e-2


def test_log_mode_q_value_structure():
    # a = i/2, |eps b| = 2: Q(-a) contains psi(1/4)
    from dp3.specfun import digamma
    params = EquationParams.make(1, 2.0)
    pt = from_branch(1, 0.5j, g11=1.0, g12=2j - 1j * cmath.exp(-0.5j * math.pi),
                     g21=0.0, g22=1.0)
    # s00 = i e^{-pi a}/(g11 g22) + g12 - 0; with a = i/2: i e^{-i pi/2} = 1
    assert abs(pt.s00 - 2j) < 1e-12
    sc = small_tau_chart(pt, 0, params)
    q_minus = 4.0 * digamma(1.0) - digamma(0.25) + math.log(2.0) - math.log(2.0)
    # b2_second / chi2(0) = -i a, and the bracket contains (1 + (i a / 2) Q(-a))
    chi2_0 = pt.g12 * cmath.exp(0.25j * math.pi) + pt.g22 * cmath.exp(-0.25j * math.pi)
    expect = chi2_0 * (1.0 + 0.5j * sc.a * q_minus)
    got = sc.a2_second - (-1) * 0.0  # a2_second includes the pi a/4 row term
    row = (math.pi * sc.a / 4.0) * (pt.g12 * cmath.exp(0.25j * math.pi)
                                    - 3.0 * pt.g22 * cmath.exp(-0.25j * math.pi))
    assert abs(got - row - expect) < 1e-12


# -------------------------------------------------------------- small H/u

def test_u_and_H_small_describe_one_solution(generic_point):
    # H evaluated from (u_small, du_small) converges to H_small as tau -> 0
    sc = small_tau_chart(generic_point, 0, P1)
    rel = []
    for m in (1e-3, 1e-5):
        st = SolutionState(m, u_small(sc, m), du_small(sc, m))
        Hn = hamiltonian_u(st, generic_point.a, P1)
        rel.append(abs(Hn - H_small(sc, m)) / abs(H_small(sc, m)))
    assert rel[1] < rel[0] < 0.1


# ------------------------------------------------------------ tau function

def test_tau_function_log_derivative(generic_point):
    sc = small_tau_chart(generic_point, 0, P1)
    m = 1e-3
    h = 1e-4 * m
    num = (cmath.log(tau_function_asymptotic(sc, m + h))
           - cmath.log(tau_function_asymptotic(sc, m - h))) / (2 * h)
    assert abs(num - H_small(sc, m)) / abs(H_small(sc, m)) < 1e-2


def test_tau_function_const_scaling_and_exponent(generic_point):
    sc = small_tau_chart(generic_point, 0, P1)
    m = 0.37
    assert tau_function_asymptotic(sc, m, const=3.5 - 1j) \
        == (3.5 - 1j) * tau_function_asymptotic(sc, m, const=1.0)
    # tau-power exponent: evaluate the pure power by dividing out F1
    F1, _, _, _ = _small_brackets(sc, m)
    val = tau_function_asymptotic(sc, m) / F1
    expo = 0.5 * (sc.a * (sc.a - 1j) + 0.25 + 8.0 * sc.rho**2)
    assert abs(val - m**expo) < 1e-12 * abs(val)


def test_tau_function_log_mode():
    pt = from_branch(1, 0.5j, g11=1.0, g12=2j - 1.0, g21=0.0, g22=1.0)
    sc = small_tau_chart(pt, 0, P1)
    m = 1e-3
    h = 1e-4 * m
    num = (cmath.log(tau_function_asymptotic(sc, m + h))
           - cmath.log(tau_function_asymptotic(sc, m - h))) / (2 * h)
    assert abs(num - H_small(sc, m)) / abs(H_small(sc, m)) < 1e-2


# ---------------------------------------------------------- imaginary axis

def test_u_imag_exact_prefactor(unit_params):
    pts = sample_generic_charts(77, 4, unit_params, eps1_values=(0,))
    checked = 0
    for pt in pts:
        for e1 in (1, -1):
            try:
                ch = imag_chart(pt, e1, unit_params, "large")
            except ConditionViolationError:
                continue
            if ch.special != "none":
                continue
            kernel = u_large(ch, 11.3)
            val = u_imag(pt, e1, unit_params, 11.3, "large")
            assert val == 1j * e1 * kernel  # bitwise: same product
            assert abs(abs(val) - abs(kernel)) <= 1e-12 * abs(kernel)
            checked += 1
    assert checked >= 3


def test_u_imag_special_value():
    params = EquationParams.make(1, -1.0, 1)
    pt = from_branch(1, 0.0, g11=1, g12=0, g21=0, g22=1)
    val = u_imag(pt, -1, params, 2.0, "large")
    assert abs(val - 1j * 2 ** (1 / 3) / 2.0) < 1e-14


def test_u_imag_small_equals_kernel_on_rotated(generic_point):
    val = u_imag(generic_point, 1, P1, 0.01, "small")
    ch = imag_chart(generic_point, 1, P1, "small")
    assert val == 1j * u_small(ch, 0.01)
    # the chart is the rotated problem's real-axis chart, by construction
    from dp3.monodromy import lie_point_monodromy
    rotated = lie_point_monodromy(generic_point, "rotate_tau", p=-1, l=1)
    new_params = EquationParams(-P1.eps, P1.b, 1)
    assert ch.chi1_plus == small_tau_chart(rotated, 0, new_params).chi1_plus


def test_u_imag_sector_label_independence(generic_point):
    # the two admissible (rotation direction, sector label) pairs for the
    # rotated problem give the same values
    from dp3.monodromy import lie_point_monodromy
    for e1 in (1, -1):
        vals = []
        for p in (-1, 1):
            rotated = lie_point_monodromy(generic_point, "rotate_tau", p=p, l=e1)
            new_params = EquationParams(-P1.eps, P1.b, -p)
            ch = small_tau_chart(rotated, 0, new_params)
            vals.append(1j * e1 * u_small(ch, 0.02))
        assert abs(vals[0] - vals[1]) < 1e-13 * abs(vals[0])


def test_u_imag_end_to_end_on_imaginary_ray():
    # seed near the origin of the imaginary ray from the small-regime
    # kernel, integrate outward along the ray, and compare with the
    # large-regime prediction: the two ends are linked by one monodromy
    # point on imaginary rays too
    from dp3.asymptotics import du_imag
    from dp3.ode import SolutionState, integrate_ray

    g12, g21 = 0.62 - 0.66j, -0.4 + 0.72j
    pt = from_branch(1, 0.01 - 0.29j, g11=1.05, g12=g12, g21=g21,
                     g22=(1 + g12 * g21) / 1.05)
    for e1 in (1, -1):
        lc = imag_chart(pt, e1, P1, "large")
        assert lc.special == "none"
        phase = cmath.exp(0.5j * math.pi * e1)
        t0 = 0.005
        seed = SolutionState(t0 * phase, u_imag(pt, e1, P1, t0, "small"),
                             du_imag(pt, e1, P1, t0))
        grid = np.array([120.0, 240.0])
        traj = integrate_ray(seed, pt.a, P1, 240.0, tol=1e-11, dense_at=grid)
        for m, u_num in zip(grid, traj.u):
            assert abs(u_num - u_imag(pt, e1, P1, m, "large")) < 6e-2


def test_u_imag_validates_eps1(generic_point):
    with pytest.raises(ConditionViolationError):
        u_imag(generic_point, 0, P1, 1.0, "large")
    with pytest.raises(ConditionViolationError):
        u_imag(generic_point, 1, P1, 1.0, "medium")


def test_charts_reject_nonfinite_a(generic_point):
    # a NaN a gave a large chart with z = nan and no error
    for a in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        bad = dataclasses.replace(generic_point, a=a)
        with pytest.raises(ConditionViolationError):
            large_tau_chart(bad, 0, P1)
        with pytest.raises(ConditionViolationError):
            small_tau_chart(bad, 0, P1)
        for regime in ("large", "small"):
            with pytest.raises(ConditionViolationError):
                imag_chart(bad, 1, P1, regime)
        with pytest.raises(ValueError):
            point_from_json(point_to_json(bad))


# ------------------------------------------------- cross-ray identities

def test_cross_ray_scalar_oracle():
    # the second identity at a = 0, omega = i, nu + 1 = 0:
    # -omega(omega e^{0} + i e^{0}) = -i(i + i) = 2 = 1 - i*i + 1 ... = 2
    omega, a = 1j, 0.0
    rhs = -omega * (omega + 1j * cmath.exp(-math.pi * a))
    assert rhs == 2.0 + 0j


def test_cross_ray_residuals_small(unit_params):
    pts = sample_generic_charts(81, 25, unit_params, eps1_values=(0, 1, -1))
    for pt in pts:
        assert max(cross_ray_residuals(pt)) < 1e-10


def test_cross_ray_sensitivity(generic_point):
    # first-order sensitivity of the first identity under an omega bump
    m0 = apply_F(generic_point, 0, 0)
    m1 = apply_F(generic_point, 1, 0)
    omega = m0.g12 / m0.g22
    omega_p = m1.g12 / m1.g22
    E = cmath.exp(2j * math.pi * nu_plus_1_of(m0.g11, m0.g22))
    ema = cmath.exp(-math.pi * generic_point.a)

    def r1_of(om):
        return abs(omega_p - (om + (1j * ema + 1.0 / om) * E))

    assert r1_of(omega) < 1e-12
    assert 1e-4 < r1_of(omega + 1e-3) < 1e-1


def test_evaluators_reject_nonpositive_or_nonfinite_magnitudes(generic_point):
    from dp3.asymptotics import du_imag
    sc, lc = small_tau_chart(generic_point, 0, P1), large_tau_chart(generic_point, 0, P1)
    evaluators = [
        lambda m: u_small(sc, m), lambda m: du_small(sc, m), lambda m: H_small(sc, m),
        lambda m: tau_function_asymptotic(sc, m), lambda m: u_large(lc, m),
        lambda m: H_large(lc, m), lambda m: u_imag(generic_point, 1, P1, m, "small"),
        lambda m: u_imag(generic_point, -1, P1, m, "large"),
        lambda m: du_imag(generic_point, 1, P1, m),
    ]
    for evaluate in evaluators:
        for m in (0.0, -1.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ConditionViolationError, match="positive and finite"):
                evaluate(m)
