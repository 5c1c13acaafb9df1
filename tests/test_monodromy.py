"""Monodromy manifold: constructors, residuals, Stokes algebra, and the
full set of group actions."""

import cmath
import dataclasses
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from conftest import all_map_images
from dp3.errors import ConditionViolationError
from dp3.monodromy import (
    SIGMA3,
    MonodromyPoint,
    apply_F,
    apply_Fhat,
    backlund_monodromy,
    cyclic_residuals,
    from_branch,
    lie_point_monodromy,
    manifold_residual,
    point_from_json,
    point_to_json,
    rho_from,
    stokes_structure,
)

FIELDS = ("a", "s00", "s0inf", "s1inf", "g11", "g12", "g21", "g22")


def points_equal(p, q, tol=0.0):
    return all(abs(getattr(p, k) - getattr(q, k)) <= tol for k in FIELDS)


@pytest.fixture(scope="module")
def identity_point():
    return from_branch(1, 0.0, g11=1, g12=0, g21=0, g22=1)


# ------------------------------------------------------------- residuals

def test_identity_point_residuals(identity_point):
    pt = identity_point
    assert pt.s00 == 1j and pt.s0inf == -1j and pt.s1inf == -1j
    assert manifold_residual(pt).max() < 1e-12


def test_perturbed_point_violates(identity_point):
    bad = replace(identity_point, g11=1.1 + 0j)
    assert manifold_residual(bad).max() > 0.05


def test_branch_constructor_outputs_on_manifold(manifold_sample):
    for pt in manifold_sample:
        assert manifold_residual(pt).max() < 1e-12


def test_branch2_example():
    pt = from_branch(2, 0.0, s00=0.0, g22=1.0)
    assert pt.g12 == 1j and pt.g21 == 1j
    assert pt.s0inf == -1j and pt.s1inf == -2j
    assert manifold_residual(pt).max() < 1e-14


def test_branch3_zero_free_parameter_rejected():
    with pytest.raises(ConditionViolationError):
        from_branch(3, 0.0, s00=0.5, g11=0.0)
    with pytest.raises(ConditionViolationError):
        from_branch(1, 0.0, g11=1.0, g12=0.5, g21=0.5, g22=1.0)  # det != 1


def test_branch_point_that_overflows_is_rejected():
    # e^{pi a} overflows (Re a = 300), underflows to a zero divisor (Re a = -300),
    # or leaves a non-finite coordinate (e^{3 pi a} at Re a = 100)
    for branch, a, free in ((1, 300.0, dict(g11=1.0, g12=0.0, g21=0.0, g22=1.0)),
                            (2, -300.0, dict(s00=0.5, g22=1.0)),
                            (3, 100.0, dict(s00=0.5, g11=1.0)),
                            (1, complex("nan"), dict(g11=1.0, g12=0.0, g21=0.0, g22=1.0))):
        with pytest.raises(ConditionViolationError):
            from_branch(branch, a, **free)


# ------------------------------------------------------------------ rho

def test_rho_examples(identity_point):
    assert abs(rho_from(replace(identity_point, s00=2j))) < 1e-15
    assert abs(rho_from(replace(identity_point, s00=0j)) - 0.25) < 1e-15
    assert abs(rho_from(identity_point) - 1.0 / 6.0) < 1e-15


def test_rho_canonical_normalisation(manifold_sample):
    for pt in manifold_sample:
        rho = rho_from(pt)
        assert -1e-15 <= rho.real <= 0.5 + 1e-15
        if abs(rho.real) < 1e-15:
            assert rho.imag >= 0.0


def test_eq44_two_expressions_agree(manifold_sample):
    for pt in manifold_sample:
        lhs = -0.5j * pt.s00
        rhs = cmath.cosh(math.pi * pt.a) \
            + 0.5 * pt.s0inf * pt.s1inf * cmath.exp(math.pi * pt.a)
        assert abs(lhs - rhs) < 1e-10


# --------------------------------------------------------------- Stokes

def test_stokes_determinants(manifold_sample):
    for pt in manifold_sample[:30]:
        ss = stokes_structure(pt, -2, 5)
        for mat in list(ss.s_inf.values()) + list(ss.s_zero.values()):
            assert abs(np.linalg.det(mat) - 1.0) < 1e-13
        assert abs(np.linalg.det(ss.m_inf) - 1.0) < 1e-10
        assert abs(np.linalg.det(ss.m_zero) - 1.0) < 1e-13


def test_half_period_conjugation_matches_matrix_oracle(manifold_sample):
    # S_{k+2} at infinity from the explicit 2x2 conjugation product
    for pt in manifold_sample[:30]:
        ss = stokes_structure(pt, 0, 3)
        E = np.diag([1j * cmath.exp(-math.pi * pt.a),
                     -1j * cmath.exp(math.pi * pt.a)])  # e^{-pi(a - i/2) sigma3}
        Einv = np.diag(1.0 / np.diag(E))
        oracle = SIGMA3 @ E @ ss.s_inf[0] @ Einv @ SIGMA3
        assert np.max(np.abs(oracle - ss.s_inf[2])) < 1e-12


def test_monodromy_matrix_squared_form(manifold_sample):
    for pt in manifold_sample[:30]:
        ss = stokes_structure(pt)
        E = np.diag([1j * cmath.exp(-math.pi * pt.a),
                     -1j * cmath.exp(math.pi * pt.a)])
        half = ss.s_inf[0] @ ss.s_inf[1] @ SIGMA3 @ E
        assert np.max(np.abs(ss.m_inf - half @ half)) < 1e-11


def test_cyclic_residuals(identity_point, manifold_sample):
    cyc, semi = cyclic_residuals(identity_point)
    assert cyc < 1e-10 and semi < 1e-10
    bad = replace(identity_point, g11=1.05 + 0j)
    _, semi_bad = cyclic_residuals(bad)
    assert semi_bad > 1e-3
    for pt in manifold_sample:
        cyc, semi = cyclic_residuals(pt)
        assert semi < 1e-10
        assert cyc < 1e-9  # the semi-cyclic relation implies the cyclic one


def _numpy_cyclic_residuals(pt):
    """The cyclic and semi-cyclic residuals as numpy matrix products, with
    the ``np.linalg.solve`` of G: the formulas the tuple algebra replaced."""
    def lower(s):
        return np.array([[1, 0], [s, 1]], dtype=complex)

    def upper(s):
        return np.array([[1, s], [0, 1]], dtype=complex)

    def exp_sigma3(alpha):
        return np.diag([cmath.exp(alpha), cmath.exp(-alpha)])

    epa = cmath.exp(math.pi * pt.a)
    s_inf = [lower(pt.s0inf * epa**k) if k % 2 == 0 else upper(pt.s1inf * epa ** (1 - k))
             for k in range(4)]
    sigma1 = np.array([[0, 1], [1, 0]], dtype=complex)
    G = pt.G
    m_zero = upper(pt.s00) @ lower(pt.s00)
    m_inf = s_inf[0] @ s_inf[1] @ s_inf[2] @ s_inf[3] @ exp_sigma3(-2 * math.pi * (pt.a - 0.5j))
    lhs = np.linalg.solve(G, upper(pt.s00) @ sigma1 @ G)
    rhs = s_inf[0] @ s_inf[1] @ SIGMA3 @ exp_sigma3(-math.pi * (pt.a - 0.5j))
    return np.max(np.abs(G @ m_inf - m_zero @ G)), np.max(np.abs(lhs - rhs))


def test_cyclic_residuals_agree_with_numpy_products(manifold_sample):
    for pt in manifold_sample:
        scale = max(abs(getattr(pt, k)) for k in FIELDS[1:])
        got, ref = cyclic_residuals(pt), _numpy_cyclic_residuals(pt)
        assert all(type(x) is float for x in got)
        assert max(abs(x - y) for x, y in zip(got, ref)) <= 1e-14 * scale


def test_stokes_structure_returns_complex_arrays(generic_point):
    ss = stokes_structure(generic_point, -1, 2)
    assert sorted(ss.s_inf) == [-1, 0, 1, 2] and sorted(ss.s_zero) == [-1, 0]
    for mat in [*ss.s_inf.values(), *ss.s_zero.values(), ss.m_zero, ss.m_inf]:
        assert isinstance(mat, np.ndarray)
        assert mat.shape == (2, 2) and mat.dtype == complex


def test_singular_G_raises(identity_point):
    for g in ({"g11": 0j, "g12": 0j}, {"g11": 2 + 0j, "g12": 1 + 0j, "g21": 2 + 0j, "g22": 1 + 0j}):
        with pytest.raises(ConditionViolationError, match="cyclic_residuals"):
            cyclic_residuals(replace(identity_point, **g))


def test_residual_errors_name_manifold_residual(identity_point):
    # the CLI's check reports what the library call would
    with pytest.raises(ConditionViolationError, match="^manifold_residual: "):
        manifold_residual(replace(identity_point, a=300 + 0j))


# ---------------------------------------------------------- group actions

def test_F00_is_identity(manifold_sample):
    for pt in manifold_sample[:10]:
        assert points_equal(apply_F(pt, 0, 0), pt)


def test_F01_g11_image(identity_point):
    # g11(0,1) = -i g12 e^{-pi a / 2} vanishes when g12 does
    img = apply_F(identity_point, 0, 1)
    assert img.g11 == 0


def test_all_actions_preserve_manifold(manifold_sample):
    for pt in manifold_sample:
        for img in all_map_images(pt):
            assert manifold_residual(img).max() < 1e-10


def test_F11_is_composition(manifold_sample):
    for pt in manifold_sample[:20]:
        direct = apply_F(pt, 1, 1)
        composed = apply_F(apply_F(pt, 1, 0), 0, 1)
        assert points_equal(direct, composed, tol=1e-11)


def test_Fhat_pure_scaling_identity_at_zero_a():
    pt = from_branch(1, 0.0, g11=1, g12=0, g21=0, g22=1)
    img = apply_Fhat(pt, -1, 1)
    assert points_equal(img, pt)


def test_Fhat10_stokes_map(manifold_sample):
    # s0inf image as printed at every a; s1inf as printed at a = 0 (its
    # general-a exponent is fixed by the manifold relations)
    for pt in manifold_sample[:20]:
        img = apply_Fhat(pt, 1, 0)
        eh = cmath.exp(-0.5 * math.pi * pt.a)
        assert abs(img.s0inf - pt.s1inf * eh) < 1e-12 * max(1.0, abs(img.s0inf))
        assert abs(img.s1inf - pt.s0inf * cmath.exp(2.5 * math.pi * pt.a)) \
            < 1e-11 * max(1.0, abs(img.s1inf))
    pt0 = from_branch(2, 0.0, s00=0.3 + 0.2j, g22=1.1)
    img0 = apply_Fhat(pt0, 1, 0)
    assert abs(img0.s0inf - pt0.s1inf) < 1e-14
    assert abs(img0.s1inf - pt0.s0inf) < 1e-14


def test_backlund_monodromy(manifold_sample):
    pt = manifold_sample[0]
    up = backlund_monodromy(pt, "up")
    assert up.a == pt.a - 1j and up.s00 == -pt.s00
    # the shift a -> a - i -> a + i re-rounds the imaginary part by one ulp
    assert points_equal(backlund_monodromy(up, "down"), pt, tol=5e-16)
    for q in manifold_sample[:20]:
        assert manifold_residual(backlund_monodromy(q, "up")).max() < 1e-10


def test_lie_point_l_independence(manifold_sample):
    for pt in manifold_sample[:15]:
        for kind in ("negate_tau", "negate_a"):
            for p in (1, -1):
                q1 = lie_point_monodromy(pt, kind, p, 1)
                q2 = lie_point_monodromy(pt, kind, p, -1)
                assert points_equal(q1, q2, tol=1e-10)


def test_lie_point_negate_a_flips_a(manifold_sample):
    for pt in manifold_sample[:5]:
        assert lie_point_monodromy(pt, "negate_a", 1, 1).a == -pt.a


def test_rotate_tau_quarter_twist_case(manifold_sample):
    # p = -l = -1 multiplies G from the right by e^{pi a sigma3 / 4}
    for pt in manifold_sample[:10]:
        img = lie_point_monodromy(pt, "rotate_tau", p=-1, l=1)
        q = cmath.exp(0.25 * math.pi * pt.a)
        assert abs(img.g11 - pt.g11 * q) < 1e-13 * max(1.0, abs(img.g11))
        assert abs(img.g12 - pt.g12 / q) < 1e-13 * max(1.0, abs(img.g12))


def test_negate_tau_composition_preserves_manifold(manifold_sample):
    for pt in manifold_sample[:15]:
        q = lie_point_monodromy(lie_point_monodromy(pt, "negate_tau", 1, 1),
                                "negate_tau", -1, 1)
        assert manifold_residual(q).max() < 1e-10


# ------------------------------------------------------------- the point

def test_point_keeps_frozen_dataclass_behaviour():
    values = [complex(k, -k) for k in range(8)]
    pt = MonodromyPoint(*values)
    assert pt == MonodromyPoint(**dict(zip(FIELDS, values)))
    assert hash(pt) == hash(MonodromyPoint(*values))
    assert pt != MonodromyPoint(*values[:7], 1j)
    assert repr(pt) == "MonodromyPoint(" + ", ".join(
        f"{k}={v!r}" for k, v in zip(FIELDS, values)) + ")"
    assert tuple(f.name for f in dataclasses.fields(pt)) == FIELDS
    moved = replace(pt, g12=9j)
    assert type(moved) is MonodromyPoint and moved.g12 == 9j
    assert replace(moved, g12=values[5]) == pt
    assert pickle.loads(pickle.dumps(pt)) == pt
    assert dataclasses.astuple(pt) == tuple(values)
    with pytest.raises(dataclasses.FrozenInstanceError):
        pt.a = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del pt.g22
    with pytest.raises(TypeError):
        MonodromyPoint(*values[:7])


# ------------------------------------------------------------------ JSON

def test_json_round_trip(manifold_sample):
    pt = manifold_sample[3]
    again = point_from_json(point_to_json(pt))
    assert points_equal(pt, again)


def test_json_rejects_missing_keys():
    with pytest.raises(ValueError):
        point_from_json('{"a": [0, 0]}')
    with pytest.raises(ValueError):
        point_from_json('{"a": [0, 0], "s00": 1, "s0inf": [0,0], "s1inf": [0,0],'
                        '"g11": [1,0], "g12": [0,0], "g21": [0,0], "g22": [1,0]}')
