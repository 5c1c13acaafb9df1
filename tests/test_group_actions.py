"""Group actions against closed-form references, and inverse pairs.

``dp3.monodromy`` composes every sector rotation and Lie-point symmetry
from three primitives (a Stokes shift, a diagonal scaling and the
``a -> -a`` rotation).  The references below are written independently of
those compositions: the hand-derived entry formulas of the eight
non-trivial ``F(eps1, eps2)`` and the six ``Fhat(eps1, eps2)``, and the
2x2 matrix formulas of the three Lie-point symmetries.
"""

import cmath
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dp3.monodromy import (
    SIGMA1,
    SIGMA3,
    apply_F,
    apply_Fhat,
    backlund_monodromy,
    lie_point_monodromy,
    stokes_structure,
)
from dp3.sampling import sample_manifold

FIELDS = ("a", "s00", "s0inf", "s1inf", "g11", "g12", "g21", "g22")
PI = cmath.pi


def rel_diff(pt, ref) -> float:
    """Largest coordinate difference between a point and a reference
    8-tuple, relative to the reference's largest coordinate (at least 1)."""
    scale = max(1.0, max(abs(v) for v in ref))
    return max(abs(getattr(pt, k) - v) for k, v in zip(FIELDS, ref)) / scale


def F_reference(pt, eps1, eps2):
    a, s00, s0, s1 = pt.a, pt.s00, pt.s0inf, pt.s1inf
    g11, g12, g21, g22 = pt.g11, pt.g12, pt.g21, pt.g22
    eh = cmath.exp(0.5 * PI * a)
    ep = eh * eh
    em = 1.0 / ep
    table = {
        (0, -1): (-a, s00, s1 * em, s0 * ep**3,
                  -g22 / eh, -(g21 + s0 * g22) * eh, -(g12 - s00 * g22) / eh,
                  -(g11 - s00 * g21 + (g12 - s00 * g22) * s0) * eh),
        (0, 1): (-a, s00, s1 * em, s0 * ep**3,
                 -1j * g12 / eh, -1j * (g11 + s0 * g12) * eh,
                 -1j * g22 / eh, -1j * (g21 + s0 * g22) * eh),
        (-1, 0): (a, s00, -s0 * em, -s1 * ep,
                  g21 / eh, -g22 * eh, (g11 - s00 * g21) / eh, -(g12 - s00 * g22) * eh),
        (-1, -1): (-a, s00, -s1, -s0 * ep * ep,
                   g12 - s00 * g22, -g11 + s00 * g21 - (g12 - s00 * g22) * s0,
                   g22 - (g12 - s00 * g22) * s00,
                   -g21 + (g11 - s00 * g21) * s00 - (g22 - (g12 - s00 * g22) * s00) * s0),
        (-1, 1): (-a, s00, -s1, -s0 * ep * ep,
                  1j * g22, -1j * (g21 + s0 * g22), 1j * (g12 - s00 * g22),
                  -1j * (g11 - s00 * g21 + (g12 - s00 * g22) * s0)),
        (1, 0): (a, s00, -s0 * ep, -s1 * em,
                 (g21 + s00 * g11) * eh, -(g22 + s00 * g12) / eh, g11 * eh, -g12 / eh),
        (1, -1): (-a, s00, -s1 * em * em, -s0 * ep**4,
                  g12 * em, -(g11 + s0 * g12) * ep, g22 * em, -(g21 + s0 * g22) * ep),
        (1, 1): (-a, s00, -s1 * em * em, -s0 * ep**4,
                 1j * (g22 + s00 * g12) * em,
                 -1j * (g21 + s00 * g11 + (g22 + s00 * g12) * s0) * ep,
                 1j * g12 * em, -1j * (g11 + s0 * g12) * ep),
    }
    return table[(eps1, eps2)]


def Fhat_reference(pt, eps1, eps2):
    a, s00, s0, s1 = pt.a, pt.s00, pt.s0inf, pt.s1inf
    g11, g12, g21, g22 = pt.g11, pt.g12, pt.g21, pt.g22
    q = cmath.exp(0.25 * PI * a)
    h = q * q
    table = {
        (-1, 0): (-a, s00, s1 / h**3, s0 * h**7,
                  -g22 / q**3, -(g21 + s0 * g22) * q**3, -(g12 - s00 * g22) / q**3,
                  -(g11 + s0 * g12 - (g21 + s0 * g22) * s00) * q**3),
        (-1, -1): (a, s00, s0 / h, s1 * h,
                   -1j * g21 / q, -1j * g22 * q,
                   -1j * (g11 - s00 * g21) / q, -1j * (g12 - s00 * g22) * q),
        (-1, 1): (a, s00, s0 / h, s1 * h, g11 / q, g12 * q, g21 / q, g22 * q),
        (1, 0): (-a, s00, s1 / h, s0 * h**5,
                 -1j * g12 / q, -1j * (g11 + s0 * g12) * q,
                 -1j * g22 / q, -1j * (g21 + s0 * g22) * q),
        (1, -1): (a, s00, s0 * h, s1 / h, g11 * q, g12 / q, g21 * q, g22 / q),
        (1, 1): (a, s00, s0 * h, s1 / h,
                 1j * (g21 + s00 * g11) * q, 1j * (g22 + s00 * g12) / q,
                 1j * g11 * q, 1j * g12 / q),
    }
    return table[(eps1, eps2)]


def _e(alpha):
    """diag(e^alpha, e^-alpha)"""
    return np.diag([cmath.exp(alpha), cmath.exp(-alpha)])


def _upper(s):
    return np.array([[1.0, s], [0.0, 1.0]], dtype=complex)


def lie_reference(pt, kind, p, l):
    """The Lie-point symmetries as products of 2x2 matrices: the new
    multipliers are read off the conjugated Stokes factors at infinity."""
    a, G, inv = pt.a, pt.G, np.linalg.inv
    s_inf = stokes_structure(pt, -2, 3).s_inf
    U = _upper(pt.s00)
    if kind == "negate_tau":
        D = _e(0.5 * PI * l * (a - 1j))
        s0n = (D @ s_inf[p + l] @ inv(D))[1, 0]
        s1n = (D @ s_inf[p + l + 1] @ inv(D))[0, 1]
        if p == 1:
            Gn = 1j * U @ SIGMA1 @ G @ _e(-0.25j * PI) @ _e(0.5 * PI * (a - 0.5j))
        else:
            Gn = -1j * SIGMA1 @ inv(U) @ G @ _e(0.25j * PI) @ _e(-0.5 * PI * (a - 0.5j))
    elif kind == "negate_a":
        a = -a
        D = _e(0.5 * PI * a * l)
        s0n = (D @ SIGMA1 @ s_inf[l] @ SIGMA1 @ inv(D))[1, 0]
        s1n = (D @ SIGMA1 @ s_inf[l + 1] @ SIGMA1 @ inv(D))[0, 1]
        K = _e(PI * (a - 0.5j)) @ SIGMA3 @ inv(_upper(s1n)) @ SIGMA3 \
            @ _e(-PI * (a - 0.5j)) @ _e(0.5 * PI * a)
        if p == 1:
            Gn = -1j * G @ SIGMA1 @ inv(K)
        else:
            Gn = -SIGMA1 @ inv(U) @ G @ SIGMA1 @ inv(K)
    else:  # rotate_tau
        Q = _e(0.25 * PI * a)
        s0n = pt.s0inf * cmath.exp(0.5 * PI * l * a)
        s1n = pt.s1inf * cmath.exp(-0.5 * PI * l * a)
        Gn = {(-1, 1): G @ Q,
              (1, -1): G @ inv(Q),
              (-1, -1): -1j * SIGMA1 @ inv(U) @ G @ inv(Q),
              (1, 1): 1j * U @ SIGMA1 @ G @ Q}[(p, l)]
    return (a, pt.s00, s0n, s1n, *(complex(v) for v in Gn.ravel()))


def reference_cases():
    """(name, action, reference) for the 26 non-identity actions."""
    cases = []
    for e1, e2 in itertools.product((0, 1, -1), repeat=2):
        if (e1, e2) != (0, 0):
            cases.append((f"F{e1, e2}", lambda pt, e1=e1, e2=e2: apply_F(pt, e1, e2),
                          lambda pt, e1=e1, e2=e2: F_reference(pt, e1, e2)))
    for e1, e2 in itertools.product((1, -1), (0, 1, -1)):
        cases.append((f"Fhat{e1, e2}", lambda pt, e1=e1, e2=e2: apply_Fhat(pt, e1, e2),
                      lambda pt, e1=e1, e2=e2: Fhat_reference(pt, e1, e2)))
    for kind in ("negate_tau", "negate_a", "rotate_tau"):
        for p, l in itertools.product((1, -1), repeat=2):
            cases.append((
                f"{kind}{p, l}",
                lambda pt, kind=kind, p=p, l=l: lie_point_monodromy(pt, kind, p, l),
                lambda pt, kind=kind, p=p, l=l: lie_reference(pt, kind, p, l)))
    return cases


def test_actions_match_reference_forms(manifold_sample):
    cases = reference_cases()
    assert len(cases) == 26
    worst = {}
    for pt in manifold_sample:
        assert apply_F(pt, 0, 0) is pt
        for name, action, reference in cases:
            err = rel_diff(action(pt), reference(pt))
            worst[name] = max(worst.get(name, 0.0), err)
    bad = {k: v for k, v in worst.items() if not v <= 1e-12}
    assert not bad, bad


# ---------------------------------------------------------- inverse pairs

def _lie(kind, p, l=1):
    return lambda pt: lie_point_monodromy(pt, kind, p, l)


INVERSE_PAIRS = (
    ("F(1,0) . F(-1,0)", lambda pt: apply_F(pt, -1, 0), lambda pt: apply_F(pt, 1, 0)),
    ("F(-1,0) . F(1,0)", lambda pt: apply_F(pt, 1, 0), lambda pt: apply_F(pt, -1, 0)),
    ("rotate_tau(1,1) . rotate_tau(-1,-1)",
     _lie("rotate_tau", -1, -1), _lie("rotate_tau", 1, 1)),
    ("rotate_tau(-1,1) . rotate_tau(1,-1)",
     _lie("rotate_tau", 1, -1), _lie("rotate_tau", -1, 1)),
    ("negate_a(-1) . negate_a(1)", _lie("negate_a", 1), _lie("negate_a", -1)),
    ("negate_a(1) . negate_a(-1)", _lie("negate_a", -1), _lie("negate_a", 1)),
    ("backlund down . up",
     lambda pt: backlund_monodromy(pt, "up"), lambda pt: backlund_monodromy(pt, "down")),
)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), branch=st.sampled_from((1, 2, 3)))
def test_inverse_pairs_compose_to_identity(seed, branch):
    (pt,) = sample_manifold(seed, 1, branch, max_entry=300.0)
    for name, first, second in INVERSE_PAIRS:
        ref = tuple(getattr(pt, k) for k in FIELDS)
        assert rel_diff(second(first(pt)), ref) <= 1e-12, name
