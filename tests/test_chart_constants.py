"""The charts' derived constants and the small charts' gamma memo.

The evaluators read constants that each chart derives once from its fields.
The reference evaluators below write out the expressions the evaluators
formed on every call before that, and every value must agree bit for bit,
signed zeros included, on sampled points of all three branches, on
log-branch charts and on both triangular special charts, again after
``dataclasses.replace`` of a defining field.  Where a reference raises or
returns a non-finite value, the evaluator must raise
``ConditionViolationError``.

``_p_factors`` keeps its values in a bounded memo keyed on exact bits: the
small charts of one point share them, the memo stays within its bound, a
signed zero is its own key, and errors are not stored."""

import cmath
import dataclasses
import itertools
import math

import pytest

from dp3 import asymptotics
from dp3.asymptotics import (
    H_large,
    H_small,
    du_small,
    imag_chart,
    large_tau_chart,
    small_tau_chart,
    tau_function_asymptotic,
    u_imag,
    u_large,
    u_small,
)
from dp3.errors import ConditionViolationError, PoleError
from dp3.monodromy import MonodromyPoint, from_branch
from dp3.params import EquationParams
from dp3.sampling import sample_manifold

SQRT3 = math.sqrt(3.0)
PARAMS = (EquationParams.make(1, 1.0), EquationParams.make(1, 2.0),
          EquationParams.make(-1, 1.0), EquationParams.make(1, -0.7, -1))
SMALL_TAUS = (1e-3, 0.03, 0.5)
LARGE_TAUS = (50.0, 400.0, 1e4)


# ------------------------------------------------ the reference evaluators

def ray_phase(eps1):
    return cmath.exp(1j * math.pi * eps1)


def ray_sign(eps1):
    return (-1.0) ** (eps1 % 2)


def cbrt_on_ray(eps1, m):
    return ray_sign(eps1) * m ** (1.0 / 3.0)


def theta(P, m):
    return 3.0 * SQRT3 * P.abs_coupling ** (1.0 / 3.0) * m ** (2.0 / 3.0)


def small_brackets(ch, m):
    rho = ch.rho
    x = 2.0 * rho * math.log(m)
    mp = cmath.exp(x)
    mm = cmath.exp(-x)
    e_m = cmath.exp(-1j * math.pi * rho)
    e_p = cmath.exp(1j * math.pi * rho)
    t1p = ch.p_plus * ch.chi1_plus * mp
    t1m = ch.p_minus * ch.chi1_minus * mm
    t2p = ch.q_plus * e_m * ch.chi2_plus * mp
    t2m = ch.q_minus * e_p * ch.chi2_minus * mm
    return t1p + t1m, t2p + t2m, t1p - t1m, t2p - t2m


def log_brackets(ch, m):
    log_m = math.log(m)
    return ch.a2 + ch.b2 * log_m, ch.a2_second + ch.b2_second * log_m


def small_exponent(ch):
    e = ch.a * (ch.a - ch.params.sign2 * 1j) + 0.25
    return e if ch.log_mode else e + 8.0 * ch.rho**2


def ref_u_small(ch, m):
    P = ch.params
    tau = ray_phase(ch.eps1) * m
    if ch.log_mode:
        L1, L2 = log_brackets(ch, m)
        return ch.prefactor * tau * L1 * L2
    F1, F2, _, _ = small_brackets(ch, m)
    s = P.sign2
    return s * tau * P.b / (16.0 * math.pi) * cmath.exp(s * math.pi * ch.a / 2.0) * F1 * F2


def ref_du_small(ch, m):
    P = ch.params
    if ch.log_mode:
        L1, L2 = log_brackets(ch, m)
        return ch.prefactor * (L1 * L2 + ch.b2 * L2 + ch.b2_second * L1)
    F1, F2, G1, G2 = small_brackets(ch, m)
    s = P.sign2
    K = s * P.b / (16.0 * math.pi) * cmath.exp(s * math.pi * ch.a / 2.0)
    return K * (F1 * F2 + 2.0 * ch.rho * (G1 * F2 + F1 * G2))


def ref_H_small(ch, m):
    tau = ray_phase(ch.eps1) * m
    if ch.log_mode:
        return small_exponent(ch) / (2.0 * tau) + ch.b2 / (tau * log_brackets(ch, m)[0])
    F1, _, G1, _ = small_brackets(ch, m)
    return 2.0 * ch.rho / tau * (G1 / F1) + small_exponent(ch) / (2.0 * tau)


def ref_tau_function(ch, m):
    tau = ray_phase(ch.eps1) * m
    F1 = log_brackets(ch, m)[0] if ch.log_mode else small_brackets(ch, m)[0]
    return 1.0 * (tau ** (0.5 * small_exponent(ch)) * F1)


def special_oscillation(ch, m):
    P = ch.params
    th = theta(P, m)
    coeff = ray_sign(ch.eps1) * P.eps * math.sqrt(P.abs_coupling) \
        * (ch.s00 - 1j * cmath.exp(-P.sign2 * math.pi * ch.a)) \
        / (2.0 ** 1.5 * 3.0 ** 0.25 * math.sqrt(math.pi))
    ratio = (SQRT3 - 1.0) / (SQRT3 + 1.0)
    if ch.special == "g21_zero":
        return coeff * cmath.exp(P.sign2 * 1j * ch.a * math.log(ratio)) \
            * cmath.exp(-1j * (th - math.pi / 4.0))
    return coeff * cmath.exp(P.sign2 * 1j * ch.a * math.log(1.0 / ratio)) \
        * cmath.exp(1j * (th + 3.0 * math.pi / 4.0))


def ref_u_large(ch, m):
    P = ch.params
    if ch.special != "none":
        algebraic = P.eps * P.coupling_pow23 * cbrt_on_ray(ch.eps1, m) / 2.0
        return algebraic + special_oscillation(ch, m)
    if ch.nu_plus_1 == 0 or ch.z is None:
        raise ConditionViolationError("degenerate chart")
    th = theta(P, m)
    scale = ray_sign(ch.eps1) * P.eps * math.sqrt(P.abs_coupling) / 3.0 ** 0.25
    weight = cmath.sqrt(ch.nu_plus_1) * cmath.exp(0.75j * math.pi)
    return scale * (cmath.sqrt(th / 12.0) + weight
                    * cmath.cosh(1j * th + ch.nu_plus_1 * cmath.log(th) + ch.z))


def ref_H_large(ch, m):
    P = ch.params
    tau = ray_phase(ch.eps1) * m
    ash = ch.a - 0.5j * P.sign2
    t13 = cbrt_on_ray(ch.eps1, m)
    return 3.0 * P.coupling_pow23 * t13 \
        + 2.0 * P.abs_coupling ** (1.0 / 3.0) / t13 * (ash - 2.0 * SQRT3 * 1j * ch.nu_plus_1) \
        + ash * ash / (2.0 * tau)


SMALL = ((u_small, ref_u_small), (du_small, ref_du_small), (H_small, ref_H_small),
         (tau_function_asymptotic, ref_tau_function))
LARGE = ((u_large, ref_u_large), (H_large, ref_H_large))


def bits(value: complex) -> tuple[str, str]:
    value = complex(value)
    return value.real.hex(), value.imag.hex()


def outcome(fn, *args):
    """The bits of ``fn(*args)``, or None where it fails or is not finite
    (the reference's raw arithmetic errors, the evaluator's typed one)."""
    try:
        value = fn(*args)
    except (ArithmeticError, ValueError, ConditionViolationError):
        return None
    return bits(value) if cmath.isfinite(value) else None


def assert_same(ch, pairs, taus) -> int:
    """Every evaluator of ``pairs`` against its reference on ``taus``;
    returns the number of finite values compared."""
    finite = 0
    for (fn, ref), m in itertools.product(pairs, taus):
        want = outcome(ref, ch, m)
        assert outcome(fn, ch, m) == want, (fn.__name__, ch, m)
        finite += want is not None
    return finite


# ------------------------------------------------------------ the charts

def build(builder, *args):
    try:
        return builder(*args)
    except (ConditionViolationError, PoleError):
        return None


def sampled_charts():
    """Small and large charts on the three real rays and the imaginary
    rays, for points of the three branches."""
    small, large = [], []
    for branch in (1, 2, 3):
        for pt, P in zip(sample_manifold(11 + branch, 8, branch, max_entry=300.0),
                         itertools.cycle(PARAMS)):
            for eps1 in (0, 1, -1):
                small.append(build(small_tau_chart, pt, eps1, P))
                large.append(build(large_tau_chart, pt, eps1, P))
            for eps1 in (1, -1):
                small.append(build(imag_chart, pt, eps1, P, "small"))
                large.append(build(imag_chart, pt, eps1, P, "large"))
    return [c for c in small if c is not None], [c for c in large if c is not None]


def log_charts():
    """Small charts on the logarithmic branch (s00 = 2i, branches 2 and 3)."""
    out = []
    for a, g, P, eps1 in itertools.product((0.3 + 0.2j, -0.45 + 0.1j, 0.6j), (0.8 + 0.3j, -1.3j),
                                           PARAMS, (0, 1, -1)):
        for pt in (from_branch(2, a, s00=2j, g22=g), from_branch(3, a, s00=2j, g11=g)):
            ch = build(small_tau_chart, pt, eps1, P)
            if ch is not None:
                out.append(ch)
    return out


def special_charts():
    """Large charts with a triangular G on the positive ray: g21 = 0 and g12 = 0."""
    out = []
    for a, g, x, P in itertools.product((0.2 - 0.1j, -0.4 + 0.3j), (1.2, 0.7 - 0.4j),
                                        (0.3 + 0.5j, -0.8), PARAMS[:2]):
        for pt in (from_branch(1, a, g11=g, g12=x, g21=0.0, g22=1.0 / g),
                   from_branch(1, a, g11=g, g12=0.0, g21=x, g22=1.0 / g)):
            out.append(large_tau_chart(pt, 0, P))
    return out


@pytest.fixture(scope="module")
def charts():
    small, large = sampled_charts()
    return small, large, log_charts(), special_charts()


def test_small_chart_evaluators_unchanged(charts):
    small, _, logs, _ = charts
    assert sum(not ch.log_mode for ch in small) >= 40 and len(logs) >= 40
    assert all(ch.log_mode for ch in logs)
    assert sum(assert_same(ch, SMALL, SMALL_TAUS) for ch in small + logs) >= 1000


def test_large_chart_evaluators_unchanged(charts):
    _, large, _, specials = charts
    kinds = {ch.special for ch in large + specials}
    assert kinds == {"none", "g21_zero", "g12_zero"}
    assert sum(assert_same(ch, LARGE, LARGE_TAUS) for ch in large + specials) >= 400


def test_constants_follow_dataclasses_replace(charts):
    small, large, logs, specials = charts
    for ch in small[:20] + logs[:10]:
        for changes in ({"a": ch.a + 0.07}, {"eps1": -ch.eps1 or 1},
                        {"params": EquationParams.make(-1, 2.0)}):
            assert_same(dataclasses.replace(ch, **changes), SMALL, SMALL_TAUS)
        if not ch.log_mode:
            flipped = dataclasses.replace(ch, rho=0.9 * ch.rho, p_plus=1.1 * ch.p_plus,
                                          q_minus=0.8j * ch.q_minus,
                                          chi2_plus=ch.chi2_minus)
            assert_same(flipped, SMALL, SMALL_TAUS)
    for ch in large[:20] + specials:
        for changes in ({"a": ch.a - 0.05j}, {"nu_plus_1": ch.nu_plus_1 + 0.01j},
                        {"eps1": -ch.eps1 or 1}, {"s00": ch.s00 + 0.3},
                        {"params": EquationParams.make(-1, 0.5)}):
            assert_same(dataclasses.replace(ch, **changes), LARGE, LARGE_TAUS)


def test_u_imag_unchanged():
    compared = 0
    for branch in (1, 2, 3):
        for pt, P in zip(sample_manifold(31 + branch, 6, branch, max_entry=300.0),
                         itertools.cycle(PARAMS)):
            for eps1, regime in itertools.product((1, -1), ("small", "large")):
                ch = build(imag_chart, pt, eps1, P, regime)
                if ch is None:
                    continue
                ref = ref_u_small if regime == "small" else ref_u_large
                for m in SMALL_TAUS if regime == "small" else LARGE_TAUS:
                    want = outcome(lambda c, t: 1j * eps1 * ref(c, t), ch, m)
                    assert outcome(u_imag, pt, eps1, P, m, regime) == want
                    compared += want is not None
    assert compared >= 100


def test_chart_with_an_overflowing_constant_still_builds():
    # e^{pi a / 2} overflows at Re a = 800, so u_small and du_small raise
    # while H_small and the tau-function still evaluate; at Re a = -800 the
    # special chart's e^{-pi a} overflows, so u_large raises and H_large
    # does not
    P = PARAMS[0]
    small = small_tau_chart(MonodromyPoint(800.0 + 0.1j, 0.3 + 0.1j, 0j, 0j,
                                           1.1, 0.2, 0.3j, (1.0 + 0.06j) / 1.1), 0, P)
    for fn, ref in SMALL:
        for m in SMALL_TAUS:
            want = outcome(ref, small, m)
            assert (want is None) == (fn in (u_small, du_small))
            assert outcome(fn, small, m) == want
    large = large_tau_chart(MonodromyPoint(-800.0 + 0j, 0.3 + 0.1j, 0j, 0j, 1.1, 0.2, 0j, 1 / 1.1),
                            0, P)
    assert large.special == "g21_zero"
    for fn, ref in LARGE:
        for m in LARGE_TAUS:
            want = outcome(ref, large, m)
            assert (want is None) == (fn is u_large)
            assert outcome(fn, large, m) == want


# ------------------------------------------------------------ the memo

def reference_p(params, z2, z1s):
    base = cmath.log(params.abs_coupling / 32.0) + 0.5j * math.pi
    ratio = asymptotics.gamma(0.5 - z2) / asymptotics.gamma(1.0 + z2)
    w = cmath.exp(z2 * base) * ratio * ratio
    t = cmath.tan(math.pi * z2)
    return [w * asymptotics.gamma(1.0 + z2 + 0.5j * z1) / t for z1 in z1s]


@pytest.fixture
def gamma_calls(monkeypatch):
    """An empty memo, and a list that grows by one per gamma call made
    through the asymptotics module's binding."""
    calls = []
    gamma = asymptotics.gamma

    def counted(z):
        calls.append(z)
        return gamma(z)

    monkeypatch.setattr(asymptotics, "gamma", counted)
    asymptotics._P_MEMO.clear()
    return calls


def test_one_points_small_charts_share_their_gamma_values(gamma_calls):
    pt = sample_manifold(5, 1, 1)[0]
    for P in PARAMS[:3]:
        asymptotics._P_MEMO.clear()
        gamma_calls.clear()
        charts = [small_tau_chart(pt, eps1, P) for eps1 in (0, 1, -1)]
        charts += [imag_chart(pt, eps1, P, "small") for eps1 in (1, -1)]
        assert not any(ch.log_mode for ch in charts)
        assert 0 < len(gamma_calls) <= 10


def test_memo_stays_within_its_bound(gamma_calls):
    sizes = []
    for branch in (1, 2, 3):
        for pt in sample_manifold(7 + branch, 10, branch):
            for eps1 in (0, 1, -1):
                build(small_tau_chart, pt, eps1, PARAMS[0])
                sizes.append(len(asymptotics._P_MEMO))
    assert max(sizes) == asymptotics._P_MEMO_SIZE
    assert len(gamma_calls) > 30 * 4


def test_signed_zeros_are_separate_keys(gamma_calls):
    # x + 0j and x - 0j, in rho or in a, are two keys, each holding the
    # uncached value of its own argument
    P = PARAMS[1]
    for x in (0.21, -0.37, 0.0):
        asymptotics._P_MEMO.clear()
        for z2, z1 in itertools.product((complex(0.13, 0.0), complex(0.13, -0.0)),
                                        (complex(x, 0.0), complex(x, -0.0))):
            z1s = (z1,)
            want = [bits(v) for v in reference_p(P, z2, z1s)]
            for _ in range(2):  # the second call reads the memo
                assert [bits(v) for v in asymptotics._p_factors(P, z2, z1s)] == want
        assert len(asymptotics._P_MEMO) == 4


def test_errors_are_not_stored(gamma_calls):
    # 1 + z2 + 0.5j z1 = 0 is a pole of gamma
    P = PARAMS[0]
    for n in range(1, 4):
        with pytest.raises(PoleError):
            asymptotics._p_factors(P, 0.25 + 0j, (2.5j,))
        assert len(gamma_calls) == 3 * n
    assert not asymptotics._P_MEMO
