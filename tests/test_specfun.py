"""Special-function tests against frozen arbitrary-precision oracle values
(computed with mpmath at 40 digits before the build) and the classical
functional identities."""

import cmath
import math
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dp3.errors import PoleError
from dp3.specfun import digamma, gamma, ln_gamma

# (z, loggamma(z)) frozen from mpmath.loggamma, dps=40
LOGGAMMA_ORACLE = [
    (3 + 4j, -1.7566267846037841105 + 4.7426644380346579282j),
    (0.5 + 0j, 0.57236494292470008707 + 0j),
    (-3.5 + 2.25j, -7.0838459844483949987 - 9.333955668656679694j),
    (12.5 - 7.0j, 16.795967843201039626 - 17.757819362830544594j),
    (-8.25 - 0.5j, -10.862989709742169519 + 26.447053462442391103j),
    (0.25 - 45.0j, -70.718557936685801847 - 125.90734444111425922j),
]

GAMMA_ORACLE = [
    (3 + 4j, 0.0052255384713692141947 - 0.17254707929430018772j),
    (-2.5 + 1.5j, 0.0034121395642391490286 - 0.024053490434664735984j),
    (0.1 - 0.2j, 1.5391003433867946979 + 3.8384919018379110316j),
]

DIGAMMA_ORACLE = [
    (1 + 0j, -0.57721566490153286061 + 0j),
    (2.5 + 0j, 0.70315664064524318723 + 0j),
    (3 + 4j, 1.5503598173334109127 + 1.0105022091860444529j),
    (-4.5 + 3j, 1.7637603814948346465 + 2.6022491819542893139j),
    (0.25 - 0.75j, -0.33639762425697834623 - 1.9500131789983235761j),
]


@pytest.mark.parametrize("z,expected", LOGGAMMA_ORACLE)
def test_ln_gamma_oracle(z, expected):
    assert abs(ln_gamma(z) - expected) <= 1e-13 * max(1.0, abs(expected))


LN_GAMMA_RE = (-1e6 - 0.3, -1e6 + 0.25, -12345.678, -1000.5, -50.3, -7.5, -3.0000001, -2.5,
               -1.2, -0.75, -0.5, -1e-3, 0.2, 0.45, 0.5, 3.0)
LN_GAMMA_IM = (0.0, -0.0, 1e-9, -1e-9, 0.5, -0.5, 3.0, -3.0, 7.5, -7.5, 40.0, -40.0, 300.0,
               -300.0, 1e4)


def test_ln_gamma_matches_mpmath_down_to_re_z_minus_1e6():
    # mpmath has no signed zero: its value on the cut is the upper side's,
    # and an imaginary part of -0.0 takes the lower side, as in cmath
    worst = 0.0
    with mpmath.workdps(30):
        for x in LN_GAMMA_RE:
            for y in LN_GAMMA_IM:
                ref = complex(mpmath.loggamma(mpmath.mpc(x, y)))
                if y == 0.0 and math.copysign(1.0, y) < 0.0:
                    ref = ref.conjugate()
                worst = max(worst, abs(ln_gamma(complex(x, y)) - ref) / abs(ref))
    assert worst <= 1e-13


def test_ln_gamma_cost_does_not_grow_with_minus_re_z():
    # summing ceil(1/2 - Re z) logarithms never returned at Re z = -1e20;
    # a child process, so that such a loop fails the test by its timeout
    code = ("import time; from dp3.specfun import ln_gamma; t = time.perf_counter(); "
            "[ln_gamma(z) for z in (-1e20 + 0.5j, -1e6 + 0.25j, complex(-1e300, 1.0))]; "
            "print(time.perf_counter() - t)")
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=src, timeout=30)
    assert float(out.stdout) < 1.0


def test_ln_gamma_trivials():
    assert abs(ln_gamma(1.0)) < 1e-14
    assert abs(ln_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14


def test_exp_ln_gamma_is_gamma():
    rng = np.random.default_rng(1)
    for _ in range(200):
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z.imag) < 1e-3 and z.real <= 0.5:
            continue
        g = gamma(z)
        assert abs(cmath.exp(ln_gamma(z)) - g) <= 1e-12 * abs(g)


@pytest.mark.parametrize("z,expected", GAMMA_ORACLE)
def test_gamma_oracle(z, expected):
    assert abs(gamma(z) - expected) <= 1e-13 * abs(expected)


def test_gamma_trivials_and_recurrence():
    assert abs(gamma(1.0) - 1.0) < 1e-14
    assert abs(gamma(1.25) - 0.25 * gamma(0.25)) <= 1e-13 * abs(gamma(1.25))


def test_gamma_of_i_modulus():
    # reflection-formula oracle: |Gamma(i)|^2 = pi / sinh(pi)
    assert abs(abs(gamma(1j)) ** 2 - math.pi / math.sinh(math.pi)) < 1e-13


@pytest.mark.parametrize("z,expected", DIGAMMA_ORACLE)
def test_digamma_oracle(z, expected):
    assert abs(digamma(z) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_digamma_recurrence_and_half():
    z = 2.5 + 0j
    assert abs(digamma(z + 1) - digamma(z) - 1.0 / z) < 1e-13
    # psi(1/2) = psi(1) - 2 ln 2
    assert abs(digamma(0.5) - (digamma(1.0) - 2.0 * math.log(2.0))) < 1e-12


def test_poles_raise():
    for z in (0.0, -1.0, -2.0, -17.0):
        with pytest.raises(PoleError):
            ln_gamma(z)
        with pytest.raises(PoleError):
            gamma(z)
        with pytest.raises(PoleError):
            digamma(z)


def _grid(n, lim, seed):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        z = complex(rng.uniform(-lim, lim), rng.uniform(-lim, lim))
        if abs(z.imag) < 5e-2 and abs(z.real - round(z.real)) < 5e-2:
            continue  # keep clear of poles so the tolerances are meaningful
        pts.append(z)
    return pts


def test_reflection_identity_grid():
    for z in _grid(100, 20.0, seed=7):
        val = gamma(z) * gamma(1.0 - z) * cmath.sin(math.pi * z) / math.pi
        assert abs(val - 1.0) < 1e-12


def test_duplication_identity_grid():
    for z in _grid(100, 12.0, seed=8):
        lhs = gamma(2.0 * z)
        rhs = 2.0 ** (2.0 * z - 1.0) / math.sqrt(math.pi) * gamma(z) * gamma(z + 0.5)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-290)


def test_digamma_is_derivative_of_ln_gamma():
    rng = np.random.default_rng(9)
    h = 1e-5
    for _ in range(60):
        z = complex(rng.uniform(1.0, 30.0), rng.uniform(-30.0, 30.0))
        fd = (ln_gamma(z + h) - ln_gamma(z - h)) / (2.0 * h)
        assert abs(fd - digamma(z)) < 1e-8


@settings(max_examples=150, deadline=None)
@given(st.complex_numbers(min_magnitude=0.3, max_magnitude=25.0,
                          allow_nan=False, allow_infinity=False))
def test_gamma_recurrence_property(z):
    if abs(z.imag) < 1e-2 and z.real < 0.6:
        return
    lhs = gamma(z + 1.0)
    assert abs(lhs - z * gamma(z)) <= 1e-11 * max(abs(lhs), 1e-250)
