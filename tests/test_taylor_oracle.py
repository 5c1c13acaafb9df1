"""An arbitrary-precision oracle for the integrator at generic a: Taylor
series of the equation, multiplied by tau u into the polynomial form

    tau u u'' = tau u'^2 - u u' - 8 eps u^3 + 2 a b u + tau b^2,

stepped along the ray in mpmath.  The only exact solution the other tests
have is the a = 0 cube root.

The positive ray holds the integrator to 10 tol.  Off it the global error
grows more: on the same three points, seeded from the small chart at
|tau| = 0.02, the largest relative error in u up to |tau| = 10 was, at
tol 1e-10 and 1e-12,

    negative real ray        0.86, 0.66 | 10.9, 19.7 | 1.71, 1.39  (x tol)
    arg tau = pi/2, eps b<0  0.86, 0.74 |  114, 11.5 | 16.1, 22.4  (x tol)

(the imaginary ray and the negative coupling agree to three digits: the
quarter rotation flips the coupling's sign).  Those rays are bounded at
about three times the largest ratio seen.

The oracle's 33 terms at 25 digits, in steps of 0.25 of the estimated
radius, agree with 60 terms at 50 digits to 7e-15 relative on all twelve
cases.  The hardest is the negative ray's second point, whose path passes
|u| = 2e3: there 30 terms were off by 2.4e-12 at 25 digits and at 40, and
32 terms by 6e-14."""

import mpmath
import pytest

from dp3.asymptotics import du_imag, large_tau_chart, small_tau_chart, u_imag
from dp3.connection import _chart_seed
from dp3.ode import SolutionState, integrate_ray
from dp3.params import EquationParams
from dp3.sampling import sample_manifold

P1 = EquationParams.make(1, 1.0)
P_NEG = EquationParams.make(-1, 1.0)
TAU0, TAU_END = 0.02, 10.0
SAMPLES = (0.5, 1.0, 2.0, 5.0, 10.0)
TERMS, DIGITS, STEP = 33, 25, 0.25


def taylor_coefficients(tc, u0, du0, ab2, eps8, b2, terms):
    """u_0..u_{terms-1} of u(tc + x) = sum u_k x^k.  The x^n coefficient of
    the polynomial form gives u_{n+2} through the divisor tc u_0 (n+1)(n+2);
    u^2 is built one order at a time, so each order costs O(n)."""
    u = [u0, du0]
    d1 = [du0]  # coefficients of u'
    d2 = []  # coefficients of u''
    sq = []  # coefficients of u^2
    p_prev = q_prev = 0  # [u'^2]_{n-1} and [u u'']_{n-1}
    for n in range(terms - 2):
        sq.append(mpmath.fsum(u[j] * u[n - j] for j in range(n + 1)))
        cube = mpmath.fsum(sq[j] * u[n - j] for j in range(n + 1))
        p = mpmath.fsum(d1[j] * d1[n - j] for j in range(n + 1))
        uu1 = mpmath.fsum(u[j] * d1[n - j] for j in range(n + 1))
        a_n = mpmath.fsum(u[j] * d2[n - j] for j in range(1, n + 1))
        rest = tc * a_n + q_prev - tc * p - p_prev + uu1 + eps8 * cube - ab2 * u[n] \
            - b2 * (tc if n == 0 else 1 if n == 1 else 0)
        u.append(-rest / (tc * u0 * (n + 1) * (n + 2)))
        d2.append((n + 1) * (n + 2) * u[n + 2])
        d1.append((n + 2) * u[n + 2])
        q_prev = mpmath.fsum(u[j] * d2[n - j] for j in range(n + 1))
        p_prev = p
    return u


def taylor_ray(seed, a, params, samples):
    """u at the magnitudes ``samples`` (ascending) on the seed's ray, each
    step 0.25 of the radius that the last three coefficients estimate."""
    with mpmath.workdps(DIGITS):
        phase = mpmath.mpc(seed.tau) / abs(mpmath.mpc(seed.tau))
        s, u, du = mpmath.mpf(abs(seed.tau)), mpmath.mpc(seed.u), mpmath.mpc(seed.du)
        ab2 = 2 * mpmath.mpc(a) * params.b
        eps8, b2 = 8 * params.eps, mpmath.mpf(params.b) ** 2
        out = []
        for target in samples:
            target = mpmath.mpf(target)
            while s < target:
                c = taylor_coefficients(phase * s, u, du, ab2, eps8, b2, TERMS)
                radius = min(abs(c[k] / c[0]) ** (-1.0 / k) for k in range(TERMS - 3, TERMS))
                ds = min(STEP * radius, target - s)
                x = phase * ds
                u = mpmath.polyval(c[::-1], x)
                du = mpmath.polyval([k * c[k] for k in range(TERMS - 1, 0, -1)], x)
                s += ds
            out.append(complex(u))
        return out


def generic_manifold_points(count):
    """The first ``count`` generic-a points of the criterion-10 draw (seed
    97): a power-law small chart with |rho| >= 0.02, |a| >= 0.1 and a
    generic large chart, on the positive ray at eps b = 1."""
    found = []
    for pt in sample_manifold(seed=97, count=80, branch=1, nu_max=0.08,
                              re_rho_max=0.15, abs_a_max=0.6, max_entry=20.0):
        sc = small_tau_chart(pt, 0, P1)
        if sc.log_mode or abs(sc.rho) < 0.02 or abs(pt.a) < 0.1:
            continue
        if large_tau_chart(pt, 0, P1).special == "none":
            found.append(pt)
            if len(found) == count:
                return found
    raise AssertionError("too few generic-a criterion-10 points in the draw")


def generic_points(count):
    """``generic_manifold_points`` with their small-chart seeds at TAU0 on
    the positive ray."""
    return [(_chart_seed(pt, P1, TAU0, 0), pt.a) for pt in generic_manifold_points(count)]


@pytest.mark.parametrize("index", range(3))
def test_integrate_ray_matches_taylor_oracle_at_generic_a(index):
    seed, a = generic_points(3)[index]
    ref = taylor_ray(seed, a, P1, SAMPLES)
    for tol in (1e-10, 1e-12):
        traj = integrate_ray(seed, a, P1, TAU_END, tol=tol, dense_at=SAMPLES)
        err = max(abs(got - want) / abs(want) for got, want in zip(traj.u.tolist(), ref))
        assert err <= 10 * tol, (index, tol, err)


# each ray's seed, its parameters and its bound in units of tol, from the
# measured growth (module docstring) with a margin of about 3
OFF_POSITIVE_RAY = {
    "negative real ray": (lambda pt: _chart_seed(pt, P1, TAU0, 1), P1, 60.0),
    "arg tau = pi/2": (lambda pt: SolutionState(TAU0 * 1j, u_imag(pt, 1, P1, TAU0, "small"),
                                                du_imag(pt, 1, P1, TAU0)), P1, 350.0),
    "eps b < 0": (lambda pt: _chart_seed(pt, P_NEG, TAU0, 0), P_NEG, 350.0),
}


@pytest.mark.parametrize("index", range(3))
@pytest.mark.parametrize("ray", sorted(OFF_POSITIVE_RAY))
def test_integrate_ray_matches_taylor_oracle_off_the_positive_ray(ray, index):
    seeded, params, bound = OFF_POSITIVE_RAY[ray]
    pt = generic_manifold_points(3)[index]
    seed = seeded(pt)
    ref = taylor_ray(seed, pt.a, params, SAMPLES)
    for tol in (1e-10, 1e-12):
        traj = integrate_ray(seed, pt.a, params, TAU_END, tol=tol, dense_at=SAMPLES)
        err = max(abs(got - want) / abs(want) for got, want in zip(traj.u.tolist(), ref))
        assert err <= bound * tol, (ray, index, tol, err)
