"""The dense output in one pass: numpy lanes that repeat CPython's scalar
complex arithmetic bit for bit, and ``integrate_ray``'s samples against a
step-by-step pass with the scalar interpolant and ``_evaluate``."""

import operator
import struct

import numpy as np
import pytest

from dp3 import ode
from dp3.errors import SingularityError
from dp3.ode import SolutionState, _Lanes, algebraic_solution, integrate_ray
from test_ode import P1, crit10_seed

OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def parts(rng, size):
    """Floats of every kind the lanes must reproduce: signed zeros, normal,
    huge and subnormal or tiny magnitudes."""
    kind = rng.integers(0, 5, size)
    sign = rng.choice([-1.0, 1.0], size)
    return np.select(
        [kind == 0, kind == 1, kind == 2, kind == 3],
        [sign * 0.0, rng.normal(size=size), sign * 10.0 ** rng.uniform(280, 308, size),
         sign * 10.0 ** rng.uniform(-323, -290, size)],
        rng.uniform(-3.0, 3.0, size))


def same(x, y) -> bool:
    """The same bits in each part, where a NaN matches any NaN: the lanes do
    not promise NaN payloads."""
    x, y = complex(x), complex(y)
    return all(struct.pack("d", p) == struct.pack("d", q) or (p != p and q != q)
               for p, q in ((x.real, y.real), (x.imag, y.imag)))


def lane_values(lanes: _Lanes) -> list:
    v = lanes.v
    return v.tolist() if v.ndim == 1 else [complex(r, i) for r, i in zip(v[0], v[1])]


def test_lane_arithmetic_equals_cpython_bit_for_bit():
    rng = np.random.default_rng(7)
    size = 4000
    re_a, im_a, re_b, im_b = (parts(rng, size) for _ in range(4))
    operands = {
        "complex": (_Lanes(np.stack((re_a, im_a))), [complex(r, i) for r, i in zip(re_a, im_a)]),
        "real": (_Lanes(re_b.copy()), re_b.tolist()),
        "complex2": (_Lanes(np.stack((re_b, im_b))), [complex(r, i) for r, i in zip(re_b, im_b)]),
    }
    scalars = (0.0, -0.0, 0.37, -2.5, 1e300, 5e-324, 3, 1.5 - 0.0j, -0.0 + 2j, 1e-300 - 1e300j)
    checked = 0
    with np.errstate(all="ignore"):
        for op in OPS:
            for name_a, (lanes_a, values_a) in operands.items():
                pairs = [(lanes_b, values_b) for name_b, (lanes_b, values_b) in operands.items()
                         if name_b != name_a]
                pairs += [(s, [s] * size) for s in scalars]
                for lanes_b, values_b in pairs:
                    for left, right, xs, ys in ((lanes_a, lanes_b, values_a, values_b),
                                                (lanes_b, lanes_a, values_b, values_a)):
                        if not isinstance(left, _Lanes) and not isinstance(right, _Lanes):
                            continue
                        try:
                            got = lane_values(op(left, right))
                        except ZeroDivisionError:
                            assert any(y == 0 for y in ys)
                            # the lanes with a nonzero divisor still agree
                            keep = [k for k, y in enumerate(ys) if y != 0]
                            if not keep:
                                continue
                            index = np.array(keep)
                            sub = [x.take(index) if isinstance(x, _Lanes) else x
                                   for x in (left, right)]
                            got = lane_values(op(*sub))
                            xs, ys = [xs[k] for k in keep], [ys[k] for k in keep]
                        want = [op(x, y) for x, y in zip(xs, ys)]
                        bad = [(x, y, w, g) for x, y, w, g in zip(xs, ys, want, got)
                               if not same(w, g)]
                        assert not bad, (op.__name__, bad[:3])
                        checked += len(want)
    assert checked > 500_000
    lanes, values = operands["complex"]
    assert all(same(-x, g) for x, g in zip(values, lane_values(-lanes)))


def test_lane_zero_divisor_raises():
    lanes = _Lanes(np.array([[1.0, -0.0], [2.0, 0.0]]))  # 1 + 2j and -0 + 0j
    for numerator in (1.0, 2j, lanes):
        with pytest.raises(ZeroDivisionError, match="complex division by zero"):
            numerator / lanes
    with pytest.raises(ZeroDivisionError, match="float division by zero"):
        _Lanes(np.array([1.0, 2.0])) / _Lanes(np.array([3.0, 0.0]))
    with pytest.raises(ZeroDivisionError):
        lanes / 0.0
    # a right-hand side's `if u == 0` guard fires when one lane vanishes
    assert lanes == 0 and not lanes == 5.0


def reference_samples(seed, a, tau_end, tol, dense_at):
    """``integrate_ray``'s samples and ``nfev`` the step-by-step way: every
    accepted step replayed with the scalar fused kernels, and the scalar
    interpolant and ``_evaluate`` on each step that holds a sample."""
    with_phi = seed.phi is not None
    y0 = [complex(seed.u), complex(seed.du)] + ([complex(seed.phi)] if with_phi else [])
    s0 = abs(seed.tau)
    phase = complex(seed.tau / s0)
    a = complex(a)
    rhs, step, interpolant = ode._kernels(ode._RAY, len(y0))(
        phase, *ode._ray_constants(a, P1), 2.0 * a, P1.b)
    atol = tol * 1e-3
    sol = ode.solve_ivp((rhs, step, interpolant), (s0, tau_end), y0, rtol=tol, atol=atol,
                        bounds=(1e-8, 1e8))
    t, states = sol.t.tolist(), [[complex(v) for v in col] for col in sol.y.T]
    direction = 1.0 if tau_end > s0 else -1.0
    samples, held = [], set()
    for p in np.asarray(dense_at, dtype=float).tolist():
        k = next((k for k in range(len(t) - 1) if direction * (p - t[k + 1]) <= 0), len(t) - 2)
        y, h = states[k], t[k + 1] - t[k]
        y_new, _, _, ks = step(t[k], h, y, rhs(t[k], y), atol, tol)
        assert list(y_new) == states[k + 1]
        coeffs = interpolant(t[k], h, y, y_new, rhs(t[k + 1], y_new), ks)
        samples.append(ode._evaluate(coeffs, y, (p - t[k]) / h))
        held.add(k)
    return np.array(samples).T, sol.nfev + 3 * len(held)


def _rays():
    seed, a = crit10_seed()
    windows = np.concatenate([np.linspace(50.0, 100.0, 40), np.linspace(25.0, 60.0, 40),
                              np.linspace(80.0, 30.0, 40), [100.0, 0.02]])
    end = integrate_ray(seed, a, P1, 100.0, tol=1e-10)
    back = SolutionState(end.tau[-1], end.u[-1], end.du[-1])
    alg = algebraic_solution(40.0, P1, with_phi=True, phi0=0.3)  # real: signed zeros
    alg_imag = algebraic_solution(2.0j, P1)
    return [
        ("forward n=2", seed, a, 100.0, windows),
        ("forward n=3", SolutionState(seed.tau, seed.u, seed.du, 0.25 - 0.5j), a, 100.0, windows),
        ("backward n=2", back, a, 0.02, windows[::-1]),
        ("backward n=3, real", alg, 0.0, 0.5, np.concatenate([np.linspace(40.0, 0.5, 50),
                                                              np.linspace(3.0, 9.0, 20)])),
        ("imaginary ray", alg_imag, 0.0, 30.0, np.linspace(30.0, 2.0, 33)),
    ]


@pytest.mark.parametrize("name, seed, a, tau_end, dense_at", _rays(), ids=lambda v: None)
def test_dense_samples_equal_step_by_step_pass(name, seed, a, tau_end, dense_at):
    traj = integrate_ray(seed, a, P1, tau_end, tol=1e-10, dense_at=dense_at)
    ref, nfev = reference_samples(seed, a, tau_end, 1e-10, dense_at)
    got = [traj.u, traj.du] + ([traj.phi] if seed.phi is not None else [])
    assert np.array(got).tobytes() == ref.tobytes(), name
    assert traj.nfev == nfev


def test_dense_pass_names_the_first_step_at_fault():
    # stage 13 reads u = y0 + h * (a_13,0 * k0_0 + ...): zero for the second
    # held step, whose stages are zero but for k0 = (1, 0.5), at h = 1
    a = 0.3 + 0.1j
    _, _, interpolant = ode._kernels(ode._RAY, 2)(1.0 + 0j, *ode._ray_constants(a, P1),
                                                  2.0 * a, P1.b)
    zeros = (0j,) * 24
    held = [(1.0, 1.0, [2.0 + 0j, 1.0 + 0j], (2.5 + 0j, 1.2 + 0j), (1.0 + 0j, 0.5 + 0j),
             (1.0 + 0j, 0.5 + 0j) + zeros[2:]),
            (2.0, 1.0, [-ode._A_NONZERO[12][0] + 0j, 1.0 + 0j], (1.0 + 0j, 1.0 + 0j),
             (0j, 0.5 + 0j), (1.0 + 0j, 0.5 + 0j) + zeros[2:])]
    with pytest.raises(SingularityError) as scalar:
        interpolant(*held[1])
    assert str(scalar.value) == f"u vanished at |tau| = {2.0 + ode._C[13]}"
    flat = [(t, h, *y, *y_new, *f_new, *ks) for t, h, y, y_new, f_new, ks in held]
    with pytest.raises(SingularityError) as lanes:
        ode._dense_output(interpolant, flat, [1, 1], np.array([1.5, 2.5]), 2)
    assert str(lanes.value) == str(scalar.value)
