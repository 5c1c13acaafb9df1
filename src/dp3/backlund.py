"""Backlund transformations at the solution level, the ladder of solutions
generated by iterating them, residual checks for the integrable lattice
equations the ladder satisfies (Kac-Moerbeke, a discrete Painleve relation,
a Toda-chain form, and the f-recurrence), and the discrete Lie-point
symmetries acting on solutions.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

# the errors module, not its decorator: perfbench/tracer.py wraps the
# functions bound in this namespace and looks each up in its own module
from . import _EXPORTS, errors
from .errors import ConditionViolationError, LadderBreakdownError, SingularityError
from .ode import SolutionState, dp3_rhs
from .params import EquationParams

__all__ = _EXPORTS["backlund"]

# evaluator signature: tau -> SolutionState on the seed's ray
SeedEval = Callable[[complex], SolutionState]

_SEED_TOL = 1e-6  # largest finite-difference residual of a checked seed
# relative steps in |tau| of the seed check's and the toda identity's
# second differences
_SEED_H_REL = 2e-4
_TODA_H_REL = 1e-4


@dataclass(frozen=True)
class LadderEntry:
    """Rung ``n`` of a Backlund ladder: parameter ``a_n = a0 - i n``, the
    state at the shared evaluation point, ``v_n = u_n / tau``, and (when
    the next rung exists) ``g_n = v_{n+1} v_n`` and
    ``f_n = (2 tau^2 / (i eps b)) g_n``."""

    n: int
    a_n: complex
    state: SolutionState
    v: complex
    g: complex | None = None
    f: complex | None = None


def _finite_step(result: tuple[SolutionState, complex]) -> bool:
    """Whether the image's u and u' and its a are finite (the input's tau is)."""
    state, a = result
    return all(cmath.isfinite(v) for v in (state.u, state.du, a))


@functools.partial(errors.finite_result, finite=_finite_step)
def backlund_step(state: SolutionState, a: complex, params: EquationParams,
                  direction: str = "up") -> tuple[SolutionState, complex]:
    """One Backlund transformation.  ``up`` sends ``a -> a - i``, ``down``
    (its group inverse) sends ``a -> a + i``.  The derivative of the image
    is obtained analytically, eliminating u'' through the equation.  An
    arithmetic failure (say u u underflowing to 0) or a non-finite image
    raises ``ConditionViolationError``."""
    tau, u, du = state.tau, state.u, state.du
    if u == 0:
        raise SingularityError("Backlund step undefined at u = 0")
    _, ddu = dp3_rhs(state, a, params)
    # down is up with u', tau u'' and the 1 of 2ai + 1 negated (x - y == x + (-y))
    if direction == "up":
        du_s, tau_ddu, k, a_new = -du, -(tau * ddu), 2.0 * a * 1j + 1.0, a - 1j
    elif direction == "down":
        du_s, tau_ddu, k, a_new = du, tau * ddu, 2.0 * a * 1j - 1.0, a + 1j
    else:
        raise ConditionViolationError("direction must be 'up' or 'down'")
    c = du_s + 1j * params.b
    N = tau * c + k * u
    dN = c + tau_ddu + k * du
    pref = -1j * params.eps * params.b / 8.0
    u1 = pref * N / (u * u)
    du1 = pref * (dN - 2.0 * N * du / u) / (u * u)
    return SolutionState(tau=tau, u=u1, du=du1), a_new


def ladder(seed: SolutionState, a0: complex, params: EquationParams, n_max: int,
           seed_eval: SeedEval | None = None) -> list[LadderEntry]:
    """Rungs ``n = 0..n_max`` obtained by iterated up-steps from ``seed``.

    When ``seed_eval`` is given (a closed-form or numeric evaluator of the
    seed solution on its ray) the seed is residual-checked against the
    equation before climbing.  An ``n_max`` that is not a non-negative
    integer raises ``ConditionViolationError`` and ``tau = 0``
    ``SingularityError``; a rung that overflows or is not finite (for
    example at a huge or tiny |tau|) raises ``LadderBreakdownError``.
    """
    if not (isinstance(n_max, numbers.Integral) and n_max >= 0):
        raise ConditionViolationError(f"n_max = {n_max!r} must be a non-negative integer")
    tau = seed.tau
    if tau == 0:
        raise SingularityError("tau = 0 is a singular point of the equation")
    try:
        return _climb(seed, a0, params, n_max, seed_eval)
    except (OverflowError, ZeroDivisionError) as exc:
        raise LadderBreakdownError(f"the ladder overflows at tau = {tau}: {exc}") from None


def _climb(seed, a0, params, n_max, seed_eval) -> list[LadderEntry]:
    tau = seed.tau
    if seed_eval is not None:
        res = _seed_residual(seed_eval, tau, a0, params)
        if res > _SEED_TOL:
            raise ConditionViolationError(
                f"seed residual {res:.3e} exceeds {_SEED_TOL:.1e}; "
                "the seed does not solve the equation at a = a0")
    states = [seed]
    state, a = seed, a0
    for n in range(n_max):
        if state.u == 0:
            raise LadderBreakdownError(f"u_{n} vanishes at tau = {tau}", n=n)
        try:
            state, a = backlund_step(state, a, params, "up")
        except ConditionViolationError as exc:
            raise LadderBreakdownError(f"rung {n + 1} breaks down: {exc}", n=n + 1) from None
        states.append(state)
    entries = []
    for n, st in enumerate(states):
        v = st.u / tau
        g = f = None
        if n + 1 < len(states):
            g = states[n + 1].u / tau * v
            f = 2.0 * tau * tau / (1j * params.eps * params.b) * g
        if not all(cmath.isfinite(x) for x in (st.u, st.du, v, g or 0, f or 0)):
            raise LadderBreakdownError(f"rung {n} is not finite at tau = {tau}", n=n)
        entries.append(LadderEntry(n=n, a_n=a0 - 1j * n, state=st, v=v, g=g, f=f))
    return entries


def _seed_residual(seed_eval: SeedEval, tau: complex, a: complex,
                   params: EquationParams) -> float:
    """Finite-difference equation residual of the evaluator at tau."""
    s = abs(tau)
    phase = tau / s
    h = _SEED_H_REL * s
    um = seed_eval(phase * (s - h)).u
    st = seed_eval(phase * s)
    up = seed_eval(phase * (s + h)).u
    ddu_fd = (up - 2.0 * st.u + um) / (h * phase) ** 2
    _, ddu = dp3_rhs(st, a, params)
    return abs(ddu_fd - ddu)


def _reladder(entries: list[LadderEntry], a0: complex, params: EquationParams,
              seed_eval: SeedEval, tau: complex) -> list[LadderEntry]:
    return ladder(seed_eval(tau), a0, params, n_max=entries[-1].n)


def lattice_residuals(entries: list[LadderEntry], which: str, a0: complex,
                      params: EquationParams, seed_eval: SeedEval | None = None
                      ) -> list[tuple[int, float]]:
    """Per-rung absolute residuals of one of the lattice identities the
    ladder satisfies.

    ``km``:    (i eps b/4) v_n' = tau v_n^2 (v_{n+1} - v_{n-1}); in the
               variable x = tau^2/2 this is the Kac-Moerbeke flow of the
               logarithms, and the pair products g_n satisfy the literal
               Kac-Moerbeke lattice.
    ``dp``:    v_n^2 (v_{n+1} + v_{n-1}) = (eps b / 4 tau^2)(b + 2(a0 - i n) v_n).
    ``f_rec``: 2 f_n (f_{n+1} + f_n + (i a0 + n + 1))(f_n + f_{n-1} + (i a0 + n))
               = i eps b tau^2.
    ``toda``:  Toda-chain form on T_n = g_n g_{n+1} (see inline comment);
               second derivatives by finite differences over re-evaluated
               ladders at tau +- h, so this needs ``seed_eval``.

    Raises ``ConditionViolationError`` for an empty ladder or an unknown
    identity, before any residual, and when a residual is not finite (for
    example at a tiny |tau|)."""
    if not entries:
        raise ConditionViolationError("lattice residuals need at least one ladder entry")
    if which not in ("km", "dp", "f_rec", "toda"):
        raise ConditionViolationError(f"unknown lattice identity {which!r}")
    out = _lattice_residuals(entries, which, a0, params, seed_eval)
    if not all(math.isfinite(r) for _, r in out):
        raise ConditionViolationError(
            f"{which} residuals are not finite at tau = {entries[0].state.tau}")
    return out


def _lattice_residuals(entries, which, a0, params, seed_eval):
    tau = entries[0].state.tau
    ieb = 1j * params.eps * params.b
    by_n = {e.n: e for e in entries}
    out: list[tuple[int, float]] = []

    if which == "toda":
        # Toda-chain form on the pair products T_n = g_n g_{n+1}, which are
        # the Kac-Moerbeke products for the g-lattice in x = tau^2/2:
        # (i eps b / 4)^2 (d^2/dx^2) ln T_n = T_{n+2} + T_{n-2} - 2 T_n.
        if seed_eval is None:
            raise ConditionViolationError("toda residuals need a seed evaluator")
        s = abs(tau)
        phase = tau / s
        h = _TODA_H_REL * s
        minus = _reladder(entries, a0, params, seed_eval, phase * (s - h))
        plus = _reladder(entries, a0, params, seed_eval, phase * (s + h))

        def pair_products(es):
            g = {e.n: e.g for e in es if e.g is not None}
            return {n: g[n] * g[n + 1] for n in g if n + 1 in g}

        T0, Tm, Tp = pair_products(entries), pair_products(minus), pair_products(plus)
        for n in sorted(T0):
            if not all(m in T0 for m in (n - 2, n + 2)):
                continue
            if T0[n] == 0 or Tm[n] == 0 or Tp[n] == 0:
                raise ConditionViolationError(f"T_{n} vanishes; log derivative undefined")
            l_m, l_0, l_p = cmath.log(Tm[n]), cmath.log(T0[n]), cmath.log(Tp[n])
            d1 = (l_p - l_m) / (2.0 * h * phase)
            d2 = (l_p - 2.0 * l_0 + l_m) / (h * phase) ** 2
            ddx2 = (d2 - d1 / tau) / tau**2  # (d/dx)^2 with x = tau^2 / 2
            lhs = (ieb / 4.0) ** 2 * ddx2
            rhs = T0[n + 2] + T0[n - 2] - 2.0 * T0[n]
            out.append((n, abs(lhs - rhs)))
        return out

    for n in sorted(by_n):
        if n - 1 not in by_n or n + 1 not in by_n:
            continue
        e, em, ep = by_n[n], by_n[n - 1], by_n[n + 1]
        if which == "km":
            # differential-difference flow of the ladder; dividing by
            # tau v_n puts it in Kac-Moerbeke log form in x = tau^2/2
            if e.v == 0:
                raise ConditionViolationError(f"v_{n} = 0 at the test point")
            dv = e.state.du / tau - e.state.u / tau**2
            out.append((n, abs(ieb / 4.0 * dv - tau * e.v**2 * (ep.v - em.v))))
        elif which == "dp":
            lhs = e.v**2 * (ep.v + em.v)
            rhs = (params.eps * params.b / (4.0 * tau * tau)) \
                * (params.b + 2.0 * (a0 - 1j * n) * e.v)
            out.append((n, abs(lhs - rhs)))
        else:  # f_rec
            if e.f is None or ep.f is None or em.f is None:
                continue
            lhs = 2.0 * e.f * (ep.f + e.f + (1j * a0 + n + 1)) * (e.f + em.f + (1j * a0 + n))
            out.append((n, abs(lhs - ieb * tau * tau)))
    return out


def lie_point_solution(state: SolutionState, a: complex, params: EquationParams,
                       kind: str, p: int = 1, l: int = 1,
                       relabel: str = "flip_eps"
                       ) -> tuple[SolutionState, complex, EquationParams]:
    """Discrete Lie-point symmetries on solutions.

    ``negate_tau``: tau -> tau e^{-i pi p}, u -> -u, parameters fixed.
    ``negate_a``:   a -> -a with either (eps -> -eps, b fixed) or
                    (b -> -b, eps fixed), chosen by ``relabel``.
    ``rotate_tau``: tau -> -i l tau, u -> i eps_o eps_n l u, same two
                    relabeling choices.

    Derivatives follow by the chain rule; ``phi`` is carried through
    unchanged where the transformation allows it (``negate_tau``) and
    dropped otherwise.
    """
    if p not in (1, -1) or l not in (1, -1):
        raise ConditionViolationError("p and l must be +-1")
    if kind == "negate_tau":
        rot = cmath.exp(-1j * math.pi * p)
        tau_n = state.tau * rot
        # d tau_o / d tau_n = e^{i pi p} = -1 for p = +-1
        u_n = -state.u
        du_n = -state.du * cmath.exp(1j * math.pi * p)
        return SolutionState(tau_n, u_n, du_n, state.phi), a, params

    if relabel == "flip_eps":
        new_params = EquationParams.make(-params.eps, params.b)
        sign_pair = -1  # eps_o * eps_n
    elif relabel == "flip_b":
        new_params = EquationParams.make(params.eps, -params.b)
        sign_pair = 1
    else:
        raise ConditionViolationError("relabel must be 'flip_eps' or 'flip_b'")

    if kind == "negate_a":
        u_n = sign_pair * state.u
        du_n = sign_pair * state.du
        return SolutionState(state.tau, u_n, du_n, None), -a, new_params
    if kind == "rotate_tau":
        tau_n = -1j * l * state.tau
        u_n = 1j * sign_pair * l * state.u
        du_n = -sign_pair * state.du
        return SolutionState(tau_n, u_n, du_n, None), a, new_params
    raise ConditionViolationError(f"unknown Lie-point symmetry kind {kind!r}")
