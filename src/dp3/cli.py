"""Command-line front end.

Every command is a thin adapter over the library: identical numbers to
direct calls.  Exit codes: 0 success, 2 validation problems, 3
mathematical condition violations, 4 integration failures.  Errors are
emitted as one JSON object on stderr.  Set DP3_LOG=debug for tracebacks.

Each command imports only the submodules it runs: ``monodromy map``,
``chart`` and ``eval`` never load numpy or the integrator.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import traceback
from typing import TYPE_CHECKING

from .errors import (
    ConditionViolationError,
    IntegrationFailureError,
    LadderBreakdownError,
    PoleError,
    SamplingExhaustedError,
    SingularityError,
)
from .params import EquationParams

if TYPE_CHECKING:
    from .monodromy import MonodromyPoint
    from .ode import SolutionState

_MATH_ERRORS = (ConditionViolationError, PoleError, SingularityError,
                LadderBreakdownError, SamplingExhaustedError)


def _cpx(v: complex) -> list[float]:
    return [v.real, v.imag]


def _load_point(source: str) -> MonodromyPoint:
    from . import monodromy

    if source.strip().startswith("{"):
        text = source
    else:
        with open(source) as fh:
            text = fh.read()
    try:
        return monodromy.point_from_json(text)
    except (ValueError, KeyError) as exc:
        raise _ValidationError(f"bad monodromy point: {exc}") from exc


class _ValidationError(Exception):
    pass


def _params_from(args) -> EquationParams:
    try:
        return EquationParams.make(args.eps, args.b, getattr(args, "eps2", None))
    except ConditionViolationError as exc:
        raise _ValidationError(str(exc)) from exc


def _parse_complex(text: str) -> complex:
    try:
        parts = text.split(",")
        if len(parts) == 2:
            value = complex(float(parts[0]), float(parts[1]))
        else:
            value = complex(text)
    except ValueError as exc:
        raise _ValidationError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise _ValidationError(f"complex number {text!r} is not finite")
    return value


def _emit(payload, args) -> None:
    text = json.dumps(payload, indent=2)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise _ValidationError(f"{name} must be finite")


def _check_tol(tol: float) -> float:
    from . import ode

    lo, hi = ode._TOL_RANGE
    if not (lo <= tol <= hi):
        raise _ValidationError(f"tolerance must lie in [{lo}, {hi}]")
    return tol


# ---------------------------------------------------------------- commands

def _cmd_monodromy_check(args) -> int:
    from . import monodromy

    pt = _load_point(args.point)
    res = monodromy.manifold_residual(pt)
    cyc, semi = monodromy.cyclic_residuals(pt)
    _emit({"residuals": list(res), "max": float(res.max()),
           "cyclic": cyc, "semicyclic": semi}, args)
    return 0


def _cmd_monodromy_map(args) -> int:
    from . import monodromy

    pt = _load_point(args.point)
    if args.map == "F":
        out = monodromy.apply_F(pt, args.eps1, args.eps2)
    elif args.map == "Fhat":
        out = monodromy.apply_Fhat(pt, args.eps1, args.eps2)
    elif args.map == "backlund":
        out = monodromy.backlund_monodromy(pt, args.direction)
    else:
        out = monodromy.lie_point_monodromy(pt, args.kind, args.p, args.l)
    print(monodromy.point_to_json(out))
    return 0


def _cmd_monodromy_sample(args) -> int:
    from . import monodromy, sampling

    try:
        pts = sampling.sample_manifold(
            seed=args.seed, count=args.count, branch=args.branch,
            abs_a_max=args.abs_a_max, nu_max=args.nu_max,
            re_rho_max=args.re_rho_max, max_entry=args.max_entry)
    except ConditionViolationError as exc:  # raised only for its arguments
        raise _ValidationError(str(exc)) from exc
    payload = [json.loads(monodromy.point_to_json(p)) for p in pts]
    _emit(payload, args)
    return 0


def _cmd_chart(args) -> int:
    from . import asymptotics

    pt = _load_point(args.point)
    params = _params_from(args)
    if args.kind == "large":
        ch = asymptotics.large_tau_chart(pt, args.eps1, params)
        _emit({"special": ch.special, "nu_plus_1": _cpx(ch.nu_plus_1),
               "omega": None if ch.omega is None else _cpx(ch.omega),
               "z": None if ch.z is None else _cpx(ch.z)}, args)
    else:
        ch = asymptotics.small_tau_chart(pt, args.eps1, params)
        if ch.log_mode:
            _emit({"log_mode": True, "a2": _cpx(ch.a2), "b2": _cpx(ch.b2),
                   "a2_second": _cpx(ch.a2_second), "b2_second": _cpx(ch.b2_second)}, args)
        else:
            _emit({"log_mode": False, "rho": _cpx(ch.rho),
                   "p": [_cpx(ch.p_plus), _cpx(ch.p_minus), _cpx(ch.q_plus), _cpx(ch.q_minus)],
                   "chi1": [_cpx(ch.chi1_plus), _cpx(ch.chi1_minus)],
                   "chi2": [_cpx(ch.chi2_plus), _cpx(ch.chi2_minus)]}, args)
    return 0


def _cmd_eval(args) -> int:
    from . import asymptotics

    _check_finite("--tau", args.tau)
    pt = _load_point(args.point)
    params = _params_from(args)
    if args.imaginary:
        if args.quantity != "u":
            raise _ValidationError("imaginary-ray evaluation is provided for u only")
        val = asymptotics.u_imag(pt, args.eps1, params, args.tau, args.regime)
    elif args.regime == "large":
        ch = asymptotics.large_tau_chart(pt, args.eps1, params)
        val = asymptotics.u_large(ch, args.tau) if args.quantity == "u" \
            else asymptotics.H_large(ch, args.tau)
    else:
        ch = asymptotics.small_tau_chart(pt, args.eps1, params)
        val = asymptotics.u_small(ch, args.tau) if args.quantity == "u" \
            else asymptotics.H_small(ch, args.tau)
    print(json.dumps(_cpx(val)))
    return 0


def _seed_state(args, params) -> tuple[SolutionState, complex]:
    import numpy as np

    from . import asymptotics, ode

    if args.point is not None:
        pt = _load_point(args.point)
        sc = asymptotics.small_tau_chart(pt, args.eps1, params)
        phase = np.exp(1j * np.pi * args.eps1)
        state = ode.SolutionState(args.tau0 * phase,
                                  asymptotics.u_small(sc, args.tau0),
                                  asymptotics.du_small(sc, args.tau0))
        return state, pt.a
    if args.u0 is None or args.du0 is None:
        raise _ValidationError("give either --point or both --u0 and --du0")
    a = _parse_complex(args.a) if args.a else 0.0
    tau0 = args.tau0 * np.exp(1j * np.pi * args.eps1)
    return ode.SolutionState(complex(tau0), _parse_complex(args.u0),
                             _parse_complex(args.du0)), a


def _cmd_integrate(args) -> int:
    import numpy as np

    from . import ode

    _check_finite("--tau0", args.tau0)
    _check_finite("--tau-end", args.tau_end)
    if args.samples < 0:
        raise _ValidationError("--samples must be non-negative")
    params = _params_from(args)
    state, a = _seed_state(args, params)
    dense = None
    if args.samples:
        dense = np.linspace(args.tau0, args.tau_end, args.samples)
    traj = ode.integrate_ray(state, a, params, args.tau_end,
                             tol=_check_tol(args.tol), dense_at=dense)
    text = ode.trajectory_to_csv(traj)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    from . import connection

    if args.tau0_steps < 1 or args.tau1_steps < 1:
        raise _ValidationError("--tau0-steps and --tau1-steps must be at least 1")
    _check_finite("--tau0", args.tau0)
    _check_finite("--tau1", args.tau1)
    pt = _load_point(args.point)
    params = _params_from(args)
    rep = connection.verify_connection(
        pt, params, tau0=args.tau0, tau1=args.tau1, eps1=args.eps1,
        tol=_check_tol(args.tol), tau0_steps=args.tau0_steps,
        tau1_steps=args.tau1_steps)
    text = rep.to_json()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _ladder_entries(args, params):
    from . import backlund, ode

    _check_finite("--tau", args.tau)
    if args.n_max < 0:
        raise _ValidationError("--n-max must be non-negative")
    a0 = _parse_complex(args.a0) if args.a0 else 0.0
    if args.algebraic_seed:
        if a0 != 0:
            raise _ValidationError("the algebraic seed solves the equation at a0 = 0")
        seed_eval = lambda t: ode.algebraic_solution(t, params)  # noqa: E731
        seed = seed_eval(args.tau)
    else:
        if args.u0 is None or args.du0 is None:
            raise _ValidationError("give --algebraic-seed or both --u0 and --du0")
        seed = ode.SolutionState(args.tau, _parse_complex(args.u0), _parse_complex(args.du0))
        seed_eval = None
    entries = backlund.ladder(seed, a0, params, args.n_max, seed_eval=seed_eval)
    return entries, a0, seed_eval


def _cmd_ladder(args) -> int:
    params = _params_from(args)
    entries, _, _ = _ladder_entries(args, params)
    payload = [
        {"n": e.n, "a_n": _cpx(e.a_n), "tau": _cpx(e.state.tau),
         "u": _cpx(e.state.u), "du": _cpx(e.state.du), "v": _cpx(e.v),
         "g": None if e.g is None else _cpx(e.g),
         "f": None if e.f is None else _cpx(e.f)}
        for e in entries
    ]
    _emit(payload, args)
    return 0


def _cmd_lattice(args) -> int:
    from . import backlund

    params = _params_from(args)
    entries, a0, seed_eval = _ladder_entries(args, params)
    res = backlund.lattice_residuals(entries, args.which, a0, params, seed_eval=seed_eval)
    _emit([{"n": n, "residual": r} for n, r in res], args)
    return 0


def _cmd_fit(args) -> int:
    import numpy as np

    from . import connection, ode

    params = _params_from(args)
    data = np.genfromtxt(args.csv, delimiter=",", names=True)
    try:
        tau, u, du, H = (np.atleast_1d(data[f"{k}_re"] + 1j * data[f"{k}_im"])
                         for k in ("tau", "u", "du", "H"))
    except (ValueError, TypeError) as exc:
        raise _ValidationError(f"bad trajectory CSV: {exc}") from exc
    if not (np.all(np.isfinite(tau)) and np.all(np.isfinite(u))):
        raise _ValidationError("trajectory CSV has non-finite tau or u samples")
    traj = ode.Trajectory(params, 0.0, tau, u, du, None, H)
    fit = connection.fit_large_tau(traj, params, eps1=args.eps1)
    _emit({"nu_plus_1": _cpx(fit.nu_plus_1), "z": _cpx(fit.z),
           "residual_norm": fit.residual_norm, "condition": fit.condition,
           "oscillation_amplitude": fit.oscillation_amplitude,
           "special": fit.special}, args)
    return 0


# ---------------------------------------------------------------- parser

def _add_params(p, eps2=True):
    p.add_argument("--eps", type=int, required=True, choices=(1, -1))
    p.add_argument("--b", type=float, required=True)
    if eps2:
        p.add_argument("--eps2", type=int, default=None, choices=(0, 1, -1))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dp3",
        description="Monodromy data, asymptotic charts, Backlund ladders and "
                    "connection verification for the degenerate third Painleve equation")
    sub = ap.add_subparsers(dest="command", required=True)

    mono = sub.add_parser("monodromy", help="manifold residuals, group actions, sampling")
    msub = mono.add_subparsers(dest="subcommand", required=True)
    mc = msub.add_parser("check")
    mc.add_argument("--point", required=True)
    mc.add_argument("--output")
    mc.set_defaults(func=_cmd_monodromy_check)
    mm = msub.add_parser("map")
    mm.add_argument("--point", required=True)
    mm.add_argument("--map", required=True, choices=("F", "Fhat", "backlund", "lie"))
    mm.add_argument("--eps1", type=int, default=0, choices=(0, 1, -1))
    mm.add_argument("--eps2", type=int, default=0, choices=(0, 1, -1))
    mm.add_argument("--direction", default="up", choices=("up", "down"))
    mm.add_argument("--kind", default="negate_tau",
                    choices=("negate_tau", "negate_a", "rotate_tau"))
    mm.add_argument("--p", type=int, default=1, choices=(1, -1))
    mm.add_argument("--l", type=int, default=1, choices=(1, -1))
    mm.set_defaults(func=_cmd_monodromy_map)
    ms = msub.add_parser("sample")
    ms.add_argument("--seed", type=int, required=True)
    ms.add_argument("--count", type=int, required=True)
    ms.add_argument("--branch", type=int, required=True, choices=(1, 2, 3))
    ms.add_argument("--abs-a-max", type=float, default=1.0)
    ms.add_argument("--nu-max", type=float, default=None)
    ms.add_argument("--re-rho-max", type=float, default=None)
    ms.add_argument("--max-entry", type=float, default=None)
    ms.add_argument("--output")
    ms.set_defaults(func=_cmd_monodromy_sample)

    chart = sub.add_parser("chart", help="build an asymptotic chart from a point")
    chart.add_argument("kind", choices=("large", "small"))
    chart.add_argument("--point", required=True)
    chart.add_argument("--eps1", type=int, default=0, choices=(0, 1, -1))
    _add_params(chart)
    chart.add_argument("--output")
    chart.set_defaults(func=_cmd_chart)

    ev = sub.add_parser("eval", help="evaluate an asymptotic formula")
    ev.add_argument("quantity", choices=("u", "H"))
    ev.add_argument("--regime", required=True, choices=("large", "small"))
    ev.add_argument("--tau", type=float, required=True)
    ev.add_argument("--point", required=True)
    ev.add_argument("--eps1", type=int, default=0, choices=(0, 1, -1))
    ev.add_argument("--imaginary", action="store_true",
                    help="evaluate on the imaginary ray arg tau = pi eps1 / 2")
    _add_params(ev)
    ev.set_defaults(func=_cmd_eval)

    ig = sub.add_parser("integrate", help="integrate along a ray")
    ig.add_argument("--point", help="seed from this point's small-argument chart")
    ig.add_argument("--u0")
    ig.add_argument("--du0")
    ig.add_argument("--a")
    ig.add_argument("--tau0", type=float, required=True)
    ig.add_argument("--tau-end", type=float, required=True)
    ig.add_argument("--eps1", type=int, default=0, choices=(0, 1, -1))
    ig.add_argument("--tol", type=float, default=1e-10)
    ig.add_argument("--samples", type=int, default=0)
    _add_params(ig)
    ig.add_argument("--output")
    ig.set_defaults(func=_cmd_integrate)

    vc = sub.add_parser("verify-connection", help="end-to-end connection check")
    vc.add_argument("--point", required=True)
    vc.add_argument("--tau0", type=float, default=0.02)
    vc.add_argument("--tau1", type=float, default=400.0)
    vc.add_argument("--eps1", type=int, default=0, choices=(0, 1, -1))
    vc.add_argument("--tol", type=float, default=1e-10)
    vc.add_argument("--tau0-steps", type=int, default=1)
    vc.add_argument("--tau1-steps", type=int, default=3)
    _add_params(vc)
    vc.add_argument("--output")
    vc.set_defaults(func=_cmd_verify)

    la = sub.add_parser("ladder", help="Backlund ladder from a seed state")
    la.add_argument("--tau", type=float, required=True)
    la.add_argument("--n-max", type=int, required=True)
    la.add_argument("--a0")
    la.add_argument("--algebraic-seed", action="store_true")
    la.add_argument("--u0")
    la.add_argument("--du0")
    _add_params(la)
    la.add_argument("--output")
    la.set_defaults(func=_cmd_ladder)

    lt = sub.add_parser("lattice", help="lattice-identity residuals along a ladder")
    lt.add_argument("--which", required=True, choices=("km", "dp", "toda", "f_rec"))
    lt.add_argument("--tau", type=float, required=True)
    lt.add_argument("--n-max", type=int, required=True)
    lt.add_argument("--a0")
    lt.add_argument("--algebraic-seed", action="store_true")
    lt.add_argument("--u0")
    lt.add_argument("--du0")
    _add_params(lt)
    lt.add_argument("--output")
    lt.set_defaults(func=_cmd_lattice)

    ft = sub.add_parser("fit", help="fit the large-argument chart to a trajectory CSV")
    ft.add_argument("--csv", required=True)
    ft.add_argument("--eps1", type=int, default=0, choices=(0, 1, -1))
    _add_params(ft)
    ft.add_argument("--output")
    ft.set_defaults(func=_cmd_fit)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ValidationError as exc:
        _report_error("validation", exc)
        return 2
    except IntegrationFailureError as exc:
        _report_error("integration-failure", exc)
        return 4
    except _MATH_ERRORS as exc:
        _report_error("condition-violation", exc)
        return 3
    except OSError as exc:
        _report_error("io", exc)
        return 2


def _report_error(kind: str, exc: Exception) -> None:
    payload = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(payload), file=sys.stderr)
    if os.environ.get("DP3_LOG", "").lower() == "debug":
        traceback.print_exc()


if __name__ == "__main__":
    sys.exit(main())
