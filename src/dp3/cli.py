"""Command-line front end.

Every command is a thin adapter over the library: identical numbers to
direct calls.  Exit codes: 0 success, 2 validation problems, 3
mathematical condition violations, 4 integration failures.  Every error,
a malformed command line included, is emitted as one JSON object on
stderr; ``--help`` prints usage on stdout and exits 0.  The parser checks
each argument on its own (finite numbers, counts, the tolerance range);
the handlers check only what depends on several arguments or on a file.
Set DP3_LOG=debug for tracebacks.

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
        return EquationParams.make(args.eps, args.b, args.eps2)
    except ConditionViolationError as exc:
        raise _ValidationError(str(exc)) from exc


def _write(text: str, args) -> None:
    """Write ``text`` to the ``--output`` file when one is given, else to stdout."""
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload, args) -> None:
    _write(json.dumps(payload, indent=2) + "\n", args)


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
    from . import connection, ode

    if args.point is not None:
        pt = _load_point(args.point)
        return connection._chart_seed(pt, params, args.tau0, args.eps1), pt.a
    if args.u0 is None or args.du0 is None:
        raise _ValidationError("give either --point or both --u0 and --du0")
    tau0 = args.tau0 * cmath.exp(1j * math.pi * args.eps1)
    return ode.SolutionState(tau0, args.u0, args.du0), args.a


def _cmd_integrate(args) -> int:
    import numpy as np

    from . import ode

    params = _params_from(args)
    state, a = _seed_state(args, params)
    dense = None
    if args.samples:
        dense = np.linspace(args.tau0, args.tau_end, args.samples)
    traj = ode.integrate_ray(state, a, params, args.tau_end, tol=args.tol, dense_at=dense)
    _write(ode.trajectory_to_csv(traj), args)
    return 0


def _cmd_verify(args) -> int:
    from . import connection

    pt = _load_point(args.point)
    params = _params_from(args)
    rep = connection.verify_connection(
        pt, params, tau0=args.tau0, tau1=args.tau1, eps1=args.eps1,
        tol=args.tol, tau0_steps=args.tau0_steps, tau1_steps=args.tau1_steps)
    _write(rep.to_json() + "\n", args)
    return 0


def _ladder_entries(args, params):
    from . import backlund, ode

    if args.algebraic_seed:
        if args.a0 != 0:
            raise _ValidationError("the algebraic seed solves the equation at a0 = 0")
        seed_eval = lambda t: ode.algebraic_solution(t, params)  # noqa: E731
        seed = seed_eval(args.tau)
    else:
        if args.u0 is None or args.du0 is None:
            raise _ValidationError("give --algebraic-seed or both --u0 and --du0")
        seed = ode.SolutionState(args.tau, args.u0, args.du0)
        seed_eval = None
    return backlund.ladder(seed, args.a0, params, args.n_max, seed_eval=seed_eval), seed_eval


def _cmd_ladder(args) -> int:
    params = _params_from(args)
    entries, _ = _ladder_entries(args, params)
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
    entries, seed_eval = _ladder_entries(args, params)
    res = backlund.lattice_residuals(entries, args.which, args.a0, params, seed_eval=seed_eval)
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

class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a validation error (exit 2 and
    one JSON line) instead of argparse's usage text; subparsers inherit it."""

    def error(self, message):
        raise _ValidationError(f"{self.prog}: {message}")


def _checked(parse, ok, what):
    """An argparse ``type=``: ``parse`` the text and accept the value only
    if ``ok`` holds for it."""
    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
    return convert


def _complex(text: str) -> complex:
    """``x``, ``x+yj`` or ``x,y``."""
    parts = text.split(",")
    return complex(float(parts[0]), float(parts[1])) if len(parts) == 2 else complex(text)


_finite = _checked(float, math.isfinite, "a finite number")
_finite_complex = _checked(_complex, cmath.isfinite, "a finite complex number")
_count = _checked(int, lambda n: n >= 0, "a non-negative integer")
_steps = _checked(int, lambda n: n >= 1, "an integer of at least 1")


def _tol(text: str) -> float:
    from . import ode

    lo, hi = ode._TOL_RANGE
    return _checked(float, lambda t: lo <= t <= hi, f"a tolerance in [{lo}, {hi}]")(text)


def build_parser() -> argparse.ArgumentParser:
    # argument groups that several commands share, passed as ``parents=``
    point, eps1, output, params, seed = (argparse.ArgumentParser(add_help=False)
                                         for _ in range(5))
    point.add_argument("--point", required=True)
    eps1.add_argument("--eps1", type=int, default=0, choices=(0, 1, -1))
    output.add_argument("--output")
    params.add_argument("--eps", type=int, required=True, choices=(1, -1))
    params.add_argument("--b", type=float, required=True)
    params.add_argument("--eps2", type=int, default=None, choices=(0, 1, -1))
    seed.add_argument("--tau", type=_finite, required=True)
    seed.add_argument("--n-max", type=_count, required=True)
    seed.add_argument("--a0", type=_finite_complex, default=0.0)
    seed.add_argument("--algebraic-seed", action="store_true")
    seed.add_argument("--u0", type=_finite_complex)
    seed.add_argument("--du0", type=_finite_complex)

    ap = _Parser(
        prog="dp3",
        description="Monodromy data, asymptotic charts, Backlund ladders and "
                    "connection verification for the degenerate third Painleve equation")
    sub = ap.add_subparsers(dest="command", required=True)

    mono = sub.add_parser("monodromy", help="manifold residuals, group actions, sampling")
    msub = mono.add_subparsers(dest="subcommand", required=True)
    mc = msub.add_parser("check", parents=[point, output])
    mc.set_defaults(func=_cmd_monodromy_check)
    mm = msub.add_parser("map", parents=[point, eps1])
    mm.add_argument("--map", required=True, choices=("F", "Fhat", "backlund", "lie"))
    mm.add_argument("--eps2", type=int, default=0, choices=(0, 1, -1))
    mm.add_argument("--direction", default="up", choices=("up", "down"))
    mm.add_argument("--kind", default="negate_tau",
                    choices=("negate_tau", "negate_a", "rotate_tau"))
    mm.add_argument("--p", type=int, default=1, choices=(1, -1))
    mm.add_argument("--l", type=int, default=1, choices=(1, -1))
    mm.set_defaults(func=_cmd_monodromy_map)
    ms = msub.add_parser("sample", parents=[output])
    ms.add_argument("--seed", type=int, required=True)
    ms.add_argument("--count", type=int, required=True)
    ms.add_argument("--branch", type=int, required=True, choices=(1, 2, 3))
    ms.add_argument("--abs-a-max", type=float, default=1.0)
    ms.add_argument("--nu-max", type=float, default=None)
    ms.add_argument("--re-rho-max", type=float, default=None)
    ms.add_argument("--max-entry", type=float, default=None)
    ms.set_defaults(func=_cmd_monodromy_sample)

    chart = sub.add_parser("chart", parents=[point, eps1, params, output],
                           help="build an asymptotic chart from a point")
    chart.add_argument("kind", choices=("large", "small"))
    chart.set_defaults(func=_cmd_chart)

    ev = sub.add_parser("eval", parents=[point, eps1, params],
                        help="evaluate an asymptotic formula")
    ev.add_argument("quantity", choices=("u", "H"))
    ev.add_argument("--regime", required=True, choices=("large", "small"))
    ev.add_argument("--tau", type=_finite, required=True)
    ev.add_argument("--imaginary", action="store_true",
                    help="evaluate on the imaginary ray arg tau = pi eps1 / 2")
    ev.set_defaults(func=_cmd_eval)

    ig = sub.add_parser("integrate", parents=[eps1, params, output], help="integrate along a ray")
    ig.add_argument("--point", help="seed from this point's small-argument chart")
    ig.add_argument("--u0", type=_finite_complex)
    ig.add_argument("--du0", type=_finite_complex)
    ig.add_argument("--a", type=_finite_complex, default=0.0)
    ig.add_argument("--tau0", type=_finite, required=True)
    ig.add_argument("--tau-end", type=_finite, required=True)
    ig.add_argument("--tol", type=_tol, default=1e-10)
    ig.add_argument("--samples", type=_count, default=0)
    ig.set_defaults(func=_cmd_integrate)

    vc = sub.add_parser("verify-connection", parents=[point, eps1, params, output],
                        help="end-to-end connection check")
    vc.add_argument("--tau0", type=_finite, default=0.02)
    vc.add_argument("--tau1", type=_finite, default=400.0)
    vc.add_argument("--tol", type=_tol, default=1e-10)
    vc.add_argument("--tau0-steps", type=_steps, default=1)
    vc.add_argument("--tau1-steps", type=_steps, default=3)
    vc.set_defaults(func=_cmd_verify)

    la = sub.add_parser("ladder", parents=[seed, params, output],
                        help="Backlund ladder from a seed state")
    la.set_defaults(func=_cmd_ladder)

    lt = sub.add_parser("lattice", parents=[seed, params, output],
                        help="lattice-identity residuals along a ladder")
    lt.add_argument("--which", required=True, choices=("km", "dp", "toda", "f_rec"))
    lt.set_defaults(func=_cmd_lattice)

    ft = sub.add_parser("fit", parents=[eps1, params, output],
                        help="fit the large-argument chart to a trajectory CSV")
    ft.add_argument("--csv", required=True)
    ft.set_defaults(func=_cmd_fit)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
