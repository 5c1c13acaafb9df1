"""Property over CLI argv: whatever numbers (or malformed tokens) a user
types, ``dp3`` exits 0, 2, 3 or 4, a command that fails writes exactly one
JSON line to stderr, and a command that succeeds prints strict JSON (no NaN
or Infinity) or, for ``integrate``, CSV.
"""

import contextlib
import io
import json

from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from dp3 import cli
from dp3.monodromy import point_to_json
from dp3.sampling import sample_manifold

MALFORMED = ("abc", "", "1,2,3")
SPECIAL = ("0", "-0.0", "1", "-1", "0.37", "-2.5", "7", "1e300", "-1e300", "1e-300",
           "nan", "-nan", "inf", "-inf", *MALFORMED)
NUMBER = st.one_of(st.sampled_from(SPECIAL), st.floats().map(repr),
                   st.integers(-10, 10).map(str))
COMPLEX = st.one_of(NUMBER, st.tuples(NUMBER, NUMBER).map(",".join))
SMALL_INT = st.sampled_from(("-5", "-1", "0", "1", "2", "3", "6", "2.5", "nan", "1e300",
                             *MALFORMED))
SIGN = st.sampled_from(("1", "-1", "0", "2", "nan"))
SHORT_TAU = st.sampled_from(("0", "-0.0", "1e-300", "0.01", "0.5", "1", "2.5", "5",
                             "-1", "-5", "nan", "inf", "-inf"))
POINTS = tuple(point_to_json(sample_manifold(seed=7, count=1, branch=b, max_entry=50.0)[0])
               for b in (1, 2, 3))


def flag(name, values):
    """``--name=value`` (the ``=`` form lets values such as ``-inf`` through)."""
    return values.map(lambda v: [f"{name}={v}"])


def maybe(name, values):
    return st.one_of(st.just([]), flag(name, values))


def argv(*parts):
    return st.tuples(*(st.just(p) if isinstance(p, list) else p for p in parts)).map(
        lambda chunks: [arg for chunk in chunks for arg in chunk])


POINT = flag("--point", st.sampled_from(POINTS))
PARAMS = argv(flag("--eps", SIGN), flag("--b", NUMBER), maybe("--eps2", SIGN))
SEED = st.one_of(st.just(["--algebraic-seed"]), argv(flag("--u0", COMPLEX), flag("--du0", COMPLEX)))

COMMANDS = st.one_of(
    argv(["monodromy", "check"], POINT),
    argv(["monodromy", "map"], POINT,
         flag("--map", st.sampled_from(("F", "Fhat", "backlund", "lie"))),
         maybe("--eps1", SIGN), maybe("--eps2", SIGN), maybe("--p", SIGN), maybe("--l", SIGN),
         maybe("--direction", st.sampled_from(("up", "down"))),
         maybe("--kind", st.sampled_from(("negate_tau", "negate_a", "rotate_tau")))),
    argv(["monodromy", "sample"],
         flag("--seed", st.one_of(NUMBER, st.integers(-3, 2**40).map(str))),
         flag("--count", SMALL_INT), flag("--branch", st.sampled_from(("1", "2", "3", "0", "nan"))),
         maybe("--abs-a-max", NUMBER), maybe("--nu-max", NUMBER),
         maybe("--re-rho-max", NUMBER), maybe("--max-entry", NUMBER)),
    argv(["chart"], st.sampled_from((["large"], ["small"])), POINT, maybe("--eps1", SIGN), PARAMS),
    argv(["eval"], st.sampled_from((["u"], ["H"])),
         flag("--regime", st.sampled_from(("large", "small"))), flag("--tau", NUMBER), POINT,
         maybe("--eps1", SIGN), st.sampled_from(([], ["--imaginary"])), PARAMS),
    argv(st.sampled_from((["ladder"], ["lattice", "--which=km"], ["lattice", "--which=dp"],
                          ["lattice", "--which=toda"], ["lattice", "--which=f_rec"])),
         flag("--tau", NUMBER), flag("--n-max", SMALL_INT), maybe("--a0", COMPLEX), SEED, PARAMS),
    argv(["integrate"], st.one_of(POINT, argv(flag("--u0", COMPLEX), flag("--du0", COMPLEX),
                                              maybe("--a", COMPLEX))),
         flag("--tau0", SHORT_TAU), flag("--tau-end", SHORT_TAU), maybe("--eps1", SIGN),
         maybe("--tol", NUMBER), maybe("--samples", SMALL_INT), PARAMS),
)


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def reject_constant(token):
    raise ValueError(f"{token} is not JSON")


# no explain phase: its line tracing makes a failing run slow and large
@settings(max_examples=200, deadline=None,
          phases=[p for p in Phase if p is not Phase.explain])
@given(COMMANDS)
def test_cli_exits_with_a_documented_code(args):
    code, out, err = run(args)
    assert code in (0, 2, 3, 4), (args, code)
    if code == 0 and args[0] != "integrate":
        json.loads(out, parse_constant=reject_constant)
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1, (args, err)
        payload = json.loads(lines[0])
        assert set(payload) == {"error", "type", "message"}
