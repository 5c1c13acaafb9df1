"""CLI contract: a malformed command line is a validation error like any
other (exit 2, nothing on stdout, one JSON line on stderr), every
``DP3Error`` but an integration failure exits 3 the same way, ``--help``
still prints usage and exits 0, and ``--output`` writes the bytes that the
same command prints to stdout."""

import json
from pathlib import Path

import pytest

from dp3 import cli
from dp3.errors import DP3Error
from dp3.monodromy import point_to_json
from dp3.sampling import sample_manifold

PARAMS = ["--eps", "1", "--b", "1"]


@pytest.fixture(scope="module")
def point_path(tmp_path_factory):
    pt = sample_manifold(seed=5, count=1, branch=1, nu_max=0.1)[0]
    path = tmp_path_factory.mktemp("pts") / "pt.json"
    path.write_text(point_to_json(pt))
    return str(path)


@pytest.mark.parametrize("argv", [
    ["monodromy", "sample", "--seed", "abc", "--count", "2", "--branch", "1"],
    ["monodromy", "sample", "--seed", "1", "--count", "2.5", "--branch", "1"],
    ["chart", "large", *PARAMS],
    [],
    ["ladder", "--tau", "1", "--n-max", "2", "--algebraic-seed", *PARAMS, "--bogus"],
    # flags that the command would ignore, and a step count beyond the
    # library's bound (it exited 3 where 0 exited 2)
    ["integrate", "--point", "{point}", "--u0", "5", "--du0", "1", "--a", "0.3",
     "--tau0", "0.02", "--tau-end", "3", *PARAMS],
    ["ladder", "--tau", "1", "--n-max", "2", "--algebraic-seed", "--u0", "1", "--du0", "1",
     *PARAMS],
    ["lattice", "--which", "km", "--tau", "1", "--n-max", "2", "--algebraic-seed",
     "--u0", "1", "--du0", "1", *PARAMS],
    ["verify-connection", "--point", "{point}", "--tau1-steps", "2000", *PARAMS],
    # flags that the chosen map would ignore, and Fhat without its ray
    # (it exited 3 from the library)
    ["monodromy", "map", "--point", "{point}", "--map", "F", "--direction", "down"],
    ["monodromy", "map", "--point", "{point}", "--map", "backlund", "--eps1", "1", "--eps2", "1"],
    ["monodromy", "map", "--point", "{point}", "--map", "F", "--kind", "rotate_tau", "--p", "-1"],
    ["monodromy", "map", "--point", "{point}", "--map", "lie", "--kind", "negate_a", "--eps2", "1"],
    ["monodromy", "map", "--point", "{point}", "--map", "Fhat"],
])
def test_malformed_command_line_is_one_json_line(argv, point_path, capsys):
    code = cli.main([point_path if a == "{point}" else a for a in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "validation"
    assert set(payload) == {"error", "type", "message"}


class _UnlistedError(DP3Error):
    """A package error that no exit-code table names."""


@pytest.mark.parametrize("error", [DP3Error, _UnlistedError])
def test_every_package_error_exits_3_as_one_json_line(error, capsys, monkeypatch):
    def handler(args):
        raise error("raised by the handler")

    monkeypatch.setattr(cli, "_cmd_monodromy_sample", handler)
    code = cli.main(["monodromy", "sample", "--seed", "1", "--count", "1", "--branch", "1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "condition-violation", "type": error.__name__,
                                    "message": "raised by the handler"}


@pytest.mark.parametrize("command", [
    [], ["monodromy"], ["monodromy", "check"], ["monodromy", "map"], ["monodromy", "sample"],
    ["chart"], ["eval"], ["integrate"], ["verify-connection"], ["ladder"], ["lattice"], ["fit"],
])
def test_help_prints_usage_and_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--help"])
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert out.startswith("usage: dp3") and err == ""


@pytest.mark.parametrize("argv", [
    ["integrate", "--point", "{point}", "--tau0", "0.02", "--tau-end", "3", "--samples", "5",
     *PARAMS],
    ["verify-connection", "--point", "{point}", "--tau1-steps", "1", *PARAMS],
    ["chart", "large", "--point", "{point}", *PARAMS],
    ["monodromy", "sample", "--seed", "3", "--count", "2", "--branch", "2"],
])
def test_output_file_equals_stdout(argv, point_path, tmp_path, capsys):
    argv = [point_path if a == "{point}" else a for a in argv]
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "out.txt"
    assert cli.main([*argv, "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == printed.encode()
    assert printed.endswith("\n")


CSV_HEADER = "tau_re,tau_im,u_re,u_im,du_re,du_im,phi_re,phi_im,H_re,H_im\n"


def _point_with_g12(point_path, pair):
    data = json.loads(Path(point_path).read_text())
    return json.dumps(dict(data, g12=pair)).encode()


@pytest.mark.parametrize("command, content", [
    ("check", lambda path: _point_with_g12(path, [1, None])),
    ("check", lambda path: _point_with_g12(path, [{}, 0])),
    ("check", lambda path: _point_with_g12(path, ["0.9544262594605171", 0])),
    ("check", lambda path: _point_with_g12(path, [0.9544262594605171, False])),
    ("check", lambda path: _point_with_g12(path, [10**400, 0])),
    ("check", lambda path: b"5"),
    ("check", lambda path: b"\xff\xfe"),
    ("check", lambda path: b"[" * 100_000 + b"]" * 100_000),
    ("fit", lambda path: b""),
    ("fit", lambda path: (CSV_HEADER + "1,2,3\n").encode()),
    ("fit", lambda path: b"\xff\xfe"),
], ids=["pair-null", "pair-object", "pair-string", "pair-boolean", "pair-huge-integer",
        "not-an-object", "point-not-utf8", "nested-too-deeply",
        "csv-empty", "csv-short-row", "csv-not-utf8"])
def test_malformed_input_file_is_one_json_line(command, content, point_path, tmp_path, capsys):
    target = tmp_path / "input"
    target.write_bytes(content(point_path))
    argv = (["monodromy", "check", "--point", str(target)] if command == "check"
            else ["fit", "--csv", str(target), *PARAMS])
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert payload["error"] == "validation" and payload["type"] == "_ValidationError"
