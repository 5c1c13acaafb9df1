"""CLI: thin-adapter property, exit codes, determinism, error JSON."""

import json

import numpy as np
import pytest

from dp3 import cli
from dp3.asymptotics import small_tau_chart, u_small
from dp3.monodromy import MonodromyPoint, manifold_residual, point_from_json, point_to_json
from dp3.params import EquationParams
from dp3.sampling import sample_manifold


@pytest.fixture(scope="module")
def point_file(tmp_path_factory):
    pt = sample_manifold(seed=5, count=1, branch=1, nu_max=0.1)[0]
    path = tmp_path_factory.mktemp("pts") / "pt.json"
    path.write_text(point_to_json(pt))
    return str(path), pt


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_monodromy_check_exit_zero(point_file, capsys):
    path, pt = point_file
    code, out, _ = run_cli(capsys, ["monodromy", "check", "--point", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["max"] < 1e-10
    assert payload["max"] == manifold_residual(pt).max()


def test_eval_u_small_matches_library(point_file, capsys):
    path, pt = point_file
    code, out, _ = run_cli(capsys, [
        "eval", "u", "--regime", "small", "--tau", "0.01",
        "--point", path, "--eps", "1", "--b", "1"])
    assert code == 0
    re_im = json.loads(out)
    sc = small_tau_chart(pt, 0, EquationParams.make(1, 1.0))
    val = u_small(sc, 0.01)
    assert re_im == [val.real, val.imag]  # byte-identical adapter


def test_eval_invalid_point_exit3(tmp_path, capsys):
    # the strip bound fails for this point: mathematical condition -> 3
    import cmath
    import math

    from dp3.monodromy import from_branch
    g11 = 2.0 * cmath.exp(0.8j * math.pi)
    g22 = 0.5 * cmath.exp(0.8j * math.pi)
    g12 = 0.5 + 0j
    g21 = (g11 * g22 - 1.0) / g12
    bad = from_branch(1, 0.0, g11=g11, g12=g12, g21=g21, g22=g22)
    path = tmp_path / "bad.json"
    path.write_text(point_to_json(bad))
    code, _, err = run_cli(capsys, [
        "verify-connection", "--point", str(path), "--eps", "1", "--b", "1",
        "--tau1-steps", "1"])
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "condition-violation"


def test_verify_tau1_below_theta_floor_exit3(point_file, capsys):
    path, _ = point_file
    code, out, err = run_cli(capsys, [
        "verify-connection", "--point", path, "--tau1", "100", "--eps", "1", "--b", "1"])
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "condition-violation"
    assert "smallest admissible tau1 is 121.8" in payload["message"]


def test_map_matches_library(point_file, capsys):
    from dp3.monodromy import apply_F, apply_Fhat, lie_point_monodromy
    path, pt = point_file
    cases = (
        (["--map", "F", "--eps1", "-1", "--eps2", "1"], apply_F(pt, -1, 1)),
        (["--map", "Fhat", "--eps1", "1", "--eps2", "0"], apply_Fhat(pt, 1, 0)),
        (["--map", "lie", "--kind", "negate_a", "--p", "-1"],
         lie_point_monodromy(pt, "negate_a", -1)),
        (["--map", "lie", "--kind", "rotate_tau", "--p", "1", "--l", "1"],
         lie_point_monodromy(pt, "rotate_tau", 1, 1)),
    )
    for argv, expected in cases:
        code, out, _ = run_cli(capsys, ["monodromy", "map", "--point", path, *argv])
        assert code == 0
        assert out.strip() == point_to_json(expected)


def test_bad_tolerance_exit2(point_file, capsys):
    path, _ = point_file
    code, _, err = run_cli(capsys, [
        "integrate", "--point", path, "--tau0", "0.1", "--tau-end", "2.0",
        "--tol", "0.1", "--eps", "1", "--b", "1"])
    assert code == 2
    assert json.loads(err)["error"] == "validation"


def test_nonfinite_seed_exit2(capsys):
    code, out, err = run_cli(capsys, [
        "integrate", "--u0", "nan", "--du0", "1", "--tau0", "1", "--tau-end", "2",
        "--eps", "1", "--b", "1"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "validation"


def test_zero_table_steps_exit2(point_file, capsys):
    path, _ = point_file
    for flag in ("--tau0-steps", "--tau1-steps"):
        code, _, err = run_cli(capsys, [
            "verify-connection", "--point", path, flag, "0", "--eps", "1", "--b", "1"])
        assert code == 2
        assert json.loads(err)["error"] == "validation"


def test_malformed_point_exit2(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text('{"a": [0, 0]}')
    code, _, err = run_cli(capsys, ["monodromy", "check", "--point", str(path)])
    assert code == 2


def test_nonfinite_a_point_exit2(point_file, tmp_path, capsys):
    # `chart large` printed "z": [NaN, NaN], which is not JSON, and exited 0
    path, _ = point_file
    with open(path) as fh:
        data = json.load(fh)
    data["a"] = [float("nan"), 0.0]
    bad = tmp_path / "nan_a.json"
    bad.write_text(json.dumps(data))
    for argv in (["chart", "large"], ["verify-connection"]):
        code, out, err = run_cli(capsys, [*argv, "--point", str(bad), "--eps", "1", "--b", "1"])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "validation"


def test_sample_deterministic(capsys):
    args = ["monodromy", "sample", "--seed", "11", "--count", "3", "--branch", "2"]
    code1, out1, _ = run_cli(capsys, args)
    code2, out2, _ = run_cli(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2
    pts = json.loads(out1)
    assert len(pts) == 3
    for obj in pts:
        pt = point_from_json(json.dumps(obj))
        assert manifold_residual(pt).max() < 1e-10


def test_sampling_exhaustion():
    from dp3.errors import SamplingExhaustedError
    with pytest.raises(SamplingExhaustedError):
        sample_manifold(seed=1, count=2, branch=1, nu_max=1e-12)


def test_sampling_rejects_negative_count():
    from dp3.errors import ConditionViolationError
    with pytest.raises(ConditionViolationError):
        sample_manifold(seed=1, count=-1, branch=1)


@pytest.mark.parametrize("kwargs", [
    {"seed": -1}, {"seed": 1.5}, {"count": 2.5}, {"abs_a_max": float("nan")},
    {"abs_a_max": -1.0}, {"abs_a_max": float("inf")}, {"max_entry": "5"}, {"nu_max": float("nan")},
    {"re_rho_max": -0.1}, {"max_entry": float("inf")}, {"nu_max": 0.0},
])
def test_sampling_rejects_bad_arguments_before_drawing(kwargs):
    from dp3.errors import ConditionViolationError
    with pytest.raises(ConditionViolationError):
        sample_manifold(**{"seed": 1, "count": 2, "branch": 1, **kwargs})


def test_sampling_draws_unchanged():
    # pinned draws: the benchmark's inputs come from these
    expected = {
        1: (-0.4315976725024171 + 0.28223969345166755j,
            -1.1964237995787932 + 1.1363046594393904j),
        2: (-0.04189740371833195 - 0.6464960621895507j,
            -0.18940041376897762 + 0.13320457235571465j),
        3: (-0.1387439591716444 + 0.16491728573246744j,
            -0.20822114868756592 + 2.4504814134737116j),
    }
    for branch, (a, g12) in expected.items():
        pt = sample_manifold(seed=3, count=2, branch=branch, max_entry=50.0)[1]
        assert (pt.a, pt.g12) == (a, g12)
    # a zero bound on a draws a = 0
    assert all(pt.a == 0 for pt in sample_manifold(seed=4, count=3, branch=1, abs_a_max=0.0))


@pytest.mark.parametrize("argv", [
    ["monodromy", "sample", "--seed", "-1", "--count", "2", "--branch", "1"],
    ["monodromy", "sample", "--seed", "1", "--count", "2", "--branch", "1", "--abs-a-max", "nan"],
    ["monodromy", "sample", "--seed", "1", "--count", "2", "--branch", "1", "--abs-a-max", "-1"],
    ["monodromy", "sample", "--seed", "1", "--count", "2", "--branch", "1", "--nu-max", "nan"],
    ["integrate", "--u0", "1", "--du0", "0", "--tau0", "1", "--tau-end", "2",
     "--samples", "-5", "--eps", "1", "--b", "1"],
])
def test_bad_sampling_and_sample_count_exit2(argv, capsys):
    code, out, err = run_cli(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "validation"


def test_verify_step_budget_exit4(point_file, capsys, monkeypatch):
    from dp3 import ode
    path, _ = point_file
    monkeypatch.setattr(ode, "_MAX_STEPS", 50)
    code, out, err = run_cli(capsys, [
        "verify-connection", "--point", path, "--tau1-steps", "1", "--eps", "1", "--b", "1"])
    assert code == 4 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "integration-failure"
    assert "step budget of 50 accepted steps exhausted near |tau| = " in payload["message"]


def test_sample_count_zero(capsys):
    code, out, _ = run_cli(capsys, [
        "monodromy", "sample", "--seed", "1", "--count", "0", "--branch", "1"])
    assert code == 0
    assert json.loads(out) == []


def test_ladder_dump_schema(capsys):
    code, out, _ = run_cli(capsys, [
        "ladder", "--tau", "1.0", "--n-max", "3", "--algebraic-seed",
        "--eps", "1", "--b", "1"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert set(rows[0]) == {"n", "a_n", "tau", "u", "du", "v", "g", "f"}
    assert rows[-1]["g"] is None


def test_lattice_command(capsys):
    code, out, _ = run_cli(capsys, [
        "lattice", "--which", "km", "--tau", "1.0", "--n-max", "4",
        "--algebraic-seed", "--eps", "1", "--b", "1"])
    assert code == 0
    rows = json.loads(out)
    assert rows and all(r["residual"] < 1e-8 for r in rows)


def test_integrate_then_fit_roundtrip(tmp_path, capsys, point_file):
    path, pt = point_file
    csv_path = tmp_path / "traj.csv"
    code, _, _ = run_cli(capsys, [
        "integrate", "--point", path, "--tau0", "0.02", "--tau-end", "260",
        "--samples", "200", "--eps", "1", "--b", "1",
        "--output", str(csv_path)])
    assert code == 0
    # refit only the far window (the fitter requires theta > 50)
    rows = np.genfromtxt(csv_path, delimiter=",", names=True)
    keep = rows[np.abs(rows["tau_re"]) >= 65.0]
    trimmed = tmp_path / "tail.csv"
    with open(csv_path) as fh:
        header = fh.readline()
    with open(trimmed, "w") as fh:
        fh.write(header)
        for r in keep:
            fh.write(",".join(repr(float(v)) for v in r) + "\n")
    code, out, _ = run_cli(capsys, [
        "fit", "--csv", str(trimmed), "--eps", "1", "--b", "1"])
    assert code == 0
    fitted = json.loads(out)
    from dp3.asymptotics import large_tau_chart
    ch = large_tau_chart(pt, 0, EquationParams.make(1, 1.0))
    err = abs(complex(*fitted["nu_plus_1"]) - ch.nu_plus_1)
    assert err < 5e-2


def test_fit_reads_the_ray_from_the_csv(tmp_path, capsys, point_file):
    # a negative-ray window: the fit takes arg tau = pi from the samples,
    # as fit_large_tau does (a fixed positive ray flipped the model's scale)
    from dp3.connection import _chart_seed, _theta_floor, fit_large_tau
    from dp3.ode import integrate_ray, trajectory_to_csv

    _, pt = point_file
    params = EquationParams.make(1, 1.0)
    traj = integrate_ray(_chart_seed(pt, params, 0.02, 1), pt.a, params, 260.0,
                         dense_at=np.linspace(_theta_floor(params), 260.0, 120))
    csv_path = tmp_path / "traj.csv"
    csv_path.write_text(trajectory_to_csv(traj))
    code, out, _ = run_cli(capsys, ["fit", "--csv", str(csv_path), "--eps", "1", "--b", "1"])
    assert code == 0
    fit = fit_large_tau(traj, params)
    assert json.loads(out) == {
        "nu_plus_1": [fit.nu_plus_1.real, fit.nu_plus_1.imag], "z": [fit.z.real, fit.z.imag],
        "residual_norm": fit.residual_norm, "condition": fit.condition,
        "oscillation_amplitude": fit.oscillation_amplitude, "special": fit.special}


def test_chart_command(point_file, capsys):
    path, _ = point_file
    code, out, _ = run_cli(capsys, [
        "chart", "large", "--point", path, "--eps", "1", "--b", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["special"] == "none"
    assert "nu_plus_1" in payload and "z" in payload


def test_nonfinite_integration_span_exit2(capsys):
    for flags in (["--tau0", "nan", "--tau-end", "2"], ["--tau0", "1", "--tau-end", "nan"]):
        code, out, err = run_cli(capsys, [
            "integrate", "--u0", "1", "--du0", "0", *flags, "--eps", "1", "--b", "1"])
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "validation"


def test_negative_sample_count_exit2(capsys):
    code, out, err = run_cli(capsys, [
        "monodromy", "sample", "--seed", "1", "--count", "-3", "--branch", "1"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "validation"


def test_fit_nonfinite_csv_row_exit2(tmp_path, capsys):
    from dp3.ode import algebraic_solution, integrate_ray, trajectory_to_csv

    params = EquationParams.make(1, 1.0)
    traj = integrate_ray(algebraic_solution(65.0, params), 0.0, params, 120.0,
                         dense_at=np.linspace(65.0, 120.0, 60))
    lines = trajectory_to_csv(traj).splitlines()
    fields = lines[10].split(",")
    fields[2] = "nan"  # u_re
    lines[10] = ",".join(fields)
    csv_path = tmp_path / "traj.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, ["fit", "--csv", str(csv_path), "--eps", "1", "--b", "1"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "validation"


def _assert_json_error(err, kind):
    assert "Traceback" not in err
    assert json.loads(err)["error"] == kind


def test_fit_singular_window_exit3(tmp_path, capsys, point_file):
    from dp3.asymptotics import large_tau_chart, u_large
    from dp3.ode import Trajectory, trajectory_to_csv

    _, pt = point_file
    params = EquationParams.make(1, 1.0)
    tau = np.full(6, 100.0 + 0j)
    u = np.full(6, u_large(large_tau_chart(pt, 0, params), 100.0))
    zeros = np.zeros_like(u)
    csv_path = tmp_path / "traj.csv"
    csv_path.write_text(trajectory_to_csv(Trajectory(params, 0.0, tau, u, zeros, None, zeros)))
    code, out, err = run_cli(capsys, ["fit", "--csv", str(csv_path), "--eps", "1", "--b", "1"])
    assert code == 3 and out == ""
    _assert_json_error(err, "condition-violation")


def test_eval_tau_must_be_finite_and_positive(point_file, capsys):
    path, _ = point_file
    base = ["--point", path, "--eps", "1", "--b", "1"]
    for tau in ("nan", "inf"):
        code, out, err = run_cli(capsys, ["eval", "u", "--regime", "small", "--tau", tau] + base)
        assert code == 2 and out == ""
        _assert_json_error(err, "validation")
    code, _, err = run_cli(capsys, ["eval", "H", "--regime", "large", "--tau", "0"] + base)
    assert code == 3
    _assert_json_error(err, "condition-violation")


def test_ladder_tau_must_be_finite_and_nonzero(capsys):
    base = ["ladder", "--n-max", "2", "--algebraic-seed", "--eps", "1", "--b", "1"]
    code, out, err = run_cli(capsys, base + ["--tau", "nan"])
    assert code == 2 and out == ""
    _assert_json_error(err, "validation")
    code, _, err = run_cli(capsys, base + ["--tau", "0"])
    assert code == 3
    _assert_json_error(err, "condition-violation")


def test_lattice_tau_must_be_finite(capsys):
    for tau in ("nan", "inf"):
        code, out, err = run_cli(capsys, ["lattice", "--which", "km", "--tau", tau, "--n-max",
                                          "2", "--algebraic-seed", "--eps", "1", "--b", "1"])
        assert code == 2 and out == ""
        _assert_json_error(err, "validation")


def test_seed_outside_the_u_bounds_exit3(capsys):
    code, out, err = run_cli(capsys, [
        "integrate", "--u0", "1e-10", "--du0", "1e-3", "--tau0", "0.5", "--tau-end", "2",
        "--eps", "1", "--b", "1"])
    assert code == 3 and out == "" and len(err.splitlines()) == 1
    _assert_json_error(err, "condition-violation")
    assert "|u(tau0)| = 1e-10" in json.loads(err)["message"]


def test_monodromy_commands_on_overflowing_points_exit3(tmp_path, capsys):
    # `check` on the 1e300 point printed numpy warnings and a LinAlgError
    # traceback (exit 1); `map --map Fhat` at a = 800 printed Infinity and
    # NaN, which is not JSON, and exited 0
    huge = tmp_path / "huge.json"
    huge.write_text(point_to_json(MonodromyPoint(0j, *[1e300 + 0j] * 7)))
    far = tmp_path / "far.json"
    far.write_text(point_to_json(MonodromyPoint(800 + 0j, 1 + 0j, 1 + 1j, 1 + 1j, 1 + 0j,
                                                1 + 0j, 1j, 1 + 1j)))
    for argv in (["monodromy", "check", "--point", str(huge)],
                 ["monodromy", "map", "--point", str(far), "--map", "Fhat", "--eps1", "1",
                  "--eps2", "1"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 3 and out == "" and len(err.splitlines()) == 1
        _assert_json_error(err, "condition-violation")


def test_verify_defaults_match_library(point_file, capsys):
    from dp3.connection import verify_connection
    path, pt = point_file
    code, out, _ = run_cli(capsys, [
        "verify-connection", "--point", path, "--eps", "1", "--b", "1"])
    assert code == 0
    assert out == verify_connection(pt, EquationParams.make(1, 1.0)).to_json() + "\n"


@pytest.mark.parametrize("flag", ["--tau0-steps", "--tau1-steps"])
@pytest.mark.parametrize("steps", ["1100", "2000"])
def test_verify_overflowing_step_count_exit2(point_file, capsys, monkeypatch, flag, steps):
    # the parser reads the library's [1, 1024] bound, as it does for 0
    from dp3 import connection

    def no_integration(*args, **kw):
        raise AssertionError("integrate_ray must not run")

    monkeypatch.setattr(connection, "integrate_ray", no_integration)
    path, _ = point_file
    code, out, err = run_cli(capsys, [
        "verify-connection", "--point", path, "--eps", "1", "--b", "1", flag, steps])
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    _assert_json_error(err, "validation")
    assert f"{flag}: '{steps}' is not an integer in [1, 1024]" in json.loads(err)["message"]


@pytest.mark.parametrize("eps1", ["0", "1"])
def test_integrate_point_seed_is_the_small_chart(point_file, capsys, eps1):
    from dp3.asymptotics import du_small
    path, pt = point_file
    code, out, _ = run_cli(capsys, [
        "integrate", "--point", path, "--tau0", "0.02", "--tau-end", "1", "--eps1", eps1,
        "--eps", "1", "--b", "1"])
    assert code == 0
    first = [float(v) for v in out.splitlines()[1].split(",")]
    sc = small_tau_chart(pt, int(eps1), EquationParams.make(1, 1.0))
    u, du = u_small(sc, 0.02), du_small(sc, 0.02)
    assert first[2:6] == [u.real, u.imag, du.real, du.imag]


# ---------------------------------------- paths the suite's other cases miss

@pytest.mark.parametrize("eps1", ["1", "-1"])
def test_eval_imaginary_matches_library(point_file, capsys, eps1):
    from dp3.asymptotics import u_imag
    path, pt = point_file
    argv = ["--regime", "small", "--tau", "0.01", "--imaginary", "--eps1", eps1,
            "--point", path, "--eps", "1", "--b", "1"]
    code, out, _ = run_cli(capsys, ["eval", "u", *argv])
    assert code == 0
    val = u_imag(pt, int(eps1), EquationParams.make(1, 1.0), 0.01, "small")
    assert json.loads(out) == [val.real, val.imag]
    code, out, err = run_cli(capsys, ["eval", "H", *argv])
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    _assert_json_error(err, "validation")


def test_ladder_and_lattice_from_given_seed_match_library(capsys):
    from dp3.backlund import lattice_residuals, ladder
    from dp3.ode import SolutionState
    params = EquationParams.make(1, 1.0)
    seed_args = ["--tau", "1.5", "--n-max", "4", "--u0", "0.4,0.1", "--du0=-0.2,0.3",
                 "--a0", "0.1,0.05", "--eps", "1", "--b", "1"]
    entries = ladder(SolutionState(1.5, 0.4 + 0.1j, -0.2 + 0.3j), 0.1 + 0.05j, params, 4)
    code, out, _ = run_cli(capsys, ["ladder", *seed_args])
    assert code == 0
    rungs = json.loads(out)
    assert [r["n"] for r in rungs] == [e.n for e in entries]
    for r, e in zip(rungs, entries):
        assert r["a_n"] == [e.a_n.real, e.a_n.imag]
        assert r["u"] == [e.state.u.real, e.state.u.imag]
        assert r["du"] == [e.state.du.real, e.state.du.imag]
    for which in ("km", "dp", "f_rec"):
        code, out, _ = run_cli(capsys, ["lattice", "--which", which, *seed_args])
        assert code == 0
        expected = lattice_residuals(entries, which, 0.1 + 0.05j, params)
        assert json.loads(out) == [{"n": n, "residual": r} for n, r in expected]
    code, out, err = run_cli(capsys, ["ladder", "--tau", "1.5", "--n-max", "4", "--a0", "0.1",
                                      "--algebraic-seed", "--eps", "1", "--b", "1"])
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    _assert_json_error(err, "validation")


def test_chart_small_log_branch_matches_library(tmp_path, capsys):
    from dp3.monodromy import from_branch
    pt = from_branch(1, 0.5j, g11=1.0, g12=2j - 1.0, g21=0.0, g22=1.0)
    path = tmp_path / "log.json"
    path.write_text(point_to_json(pt))
    code, out, _ = run_cli(capsys, ["chart", "small", "--point", str(path),
                                    "--eps", "1", "--b", "1"])
    assert code == 0
    ch = small_tau_chart(pt, 0, EquationParams.make(1, 1.0))
    assert ch.log_mode
    assert json.loads(out) == {"log_mode": True,
                               "a2": [ch.a2.real, ch.a2.imag], "b2": [ch.b2.real, ch.b2.imag],
                               "a2_second": [ch.a2_second.real, ch.a2_second.imag],
                               "b2_second": [ch.b2_second.real, ch.b2_second.imag]}


def test_fit_csv_missing_column_exit2(tmp_path, capsys):
    from dp3.ode import algebraic_solution, integrate_ray, trajectory_to_csv
    params = EquationParams.make(1, 1.0)
    traj = integrate_ray(algebraic_solution(1.0, params), 0.0, params, 60.0,
                         dense_at=np.linspace(50.0, 60.0, 12))
    lines = [",".join(row.split(",")[:-2]) for row in trajectory_to_csv(traj).splitlines()]
    assert lines[0].split(",")[-1] != "H_im"
    csv_path = tmp_path / "traj.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    code, out, err = run_cli(capsys, ["fit", "--csv", str(csv_path), "--eps", "1", "--b", "1"])
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    _assert_json_error(err, "validation")


def test_chart_small_generic_branch_matches_library(point_file, capsys):
    path, pt = point_file
    code, out, _ = run_cli(capsys, ["chart", "small", "--point", path, "--eps", "1", "--b", "1"])
    assert code == 0
    ch = small_tau_chart(pt, 0, EquationParams.make(1, 1.0))
    assert not ch.log_mode

    def cpx(v):
        return [v.real, v.imag]

    assert json.loads(out) == {
        "log_mode": False, "rho": cpx(ch.rho),
        "p": [cpx(v) for v in (ch.p_plus, ch.p_minus, ch.q_plus, ch.q_minus)],
        "chi1": [cpx(ch.chi1_plus), cpx(ch.chi1_minus)],
        "chi2": [cpx(ch.chi2_plus), cpx(ch.chi2_minus)]}


def test_eval_H_small_matches_library(point_file, capsys):
    from dp3.asymptotics import H_small
    path, pt = point_file
    code, out, _ = run_cli(capsys, ["eval", "H", "--regime", "small", "--tau", "0.01",
                                    "--point", path, "--eps", "1", "--b", "1"])
    assert code == 0
    val = H_small(small_tau_chart(pt, 0, EquationParams.make(1, 1.0)), 0.01)
    assert json.loads(out) == [val.real, val.imag]
