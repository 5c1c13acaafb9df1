"""Lazy loading: ``import dp3`` loads no submodule, its exports resolve on
first access, and the light CLI commands run without numpy."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dp3
from dp3.monodromy import point_to_json
from dp3.sampling import sample_manifold

SRC = Path(dp3.__file__).resolve().parents[1]

EXPORTS = {
    "asymptotics": ["H_large", "H_small", "LargeTauChart", "SmallTauChart", "cross_ray_residuals",
                    "du_imag", "du_small", "imag_chart", "large_tau_chart", "nu_plus_1_of",
                    "small_tau_chart", "tau_function_asymptotic", "theta_phase", "u_imag",
                    "u_large", "u_small"],
    "backlund": ["LadderEntry", "backlund_step", "ladder", "lattice_residuals",
                 "lie_point_solution"],
    "connection": ["ConnectionReport", "LargeTauFit", "fit_large_tau", "verify_connection"],
    "errors": ["ConditionViolationError", "DP3Error", "IntegrationFailureError",
               "LadderBreakdownError", "PoleError", "SamplingExhaustedError", "SingularityError"],
    "monodromy": ["MonodromyPoint", "StokesSet", "apply_F", "apply_Fhat", "backlund_monodromy",
                  "cyclic_residuals", "from_branch", "lie_point_monodromy", "manifold_residual",
                  "point_from_json", "point_to_json", "rho_from", "stokes_structure"],
    "ode": ["HamiltonianSplit", "SolutionState", "Trajectory", "algebraic_solution", "dp3_rhs",
            "hamiltonian_abcd", "hamiltonian_pq", "hamiltonian_system_rhs", "hamiltonian_u",
            "integrate_ray", "p_from_u", "residual_on_grid", "sigma_and_f", "to_abcd",
            "trajectory_to_csv"],
    "params": ["EquationParams"],
    "sampling": ["sample_manifold"],
    "specfun": ["digamma", "gamma", "ln_gamma"],
}


def run_child(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, cwd=SRC, timeout=60)
    return out.stdout.strip()


def test_import_dp3_loads_no_submodule_and_no_numpy():
    code = ("import sys, dp3; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('dp3.')))")
    assert run_child(code) == "[]"


@pytest.mark.parametrize("argv", [
    ["monodromy", "map", "--map", "F", "--eps1", "1"],
    ["chart", "large", "--eps", "1", "--b", "1"],
    ["eval", "u", "--regime", "small", "--tau", "0.01", "--eps", "1", "--b", "1"],
    ["monodromy", "check"],
    ["monodromy", "sample", "--seed", "3", "--count", "5", "--branch", "1", "--nu-max", "0.1"],
])
def test_light_commands_leave_numpy_unloaded(argv):
    if argv[:2] != ["monodromy", "sample"]:
        pt = sample_manifold(seed=5, count=1, branch=1, nu_max=0.1)[0]
        argv = argv + ["--point", point_to_json(pt)]
    code = ("import contextlib, io, sys, dp3.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = dp3.cli.main({argv!r})\n"
            "print(rc, 'numpy' in sys.modules)")
    assert run_child(code) == "0 False"


def module_level_imports(nodes):
    """Modules imported by statements that run at import time: everything
    but function bodies and ``if TYPE_CHECKING:`` blocks."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
        yield from module_level_imports(
            child for child in ast.iter_child_nodes(node) if isinstance(child, ast.stmt))


@pytest.mark.parametrize("module", ["sampling", "monodromy"])
def test_numpy_imported_only_inside_functions(module):
    # the sampler and the residuals serve the numpy-free CLI commands
    tree = ast.parse((SRC / "dp3" / f"{module}.py").read_text())
    imported = list(module_level_imports(tree.body))
    assert "errors" in imported  # the walk sees the module's own imports
    assert not [m for m in imported if m.split(".")[0] == "numpy"]


def test_all_lists_every_export_and_resolves_to_the_submodule_object():
    expected = sorted(name for names in EXPORTS.values() for name in names)
    assert len(expected) == 65
    assert sorted(dp3.__all__) == expected
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"dp3.{module}")
        for name in names:
            assert getattr(dp3, name) is getattr(sub, name), name
    assert set(dp3.__all__) <= set(dir(dp3))


@pytest.mark.parametrize("module", ["asymptotics", "backlund", "connection", "monodromy", "ode",
                                    "params", "sampling", "specfun"])
def test_submodule_all_is_the_package_table_entry(module):
    assert importlib.import_module(f"dp3.{module}").__all__ == dp3._EXPORTS[module]


def test_star_import_and_submodule_access_resolve_lazily():
    code = ("import sys, json, dp3\n"
            "ns = {}\n"
            "exec('from dp3 import *', ns)\n"
            "print(json.dumps([len([k for k in ns if not k.startswith('__')]),"
            " dp3.ode.__name__, 'dp3.cli' in sys.modules]))")
    assert json.loads(run_child(code)) == [65, "dp3.ode", False]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        dp3.not_a_name  # noqa: B018
    assert not hasattr(dp3, "np")
    with pytest.raises(ImportError):
        exec("from dp3 import not_a_name", {})


def test_light_command_leaves_traceback_unloaded_and_debug_prints_it():
    # only the DP3_LOG=debug error path needs the traceback module
    pt = sample_manifold(seed=5, count=1, branch=1, nu_max=0.1)[0]
    argv = ["chart", "large", "--eps", "1", "--b", "1", "--point", point_to_json(pt)]
    code = ("import contextlib, io, sys, dp3.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    rc = dp3.cli.main({argv!r})\n"
            "print(rc, 'traceback' in sys.modules)")
    assert run_child(code) == "0 False"
    out = subprocess.run([sys.executable, "-m", "dp3.cli", "chart", "large", "--eps", "1",
                          "--b", "1", "--point", "{bad"], capture_output=True, text=True,
                         cwd=SRC, timeout=60, env=dict(os.environ, DP3_LOG="debug"))
    first, rest = out.stderr.split("\n", 1)
    assert out.returncode == 2 and json.loads(first)["error"] == "validation"
    assert rest.startswith("Traceback (most recent call last):")
