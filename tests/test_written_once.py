"""Formulas written once in the package source: theta's coefficient, the
Backlund step's up/down formula and its monodromy shadow's.  The down
direction of each is the up formula with signs flipped, not a second
copy, so a change to either direction is one edit.

So are the conventions that the charts, the seeds, the fit, the sampler
and the Hamiltonians share, each on one line of its home: the ray phase
e^{i pi eps1} and the ray sign (-1)^eps1, the large-argument scale and
the oscillation weights' scale, the strip test, nu + 1, the sector's
shifted a and its i-multiple, the canonical momentum, the small charts'
log-branch brackets, their constants and exponent, and the fit's
theta > 50 floor.

No private module-level name is left behind: each is used in the package
source beyond its definition."""

import ast
import re
from pathlib import Path

import dp3

SRC = Path(dp3.__file__).resolve().parent


def files_with_lines_matching(pattern: str) -> list[str]:
    """The file name once per matching line of the package's modules."""
    return [p.name for p in sorted(SRC.glob("*.py")) for line in p.read_text().splitlines()
            if re.search(pattern, line)]


def test_theta_coefficient_written_once_in_source():
    assert files_with_lines_matching(r"3(\.0)? \* (_SQRT3|math\.sqrt\(3(\.0)?\))") \
        == ["asymptotics.py"]


def test_backlund_step_formula_written_once_in_source():
    assert files_with_lines_matching(r"^\s*N = ") == ["backlund.py"]
    assert files_with_lines_matching(r"^\s*dN = ") == ["backlund.py"]


def test_backlund_monodromy_written_once_in_source():
    assert files_with_lines_matching(r"-pt\.s00, pt\.s0inf, pt\.s1inf") == ["monodromy.py"]
    assert files_with_lines_matching(r"pt\.a \+ 1j") == []


def test_ray_phase_written_once_in_source():
    assert files_with_lines_matching(r"1j \* math\.pi \* (args\.)?eps1\b") == ["asymptotics.py"]


def test_large_tau_scale_written_once_in_source():
    assert files_with_lines_matching(r"math\.sqrt\(\w+\.abs_coupling\) / 3\.0 \*\* 0\.25") \
        == ["asymptotics.py"]


def test_strip_test_written_once_in_source():
    assert files_with_lines_matching(r"1\.0 / 6\.0") == ["asymptotics.py"]


def test_nu_plus_1_written_once_in_source():
    assert files_with_lines_matching(r"0\.5j / math\.pi \* cmath\.log") == ["monodromy.py"]


def test_shifted_a_and_its_i_multiple_written_once_in_source():
    assert files_with_lines_matching(r"- 0\.5j( \*|$)") == ["params.py"]
    assert files_with_lines_matching(r"\* 1j \+ 0\.5") == ["params.py"]


def test_log_branch_brackets_written_once_in_source():
    assert files_with_lines_matching(r"b2(_second)? \* (math\.log\(m\)|log_m)") \
        == ["asymptotics.py"]


def test_small_chart_exponent_written_once_in_source():
    assert files_with_lines_matching(r"\ba \* \(\w+\.a - ") == ["asymptotics.py"]


def test_ray_sign_written_once_in_source():
    assert files_with_lines_matching(r"\(-1(\.0)?\) \*\* ") == ["asymptotics.py"]


def test_oscillation_weight_scale_written_once_in_source():
    assert files_with_lines_matching(r"0\.75j \* math\.pi") == ["asymptotics.py"]


def test_canonical_momentum_written_once_in_source():
    assert files_with_lines_matching(r"\(du - 1j \* \w+\.b\) / \(2\.0 \* u \* u\)") == ["ode.py"]


def test_log_branch_constants_written_once_in_source():
    assert files_with_lines_matching(r"0\.5j \* a \* ") == ["asymptotics.py"]
    assert files_with_lines_matching(r"1j \* a \* chi") == ["asymptotics.py"]


def test_theta_floor_written_once_in_source():
    assert files_with_lines_matching(r"\b50\.0\b") == ["connection.py"]


def module_private_names(tree: ast.Module) -> list[str]:
    """The private names that a module's top-level statements define."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_name_is_used_beyond_its_definition():
    texts = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    source = "\n".join(texts)
    defined = {n for text in texts for n in module_private_names(ast.parse(text))}
    assert sorted(n for n in defined if len(re.findall(rf"\b{n}\b", source)) < 2) == []
