"""Formulas written once in the package source: theta's coefficient, the
Backlund step's up/down formula and its monodromy shadow's.  The down
direction of each is the up formula with signs flipped, not a second
copy, so a change to either direction is one edit."""

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
