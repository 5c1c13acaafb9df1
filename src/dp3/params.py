"""Equation parameters (eps, b), the coupling-sector label eps2 and its shift of a."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _EXPORTS
from .errors import ConditionViolationError

__all__ = _EXPORTS["params"]


@dataclass(frozen=True)
class EquationParams:
    """Parameters of the nonlinear equation: sign ``eps``, finite real ``b != 0``,
    and the sector label ``eps2`` with ``eps*b = |eps*b| e^{i pi eps2}``
    (``eps2 = 0`` for positive coupling, ``+-1`` for negative; for negative
    coupling the caller picks the sector, default ``+1``)."""

    eps: int
    b: float
    eps2: int = 0

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ConditionViolationError("eps must be +1 or -1")
        if not math.isfinite(self.b):
            raise ConditionViolationError("b must be finite")
        if not math.isfinite(self.b * self.b):
            raise ConditionViolationError("|b| is too large: b**2 overflows")
        if self.b == 0.0:
            raise ConditionViolationError("b must be nonzero")
        coupling = self.eps * self.b
        if coupling > 0 and self.eps2 != 0:
            raise ConditionViolationError("eps2 must be 0 when eps*b > 0")
        if coupling < 0 and self.eps2 not in (1, -1):
            raise ConditionViolationError("eps2 must be +-1 when eps*b < 0")

    @staticmethod
    def make(eps: int, b: float, eps2: int | None = None) -> "EquationParams":
        """Build with the sector label inferred (negative coupling defaults
        to the ``+1`` sector)."""
        if eps2 is None:
            eps2 = 0 if eps * b > 0 else 1
        return EquationParams(eps=eps, b=float(b), eps2=eps2)

    @property
    def coupling(self) -> float:
        return self.eps * self.b

    @property
    def abs_coupling(self) -> float:
        return abs(self.coupling)

    @property
    def sign2(self) -> int:
        """(-1)**eps2."""
        return 1 if self.eps2 == 0 else -1

    @property
    def coupling_pow23(self) -> float:
        """(eps*b)^{2/3} = b^{2/3}: the square of the real cube root, always > 0."""
        return (self.abs_coupling ** (1.0 / 3.0)) ** 2


def _shifted_a(a, sign2: int):
    """a - (-1)^eps2 i/2 for sign2 = (-1)^eps2: the Hamiltonians' shifted a."""
    return a - 0.5j * sign2


def _shifted_ai(a, sign2: int):
    """a i + (-1)^eps2 / 2, i times the shifted a, summed as written."""
    return a * 1j + 0.5 * sign2
