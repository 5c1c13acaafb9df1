"""Seeded random generation of manifold points via the branch systems,
with rejection filtering on chart-relevant bounds."""

from __future__ import annotations

import cmath
import math
import numbers
import sys

import numpy as np

from .errors import ConditionViolationError, SamplingExhaustedError
from .monodromy import MonodromyPoint, from_branch, rho_from

__all__ = ["sample_manifold"]

_MAX_HALF_WIDTH = 0.5 * sys.float_info.max  # of a uniform draw on [-w, w]


def _uniform_complex(rng, lo=-1.2, hi=1.2) -> complex:
    return complex(rng.uniform(lo, hi), rng.uniform(lo, hi))


def sample_manifold(seed: int, count: int, branch: int,
                    abs_a_max: float = 1.0,
                    im_a_max: float = 0.95,
                    nu_max: float | None = None,
                    re_rho_max: float | None = None,
                    max_entry: float | None = None,
                    box: float = 1.2,
                    max_attempts_per_point: int = 2000) -> list[MonodromyPoint]:
    """Draw ``count`` points on the chosen branch, free parameters uniform
    in boxes, rejection-filtered by bounds on |a|, |nu + 1| and |Re rho|
    (and optionally on the largest coordinate magnitude, which keeps
    residual evaluation well conditioned).  Reproducible per seed.

    Raises ``ConditionViolationError`` before drawing unless ``seed`` and
    ``count`` are non-negative integers, ``max_attempts_per_point`` is a
    positive integer, ``abs_a_max``, ``im_a_max`` and ``box`` lie in
    [0, 0.5 * float max] (a zero ``abs_a_max`` draws a = 0, a zero
    ``im_a_max`` a real ``a``), ``box`` is positive, and each optional bound
    is ``None`` or finite and positive."""
    if branch not in (1, 2, 3):
        raise ConditionViolationError("branch must be 1, 2 or 3")
    for name, value, low in (("seed", seed, 0), ("count", count, 0),
                             ("max_attempts_per_point", max_attempts_per_point, 1)):
        if not (isinstance(value, numbers.Integral) and value >= low):
            raise ConditionViolationError(
                f"{name} must be a {'positive' if low else 'non-negative'} integer")
    for name, value in (("abs_a_max", abs_a_max), ("im_a_max", im_a_max), ("box", box)):
        if not (isinstance(value, numbers.Real) and 0 <= value <= _MAX_HALF_WIDTH):
            raise ConditionViolationError(f"{name} must lie in [0, {_MAX_HALF_WIDTH:.4g}]")
    abs_a_max, im_a_max = abs(abs_a_max), abs(im_a_max)  # -0.0 -> 0.0
    for name, value in (("box", box), ("nu_max", nu_max), ("re_rho_max", re_rho_max),
                        ("max_entry", max_entry)):
        if value is not None and not (isinstance(value, numbers.Real) and 0 < value < math.inf):
            raise ConditionViolationError(f"{name} must be finite and positive")
    rng = np.random.default_rng(seed)
    out: list[MonodromyPoint] = []
    budget = max_attempts_per_point * max(count, 1)
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > budget:
            raise SamplingExhaustedError(
                f"collected {len(out)}/{count} points in {budget} attempts; "
                "constraints too tight")
        a = complex(rng.uniform(-abs_a_max, abs_a_max),
                    rng.uniform(-min(abs_a_max, im_a_max), min(abs_a_max, im_a_max)))
        if abs(a) > abs_a_max:
            continue
        try:
            if branch == 1:
                g11 = _uniform_complex(rng, -box, box)
                g12 = _uniform_complex(rng, -box, box)
                g21 = _uniform_complex(rng, -box, box)
                if abs(g11) < 0.25:
                    continue
                g22 = (1.0 + g12 * g21) / g11
                if abs(g22) > 4.0 * box:
                    continue
                pt = from_branch(1, a, g11=g11, g12=g12, g21=g21, g22=g22)
            else:
                s00 = _uniform_complex(rng, -box, box)
                gfree = _uniform_complex(rng, -box, box)
                if abs(gfree) < 0.25:
                    continue
                key = "g22" if branch == 2 else "g11"
                pt = from_branch(branch, a, s00=s00, **{key: gfree})
        except ConditionViolationError:
            continue
        if nu_max is not None:
            prod = pt.g11 * pt.g22
            if prod == 0:
                continue
            if abs(0.5j / math.pi * cmath.log(prod)) > nu_max:
                continue
        if re_rho_max is not None:
            if abs(rho_from(pt).real) > re_rho_max:
                continue
        if max_entry is not None:
            fields = (pt.s00, pt.s0inf, pt.s1inf, pt.g11, pt.g12, pt.g21, pt.g22)
            if max(abs(v) for v in fields) > max_entry:
                continue
        out.append(pt)
    return out
