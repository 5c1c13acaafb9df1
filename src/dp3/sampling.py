"""Seeded random generation of manifold points via the branch systems,
with rejection filtering on chart-relevant bounds.

The draws are numpy's ``default_rng(seed).uniform(lo, hi)`` stream, bit for
bit, reproduced in pure Python so that ``dp3 monodromy sample`` runs
without importing numpy, whose import is most of that command's start-up
time.  That stream is the
PCG64 generator (M. E. O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", HMC-CS-2014-0905: a 128-bit LCG with XSL-RR output), seeded
through numpy's ``SeedSequence`` (NEP 19), and each draw is
``lo + (hi - lo) * (x >> 11) * 2**-53``.  Every seed therefore gives the
points it gave when the sampler called numpy.
"""

from __future__ import annotations

import math
import numbers
import sys

from . import _EXPORTS
from .errors import ConditionViolationError, SamplingExhaustedError
from .monodromy import MonodromyPoint, _nu_plus_1, from_branch, rho_from

__all__ = _EXPORTS["sampling"]

_MAX_HALF_WIDTH = 0.5 * sys.float_info.max  # of a uniform draw on [-w, w]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_sequence_state(seed: int) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)``: the
    seed's uint32 words (least significant first) hashed into a pool of
    four, then drawn out as eight uint32 words read in little-endian
    pairs."""
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    out = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class _PCG64:
    """The draws of ``numpy.random.default_rng(seed).uniform(lo, hi)`` for a
    non-negative integer ``seed`` and float bounds with ``hi - lo`` finite
    and non-negative."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_sequence_state(int(seed))
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        # PCG's srandom: one step from state 0, add the seed state, one more step
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _MASK128

    def uniform(self, lo: float, hi: float) -> float:
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        x = (x >> rot | x << (64 - rot)) & _MASK64
        return lo + (hi - lo) * ((x >> 11) * 2.0**-53)


# The free coordinates are drawn on [-_BOX, _BOX] (real and imaginary
# parts), Im a on [-_IM_A_MAX, _IM_A_MAX] clipped to |a|'s bound, and the
# sampler gives up after _MAX_ATTEMPTS_PER_POINT draws per point asked for.
_IM_A_MAX = 0.95
_BOX = 1.2
_MAX_ATTEMPTS_PER_POINT = 2000


def _uniform_complex(rng) -> complex:
    return complex(rng.uniform(-_BOX, _BOX), rng.uniform(-_BOX, _BOX))


def sample_manifold(seed: int, count: int, branch: int,
                    abs_a_max: float = 1.0,
                    nu_max: float | None = None,
                    re_rho_max: float | None = None,
                    max_entry: float | None = None) -> list[MonodromyPoint]:
    """Draw ``count`` points on the chosen branch, free parameters uniform
    in boxes, rejection-filtered by bounds on |a|, |nu + 1| and |Re rho|
    (and optionally on the largest coordinate magnitude, which keeps
    residual evaluation well conditioned).  Reproducible per seed.

    Raises ``ConditionViolationError`` before drawing unless ``seed`` and
    ``count`` are non-negative integers, ``abs_a_max`` lies in
    [0, 0.5 * float max] (zero draws a = 0), and each optional bound is
    ``None`` or finite and positive."""
    if branch not in (1, 2, 3):
        raise ConditionViolationError("branch must be 1, 2 or 3")
    for name, value in (("seed", seed), ("count", count)):
        if not (isinstance(value, numbers.Integral) and value >= 0):
            raise ConditionViolationError(f"{name} must be a non-negative integer")
    if not (isinstance(abs_a_max, numbers.Real) and 0 <= abs_a_max <= _MAX_HALF_WIDTH):
        raise ConditionViolationError(f"abs_a_max must lie in [0, {_MAX_HALF_WIDTH:.4g}]")
    # -0.0 -> 0.0; the draws take float bounds, as numpy's did
    abs_a_max = float(abs(abs_a_max))
    im_a_max = min(abs_a_max, _IM_A_MAX)
    for name, value in (("nu_max", nu_max), ("re_rho_max", re_rho_max),
                        ("max_entry", max_entry)):
        if value is not None and not (isinstance(value, numbers.Real) and 0 < value < math.inf):
            raise ConditionViolationError(f"{name} must be finite and positive")
    rng = _PCG64(seed)
    out: list[MonodromyPoint] = []
    budget = _MAX_ATTEMPTS_PER_POINT * max(count, 1)
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > budget:
            raise SamplingExhaustedError(
                f"collected {len(out)}/{count} points in {budget} attempts; "
                "constraints too tight")
        a = complex(rng.uniform(-abs_a_max, abs_a_max), rng.uniform(-im_a_max, im_a_max))
        if abs(a) > abs_a_max:
            continue
        try:
            if branch == 1:
                g11 = _uniform_complex(rng)
                g12 = _uniform_complex(rng)
                g21 = _uniform_complex(rng)
                if abs(g11) < 0.25:
                    continue
                g22 = (1.0 + g12 * g21) / g11
                if abs(g22) > 4.0 * _BOX:
                    continue
                pt = from_branch(1, a, g11=g11, g12=g12, g21=g21, g22=g22)
            else:
                s00 = _uniform_complex(rng)
                gfree = _uniform_complex(rng)
                if abs(gfree) < 0.25:
                    continue
                key = "g22" if branch == 2 else "g11"
                pt = from_branch(branch, a, s00=s00, **{key: gfree})
        except ConditionViolationError:
            continue
        if nu_max is not None:
            if pt.g11 * pt.g22 == 0 or abs(_nu_plus_1(pt.g11, pt.g22)) > nu_max:
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
