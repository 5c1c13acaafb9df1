"""Bad arguments to the library raise ``ConditionViolationError``: a rung
count, a lattice identity, a ladder or a Stokes index window that the
call cannot use is rejected before any work, and every argument check of
the branch systems, the group actions, the Backlund and Lie-point maps,
the lattice residuals, the equation parameters and the sampler raises
that type."""

import pytest

from dp3.backlund import backlund_step, ladder, lattice_residuals, lie_point_solution
from dp3.errors import ConditionViolationError
from dp3.monodromy import (
    apply_F,
    backlund_monodromy,
    from_branch,
    lie_point_monodromy,
    stokes_structure,
)
from dp3.ode import algebraic_solution
from dp3.params import EquationParams
from dp3.sampling import sample_manifold

P = EquationParams.make(1, 1.0)
SEED = algebraic_solution(1.5, P)
PT = from_branch(1, 0.1 + 0.05j, g11=1.1, g12=0.3, g21=0.4j, g22=(1.0 + 0.3 * 0.4j) / 1.1)


def no_work(tau):
    raise AssertionError("the seed evaluator ran before the arguments were checked")


@pytest.mark.parametrize("call", [
    lambda: ladder(SEED, 0.0, P, 2.5, seed_eval=no_work),
    lambda: ladder(SEED, 0.0, P, -3, seed_eval=no_work),
    lambda: lattice_residuals([], "km", 0.0, P),
    lambda: lattice_residuals(ladder(SEED, 0.0, P, 1), "bogus", 0.0, P, seed_eval=no_work),
    lambda: stokes_structure(PT, 2.5, 3),
    lambda: stokes_structure(PT, 3, 1),
], ids=["ladder-fractional-n_max", "ladder-negative-n_max", "lattice-empty-ladder",
        "lattice-unknown-identity", "stokes-fractional-k_min", "stokes-empty-window"])
def test_unusable_arguments_raise_before_any_work(call):
    with pytest.raises(ConditionViolationError):
        call()


@pytest.mark.parametrize("call", [
    lambda: from_branch(1, 0.0, g11=0.0, g12=1.0, g21=-1.0, g22=1.0),
    lambda: from_branch(2, 0.0, s00=1.0, g22=0.0),
    lambda: from_branch(4, 0.0, s00=1.0, g22=1.0),
    lambda: apply_F(PT, 2, 0),
    lambda: apply_F(PT, 0, 2),
    lambda: backlund_step(SEED, 0.0, P, "sideways"),
    lambda: backlund_monodromy(PT, "sideways"),
    lambda: lie_point_monodromy(PT, "rotate_tau", p=2),
    lambda: lie_point_monodromy(PT, "rotate_tau", l=0),
    lambda: lie_point_monodromy(PT, "bogus"),
    lambda: lie_point_solution(SEED, 0.0, P, "rotate_tau", p=2),
    lambda: lie_point_solution(SEED, 0.0, P, "rotate_tau", l=0),
    lambda: lie_point_solution(SEED, 0.0, P, "bogus"),
    lambda: lie_point_solution(SEED, 0.0, P, "negate_a", relabel="bogus"),
    lambda: lattice_residuals(ladder(SEED, 0.0, P, 5), "toda", 0.0, P),
    lambda: EquationParams(2, 1.0),
    lambda: sample_manifold(seed=1, count=1, branch=4),
], ids=["branch1-g11-g22-zero", "branch2-g22-zero", "unknown-branch", "F-bad-eps1",
        "F-bad-eps2", "backlund-step-direction", "backlund-monodromy-direction",
        "lie-monodromy-p", "lie-monodromy-l", "lie-monodromy-kind", "lie-solution-p",
        "lie-solution-l", "lie-solution-kind", "lie-solution-relabel", "toda-without-seed-eval",
        "params-eps-2", "sample-branch-4"])
def test_argument_checks_raise_condition_violation(call):
    with pytest.raises(ConditionViolationError):
        call()
