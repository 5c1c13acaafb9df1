"""Bad arguments to the library raise ``ConditionViolationError``: a rung
count, a lattice identity, a ladder, a Stokes index window or a given
connection seed off the fitted ray that the call cannot use is rejected
before any work, and every argument check of
the branch systems, the group actions, the Backlund and Lie-point maps,
the lattice residuals, the equation parameters, the sampler, the ray
integrator and the grid residual raises that type.  A seed at tau = 0 and
a matrix-entry Hamiltonian off its stratum raise ``SingularityError``, and
a ladder seed whose rungs vanish, break down or overflow
``LadderBreakdownError`` naming the rung, and ladder rows with v_n = 0 or
T_n = 0, where a lattice identity is undefined, ``ConditionViolationError``."""

import dataclasses

import numpy as np
import pytest

from dp3.backlund import (
    LadderEntry,
    backlund_step,
    ladder,
    lattice_residuals,
    lie_point_solution,
)
from dp3.connection import verify_connection
from dp3.errors import ConditionViolationError, LadderBreakdownError, SingularityError
from dp3.monodromy import (
    apply_F,
    apply_Fhat,
    backlund_monodromy,
    from_branch,
    lie_point_monodromy,
    stokes_structure,
)
from dp3.ode import (
    SolutionState,
    algebraic_solution,
    hamiltonian_abcd,
    integrate_ray,
    residual_on_grid,
)
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
    # the exact a = 0 solution on the negative ray, checked against the
    # positive ray's chart: it gave err_nu = 10.6 and no error
    lambda: verify_connection(from_branch(1, 0.0, g11=1, g12=0, g21=0, g22=1), P,
                              tau0=0.01, tau1=100.0, tau1_steps=1,
                              seed_state=algebraic_solution(-0.01, P)),
], ids=["ladder-fractional-n_max", "ladder-negative-n_max", "lattice-empty-ladder",
        "lattice-unknown-identity", "stokes-fractional-k_min", "stokes-empty-window",
        "verify-seed-off-ray"])
def test_unusable_arguments_raise_before_any_work(call):
    with pytest.raises(ConditionViolationError):
        call()


@pytest.mark.parametrize("call", [
    lambda: from_branch(1, 0.0, g11=0.0, g12=1.0, g21=-1.0, g22=1.0),
    lambda: from_branch(2, 0.0, s00=1.0, g22=0.0),
    lambda: from_branch(4, 0.0, s00=1.0, g22=1.0),
    lambda: apply_F(PT, 2, 0),
    lambda: apply_F(PT, 0, 2),
    lambda: apply_Fhat(PT, 0, 0),
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
    lambda: integrate_ray(SEED, 0.0, P, abs(SEED.tau)),
    lambda: residual_on_grid(np.array([1.0, 2.0, 3.0j, 4.0, 5.0]), np.ones(5), 0.0, P),
], ids=["branch1-g11-g22-zero", "branch2-g22-zero", "unknown-branch", "F-bad-eps1",
        "F-bad-eps2", "Fhat-bad-eps1", "backlund-step-direction", "backlund-monodromy-direction",
        "lie-monodromy-p", "lie-monodromy-l", "lie-monodromy-kind", "lie-solution-p",
        "lie-solution-l", "lie-solution-kind", "lie-solution-relabel", "toda-without-seed-eval",
        "params-eps-2", "sample-branch-4", "integrate-to-own-magnitude",
        "residual-off-one-ray"])
def test_argument_checks_raise_condition_violation(call):
    with pytest.raises(ConditionViolationError):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: integrate_ray(SolutionState(0.0, 1.0, 1.0), 0.0, P, 2.0), SingularityError,
     "at tau = 0"),
    (lambda: hamiltonian_abcd(0.0, 1.0, 1.0, 1.0, 1.0, 0.0, P, 1.0), SingularityError,
     "A B = 0"),
    (lambda: ladder(SolutionState(1.0, 0.0, 1.0), 0.0, P, 1), LadderBreakdownError,
     "u_0 vanishes"),
    (lambda: ladder(SolutionState(1.0, 1e300, 1e300), 0.0, P, 1), LadderBreakdownError,
     "rung 1 breaks down"),
    (lambda: ladder(SolutionState(1e-200, 1.0, 0.0), 0.0, P, 1), LadderBreakdownError,
     "rung 0 is not finite"),
    (lambda: lattice_residuals([LadderEntry(n, -1j * n, SEED, v)
                                for n, v in enumerate((1.0, 0.0, 1.0))], "km", 0.0, P),
     ConditionViolationError, "v_1 = 0"),
    (lambda: lattice_residuals([dataclasses.replace(e, g=0.0) if e.n == 2 else e
                                for e in ladder(SEED, 0.0, P, 6)], "toda", 0.0, P,
                               seed_eval=lambda tau: algebraic_solution(tau, P)),
     ConditionViolationError, "T_2 vanishes"),
], ids=["integrate-from-tau-0", "abcd-off-stratum", "ladder-u-zero", "ladder-rung-breaks",
        "ladder-rung-overflows", "km-v-zero", "toda-T-zero"])
def test_unusable_states_raise_their_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
