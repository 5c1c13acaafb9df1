"""Numerical toolkit for the degenerate third Painleve equation: monodromy
data, asymptotic charts at both ends of real and imaginary rays, Backlund
ladders with their lattice identities, and end-to-end connection
verification by high-accuracy integration.

``_EXPORTS`` is the one list of public names: each submodule's
``__all__`` is its entry here, so a new public function is named once.
The names resolve on first access (PEP 562): ``import dp3`` loads no
submodule, and ``dp3.u_small`` imports ``dp3.asymptotics`` (and what it
needs) only when it is first read.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": (
        "H_large", "H_small", "LargeTauChart", "SmallTauChart", "cross_ray_residuals",
        "du_imag", "du_small", "imag_chart", "large_tau_chart", "nu_plus_1_of",
        "small_tau_chart", "tau_function_asymptotic", "theta_phase", "u_imag", "u_large",
        "u_small",
    ),
    "backlund": ("LadderEntry", "backlund_step", "ladder", "lattice_residuals",
                 "lie_point_solution"),
    "connection": ("ConnectionReport", "LargeTauFit", "fit_large_tau", "verify_connection"),
    "errors": (
        "ConditionViolationError", "DP3Error", "IntegrationFailureError",
        "LadderBreakdownError", "PoleError", "SamplingExhaustedError", "SingularityError",
    ),
    "monodromy": (
        "MonodromyPoint", "StokesSet", "apply_F", "apply_Fhat", "backlund_monodromy",
        "cyclic_residuals", "from_branch", "lie_point_monodromy", "manifold_residual",
        "point_from_json", "point_to_json", "rho_from", "stokes_structure",
    ),
    "ode": (
        "HamiltonianSplit", "SolutionState", "Trajectory", "algebraic_solution", "dp3_rhs",
        "hamiltonian_abcd", "hamiltonian_pq", "hamiltonian_system_rhs", "hamiltonian_u",
        "integrate_ray", "p_from_u", "residual_on_grid", "sigma_and_f", "to_abcd",
        "trajectory_to_csv",
    ),
    "params": ("EquationParams",),
    "sampling": ("sample_manifold",),
    "specfun": ("digamma", "gamma", "ln_gamma"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
