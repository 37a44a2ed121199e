"""Mild-solution backward SDE solver on truncated Hilbert spaces."""

from .spectral import (
    DiagonalOperator,
    EmpiricalConstants,
    dirichlet_laplacian_eigenvalues,
    estimate_constants,
    h_alpha_norm_batch,
    semigroup_apply,
    smoothing_bound_check,
)
from .wiener import (
    Regression,
    RegressionBasis,
    TimeGrid,
    WienerEnsemble,
    martingale_z_estimate,
    sample_ensemble,
)
from .solver import (
    BoundedDriver,
    BsdeProblem,
    DissipativeDrift,
    SolverReport,
    apriori_h_bound,
    exponential_shift,
    general_solve,
    select_local_radius_and_delta,
    zero_drift,
)
from .gronwall import (
    GronwallInput,
    gronwall_bound_iterative,
    gronwall_constant,
)
from .models import (
    ReactionDiffusionSpec,
    SpinSpec,
    build_preset,
    build_reaction_diffusion,
    build_spin_system,
    check_dissipativity,
    check_growth_and_lipschitz,
    validate_problem,
)

__version__ = "0.1.0"


def __getattr__(name):  # imported on first use, so ``python -m mildbsde.cli`` runs a fresh module
    if name == "load_solution":
        from .cli import load_solution
        return load_solution
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
