"""Mild-solution backward SDE solver on truncated Hilbert spaces."""

from .spectral import (
    AlphaNorm,
    DiagonalOperator,
    EmpiricalConstants,
    dirichlet_laplacian_eigenvalues,
    estimate_constants,
    h_alpha_norm_batch,
    interpolation_norm,
    semigroup_apply,
    smoothing_bound_check,
)
from .wiener import (
    Regression,
    RegressionBasis,
    TimeGrid,
    WienerEnsemble,
    conditional_expectation,
    martingale_z_estimate,
    sample_ensemble,
)
from .solver import (
    BoundedDriver,
    BsdeProblem,
    DissipativeDrift,
    SolutionPair,
    SolverConfig,
    SolverReport,
    apriori_h_bound,
    exponential_shift,
    general_solve,
    global_solve,
    local_solve,
    residual,
    select_local_radius_and_delta,
    zero_drift,
)
from .gronwall import (
    GronwallInput,
    gronwall_bound_iterative,
    gronwall_constant,
    verify_on_process,
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
