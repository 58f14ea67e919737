"""Weighted stochastic Riccati design for linear systems with i.i.d. random matrices.

The package designs linear state-feedback gains that are optimal for a
weighted quadratic cost, where the weight reshapes the distribution of the
random system matrices around the candidate policy. Risk-neutral,
exponential risk-sensitive, and sigmoid robust risk-sensitive policies are
all instances of one weight family choice.
"""

from .ensemble import (
    ParameterDistribution,
    SampleBank,
    build_distribution,
    derive_seed,
    draw_bank,
    point_mass,
    stream_rng,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainViolationError,
    EigenSolverError,
    NonFiniteError,
    NumericalError,
    SingularJacobianError,
    WeightOverflowError,
    WsriccatiError,
)
from .matops import (
    spectral_radius,
    symmetrize,
    unvech,
    vec,
    vech,
)
from .riccati import (
    DesignProblem,
    DesignSolution,
    SolverOptions,
    fixed_point_solve,
    implicit_residual,
    newton_solve,
    pack_solution,
    residual_jacobian,
    solve,
    solve_all,
    unpack_solution,
    value_map,
)
from .simulate import (
    RobustnessSummary,
    RolloutResult,
    SimulationSummary,
    mc_cost_study,
    robustness_study,
    rollout,
    worst_percent_averages,
)
from .stability import StabilityReport, ms_check, wms_check
from .weights import (
    WeightSpec,
    WeightedBank,
    build_weighted_bank,
    predictive_costs,
    weight_vector,
)

__version__ = "0.1.0"

__all__ = [
    "ParameterDistribution",
    "SampleBank",
    "build_distribution",
    "point_mass",
    "draw_bank",
    "stream_rng",
    "derive_seed",
    "WeightSpec",
    "WeightedBank",
    "predictive_costs",
    "weight_vector",
    "build_weighted_bank",
    "DesignProblem",
    "DesignSolution",
    "SolverOptions",
    "value_map",
    "fixed_point_solve",
    "pack_solution",
    "unpack_solution",
    "implicit_residual",
    "residual_jacobian",
    "newton_solve",
    "solve",
    "solve_all",
    "StabilityReport",
    "ms_check",
    "wms_check",
    "RolloutResult",
    "SimulationSummary",
    "RobustnessSummary",
    "rollout",
    "worst_percent_averages",
    "mc_cost_study",
    "robustness_study",
    "vec",
    "vech",
    "unvech",
    "spectral_radius",
    "symmetrize",
    "WsriccatiError",
    "ConfigurationError",
    "NumericalError",
    "DomainViolationError",
    "ConvergenceError",
    "WeightOverflowError",
    "SingularJacobianError",
    "EigenSolverError",
    "NonFiniteError",
]
