"""Exact steady-state analysis of Erlang-A/C queues against their
piecewise Ornstein-Uhlenbeck diffusion models."""

__version__ = "0.1.0"

from .model import (
    DerivedQuantities,
    ModelParams,
    ValidationError,
    departure_rate,
    derive,
    drift,
)
from .ctmc import (
    DiscreteStationary,
    TruncationError,
    idle_probability_monotone,
    moment_bound_report,
    stationary_pmf,
    stein_identity_residual,
)
from .diffusion import (
    DiffusionDensity,
    build_density,
    density_sup_check,
    zeta_scaling_limit,
)
from .poisson import (
    PoissonSolution,
    TestFunction,
    build_solution,
    gradient_bound_report,
    mean_h,
)
from .stein_verify import (
    ErrorDecomposition,
    kolmogorov_decomposition,
    wasserstein_decomposition,
)
from .metrics import (
    DistanceReport,
    distance_report,
    kolmogorov_distance,
    mean_error,
    moment_error,
    universality_sweep,
    wasserstein_distance,
)

__all__ = [
    "ModelParams",
    "DerivedQuantities",
    "ValidationError",
    "derive",
    "departure_rate",
    "drift",
    "DiscreteStationary",
    "TruncationError",
    "stationary_pmf",
    "stein_identity_residual",
    "moment_bound_report",
    "idle_probability_monotone",
    "DiffusionDensity",
    "build_density",
    "density_sup_check",
    "zeta_scaling_limit",
    "TestFunction",
    "PoissonSolution",
    "build_solution",
    "mean_h",
    "gradient_bound_report",
    "ErrorDecomposition",
    "wasserstein_decomposition",
    "kolmogorov_decomposition",
    "DistanceReport",
    "distance_report",
    "kolmogorov_distance",
    "wasserstein_distance",
    "mean_error",
    "moment_error",
    "universality_sweep",
]
