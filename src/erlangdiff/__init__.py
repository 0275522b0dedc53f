"""Exact steady-state analysis of Erlang-A/C queues against their
piecewise Ornstein-Uhlenbeck diffusion models.

Importing the package loads no layer and no numpy: an exported name, or a
layer module read as an attribute, imports its module on first lookup.
"""

import importlib

__version__ = "0.1.0"

# each layer with the names it exports, in the order of __all__
_EXPORTS = {
    "model": ("ModelParams", "DerivedQuantities", "ValidationError", "derive", "departure_rate", "drift"),
    "ctmc": (
        "DiscreteStationary",
        "TruncationError",
        "stationary_pmf",
        "stein_identity_residual",
        "moment_bound_report",
        "idle_probability_monotone",
    ),
    "diffusion": ("DiffusionDensity", "build_density", "density_sup_check", "zeta_scaling_limit"),
    "poisson": ("TestFunction", "PoissonSolution", "build_solution", "mean_h", "gradient_bound_report"),
    "stein_verify": ("ErrorDecomposition", "wasserstein_decomposition", "kolmogorov_decomposition"),
    "metrics": (
        "Scenario",
        "kolmogorov_distance",
        "wasserstein_distance",
        "mean_error",
        "moment_error",
        "universality_sweep",
    ),
    "report": (),
    "cli": (),
}
_OWNERS = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNERS)


def __getattr__(name: str):
    layer = _OWNERS.get(name, name)
    if layer not in _EXPORTS:  # dunder probes and unknown names load nothing
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{layer}")
    return module if layer == name else getattr(module, name)
