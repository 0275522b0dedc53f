"""Parameters and derived scalar quantities of the Erlang-A/Erlang-C models.

The Erlang-C model is the M/M/n queue (Poisson arrivals at rate ``lam``,
``n`` exponential servers at rate ``mu``, infinite patience).  The Erlang-A
model adds exponential abandonment at rate ``alpha`` per waiting customer.
Everything downstream works on the centered and scaled customer-count chain
whose grid spacing is ``delta = 1/sqrt(R)`` with offered load ``R = lam/mu``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Check",
    "ModelParams",
    "DerivedQuantities",
    "ValidationError",
    "derive",
    "departure_rate",
    "drift",
]


class ValidationError(ValueError):
    """Raised when model parameters violate the admissibility rules."""


@dataclass(frozen=True)
class Check:
    """One verification row: an observed value against its bound.

    ``satisfied`` is the verdict; one-sided rows get it from ``at_most``.
    ``mode="empirical"`` rows track a quantity with no stated constant and
    carry ``satisfied=None``.
    """

    name: str
    observed: float
    bound: float
    satisfied: bool | None
    mode: str = "strict"

    @classmethod
    def at_most(
        cls,
        name: str,
        observed: float,
        bound: float,
        *,
        rtol: float = 0.0,
        atol: float = 0.0,
        mode: str = "strict",
    ) -> "Check":
        """The row for ``observed <= bound * (1 + rtol) + atol``.

        ``rtol`` and ``atol`` are the producing suite's slack; a nan observed
        value fails.  An empirical row gets no verdict.
        """
        observed, bound = float(observed), float(bound)
        satisfied = observed <= bound * (1.0 + rtol) + atol if mode == "strict" else None
        return cls(name, observed, bound, satisfied, mode)


@dataclass(frozen=True)
class ModelParams:
    """Primitives of the queueing system.

    lam    -- arrival rate, > 0
    mu     -- per-server service rate, > 0
    n      -- number of servers, integer >= 1
    alpha  -- abandonment rate per waiting customer, >= 0 (0 means Erlang-C)
    """

    lam: float
    mu: float
    n: int
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if not (self.lam > 0.0 and math.isfinite(self.lam)):
            raise ValidationError(f"arrival rate must be positive, got {self.lam}")
        if not (self.mu > 0.0 and math.isfinite(self.mu)):
            raise ValidationError(f"service rate must be positive, got {self.mu}")
        if not (isinstance(self.n, (int, np.integer)) and not isinstance(self.n, bool)):
            raise ValidationError(f"server count must be an integer, got {self.n!r}")
        if self.n < 1:
            raise ValidationError(f"server count must be >= 1, got {self.n}")
        if not (self.alpha >= 0.0 and math.isfinite(self.alpha)):
            raise ValidationError(f"abandonment rate must be >= 0, got {self.alpha}")
        if self.alpha == 0.0 and self.offered_load >= self.n:
            raise ValidationError(
                "Erlang-C requires offered load R < n for positive recurrence; "
                f"got R = {self.offered_load} with n = {self.n}"
            )

    @property
    def offered_load(self) -> float:
        return self.lam / self.mu

    @property
    def is_erlang_c(self) -> bool:
        return self.alpha == 0.0


@dataclass(frozen=True)
class DerivedQuantities:
    """Scalars derived from the model primitives.

    R      -- offered load lam/mu
    delta  -- spatial scale 1/sqrt(R) of the scaled chain
    rho    -- utilization R/n
    x_inf  -- fluid equilibrium customer count (arrival = departure rate)
    zeta   -- delta*(x_inf - n); -zeta is the square-root staffing safety
              coefficient, and the scaled chain hits -zeta at state k = n
    """

    params: ModelParams
    R: float
    delta: float
    rho: float
    x_inf: float
    zeta: float

    @property
    def mu(self) -> float:
        return self.params.mu

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def alpha(self) -> float:
        return self.params.alpha

    @property
    def is_erlang_c(self) -> bool:
        return self.params.is_erlang_c


def derive(params: ModelParams) -> DerivedQuantities:
    """Compute all derived scalar quantities for valid parameters.

    The fluid equilibrium is the unique solution of
    ``lam = (x_inf ^ n)*mu + (x_inf - n)^+ * alpha``: it equals R below
    capacity and ``n + (lam - n*mu)/alpha`` at or above it.
    """
    R = params.offered_load
    delta = 1.0 / math.sqrt(R)
    if R < params.n:
        x_inf = R
    else:
        # alpha > 0 here: Erlang-C with R >= n is rejected at construction.
        x_inf = params.n + (params.lam - params.n * params.mu) / params.alpha
    zeta = delta * (x_inf - params.n)
    return DerivedQuantities(
        params=params, R=R, delta=delta, rho=R / params.n, x_inf=x_inf, zeta=zeta
    )


def departure_rate(params: ModelParams, k):
    """Total departure rate ``mu*(k ^ n) + alpha*(k - n)^+`` in state k.

    Accepts scalars or integer arrays; nondecreasing in k.
    """
    k_arr = np.asarray(k)
    if np.any(k_arr < 0):
        raise ValueError("state index must be nonnegative")
    rate = params.mu * np.minimum(k_arr, params.n) + params.alpha * np.maximum(
        k_arr - params.n, 0
    )
    return float(rate) if k_arr.ndim == 0 else rate


def drift(derived: DerivedQuantities, x):
    """Drift ``b(x) = [(x+zeta)^- - zeta^-]*mu - [(x+zeta)^+ - zeta^+]*alpha``.

    Piecewise linear with its only kink at ``x = -zeta``; b(0) = 0; Lipschitz
    with constant ``max(mu, alpha)``.  Vectorized over x.
    """
    z = derived.zeta
    x_arr = np.asarray(x, dtype=float)
    shifted = x_arr + z
    neg_part = np.maximum(-shifted, 0.0) - max(-z, 0.0)
    pos_part = np.maximum(shifted, 0.0) - max(z, 0.0)
    val = neg_part * derived.mu - pos_part * derived.alpha
    return float(val) if x_arr.ndim == 0 else val
