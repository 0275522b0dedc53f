"""Parameters and derived scalar quantities of the Erlang-A/Erlang-C models.

The Erlang-C model is the M/M/n queue (Poisson arrivals at rate ``lam``,
``n`` exponential servers at rate ``mu``, infinite patience).  The Erlang-A
model adds exponential abandonment at rate ``alpha`` per waiting customer.
Everything downstream works on the centered and scaled customer-count chain
whose grid spacing is ``delta = 1/sqrt(R)`` with offered load ``R = lam/mu``,
and reads the rates only as ``R`` and ``a = alpha/mu`` (``DerivedQuantities``).
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
    "EvaluationRangeError",
    "derive",
    "departure_rate",
    "drift",
]


class ValidationError(ValueError):
    """Raised when model parameters violate the admissibility rules."""


class EvaluationRangeError(ValueError):
    """Raised when an admissible input needs a value past the double range."""


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
        # every layer reads the rates only as these two ratios
        if not 0.0 < self.offered_load < math.inf:
            raise ValidationError(f"lam/mu = {self.offered_load} is not a positive finite double")
        a = self.alpha / self.mu
        if self.alpha > 0.0 and not 0.0 < a < math.inf:
            raise ValidationError(f"alpha/mu = {a} is not a positive finite double")

    @property
    def offered_load(self) -> float:
        return self.lam / self.mu


@dataclass(frozen=True)
class DerivedQuantities:
    """Scalars derived from the model primitives.

    R      -- offered load lam/mu
    a      -- abandonment rate per unit mu, alpha/mu
    delta  -- spatial scale 1/sqrt(R) of the scaled chain
    rho    -- utilization R/n
    x_inf  -- fluid equilibrium customer count (arrival = departure rate)
    zeta   -- delta*(x_inf - n); -zeta is the square-root staffing safety
              coefficient, and the scaled chain hits -zeta at state k = n

    Every layer works per unit mu (time in mean service times): it reads
    the rates only as R and a, so a set gives the bits of its twin
    (R, 1, n, a).  ``params`` keeps the input as given.
    """

    params: ModelParams
    R: float
    a: float
    delta: float
    rho: float
    x_inf: float
    zeta: float

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def is_erlang_c(self) -> bool:
        return self.a == 0.0


def derive(params: ModelParams) -> DerivedQuantities:
    """Compute all derived scalar quantities for valid parameters: the only
    code that reads the rates lam, mu and alpha.

    The fluid equilibrium is the unique solution of
    ``R = (x_inf ^ n) + (x_inf - n)^+ * a``: it equals R below capacity and
    ``n + (R - n)/a`` at or above it.
    """
    R = params.offered_load
    a = params.alpha / params.mu
    delta = 1.0 / math.sqrt(R)
    if R < params.n:
        x_inf = R
    else:
        # a > 0 here: Erlang-C with R >= n is rejected at construction.
        x_inf = params.n + (R - params.n) / a
    zeta = delta * (x_inf - params.n)
    return DerivedQuantities(
        params=params, R=R, a=a, delta=delta, rho=R / params.n, x_inf=x_inf, zeta=zeta
    )


def departure_rate(derived: DerivedQuantities, k):
    """Departure rate per unit mu, ``(k ^ n) + a*(k - n)^+``, in state k.

    Accepts scalars or integer arrays; nondecreasing in k.
    """
    k_arr = np.asarray(k)
    if np.any(k_arr < 0):
        raise ValueError("state index must be nonnegative")
    n = derived.n
    rate = np.minimum(k_arr, n) + derived.a * np.maximum(k_arr - n, 0)
    return float(rate) if k_arr.ndim == 0 else rate


def drift(derived: DerivedQuantities, x):
    """Drift per unit mu, ``b(x) = [(x+zeta)^- - zeta^-] - [(x+zeta)^+ - zeta^+]*a``.

    Piecewise linear with its only kink at ``x = -zeta``; b(0) = 0; Lipschitz
    with constant ``max(1, a)``.  Vectorized over x.
    """
    z = derived.zeta
    x_arr = np.asarray(x, dtype=float)
    shifted = x_arr + z
    neg_part = np.maximum(-shifted, 0.0) - max(-z, 0.0)
    pos_part = np.maximum(shifted, 0.0) - max(z, 0.0)
    val = neg_part - pos_part * derived.a
    return float(val) if x_arr.ndim == 0 else val
