"""Shared parameter grids and cached stationary distributions."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import strategies as st

from erlangdiff import ctmc
from erlangdiff.ctmc import DiscreteStationary, _log_weights, stationary_pmf
from erlangdiff.diffusion import build_density
from erlangdiff.model import ModelParams, departure_rate, derive

STANDARD_NS = (1, 2, 5, 50, 500)
STANDARD_RHOS = (0.3, 0.7, 0.9, 0.99, 0.999)
ALPHA_RATIOS = (0.0, 0.1, 1.0, 10.0)
OVERLOAD_RHOS = (1.0, 1.5, 2.4)

METRICS_NS = (2, 5, 50, 500)
METRICS_RHOS = (0.5, 0.9, 0.99, 0.999)

# oracle spot-check sets: three Erlang-C, critical and overloaded Erlang-A
SPOT_SETS = (
    (3.0, 1.0, 5, 0.0),
    (4.9, 1.0, 5, 0.0),
    (1.0, 1.0, 2, 0.0),
    (5.0, 1.0, 5, 1.0),
    (12.0, 1.0, 5, 2.0),
)


def standard_grid() -> list[ModelParams]:
    """The moment/gradient-bound grid, with overloaded extensions for A."""
    out = []
    for n in STANDARD_NS:
        for rho in STANDARD_RHOS:
            for ratio in ALPHA_RATIOS:
                out.append(ModelParams(lam=rho * n, mu=1.0, n=n, alpha=ratio))
        for rho in OVERLOAD_RHOS:
            for ratio in ALPHA_RATIOS[1:]:
                out.append(ModelParams(lam=rho * n, mu=1.0, n=n, alpha=ratio))
    return out


def erlang_c_grid() -> list[ModelParams]:
    """The universal-bound grid (criteria 4, 5, 11)."""
    return [
        ModelParams(lam=rho * n, mu=1.0, n=n, alpha=0.0)
        for n in METRICS_NS
        for rho in METRICS_RHOS
    ]


@lru_cache(maxsize=512)
def cached_pmf(lam: float, mu: float, n: int, alpha: float, tail_tol: float = 1e-12, moment_order: int = 0):
    return stationary_pmf(
        ModelParams(lam=lam, mu=mu, n=n, alpha=alpha), tail_tol, moment_order=moment_order
    )


@lru_cache(maxsize=512)
def cached_density(lam: float, mu: float, n: int, alpha: float):
    return build_density(
        cached_pmf(lam, mu, n, alpha).derived
    )


def pmf_for(params: ModelParams, tail_tol: float = 1e-12, moment_order: int = 0):
    return cached_pmf(
        params.lam, params.mu, params.n, params.alpha, tail_tol, moment_order
    )


def density_for(params: ModelParams):
    return cached_density(params.lam, params.mu, params.n, params.alpha)


def window_states(dist: DiscreteStationary) -> np.ndarray:
    """The states k_min..k_top, one per window position."""
    return np.arange(dist.k_min, dist.k_top + 1)


def full_grid_pmf(params: ModelParams, tail_tol: float = 1e-12) -> DiscreteStationary:
    """Reference pmf on every state 0..k_max, normalized with ``math.fsum``.

    It applies the truncation rule of ``stationary_pmf`` (the same k_hi
    doubling, q tests and tail test) to full grids, with no window.
    """
    der = derive(params)
    k_hi = int(der.x_inf + 12.0 * math.sqrt(der.x_inf) + 60.0)
    while True:
        q = der.R / departure_rate(der, k_hi + 1)
        ell = _log_weights(der, 0, k_hi)
        w = np.exp(ell - ell.max())
        z = math.fsum(w.tolist())
        q_ok = q < 1.0 if der.is_erlang_c else q <= 0.5
        if q_ok and (w[-1] / z) * q / (1.0 - q) <= tail_tol:
            return DiscreteStationary(der, 0, k_hi, k_hi, float(ell.max()), math.log(z))
        k_hi = 2 * k_hi + 64


@st.composite
def window_params(draw) -> ModelParams:
    """R in [1e-3, 1e5]: Erlang-C staffed n = ceil(R + beta sqrt(R)), beta in
    [0.5, 2], or at load R/n in [0.05, 0.95]; or Erlang-A with alpha/mu in
    [1e-2, 1e2] and beta in [-1, 1].  Erlang-A keeps R (1 + mu/alpha) <= 1e5
    so the reference grid stays small."""
    if draw(st.booleans()):
        r = 10.0 ** draw(st.floats(-3.0, 5.0))
        if draw(st.booleans()):
            n = math.ceil(r / draw(st.floats(0.05, 0.95)))
        else:
            n = math.ceil(r + draw(st.floats(0.5, 2.0)) * math.sqrt(r))
        return ModelParams(lam=r, mu=1.0, n=n, alpha=0.0)
    ratio = 10.0 ** draw(st.floats(-2.0, 2.0))
    r_cap = 1e5 / (1.0 + 1.0 / ratio)
    r = 10.0 ** draw(st.floats(-3.0, math.log10(min(1e5, r_cap))))
    beta = draw(st.floats(-1.0, 1.0))
    n = max(1, math.ceil(r + beta * math.sqrt(r)))
    return ModelParams(lam=r, mu=1.0, n=n, alpha=ratio)


@st.composite
def small_window_params(draw) -> ModelParams:
    """R in [0.5, 300] around n = ceil(R + beta sqrt(R)): windows of tens to a
    few thousand states, with the server count inside most of them."""
    r = 10.0 ** draw(st.floats(math.log10(0.5), math.log10(300.0)))
    if draw(st.booleans()):
        n = math.ceil(r + draw(st.floats(0.5, 2.0)) * math.sqrt(r))
        return ModelParams(lam=r, mu=1.0, n=n, alpha=0.0)
    n = max(1, math.ceil(r + draw(st.floats(-1.0, 1.0)) * math.sqrt(r)))
    return ModelParams(lam=r, mu=1.0, n=n, alpha=10.0 ** draw(st.floats(-2.0, 2.0)))


@pytest.fixture
def departure_rate_budget(monkeypatch):
    """``ctmc.departure_rate`` raising AssertionError past 10^4 reads, so a
    search that steps one state at a time fails instead of hanging."""
    rate, calls = ctmc.departure_rate, []

    def counted(derived, k):
        calls.append(k)
        if len(calls) > 10_000:
            raise AssertionError("departure_rate read 10^4 times")
        return rate(derived, k)

    monkeypatch.setattr(ctmc, "departure_rate", counted)
