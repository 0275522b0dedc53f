"""Exact distances between the chain and diffusion stationary laws.

One-dimensional Kantorovich duality turns the Lipschitz-supremum form of the
Wasserstein distance into the area between CDFs, which is exactly computable
here: the chain CDF is a step function constant on each grid cell and the
diffusion CDF is piecewise Gaussian/exponential with closed antiderivatives
(the x*Phi + phi form).  Within a cell the two cross at most once, at a point
recovered by inverting the diffusion CDF piece in closed form.  The
Kolmogorov distance is the exact supremum over the jump points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctmc import DiscreteStationary, _exact_sum, moment as chain_moment, stationary_pmf
from .diffusion import (
    DiffusionDensity,
    build_density,
    density_sup_check,
    moment as diff_moment,
)
from .model import ModelParams

__all__ = [
    "DistanceReport",
    "kolmogorov_distance",
    "wasserstein_distance",
    "mean_error",
    "moment_error",
    "distance_report",
    "universality_sweep",
]

_WASSERSTEIN_BOUND = 205.0
_KOLMOGOROV_BOUND = 188.0


@dataclass(frozen=True)
class DistanceReport:
    """Distances, the grid scale, and the universal Erlang-C bounds."""

    d_w: float
    d_k: float
    delta: float
    bound_w: float | None
    bound_k: float | None
    dw_over_delta: float
    dk_over_delta: float
    dwdk_bound: float
    dwdk_ok: bool


def kolmogorov_distance(dist: DiscreteStationary, d) -> float:
    """sup_t |F_chain(t) - F_diffusion(t)|, exactly.

    The chain CDF is flat on each cell, so the supremum is attained at a
    grid point approached from one side or the other; both candidates are
    checked at every state.  Past the window the chain CDF stays at its
    last value up to k_max, where |c - F| peaks at an end point, so x(k_max)
    joins the candidates.  ``d`` only needs a vectorized ``cdf``; it is a
    continuous law, so its value at a grid point is also its left limit.
    """
    x = dist.x
    c = dist.cdf_values
    c_prev = np.concatenate(([0.0], c[:-1]))
    if dist.k_top < dist.k_max:
        x = np.append(x, dist.x_max)
        c_prev = np.append(c_prev, c[-1])
        c = np.append(c, c[-1])
    f_y = np.asarray(d.cdf(x), dtype=float)
    return float(np.max(np.maximum(np.abs(c - f_y), np.abs(c_prev - f_y))))


def _cdf_antiderivative(d: DiffusionDensity, u: np.ndarray, v: np.ndarray, f_u: np.ndarray):
    """int_u^v F_Y(x) dx for cell arrays, given f_u = F_Y(u)."""
    m0 = d._mass_between(u, v)
    m1 = d.first_moment_between(u, v)
    return f_u * (v - u) + v * m0 - m1


def wasserstein_distance(dist: DiscreteStationary, d: DiffusionDensity) -> float:
    """W1 distance as the exact area between the two CDFs.

    Cell by cell: if the diffusion CDF stays on one side of the chain level,
    the area is a closed-form antiderivative difference; otherwise the unique
    crossing is found by the piece inverse CDF and the area split there.
    From the last window state to k_max the chain CDF is flat, so that
    stretch is one cell (two if the density's kink x_n = -zeta falls
    inside).  Tails beyond the grid are closed-form partial first moments.
    """
    x = dist.x
    c = dist.cdf_values
    u, v = x[:-1], x[1:]
    level = c[:-1]
    x_end = x[-1]
    if dist.k_top < dist.k_max:
        x_end = dist.x_max
        edges = [x[-1], x_end]
        # one cell across the kink -zeta is integrated right too; the split
        # keeps d_W's bits (about 1e-12 relative apart in heavily staffed Erlang-A)
        if dist.k_top < dist.params.n < dist.k_max:
            edges.insert(1, -dist.derived.zeta)
        u = np.append(u, edges[:-1])
        v = np.append(v, edges[1:])
        level = np.append(level, np.full(len(edges) - 1, c[-1]))
    f_u = np.asarray(d.cdf(u), dtype=float)
    f_v = np.asarray(d.cdf(v), dtype=float)
    area_full = _cdf_antiderivative(d, u, v, f_u)
    width = v - u
    above = f_u >= level  # F_Y >= level across the whole cell
    below = f_v <= level
    crossing = ~above & ~below
    cell_area = np.where(
        above,
        area_full - level * width,
        np.where(below, level * width - area_full, 0.0),
    )
    if np.any(crossing):
        uu, vv = u[crossing], v[crossing]
        lev = level[crossing]
        t = d.invert_cdf_in_cells(uu, vv, f_u[crossing], lev)
        left_part = lev * (t - uu) - _cdf_antiderivative(d, uu, t, f_u[crossing])
        f_t = np.asarray(d.cdf(t), dtype=float)
        right_part = _cdf_antiderivative(d, t, vv, f_t) - lev * (vv - t)
        cell_area[crossing] = left_part + right_part

    left_tail = x[0] * float(d.cdf(x[0])) - d.partial_raw_moment(1, -np.inf, x[0])
    right_tail = d.partial_raw_moment(1, x_end, np.inf) - x_end * float(d.sf(x_end))
    return float(_exact_sum(cell_area) + left_tail + right_tail)


def mean_error(dist: DiscreteStationary, d: DiffusionDensity) -> float:
    """|E X - (x_inf + sqrt(R) E Y)|, the unscaled first-moment error.

    Equals sqrt(R) * |E X~ - E Y|; for Erlang-C the centering x_inf is the
    offered load R itself.
    """
    mean_scaled = chain_moment(dist, 1, absolute=False)
    return math.sqrt(dist.derived.R) * abs(mean_scaled - d.mean())


def moment_error(dist: DiscreteStationary, d: DiffusionDensity, m: int) -> dict:
    """m-th scaled moment, its approximation error, and the zeta scaling."""
    exact_m = chain_moment(dist, m, absolute=False)
    diff = abs(exact_m - diff_moment(d, m))
    az = abs(dist.derived.zeta)
    return {"exact_m": exact_m, "diff_m": diff, "zeta_scaled": az ** (m - 1) * diff}


def distance_report(dist: DiscreteStationary, d: DiffusionDensity) -> DistanceReport:
    der = dist.derived
    d_w = wasserstein_distance(dist, d)
    d_k = kolmogorov_distance(dist, d)
    delta = der.delta
    is_c = der.is_erlang_c
    dwdk_bound = math.sqrt(2.0 * density_sup_check(d).bound * d_w)
    return DistanceReport(
        d_w=d_w,
        d_k=d_k,
        delta=delta,
        bound_w=_WASSERSTEIN_BOUND * delta if is_c else None,
        bound_k=_KOLMOGOROV_BOUND * delta if is_c else None,
        dw_over_delta=d_w / delta,
        dk_over_delta=d_k / delta,
        dwdk_bound=dwdk_bound,
        dwdk_ok=bool(d_k <= dwdk_bound * (1.0 + 1e-12)),
    )


_REGIME_STAFFING = {
    "qd": lambda r, beta: math.ceil(r + beta * r),
    "qed": lambda r, beta: math.ceil(r + beta * math.sqrt(r)),
    "nds": lambda r, beta: math.ceil(r + beta),
}


def universality_sweep(
    regime: str,
    sizes,
    beta: float,
    alpha_over_mu: float = 0.0,
    mu: float = 1.0,
    tail_tol: float = 1e-12,
) -> list[dict]:
    """Distance reports across offered loads with regime-driven staffing.

    regime in {"qd", "qed", "nds"} staffs n = ceil(R + beta*R),
    ceil(R + beta*sqrt(R)), ceil(R + beta) respectively.  alpha_over_mu = 0
    runs the Erlang-C model (rows where rounding fails to give n > R are
    rejected).  Rows are sorted by (R, n) for deterministic output.
    """
    if regime not in _REGIME_STAFFING:
        raise ValueError(f"unknown regime {regime!r}; pick from qd, qed, nds")
    if beta <= 0.0:
        raise ValueError("staffing slack beta must be positive")
    staff = _REGIME_STAFFING[regime]
    rows = []
    for r in sorted(sizes):
        n = staff(r, beta)
        if alpha_over_mu == 0.0 and n <= r:
            raise ValueError(
                f"regime {regime} with beta={beta} staffs n={n} <= R={r}; "
                "Erlang-C requires n > R"
            )
        params = ModelParams(lam=mu * r, mu=mu, n=n, alpha=alpha_over_mu * mu)
        dist = stationary_pmf(params, tail_tol)
        rep = distance_report(dist, build_density(dist.derived))
        within = (
            rep.d_w <= rep.bound_w and rep.d_k <= rep.bound_k
            if rep.bound_w is not None
            else None
        )
        rows.append(
            {
                "regime": regime,
                "R": float(r),
                "n": n,
                "alpha": alpha_over_mu * mu,
                "delta": rep.delta,
                "d_w": rep.d_w,
                "d_k": rep.d_k,
                "dw_over_delta": rep.dw_over_delta,
                "dk_over_delta": rep.dk_over_delta,
                "bound_w": rep.bound_w,
                "bound_k": rep.bound_k,
                "within_bounds": within,
                "dwdk_ok": rep.dwdk_ok,
            }
        )
    return rows
