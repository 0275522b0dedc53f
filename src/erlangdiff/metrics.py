"""Exact distances between the chain and diffusion stationary laws.

One-dimensional Kantorovich duality turns the Lipschitz-supremum form of the
Wasserstein distance into the area between CDFs, which is exactly computable
here: the chain CDF is a step function constant on each grid cell and the
diffusion CDF is piecewise Gaussian/exponential with closed antiderivatives
(the x*Phi + phi form).  Within a cell the two cross at most once, at a point
recovered by inverting the diffusion CDF piece in closed form.  The
Kolmogorov distance is the exact supremum over the jump points.

Both read the chain's ``x`` and ``cdf_values`` (and so its cached ``pmf``)
and walk them ``ctmc._BLOCK`` states at a time, evaluating the diffusion CDF
once per cell edge.  The Wasserstein cell areas are the one window-length
array they add, kept whole so that their sum runs over the same array as in
one pass; all other scratch is block-sized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ctmc
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
    checked at every state, ``ctmc._BLOCK`` states at a time.  Past the
    window the chain CDF stays at its last value up to k_max, where
    |c - F| peaks at an end point, so x(k_max) joins the candidates.  ``d``
    only needs a vectorized ``cdf``; it is a continuous law, so its value
    at a grid point is also its left limit.
    """
    x = dist.x
    c = dist.cdf_values
    block = ctmc._BLOCK
    peaks = []
    for lo in range(0, x.size, block):
        hi = min(lo + block, x.size)
        f_y = np.asarray(d.cdf(x[lo:hi]), dtype=float)
        # from the left the chain CDF reads the state before's value, 0 before the first
        c_prev = np.empty(hi - lo)
        c_prev[0] = c[lo - 1] if lo else 0.0
        c_prev[1:] = c[lo : hi - 1]
        peaks.append(np.max(np.maximum(np.abs(c[lo:hi] - f_y), np.abs(c_prev - f_y))))
    if dist.k_top < dist.k_max:
        f_end = np.asarray(d.cdf(np.array([dist.x_max])), dtype=float)
        peaks.append(np.abs(c[-1] - f_end)[0])
    # np.max, not max(): a nan candidate still makes the distance nan
    return float(np.max(peaks))


def _cdf_antiderivative(d: DiffusionDensity, u: np.ndarray, v: np.ndarray, f_u: np.ndarray):
    """int_u^v F_Y(x) dx for cell arrays, given f_u = F_Y(u)."""
    m0 = d._mass_between(u, v)
    m1 = d.first_moment_between(u, v)
    return f_u * (v - u) + v * m0 - m1


def _cell_areas(d: DiffusionDensity, edges: np.ndarray, level: np.ndarray, out: np.ndarray):
    """int |level - F_Y| over the cells between consecutive ``edges``, into ``out``.

    F_Y is evaluated once per edge.  If it stays on one side of the chain
    level, a cell's area is a closed-form antiderivative difference;
    otherwise the unique crossing is found by the piece inverse CDF and the
    area split there.
    """
    u, v = edges[:-1], edges[1:]
    f = np.asarray(d.cdf(edges), dtype=float)
    f_u, f_v = f[:-1], f[1:]
    area_full = _cdf_antiderivative(d, u, v, f_u)
    width = v - u
    above = f_u >= level  # F_Y >= level across the whole cell
    below = f_v <= level
    crossing = ~above & ~below
    out[:] = np.where(
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
        out[crossing] = left_part + right_part


def wasserstein_distance(dist: DiscreteStationary, d: DiffusionDensity) -> float:
    """W1 distance as the exact area between the two CDFs.

    The window's cells go through ``_cell_areas`` ``ctmc._BLOCK`` at a
    time, into one window-length array of cell areas.  From the last window
    state to k_max the chain CDF is flat, so that stretch is one more cell
    (two if the density's kink x_n = -zeta falls inside).  Tails beyond the
    grid are closed-form partial first moments.
    """
    x = dist.x
    c = dist.cdf_values
    n_cells = x.size - 1
    x_end = x[-1]
    edges = [x_end]
    if dist.k_top < dist.k_max:
        x_end = dist.x_max
        # one cell across the kink -zeta is integrated right too; the split
        # keeps d_W's bits (about 1e-12 relative apart in heavily staffed Erlang-A)
        if dist.k_top < dist.params.n < dist.k_max:
            edges.append(-dist.derived.zeta)
        edges.append(x_end)
    cell_area = np.empty(n_cells + len(edges) - 1)
    block = ctmc._BLOCK
    for lo in range(0, n_cells, block):
        hi = min(lo + block, n_cells)
        _cell_areas(d, x[lo : hi + 1], c[lo:hi], cell_area[lo:hi])
    if len(edges) > 1:
        _cell_areas(d, np.array(edges), np.full(len(edges) - 1, c[-1]), cell_area[n_cells:])

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
