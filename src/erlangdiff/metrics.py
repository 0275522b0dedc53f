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
from functools import cached_property

import numpy as np

from . import ctmc
from .ctmc import DiscreteStationary, _exact_sum, moment as chain_moment, stationary_pmf
from .diffusion import (
    DiffusionDensity,
    build_density,
    density_sup_check,
    moment as diff_moment,
)
from .model import ModelParams, derive
from .poisson import PoissonSolution, TestFunction, _anchors, build_solution

__all__ = [
    "Scenario",
    "kolmogorov_distance",
    "wasserstein_distance",
    "mean_error",
    "moment_error",
    "universality_sweep",
]

_WASSERSTEIN_BOUND = 205.0
_KOLMOGOROV_BOUND = 188.0
# past this cell width delta (offered load below 1e-4) the W1 cells are
# integrated in survival form
_SURVIVAL_DELTA = 100.0


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


def _cdf_antiderivative(d: DiffusionDensity, u: np.ndarray, v: np.ndarray, f_u, s_v=None):
    """int_u^v F_Y(x) dx for cell arrays, given f_u = F_Y(u); or, given
    s_v = S_Y(v) instead, int_u^v (F_Y(x) - 1) dx, which holds no terms of
    size v - u that cancel where F_Y is near 1."""
    m0 = d._mass_between(u, v)
    m1 = d.first_moment_between(u, v)
    if s_v is None:
        return f_u * (v - u) + v * m0 - m1
    return u * m0 - m1 - s_v * (v - u)


def _cell_areas(d: DiffusionDensity, edges: np.ndarray, level: np.ndarray, out: np.ndarray, tail):
    """int |level - F_Y| over the cells between consecutive ``edges``, into ``out``.

    F_Y is evaluated once per edge.  If it stays on one side of the chain
    level, a cell's area is a closed-form antiderivative difference;
    otherwise the unique crossing is found by the piece inverse and the
    area split there.  Given ``tail`` = 1 - level, summed tail-first, the
    cells compare and integrate F_Y - 1 against -tail instead.
    """
    u, v = edges[:-1], edges[1:]
    survival = tail is not None
    if survival:
        g, lev = -np.asarray(d.sf(edges), dtype=float), -tail
    else:
        g, lev = np.asarray(d.cdf(edges), dtype=float), level

    def excess(a, b, g_a, g_b):  # int_a^b (F_Y - level)
        return _cdf_antiderivative(d, a, b, g_a, -g_b if survival else None) - lev * (b - a)

    g_u, g_v = g[:-1], g[1:]
    area = excess(u, v, g_u, g_v)
    above = g_u >= lev  # F_Y >= level across the whole cell
    below = g_v <= lev
    crossing = ~above & ~below
    out[:] = np.where(above, area, np.where(below, -area, 0.0))
    if np.any(crossing):
        uu, vv = u[crossing], v[crossing]
        lev, g_u, g_v = lev[crossing], g_u[crossing], g_v[crossing]
        if survival:
            t = d.invert_sf_in_cells(uu, vv, -g_v, -lev)
            g_t = -np.asarray(d.sf(t), dtype=float)
        else:
            t = d.invert_cdf_in_cells(uu, vv, g_u, lev)
            g_t = np.asarray(d.cdf(t), dtype=float)
        out[crossing] = -excess(uu, t, g_u, g_t) + excess(t, vv, g_t, g_v)


def wasserstein_distance(dist: DiscreteStationary, d: DiffusionDensity) -> float:
    """W1 distance as the exact area between the two CDFs.

    The window's cells go through ``_cell_areas`` ``ctmc._BLOCK`` at a
    time, into one window-length array of cell areas.  From the last window
    state to k_max the chain CDF is flat, so that stretch is one more cell
    (two if the density's kink x_n = -zeta falls inside).  Tails beyond the
    grid are closed-form partial first moments.  At light load (delta past
    ``_SURVIVAL_DELTA``) the cells go in survival form.
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
    tail = end_tail = None
    if dist.derived.delta > _SURVIVAL_DELTA:
        # light load, a few states: in CDF form each cell would lose about
        # 2.2e-16 delta, and each level (all >= 1 - R) its complement, which
        # carries the area, to rounding; sum the complements tail-first
        tail = np.cumsum(dist.pmf[:0:-1])[::-1]
        end_tail = np.zeros(len(edges) - 1)
    cell_area = np.empty(n_cells + len(edges) - 1)
    block = ctmc._BLOCK
    for lo in range(0, n_cells, block):
        hi = min(lo + block, n_cells)
        t_block = None if tail is None else tail[lo:hi]
        _cell_areas(d, x[lo : hi + 1], c[lo:hi], cell_area[lo:hi], t_block)
    if len(edges) > 1:
        level = np.full(len(edges) - 1, c[-1])
        _cell_areas(d, np.array(edges), level, cell_area[n_cells:], end_tail)

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


@dataclass(frozen=True)
class Scenario:
    """One parameter set's chain pmf (its order-``moment_order`` moments
    certified), diffusion law, Poisson solutions for the identity and the
    indicators at ``poisson._anchors``, and distances; each is built on
    first read and kept.  The density needs no pmf."""

    params: ModelParams
    tail_tol: float = 1e-14
    moment_order: int = 0

    @cached_property
    def dist(self) -> DiscreteStationary:
        return stationary_pmf(self.params, self.tail_tol, moment_order=self.moment_order)

    @cached_property
    def density(self) -> DiffusionDensity:
        return build_density(derive(self.params))

    @cached_property
    def identity(self) -> PoissonSolution:
        return build_solution(self.density, TestFunction.identity())

    @cached_property
    def anchors(self) -> tuple[PoissonSolution, ...]:
        d = self.density
        return tuple(build_solution(d, TestFunction.indicator(a)) for a in _anchors(d.derived.zeta))

    @cached_property
    def d_w(self) -> float:
        return wasserstein_distance(self.dist, self.density)

    @cached_property
    def d_k(self) -> float:
        return kolmogorov_distance(self.dist, self.density)

    def distance_columns(self) -> dict:
        """The columns ``distance`` and ``sweep`` print, in order: the Erlang-C
        bounds are 205 and 188 delta, and ``dwdk_ok`` is d_K <= sqrt(2 sup p_Y d_W)."""
        delta = self.dist.derived.delta
        is_c = self.dist.derived.is_erlang_c
        d_w, d_k = self.d_w, self.d_k
        dwdk_bound = math.sqrt(2.0 * density_sup_check(self.density).bound * d_w)
        return {
            "delta": delta,
            "d_w": d_w,
            "d_k": d_k,
            "dw_over_delta": d_w / delta,
            "dk_over_delta": d_k / delta,
            "bound_w": _WASSERSTEIN_BOUND * delta if is_c else None,
            "bound_k": _KOLMOGOROV_BOUND * delta if is_c else None,
            "dwdk_ok": bool(d_k <= dwdk_bound * (1.0 + 1e-12)),
        }


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
    sizes = sorted(sizes)
    for name, value in [("staffing slack beta", beta)] + [("offered load", r) for r in sizes]:
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    staff = _REGIME_STAFFING[regime]
    rows = []
    for r in sizes:
        n = staff(r, beta)
        if alpha_over_mu == 0.0 and n <= r:
            raise ValueError(
                f"regime {regime} with beta={beta} staffs n={n} <= R={r}; "
                "Erlang-C requires n > R"
            )
        params = ModelParams(lam=mu * r, mu=mu, n=n, alpha=alpha_over_mu * mu)
        cols = Scenario(params, tail_tol).distance_columns()
        dwdk_ok = cols.pop("dwdk_ok")
        within = None
        if cols["bound_w"] is not None:
            within = cols["d_w"] <= cols["bound_w"] and cols["d_k"] <= cols["bound_k"]
        row = {"regime": regime, "R": float(r), "n": n, "alpha": alpha_over_mu * mu, **cols}
        rows.append({**row, "within_bounds": within, "dwdk_ok": dwdk_ok})
    return rows
