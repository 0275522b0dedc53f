"""Exact distances between the chain and diffusion stationary laws.

One-dimensional Kantorovich duality turns the Lipschitz-supremum form of the
Wasserstein distance into the area between CDFs, which is exactly computable
here: the chain CDF is a step function constant on each grid cell and the
diffusion CDF is piecewise Gaussian/exponential with closed antiderivatives
(the x*Phi + phi form).  Within a cell the two cross at most once, at a point
recovered by inverting the diffusion CDF piece in closed form.  The
Kolmogorov distance is the exact supremum over the jump points.

Both follow the chain's walk (``DiscreteStationary._walk``), ``ctmc._BLOCK``
states at a time, and carry its running CDF from block to block; they
evaluate the diffusion CDF once per cell edge and hold no window-length
array (but for the light-load survival levels of a window of a few states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


def _chain_cdf(dist: DiscreteStationary):
    """(i, x, chain CDF before the block, chain CDF) of each walk block.
    np.cumsum adds strictly left to right, so each block's cumsum, its
    first term carrying the last sum so far, keeps the bits of one cumsum
    over the whole pmf."""
    last = 0.0
    for i, x, p in dist._walk():
        p[0] += last
        yield i, x, last, np.cumsum(p, out=p)
        last = p[-1]


def kolmogorov_distance(dist: DiscreteStationary, d) -> float:
    """sup_t |F_chain(t) - F_diffusion(t)|, exactly.

    The chain CDF is flat on each cell, so the supremum is attained at a
    grid point approached from one side or the other; both candidates are
    checked at every state, one walk block at a time.  Past the window the
    chain CDF stays at its last value up to k_max, where |c - F| peaks at
    an end point, so x(k_max) joins the candidates.  ``d`` only needs a
    vectorized ``cdf``; it is a continuous law, so its value at a grid
    point is also its left limit.
    """
    peaks = []
    for _, x, before, c in _chain_cdf(dist):
        f_y = np.asarray(d.cdf(x), dtype=float)
        # from the left the chain CDF reads the state before's value, 0 before the first
        c_prev = np.append(before, c[:-1])
        peaks.append(np.max(np.maximum(np.abs(c - f_y), np.abs(c_prev - f_y))))
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


def _cell_areas(d: DiffusionDensity, edges: np.ndarray, level: np.ndarray, tail) -> np.ndarray:
    """int |level - F_Y| over the cells between consecutive ``edges``.

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
    out = np.where(above, area, np.where(below, -area, 0.0))
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
    return out


def _cells(dist: DiscreteStationary, flat: list[float]):
    """(i, edges, chain CDF level) of the cells from window positions i,
    i+1, ..., one block per walk block, each passed on once the next
    block's first state, its last cell's right edge, is built.  The cells
    past k_top, between the ``flat`` edges at the last CDF value, join the
    last block, so every block the sum sees but the last is whole."""
    prev = None
    for i, x, _, c in _chain_cdf(dist):
        if prev is not None:
            yield prev[0], np.append(prev[1], x[0]), prev[2]
        prev = i, x, c
    i, x, c = prev
    yield i, np.append(x, flat), np.append(c, [c[-1]] * len(flat))[:-1]


def wasserstein_distance(dist: DiscreteStationary, d: DiffusionDensity) -> float:
    """W1 distance as the exact area between the two CDFs.

    The window's cells go through ``_cell_areas`` one walk block at a
    time, and their areas into the block form of ``_exact_sum``.  From the
    last window state to k_max the chain CDF is flat, so that stretch is
    one more cell (two if the density's kink x_n = -zeta falls inside).
    Tails beyond the grid are closed-form partial first moments.  At light
    load (delta past ``_SURVIVAL_DELTA``) the cells go in survival form.
    """
    x_first, x_end = dist._ends[dist.k_min][0], dist.x_max
    flat = []
    if dist.k_top < dist.k_max:
        # one cell across the kink -zeta is integrated right too; the split
        # keeps d_W's bits (about 1e-12 relative apart in heavily staffed Erlang-A)
        if dist.k_top < dist.params.n < dist.k_max:
            flat.append(-dist.derived.zeta)
        flat.append(x_end)
    tail = None
    if dist.derived.delta > _SURVIVAL_DELTA:
        # light load, a few states: in CDF form each cell would lose about
        # 2.2e-16 delta, and each level (all >= 1 - R) its complement, which
        # carries the area, to rounding; sum the complements tail-first
        tail = np.cumsum(np.exp(dist.log_pmf)[:0:-1])[::-1]
        tail = np.append(tail, np.zeros(len(flat)))
    areas = (
        _cell_areas(d, edges, level, None if tail is None else tail[i : i + level.size])
        for i, edges, level in _cells(dist, flat)
    )
    left_tail = x_first * float(d.cdf(x_first)) - d.partial_raw_moment(1, -np.inf, x_first)
    right_tail = d.partial_raw_moment(1, x_end, np.inf) - x_end * float(d.sf(x_end))
    return float(_exact_sum(areas) + left_tail + right_tail)


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
