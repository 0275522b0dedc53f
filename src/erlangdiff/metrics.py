"""Exact distances between the chain and diffusion stationary laws.

One-dimensional Kantorovich duality turns the Lipschitz-supremum form of the
Wasserstein distance into the area between CDFs, which is exactly computable
here: the chain CDF is a step function constant on each grid cell and the
diffusion CDF is piecewise Gaussian/exponential with closed antiderivatives
(the x*Phi + phi form).  Within a cell the two cross at most once, at a point
recovered by inverting the diffusion CDF piece in closed form.  The
Kolmogorov distance is the exact supremum over the jump points.

Both read one block stream (``_blocks``): the cell edges and the running
chain CDF of ``DiscreteStationary.cells``, and the diffusion CDF evaluated
once per cell edge; no window-length array is held (but for the
light-load survival levels of a window of a few states).
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
from .model import EvaluationRangeError, ModelParams, derive
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


def _blocks(dist: DiscreteStationary, d):
    """(i, x, c, f, peaks) of each block (i, x, c) of ``dist.cells()``: F_Y
    at every edge x, evaluated once, and the two d_K candidates, |c - F_Y|
    at the edges from the right and from the left.  The chain CDF is flat
    on each cell and F_Y monotone, so these hold the supremum."""
    before = 0.0
    for i, x, c in dist.cells():
        f = np.asarray(d.cdf(x), dtype=float)
        f_c = f[: c.size]
        left = np.max(np.abs(c[:-1] - f_c[1:]), initial=abs(before - f_c[0]))
        yield i, x, c, f, [np.max(np.abs(c - f_c)), left]
        before = c[-1]


def kolmogorov_distance(dist: DiscreteStationary, d) -> float:
    """sup_t |F_chain(t) - F_diffusion(t)|, exactly, from the block stream.
    ``d`` only needs a vectorized ``cdf``; it is a continuous law, so its
    value at a grid point is also its left limit."""
    # np.max, not max(): a nan candidate still makes the distance nan
    return float(np.max([block[-1] for block in _blocks(dist, d)]))


def _cdf_antiderivative(d: DiffusionDensity, u: np.ndarray, v: np.ndarray, f_u, s_v=None):
    """int_u^v F_Y(x) dx for cell arrays, given f_u = F_Y(u); or, given
    s_v = S_Y(v) instead, int_u^v (F_Y(x) - 1) dx, which holds no terms of
    size v - u that cancel where F_Y is near 1.  Each cell's mass and first
    moment come from one closed-form mass per piece."""
    m0, m1 = d._integral_between(u, v, first=True)
    np.clip(m0, 0.0, 1.0, out=m0)
    if s_v is None:
        return f_u * (v - u) + v * m0 - m1
    return u * m0 - m1 - s_v * (v - u)


def _cell_areas(d: DiffusionDensity, edges: np.ndarray, level: np.ndarray, f, tail) -> np.ndarray:
    """int |level - F_Y| over the cells between consecutive ``edges``, given
    f = F_Y at the edges.

    If F_Y stays on one side of the chain level, a cell's area is a
    closed-form antiderivative difference; otherwise the piece inverse
    finds the unique crossing, and only the parts either side of it are
    integrated.  Given ``tail`` = 1 - level, summed tail-first, the cells
    compare and integrate F_Y - 1, from S_Y at the edges, against -tail.
    """
    u, v = edges[:-1], edges[1:]
    survival = tail is not None
    g, lev = (-np.asarray(d.sf(edges), dtype=float), -tail) if survival else (f, level)

    def excess(a, b, g_a, g_b, lev):  # int_a^b (F_Y - lev)
        return _cdf_antiderivative(d, a, b, g_a, -g_b if survival else None) - lev * (b - a)

    g_u, g_v = g[:-1], g[1:]
    above = g_u >= lev  # F_Y >= level across the whole cell
    below = g_v <= lev
    crossing = ~above & ~below  # as is a cell with a nan edge
    out = np.empty_like(u)
    one_side = ~crossing
    area = excess(u[one_side], v[one_side], g_u[one_side], g_v[one_side], lev[one_side])
    out[one_side] = np.where(above[one_side], area, -area)
    if np.any(crossing):
        uu, vv = u[crossing], v[crossing]
        lev, g_u, g_v = lev[crossing], g_u[crossing], g_v[crossing]
        start, target = (-g_v, -lev) if survival else (g_u, lev)
        t = d.invert_in_cells(uu, vv, start, target, survival)
        g_t = -np.asarray(d.sf(t), dtype=float) if survival else np.asarray(d.cdf(t), dtype=float)
        out[crossing] = -excess(uu, t, g_u, g_t, lev) + excess(t, vv, g_t, g_v, lev)
    return out


def _distances(dist: DiscreteStationary, d: DiffusionDensity) -> tuple[float, float]:
    """(d_W, d_K) from one pass of the block stream.  d_W is the exact area
    between the two CDFs: the cell areas go into the block form of
    ``_exact_sum`` and the tails beyond the grid are closed-form partial
    first moments.  At light load (delta past ``_SURVIVAL_DELTA``) the
    cells go in survival form."""
    tail = None
    if dist.derived.delta > _SURVIVAL_DELTA:
        # light load, a few states: in CDF form each cell would lose about
        # 2.2e-16 delta, and each level (all >= 1 - R) its complement, which
        # carries the area, to rounding; sum the complements tail-first
        # (0 from the last state on)
        tail = np.append(np.cumsum(dist.pmf[:0:-1])[::-1], [0.0, 0.0])
    peaks, left_tail = [], []

    def areas():
        for i, x, c, f, peak in _blocks(dist, d):
            peaks.append(peak)
            if not i:
                left_tail.append(x[0] * f[0] - d.partial_raw_moment(1, -np.inf, float(x[0])))
            level = c[: x.size - 1]
            yield _cell_areas(d, x, level, f, None if tail is None else tail[i : i + level.size])

    x_end = dist.x_max
    right_tail = d.partial_raw_moment(1, x_end, np.inf) - x_end * float(d.sf(x_end))
    return float(_exact_sum(areas()) + left_tail[0] + right_tail), float(np.max(peaks))


def _in_range(names: str, compute):
    """compute(), numpy raising where it would warn; that, or an inf or nan, raises an error."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            values = compute()
    except FloatingPointError as exc:
        raise EvaluationRangeError(f"{names} past the double range: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise EvaluationRangeError(f"{names} past the double range: {values}")
    return values


def wasserstein_distance(dist: DiscreteStationary, d: DiffusionDensity) -> float:
    """W1 distance as the exact area between the two CDFs (``_distances``)."""
    return _distances(dist, d)[0]


def mean_error(dist: DiscreteStationary, d: DiffusionDensity) -> float:
    """|E X - (x_inf + sqrt(R) E Y)|, the unscaled first-moment error.

    Equals sqrt(R) * |E X~ - E Y|; for Erlang-C the centering x_inf is the
    offered load R itself.
    """
    mean_scaled = chain_moment(dist, 1, absolute=False)
    return _in_range("mean_error", lambda: math.sqrt(dist.derived.R) * abs(mean_scaled - d.mean()))


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
        # one pass gives both distances; d_K is kept unless already read
        d_w, d_k = _in_range("d_w, d_k", lambda: _distances(self.dist, self.density))
        self.__dict__.setdefault("d_k", d_k)
        return d_w

    @cached_property
    def d_k(self) -> float:
        return _in_range("d_k", lambda: kolmogorov_distance(self.dist, self.density))

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
    named = [("staffing slack beta", beta), ("service rate mu", mu)]
    for name, value in named + [("offered load", r) for r in sizes]:
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if not (math.isfinite(alpha_over_mu) and alpha_over_mu >= 0.0):
        raise ValueError(f"alpha_over_mu must be finite and >= 0, got {alpha_over_mu}")
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
