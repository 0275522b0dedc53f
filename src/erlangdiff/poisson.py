"""Solutions of the diffusion Poisson equation and their derivative bounds.

For a test function h, the equation ``b(x) f'(x) + mu f''(x) = E h(Y) - h(x)``
has the one-parameter-free solution (the member whose homogeneous weight is
zero) with

    f'(x) =  (1/nu(x)) int_{-inf}^x  (E h(Y) - h(y)) nu(y) dy / mu
         = -(1/nu(x)) int_x^{inf}    (E h(Y) - h(y)) nu(y) dy / mu.

Both representations are exact; evaluation switches between them at the
density mode (which is 0 in every regime) so the 1/nu amplification never
exceeds a factor two in mass.  For both supported test-function kinds
(identity and half-line indicator) every integral reduces to closed
Gaussian/exponential partial masses and first moments, so no quadrature is
involved in f', f'' or f'''.

f'' comes from the equation itself, f''' from differentiating it once more;
at the indicator jump the second derivative is the left limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _quad
from .diffusion import DiffusionDensity, build_density, moment as _diffusion_moment
from .model import Check, DerivedQuantities, drift

__all__ = [
    "TestFunction",
    "PoissonSolution",
    "EvaluationRangeError",
    "mean_h",
    "build_solution",
    "gradient_bound_report",
]

_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


class EvaluationRangeError(ValueError):
    """Evaluation point beyond the supported range of the 1/nu prefactor."""


@dataclass(frozen=True)
class TestFunction:
    """Test function for the Poisson equation.

    kind "lipschitz_identity": h(x) = x  (normalized, h(0) = 0)
    kind "indicator":          h(x) = 1_(-inf, a](x)  (parameter a)
    """

    kind: str
    parameter: float = 0.0

    __test__ = False  # name collides with pytest's collection heuristic

    def __post_init__(self) -> None:
        if self.kind not in ("lipschitz_identity", "indicator"):
            raise ValueError(f"unknown test function kind {self.kind!r}")

    @staticmethod
    def identity() -> "TestFunction":
        return TestFunction("lipschitz_identity")

    @staticmethod
    def indicator(a: float) -> "TestFunction":
        return TestFunction("indicator", a)

    @property
    def is_lipschitz(self) -> bool:
        return self.kind != "indicator"

    def value(self, x):
        x_arr = np.asarray(x, dtype=float)
        if self.kind == "lipschitz_identity":
            out = x_arr
        else:
            out = (x_arr <= self.parameter).astype(float)
        return out if np.ndim(x) else float(out)

    def slope(self, x):
        """h'(x): one for the identity, zero for indicators off the jump."""
        x_arr = np.asarray(x, dtype=float)
        if self.kind == "lipschitz_identity":
            out = np.ones_like(x_arr)
        else:
            out = np.zeros_like(x_arr)
        return out if np.ndim(x) else float(out)

    def kink(self) -> float | None:
        return self.parameter if self.kind == "indicator" else None


def mean_h(d: DiffusionDensity, h: TestFunction) -> float:
    """E h(Y) in closed form: the first moment or the cdf."""
    if h.kind == "lipschitz_identity":
        return d.mean()
    return d.cdf(h.parameter)


@dataclass(frozen=True)
class PoissonSolution:
    """The a2 = 0 solution for one test function over one density."""

    density: DiffusionDensity
    h: TestFunction
    h_mean: float

    @property
    def derived(self) -> DerivedQuantities:
        return self.density.derived

    @property
    def switch_point(self) -> float:
        """Representation switch: the density mode (0 in every regime)."""
        return 0.0

    def _range_guard(self, x_arr: np.ndarray, out: np.ndarray) -> None:
        # the scaled-erfc formulation keeps every ratio finite far beyond the
        # 50-sigma mark, so the guard fires only if a value actually degrades
        if not np.all(np.isfinite(out)):
            bad = x_arr[~np.isfinite(out)]
            raise EvaluationRangeError(
                f"derivative evaluation degraded at x = {bad[:3]}; point is "
                "beyond the numerically supported range"
            )

    # -- first derivative ------------------------------------------------------

    def _h_integral_below(self, x_arr: np.ndarray) -> np.ndarray:
        """(1/nu(x)) int_{-inf}^x h(y) nu(y) dy."""
        d, h = self.density, self.h
        if h.kind == "lipschitz_identity":
            return d.ratio_below(x_arr, first=True)
        return d.ratio_below(x_arr, cutoff=h.parameter)

    def _h_integral_above(self, x_arr: np.ndarray) -> np.ndarray:
        """(1/nu(x)) int_x^{inf} h(y) nu(y) dy."""
        d, h = self.density, self.h
        if h.kind == "lipschitz_identity":
            return d.ratio_above(x_arr, first=True)
        return d.ratio_above(x_arr) - d.ratio_above(x_arr, cutoff=h.parameter)

    def f_prime_left_rep(self, x) -> np.ndarray:
        """f' from the integral running up from -inf."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        mu = self.density.mu
        out = (self.h_mean * self.density.ratio_below(x_arr) - self._h_integral_below(x_arr)) / mu
        return out if np.ndim(x) else float(out[0])

    def f_prime_right_rep(self, x) -> np.ndarray:
        """f' from the integral running down from +inf."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        mu = self.density.mu
        out = -(self.h_mean * self.density.ratio_above(x_arr) - self._h_integral_above(x_arr)) / mu
        return out if np.ndim(x) else float(out[0])

    def f_prime(self, x):
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x_arr)
        below = x_arr <= self.switch_point
        if np.any(below):
            out[below] = self.f_prime_left_rep(x_arr[below])
        if np.any(~below):
            out[~below] = self.f_prime_right_rep(x_arr[~below])
        self._range_guard(x_arr, out)
        return out if np.ndim(x) else float(out[0])

    # -- higher derivatives ----------------------------------------------------

    def derivatives(self, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(f', f'', f''') on a point array, sharing one f' evaluation.

        f'' comes from the equation (the left limit at the indicator jump),
        f''' from differentiating it once more.  At the drift kink itself
        f''' carries the right-side slope; panel integrals split there, so
        that measure-zero value never enters one.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        der = self.derived
        mu = self.density.mu
        fp = self.f_prime(x_arr)
        b = drift(der, x_arr)
        fpp = (self.h_mean - self.h.value(x_arr) - b * fp) / mu
        bp = np.where(x_arr < -der.zeta, -der.mu, -der.alpha)
        f3 = (-self.h.slope(x_arr) - fpp * b - fp * bp) / mu
        return fp, fpp, f3

    def f_second(self, x):
        """f'' from the equation; at the indicator jump, the left limit."""
        out = self.derivatives(x)[1]
        return out if np.ndim(x) else float(out[0])

    def f_third(self, x):
        """f''' where it exists; rejects the drift kink."""
        if not self.h.is_lipschitz:
            raise ValueError("third derivative is only evaluated for Lipschitz h")
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(x_arr == -self.derived.zeta):
            raise ValueError("third derivative undefined at a kink")
        out = self.derivatives(x_arr)[2]
        return out if np.ndim(x) else float(out[0])

    def _split_points(self) -> tuple[float, ...]:
        pts = [-self.derived.zeta]
        kink = self.h.kink()
        if kink is not None:
            pts.append(kink)
        return tuple(pts)

    def antiderivative(self, xs) -> np.ndarray:
        """f on a grid, as the cumulative panel integral of f' (f(x0) = 0).

        The normalization constant of f is irrelevant everywhere downstream;
        only differences enter the chain generator.
        """
        xs_arr = np.asarray(xs, dtype=float)
        splits = np.asarray(self._split_points())
        inner = splits[(xs_arr.min() < splits) & (splits < xs_arr.max())]
        # panel edges: the sorted grid with the interior split points merged in
        edges = np.unique(np.concatenate((xs_arr, inner)))
        vals = _quad.integrate_panels(
            lambda t: np.atleast_1d(self.f_prime(t)), edges[:-1], edges[1:]
        )
        cum = np.concatenate(([0.0], np.cumsum(vals)))
        return cum[np.searchsorted(edges, xs_arr)]


def build_solution(d: DiffusionDensity, h: TestFunction) -> PoissonSolution:
    return PoissonSolution(density=d, h=h, h_mean=mean_h(d, h))


# ---------------------------------------------------------------------------
# Gradient-bound verification suites.
# ---------------------------------------------------------------------------

# Erlang-C suites first, then Erlang-A; cli takes its regime's half.
_SUITE_NAMES = ("wasserstein_C", "kolmogorov_C", "wasserstein_A", "kolmogorov_A")
_GRID_POINTS = 2001


def _abs_first_ratio_below(d: DiffusionDensity, x: np.ndarray) -> np.ndarray:
    """(1/nu(x)) int_{-inf}^x |y| nu(y) dy."""
    return d.ratio_below(x, first=True) - 2.0 * d.ratio_below(x, cutoff=0.0, first=True)


def _abs_first_ratio_above(d: DiffusionDensity, x: np.ndarray) -> np.ndarray:
    """(1/nu(x)) int_x^{inf} |y| nu(y) dy."""
    return 2.0 * d.ratio_above(x, cutoff=0.0, first=True) - d.ratio_above(x, first=True)


def _sample_grid(d: DiffusionDensity) -> np.ndarray:
    j = d.switch_point
    lo_tail, hi_tail = d.tail_points(1e-16)
    lo = min(j - 10.0, lo_tail)
    hi = max(j + 10.0, hi_tail)
    grid = np.linspace(lo, hi, _GRID_POINTS)
    # nudge samples off the kink so one-sided quantities stay well defined
    step = (hi - lo) / (_GRID_POINTS - 1)
    for kink in (j, 0.0):
        hit = np.isclose(grid, kink, rtol=0.0, atol=step * 1e-9)
        grid[hit] += step * 1e-6
    if not np.any(grid <= 0.0):
        raise EvaluationRangeError(
            f"zeta = {d.zeta:.6g}: the sample grid step {step:.3g} is too coarse "
            "to hold a point at or below 0"
        )
    return grid


_row = partial(Check.at_most, rtol=1e-9, atol=1e-300)


def _pointwise_row(bound_id: str, ratios: np.ndarray, mode: str = "strict") -> Check:
    """Row for x-dependent bounds, reported as max observed/bound ratio."""
    return _row(bound_id, np.max(ratios), 1.0, mode=mode)


def _anchors(zeta: float) -> list[float]:
    j = -zeta
    return [j - 1.0, j, 0.0, j + 1.0]


def gradient_bound_report(derived: DerivedQuantities, suite: str) -> list[Check]:
    """Sample f', f'', f''' on a dense grid and check the printed bounds.

    Suites: ``wasserstein_C`` (identity h; plus the Erlang-C auxiliary
    density-ratio bounds), ``kolmogorov_C`` and ``kolmogorov_A`` (indicator
    h at four anchors), ``wasserstein_A`` (identity h; rows carry an unstated
    universal constant, so they are reported as empirical shape ratios, while
    the auxiliary density-ratio bounds remain strict).  Each solution is
    evaluated once on the grid; every row takes its sup over a region of
    those arrays.
    """
    if suite not in _SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}")
    erlang_c_suite = suite.endswith("_C")
    if erlang_c_suite != derived.is_erlang_c:
        raise ValueError(f"{suite} requires alpha {'= 0' if erlang_c_suite else '> 0'}")
    d = build_density(derived)
    mu, alpha, zeta = derived.mu, derived.alpha, derived.zeta
    az = abs(zeta)
    j = -zeta
    inv_az = math.inf if az == 0.0 else 1.0 / az
    # Erlang-C is always underloaded and shares the underloaded rows
    under = derived.R <= derived.n
    grid = _sample_grid(d)
    left, right = grid <= j, grid >= j

    if suite.startswith("kolmogorov"):
        if derived.is_erlang_c:
            regime, bound_left, bound_right = "KC", 5.0, inv_az
        elif under:
            regime, bound_left = "ACu", _SQRT_2PI * math.exp(0.5)
            bound_right = min(math.sqrt(math.pi / 2.0 * mu / alpha), inv_az)
        else:
            regime, bound_left = "ACo", _SQRT_HALF_PI
            bound_right = _SQRT_HALF_PI * (1.0 + math.sqrt(mu / alpha))
        rows = []
        for a in _anchors(zeta):
            fp, fpp, _ = build_solution(d, TestFunction.indicator(a)).derivatives(grid)
            tag = f"[a={a:+.3g}]"
            rows += [
                _row(f"{regime}der1_left{tag}", np.abs(fp[left]).max() * mu, bound_left),
                _row(f"{regime}der1_right{tag}", np.abs(fp[right]).max() * mu, bound_right),
                _row(f"{regime[:2]}der2{tag}", np.abs(fpp).max() * mu, 3.0),
            ]
        return rows

    sol = build_solution(d, TestFunction.identity())
    fp, fpp, f3 = (np.abs(v) * mu for v in sol.derivatives(grid))
    if derived.is_erlang_c:
        rows = [
            _row("WCder1_left", fp[left].max(), 6.5 + 4.2 / az),
            _pointwise_row("WCder1_right", fp[right] * az / (grid[right] + 1.0 + 2.0 / az)),
            _row("WCder2_left", fpp[left].max(), 32.0 * (1.0 + 1.0 / az)),
            _row("WCder2_right", fpp[right].max(), 1.0 / az),
            _row("WCder3_left", f3[grid < j].max(), 23.0 + 13.0 / az),
            _row("WCder3_right", f3[grid > j].max(), 2.0),
        ]
    else:
        rows = _shape_rows_erlang_a(d, grid, fp, fpp, f3, under)
    return rows + (_aux_rows_under(d, grid) if under else _aux_rows_erlang_a_over(d, grid))


def _mean_abs(d: DiffusionDensity) -> float:
    return _diffusion_moment(d, 1, absolute=True)


def _aux_rows_under(d: DiffusionDensity, grid: np.ndarray) -> list[Check]:
    """Density-ratio bounds for Erlang-C and the underloaded Erlang-A density.

    Erlang-C is the alpha -> 0 member: its rows are named ``fbound*``, its
    caps are 1/|zeta| where Erlang-A has min(sqrt(pi mu / 2 alpha), 1/|zeta|)
    and min(sqrt(mu / alpha), 1/|zeta|), and its fourth ratio is bounded
    pointwise on the right.
    """
    az = abs(d.zeta)
    j = -d.zeta
    mu, alpha = d.mu, d.alpha
    inv_az = math.inf if az == 0.0 else 1.0 / az
    try:
        gauss = math.exp(0.5 * d.zeta**2)
    except OverflowError:
        raise EvaluationRangeError(
            f"zeta = {d.zeta:.6g}: the bound exp(zeta^2/2) overflows a double (|zeta| > 37.7)"
        ) from None
    neg = grid[grid <= 0.0]
    mid = grid[(grid >= 0.0) & (grid <= j)]
    right = grid[grid >= j]
    nonneg = grid[grid >= 0.0]
    b_over_mu = lambda x: np.abs(drift(d.derived, x)) / mu  # noqa: E731
    abs_above_right = _abs_first_ratio_above(d, right)
    if d.derived.is_erlang_c:
        tag, last = "fbound", ("5", "6", "7")
        cap2 = cap5 = inv_az
        bound4_mid = 2.0 + 1.0 / d.zeta**2
        row4_right = _pointwise_row(
            "fbound4_right", abs_above_right / (right / az + 1.0 / d.zeta**2)
        )
    else:
        tag, last = "ingredient", ("6", "7", "5")
        cap2 = min(math.sqrt(math.pi / 2.0 * mu / alpha), inv_az)
        cap5 = min(math.sqrt(mu / alpha), inv_az)
        bound4_mid = (2.0 + inv_az**2) if az > 0.0 else math.inf
        row4_right = _row("ingredient4_right", abs_above_right.max(), 1.0 + mu / alpha)
    rows = [
        _row(f"{tag}1_neg", d.ratio_below(neg).max(), _SQRT_HALF_PI),
        _row(
            f"{tag}1_mid",
            d.ratio_below(mid).max() if mid.size else 0.0,
            _SQRT_2PI * gauss,
        ),
        _row(
            f"{tag}2_mid",
            d.ratio_above(mid).max() if mid.size else 0.0,
            _SQRT_HALF_PI + cap2,
        ),
        _row(f"{tag}2_right", d.ratio_above(right).max(), cap2),
        _row(f"{tag}3_neg", _abs_first_ratio_below(d, neg).max(), 1.0),
        _row(
            f"{tag}3_mid",
            _abs_first_ratio_below(d, mid).max() if mid.size else 0.0,
            2.0 * gauss - 1.0,
        ),
        _row(
            f"{tag}4_mid",
            _abs_first_ratio_above(d, mid).max() if mid.size else 0.0,
            bound4_mid,
        ),
        row4_right,
        _row(f"{tag}{last[0]}", (b_over_mu(neg) * d.ratio_below(neg)).max(), 1.0),
        _row(f"{tag}{last[1]}", (b_over_mu(nonneg) * d.ratio_above(nonneg)).max(), 2.0),
        _row(f"{tag}{last[2]}", _mean_abs(d), 1.0 + cap5),
    ]
    return rows


def _aux_rows_erlang_a_over(d: DiffusionDensity, grid: np.ndarray) -> list[Check]:
    zeta = d.zeta
    j = -zeta
    mu, alpha = d.mu, d.alpha
    left = grid[grid <= j]
    mid = grid[(grid >= j) & (grid <= 0.0)]
    nonneg = grid[grid >= 0.0]
    nonpos = grid[grid <= 0.0]
    b_over_mu = lambda x: np.abs(drift(d.derived, x)) / mu  # noqa: E731
    inv_zeta = math.inf if zeta == 0.0 else mu / (alpha * zeta)
    rows = [
        _row(
            "oingredient1_left",
            d.ratio_below(left).max(),
            min(_SQRT_HALF_PI, inv_zeta),
        ),
        _row(
            "oingredient1_mid",
            d.ratio_below(mid).max() if mid.size else 0.0,
            _SQRT_HALF_PI + min(math.sqrt(math.pi / 2.0 * mu / alpha), zeta),
        ),
        _log_ratio_above_row(
            "oingredient2_mid",
            d,
            mid,
            math.log(2.0 * math.pi * mu / alpha) / 2.0
            + alpha / (2.0 * mu) * zeta**2,
            first=False,
        ),
        _row(
            "oingredient2_right",
            d.ratio_above(nonneg).max(),
            math.sqrt(math.pi / 2.0 * mu / alpha),
        ),
        _row(
            "oingredient3_left",
            _abs_first_ratio_below(d, left).max(),
            1.0 + min(_SQRT_HALF_PI * zeta, mu / alpha),
        ),
        _row(
            "oingredient3_mid",
            _abs_first_ratio_below(d, mid).max() if mid.size else 0.0,
            mu / alpha + 1.0,
        ),
        _log_ratio_above_row(
            "oingredient4_mid",
            d,
            mid,
            math.log(2.0 * mu / alpha) + alpha / (2.0 * mu) * zeta**2,
            first=True,
        ),
        _row("oingredient4_right", _abs_first_ratio_above(d, nonneg).max(), mu / alpha),
        _row("oingredient6", (b_over_mu(nonpos) * d.ratio_below(nonpos)).max(), 2.0),
        _row("oingredient7", (b_over_mu(nonneg) * d.ratio_above(nonneg)).max(), 1.0),
        _row("oingredient5", _mean_abs(d), math.sqrt(mu / alpha) + 1.0),
    ]
    return rows


def _log_ratio_above_row(
    bound_id: str, d: DiffusionDensity, pts: np.ndarray, log_bound: float, first: bool
) -> Check:
    """Upper-tail ratio bound compared in log scale.

    Deep in the overloaded regime both the bound exp((alpha/2mu) zeta^2) and
    the observed ratio exceed the double range; the comparison stays exact in
    logs.  Reported values are natural logs (bound_id carries a _log suffix).
    """
    if pts.size == 0:
        return _row(f"{bound_id}_log", -math.inf, log_bound)
    if first:
        # int_x^inf |y| nu dy for x <= 0: -int_x^0 y nu + int_0^inf y nu
        upper = d.partial_raw_moment(1, 0.0, np.inf)
        tail = -d.first_moment_between(pts, 0.0) + upper
    else:
        tail = np.asarray(d.sf(pts), dtype=float)
    with np.errstate(divide="ignore"):
        log_obs = np.log(tail) - np.atleast_1d(d.log_pdf(pts))
    return _row(f"{bound_id}_log", float(np.max(log_obs)), log_bound)


def _shape_rows_erlang_a(
    d: DiffusionDensity,
    grid: np.ndarray,
    fp: np.ndarray,
    fpp: np.ndarray,
    f3: np.ndarray,
    under: bool,
) -> list[Check]:
    """Wasserstein gradient rows whose universal constant is unstated.

    ``fp``, ``fpp``, ``f3`` are mu * |f^(k)| on the grid.  Reported as the
    empirical maximum of mu * |f^(k)| / shape over a region, so boundedness
    can be tracked across sweeps; no pass/fail verdict.  A middle region
    with no grid point has no row.
    """
    mu, alpha, zeta = d.mu, d.alpha, d.zeta
    az = abs(zeta)
    j = -zeta
    inv_az = math.inf if az == 0.0 else 1.0 / az
    sm = math.sqrt(mu / alpha)
    sa = math.sqrt(alpha / mu)
    r = alpha / mu
    left = grid < j
    right = grid > j
    if under:
        neg = grid <= 0.0
        su = min(sm, inv_az)
        table = [
            ("gwu1_left", fp, left, su + 1.0),
            ("gwu1_right", fp, right, mu / alpha + su + 1.0),
            ("gwu2_neg", fpp, neg, su + 1.0),
            ("gwu2_mid", fpp, (grid >= 0.0) & (grid <= j), (r + sa + 1.0) * su + 1.0),
            ("gwu2_right", fpp, right, (r + sa + 1.0) * max(su, 1e-300)),
            ("gwu3_neg", f3, neg & left, su + 1.0),
            ("gwu3_mid", f3, (grid > 0.0) & (grid < j), su + r + sa + 1.0),
            ("gwu3_right", f3, right, r + sa + 1.0),
        ]
    else:
        xr = grid[right]
        shape1_left = 1.0 + sm + min(zeta, mu / alpha)
        shape3_right = (r + sa + 1.0) * (1.0 + r * xr**2) + (r + sa) * np.abs(xr)
        table = [
            ("gwo1_left", fp, left, shape1_left),
            ("gwo1_right", fp, right, 1.0 + sm + mu / alpha),
            ("gwo2_left", fpp, left, shape1_left),
            ("gwo2_right", fpp, right, (r + sa + 1.0) * np.abs(xr) + 1.0 + sm),
            ("gwo3_left", f3, left, shape1_left),
            ("gwo41_right", f3, right, shape3_right),
            ("gwo42_right", f3, right, (r + sa + 1.0) + (r + sa + 1.0) ** 2 * np.abs(xr)),
        ]
    return [
        _pointwise_row(name, values[region] / shape, "empirical")
        for name, values, region, shape in table
        if region.any()
    ]
