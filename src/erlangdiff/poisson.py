"""Solutions of the diffusion Poisson equation and their derivative bounds.

For a test function h, the equation ``b(x) f'(x) + mu f''(x) = E h(Y) - h(x)``
has the one-parameter-free solution (the member whose homogeneous weight is
zero) with

    f'(x) =  (1/nu(x)) int_{-inf}^x  (E h(Y) - h(y)) nu(y) dy / mu
         = -(1/nu(x)) int_x^{inf}    (E h(Y) - h(y)) nu(y) dy / mu.

Both representations are exact and share one formula, with the sign and
the tail ratios of their side; evaluation switches between them at the
density mode (which is 0 in every regime) so the 1/nu amplification never
exceeds a factor two in mass.  For both supported test-function kinds
(identity and half-line indicator) every integral reduces to closed
Gaussian/exponential partial masses and first moments, so no quadrature is
involved in f', f'' or f'''.

f'' comes from the equation itself, f''' from differentiating it once more;
at the indicator jump the second derivative is the left limit.

The gradient-bound suites evaluate each solution, and each density ratio
that the auxiliary bounds use, once on one sample grid.  Every row is a
table entry (name, values, region, bound) whose observed value is the sup
of its values over its region.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import _quad
from .diffusion import DiffusionDensity, moment as _diffusion_moment
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
        out = x_arr if self.is_lipschitz else (x_arr <= self.parameter).astype(float)
        return out if np.ndim(x) else float(out)

    def slope(self, x):
        """h'(x): one for the identity, zero for indicators off the jump."""
        x_arr = np.asarray(x, dtype=float)
        out = np.ones_like(x_arr) if self.is_lipschitz else np.zeros_like(x_arr)
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

    # -- first derivative ------------------------------------------------------

    def f_prime_rep(self, x: np.ndarray, below: bool) -> np.ndarray:
        """f' on a point array from the integral running up from -inf
        (``below``) or down from +inf.

        With H(x) = (1/nu(x)) int h nu over the same half-line, f' is
        +-(E h(Y) ratio(x) - H(x)) / mu; an indicator's upper integral is
        the upper mass ratio less the part above its anchor.
        """
        d, h = self.density, self.h
        ratio = d.ratio_below if below else d.ratio_above
        mass = ratio(x)
        if h.kind == "lipschitz_identity":
            h_int = ratio(x, first=True)
        elif below:
            h_int = ratio(x, cutoff=h.parameter)
        else:
            h_int = mass - ratio(x, cutoff=h.parameter)
        sign = 1.0 if below else -1.0
        return sign * (self.h_mean * mass - h_int) / self.derived.mu

    def f_prime(self, x):
        """f', switching representations at the density mode (0 in every regime)."""
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.empty_like(x_arr)
        for below in (True, False):
            side = (x_arr <= 0.0) == below
            if np.any(side):
                out[side] = self.f_prime_rep(x_arr[side], below)
        # the scaled-erfc formulation keeps every ratio finite far beyond the
        # 50-sigma mark, so the guard fires only if a value actually degrades
        if not np.all(np.isfinite(out)):
            bad = x_arr[~np.isfinite(out)]
            raise EvaluationRangeError(
                f"derivative evaluation degraded at x = {bad[:3]}; point is "
                "beyond the numerically supported range"
            )
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
        mu = der.mu
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

# the suite names gradient_bound_report returns; cli prints their rows in their own shape
_SUITE_NAMES = ("wasserstein_C", "kolmogorov_C", "wasserstein_A", "kolmogorov_A")
_GRID_POINTS = 2001


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
            f"zeta = {d.derived.zeta:.6g}: the sample grid step {step:.3g} is too coarse "
            "to hold a point at or below 0"
        )
    return grid


_row = partial(Check.at_most, rtol=1e-9, atol=1e-300)
# the same 1e-9 relative slack for a row that compares natural logs
_log_row = partial(Check.at_most, atol=math.log1p(1e-9))


def _pointwise_row(bound_id: str, ratios: np.ndarray, mode: str = "strict") -> Check:
    """Row for x-dependent bounds, reported as max observed/bound ratio."""
    return _row(bound_id, np.max(ratios), 1.0, mode=mode)


def _anchors(zeta: float) -> list[float]:
    j = -zeta
    return [j - 1.0, j, 0.0, j + 1.0]


def gradient_bound_report(
    identity: PoissonSolution, anchors: Sequence[PoissonSolution]
) -> list[tuple[str, list[Check]]]:
    """Sample f', f'', f''' on one dense grid and check the printed bounds.

    ``identity`` solves for h(x) = x and ``anchors`` for the indicators at
    ``_anchors``, over one density.  Returns the regime's ``wasserstein_*``
    suite (the identity, plus the auxiliary density-ratio bounds; Erlang-A
    rows carry an unstated universal constant, so they are empirical shape
    ratios, while the density-ratio bounds stay strict) and its
    ``kolmogorov_*`` suite (the anchors), ``*`` being C or A.  Each solution
    is evaluated once on the grid; every row takes its sup over a region.
    """
    d = identity.density
    derived = d.derived
    mu, alpha, zeta = derived.mu, derived.alpha, derived.zeta
    az = abs(zeta)
    j = -zeta
    inv_az = math.inf if az == 0.0 else 1.0 / az
    # Erlang-C is always underloaded and shares the underloaded rows
    under = derived.R <= derived.n
    grid = _sample_grid(d)
    left, right = grid <= j, grid >= j

    fp, fpp, f3 = (np.abs(v) * mu for v in identity.derivatives(grid))
    if derived.is_erlang_c:
        w_rows = [
            _row("WCder1_left", fp[left].max(), 6.5 + 4.2 / az),
            _pointwise_row("WCder1_right", fp[right] * az / (grid[right] + 1.0 + 2.0 / az)),
            _row("WCder2_left", fpp[left].max(), 32.0 * (1.0 + 1.0 / az)),
            _row("WCder2_right", fpp[right].max(), 1.0 / az),
            _row("WCder3_left", f3[grid < j].max(), 23.0 + 13.0 / az),
            _row("WCder3_right", f3[grid > j].max(), 2.0),
        ]
        regime, bound_left, bound_right = "KC", 5.0, inv_az
    else:
        w_rows = _shape_rows_erlang_a(d, grid, fp, fpp, f3, under)
        if under:
            regime, bound_left = "ACu", _SQRT_2PI * math.exp(0.5)
            bound_right = min(math.sqrt(math.pi / 2.0 * mu / alpha), inv_az)
        else:
            regime, bound_left = "ACo", _SQRT_HALF_PI
            bound_right = _SQRT_HALF_PI * (1.0 + math.sqrt(mu / alpha))
    w_rows += _ratio_rows(d, grid, under)
    k_rows = []
    for sol in anchors:
        fp, fpp, _ = sol.derivatives(grid)
        tag = f"[a={sol.h.parameter:+.3g}]"
        k_rows += [
            _row(f"{regime}der1_left{tag}", np.abs(fp[left]).max() * mu, bound_left),
            _row(f"{regime}der1_right{tag}", np.abs(fp[right]).max() * mu, bound_right),
            _row(f"{regime[:2]}der2{tag}", np.abs(fpp).max() * mu, 3.0),
        ]
    w_name, k_name = _SUITE_NAMES[:2] if derived.is_erlang_c else _SUITE_NAMES[2:]
    return [(w_name, w_rows), (k_name, k_rows)]


def _ratio_rows(d: DiffusionDensity, grid: np.ndarray, under: bool) -> list[Check]:
    """Density-ratio bounds, as one table of (name, values, region, bound) rows.

    Each ratio is evaluated once on the whole grid: the tail-mass ratios,
    the |y|-weighted ratios and |b|/mu times the mass ratios.  A row takes
    the sup of its values over a region: the outer side of 0 and -zeta on
    the left or right, the middle between them, or a half-line at 0.  The
    last row is E|Y|.

    Erlang-C is the alpha -> 0 member of the underloaded table: its rows are
    named ``fbound*``, its caps are 1/|zeta| where Erlang-A has
    min(sqrt(pi mu / 2 alpha), 1/|zeta|) and min(sqrt(mu / alpha), 1/|zeta|),
    and its fourth ratio is bounded pointwise on the right.  Deep in the
    overloaded regime both the bound exp((alpha/2mu) zeta^2) and the observed
    upper-tail ratio exceed the double range, so the two middle upper-tail
    rows compare natural logs (names end in ``_log``).  An empty middle
    region reads as a zero ratio: 0.0, or -inf in logs.
    """
    mu, alpha, zeta = d.derived.mu, d.derived.alpha, d.derived.zeta
    az = abs(zeta)
    j = -zeta
    inv_az = math.inf if az == 0.0 else 1.0 / az
    if under:
        try:
            gauss = math.exp(0.5 * zeta**2)
        except OverflowError:
            raise EvaluationRangeError(
                f"zeta = {zeta:.6g}: the bound exp(zeta^2/2) overflows a double (|zeta| > 37.7)"
            ) from None
    lo, hi = (0.0, j) if under else (j, 0.0)
    low, mid, high = grid <= lo, (grid >= lo) & (grid <= hi), grid >= hi
    nonpos, nonneg = grid <= 0.0, grid >= 0.0
    # off its own region a ratio may overflow or cancel; no row reads it there
    with np.errstate(all="ignore"):
        below, above = d.ratio_below(grid), d.ratio_above(grid)
        abs_below = d.ratio_below(grid, first=True) - 2.0 * d.ratio_below(
            grid, cutoff=0.0, first=True
        )
        abs_above = 2.0 * d.ratio_above(grid, cutoff=0.0, first=True) - d.ratio_above(
            grid, first=True
        )
        b_over_mu = np.abs(drift(d.derived, grid)) / mu
        drift_below, drift_above = b_over_mu * below, b_over_mu * above
        if d.derived.is_erlang_c:
            tag, last = "fbound", ("5", "6", "7")
            cap2 = cap5 = inv_az
            bound4_mid = 2.0 + 1.0 / zeta**2
            values4_right, bound4_right = abs_above / (grid / az + 1.0 / zeta**2), 1.0
        elif under:
            tag, last = "ingredient", ("6", "7", "5")
            cap2 = min(math.sqrt(math.pi / 2.0 * mu / alpha), inv_az)
            cap5 = min(math.sqrt(mu / alpha), inv_az)
            bound4_mid = (2.0 + inv_az**2) if az > 0.0 else math.inf
            values4_right, bound4_right = abs_above, 1.0 + mu / alpha
        else:
            # int_x^inf |y| nu dy for x <= 0: -int_x^0 y nu + int_0^inf y nu
            upper = d.partial_raw_moment(1, 0.0, np.inf)
            tail = -d.first_moment_between(np.minimum(grid, 0.0), 0.0) + upper
            log_pdf = np.atleast_1d(d.log_pdf(grid))
            log_above = np.log(np.asarray(d.sf(grid), dtype=float)) - log_pdf
            log_abs_above = np.log(tail) - log_pdf
    if under:
        table = [
            (f"{tag}1_neg", below, low, _SQRT_HALF_PI),
            (f"{tag}1_mid", below, mid, _SQRT_2PI * gauss),
            (f"{tag}2_mid", above, mid, _SQRT_HALF_PI + cap2),
            (f"{tag}2_right", above, high, cap2),
            (f"{tag}3_neg", abs_below, low, 1.0),
            (f"{tag}3_mid", abs_below, mid, 2.0 * gauss - 1.0),
            (f"{tag}4_mid", abs_above, mid, bound4_mid),
            (f"{tag}4_right", values4_right, high, bound4_right),
            (f"{tag}{last[0]}", drift_below, nonpos, 1.0),
            (f"{tag}{last[1]}", drift_above, nonneg, 2.0),
        ]
        mean_abs_row = (f"{tag}{last[2]}", 1.0 + cap5)
    else:
        inv_zeta = math.inf if zeta == 0.0 else mu / (alpha * zeta)
        spread = alpha / (2.0 * mu) * zeta**2
        cap2 = math.sqrt(math.pi / 2.0 * mu / alpha)
        table = [
            ("oingredient1_left", below, low, min(_SQRT_HALF_PI, inv_zeta)),
            ("oingredient1_mid", below, mid, _SQRT_HALF_PI + min(cap2, zeta)),
            (
                "oingredient2_mid_log",
                log_above,
                mid,
                math.log(2.0 * math.pi * mu / alpha) / 2.0 + spread,
            ),
            ("oingredient2_right", above, high, cap2),
            ("oingredient3_left", abs_below, low, 1.0 + min(_SQRT_HALF_PI * zeta, mu / alpha)),
            ("oingredient3_mid", abs_below, mid, mu / alpha + 1.0),
            ("oingredient4_mid_log", log_abs_above, mid, math.log(2.0 * mu / alpha) + spread),
            ("oingredient4_right", abs_above, high, mu / alpha),
            ("oingredient6", drift_below, nonpos, 2.0),
            ("oingredient7", drift_above, nonneg, 1.0),
        ]
        mean_abs_row = ("oingredient5", math.sqrt(mu / alpha) + 1.0)
    rows = [
        _log_row(name, values[region].max() if region.any() else -math.inf, bound)
        if name.endswith("_log")
        else _row(name, values[region].max() if region.any() else 0.0, bound)
        for name, values, region, bound in table
    ]
    name, bound = mean_abs_row
    return rows + [_row(name, _diffusion_moment(d, 1, absolute=True), bound)]


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
    mu, alpha, zeta = d.derived.mu, d.derived.alpha, d.derived.zeta
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
