"""Taylor-expansion error decompositions coupling the chain and diffusion.

Expanding the chain generator around a point x on the delta-grid gives

  G_chain f(x) = [b f'(x) + mu f''(x-)] - (delta/2) b(x) f''(x-)
                 + lam (eps1(x) + eps2(x)) - (1/delta) b(x) eps2(x),

an exact identity whose bracket is the diffusion generator (with the left
limit of f'' at the indicator jump).  Taking stationary expectations, the
chain side vanishes and the correction terms bound the distance between the
two stationary laws: four absolute-value terms for Lipschitz test functions,
and for indicators the same with the integral remainders eps1/eps2, whose
integrands jump at the indicator anchor.  This module evaluates the terms
numerically over the exact pmf, with panel quadrature split at the drift
kink and the anchor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _quad
from .ctmc import DiscreteStationary, _exact_sum
from .diffusion import density_sup_check
from .model import drift
from .poisson import PoissonSolution

__all__ = [
    "ErrorDecomposition",
    "wasserstein_decomposition",
    "kolmogorov_decomposition",
]

_PMF_CUT = 1e-16
_ORDER = 12


@dataclass(frozen=True)
class ErrorDecomposition:
    """Named error terms, their sum, and the independently computed target."""

    metric: str
    terms: dict
    total: float
    lhs: float
    tolerance: float
    extras: dict = field(default_factory=dict)


def _active(dist: DiscreteStationary) -> np.ndarray:
    idx = np.nonzero(dist.pmf > _PMF_CUT)[0]
    # keep a contiguous block; isolated sub-threshold states in the middle
    # would complicate the panel bookkeeping for no measurable gain
    return np.arange(idx[0], idx[-1] + 1)


def _kept_states(dist: DiscreteStationary):
    """x, pmf and drift on the ``_active`` states, and the panel edges shared
    by both decompositions: [x_k - delta, x_k] for the lowest state, then
    every forward panel.  Edges are the grid points themselves, so the drift
    kink is always a panel edge, never a sliver-interior point."""
    ks = _active(dist)
    x, delta = dist.x[ks], dist.derived.delta
    edges = np.concatenate(([x[0] - delta], x)), np.concatenate((x, [x[-1] + delta]))
    return x, dist.pmf[ks], drift(dist.derived, x), edges


def _tolerance(dist: DiscreteStationary, p: np.ndarray, lhs: float, per_state) -> float:
    """Numerical budget of a decomposition: the states left out, plus rounding.

    ``per_state`` is the sum of the four terms' integrands at each kept
    state (the terms are their p-weighted sums).  The mass outside the kept
    states, with the chain's own tail bound, is charged 4 times the largest
    per-state sum.
    """
    dropped = max(0.0, 1.0 - float(_exact_sum(p))) + dist.tail_bound
    return 4.0 * dropped * float(np.max(per_state)) + 1e-13 * (1.0 + abs(lhs))


def _panel_abs_f3(sol: PoissonSolution, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int |f'''| over panels [lo_i, hi_i], splitting at kinks/sign changes."""
    splits = sol._split_points()
    pts, wts = _quad.panel_nodes(lo, hi, _ORDER)
    f3 = sol.derivatives(pts.ravel())[2].reshape(pts.shape)
    plain = np.abs(np.sum(f3 * wts, axis=1))
    # sign changes below rounding noise (f''' is exactly zero on the
    # constant-drift side for Erlang-C) do not warrant a panel split
    noise = 1e-12 * np.max(np.abs(f3))
    mixed = (np.min(f3, axis=1) < -noise) & (np.max(f3, axis=1) > noise)
    redo = mixed | _quad._inside(lo, hi, splits).any(axis=1)
    plain[redo] = _quad.integrate_abs_with_splits(sol.f_third, lo[redo], hi[redo], splits)
    return plain


def wasserstein_decomposition(
    dist: DiscreteStationary, sol: PoissonSolution
) -> ErrorDecomposition:
    """Four-term expansion bound for a Lipschitz test function.

    term1_drift_f2    (delta/2) E|f''(X~) b(X~)|
    term2_forward_f3  (mu/2)    E int_{X~}^{X~+delta} |f'''|
    term3_backward_f3 (mu/2)    E int_{X~-delta}^{X~} |f'''|
    term4_drift_f3    (delta/2) E[|b(X~)| int_{X~-delta}^{X~} |f'''|]
    """
    if not sol.h.is_lipschitz:
        raise ValueError("the Wasserstein decomposition needs a Lipschitz h")
    der = dist.derived
    delta = der.delta
    mu = der.mu
    x, p, b, edges = _kept_states(dist)
    fpp = sol.derivatives(x)[1]
    f2b = np.abs(fpp * b)
    term1 = 0.5 * delta * _exact_sum(p * f2b)

    panel = _panel_abs_f3(sol, *edges)
    fwd = panel[1:]
    bwd = panel[:-1]
    term2 = 0.5 * mu * _exact_sum(p * fwd)
    term3 = 0.5 * mu * _exact_sum(p * bwd)
    term4 = 0.5 * delta * _exact_sum(p * np.abs(b) * bwd)

    chain_mean_h = _exact_sum(dist.pmf * sol.h.value(dist.x))
    lhs = abs(chain_mean_h - sol.h_mean)
    per_state = 0.5 * delta * f2b + 0.5 * mu * (fwd + bwd) + 0.5 * delta * np.abs(b) * bwd
    terms = {
        "term1_drift_f2": term1,
        "term2_forward_f3": term2,
        "term3_backward_f3": term3,
        "term4_drift_f3": term4,
    }
    total = term1 + term2 + term3 + term4
    return ErrorDecomposition(
        metric="wasserstein",
        terms=terms,
        total=total,
        lhs=lhs,
        tolerance=_tolerance(dist, p, lhs, per_state),
        extras={"mean_abs_f2b": _exact_sum(p * f2b)},
    )


def _weighted_f2_panels(
    sol: PoissonSolution,
    lo: np.ndarray,
    hi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(int (hi-y) f''(y) dy, int (y-lo) f''(y) dy) over panels [lo_i, hi_i].

    f'' jumps at the indicator anchor and kinks at the drift kink; panels
    containing either point are re-integrated piece by piece between them.
    """
    splits = sol._split_points()

    def weighted(u, v, lo_w, hi_w, order):
        # both weighted integrals over pieces [u_i, v_i] of panels [lo_w_i, hi_w_i]
        pts, wts = _quad.panel_nodes(u, v, order)
        fpp = sol.derivatives(pts.ravel())[1].reshape(pts.shape)
        return (
            np.sum((hi_w[:, None] - pts) * fpp * wts, axis=1),
            np.sum((pts - lo_w[:, None]) * fpp * wts, axis=1),
        )

    a_panel, b_panel = weighted(lo, hi, lo, hi, _ORDER)
    redo = _quad._inside(lo, hi, splits).any(axis=1)
    lo_r, hi_r = lo[redo], hi[redo]
    u, v, owner = _quad._split_panels(lo_r, hi_r, splits)
    a_piece, b_piece = weighted(u, v, lo_r[owner], hi_r[owner], _quad._ORDER)
    a_panel[redo] = np.bincount(owner, weights=a_piece, minlength=lo_r.size)
    b_panel[redo] = np.bincount(owner, weights=b_piece, minlength=lo_r.size)
    return a_panel, b_panel


def kolmogorov_decomposition(
    dist: DiscreteStationary, sol: PoissonSolution, d_k: float
) -> ErrorDecomposition:
    """Expansion bound for an indicator test function at anchor a.

    term1_drift_f2  (delta/2) E|f''(X~-) b(X~)|
    term2_eps1      lam E|eps1(X~)|
    term3_eps2      lam E|eps2(X~)|
    term4_drift_eps (1/delta) E|b(X~) eps2(X~)|

    Also evaluates the straddle probability P(a - delta < X~ <= a + delta)
    and its birth-death majorant from the pmf-maximizer argument, which
    needs the Kolmogorov distance ``d_k`` between the chain and the density
    of ``sol``.
    """
    if sol.h.kind != "indicator":
        raise ValueError("the Kolmogorov decomposition needs an indicator h")
    a = sol.h.parameter
    der = dist.derived
    params = dist.params
    delta = der.delta
    x, p, b, edges = _kept_states(dist)
    fpp_left = sol.derivatives(x)[1]
    term1 = 0.5 * delta * _exact_sum(p * np.abs(fpp_left * b))

    a_panel, b_panel = _weighted_f2_panels(sol, *edges)
    half_d2 = 0.5 * delta * delta
    eps1 = a_panel[1:] - fpp_left * half_d2
    eps2 = b_panel[:-1] - fpp_left * half_d2
    term2 = params.lam * _exact_sum(p * np.abs(eps1))
    term3 = params.lam * _exact_sum(p * np.abs(eps2))
    term4 = (1.0 / delta) * _exact_sum(p * np.abs(b * eps2))

    lhs = abs(dist.cdf(a) - sol.h_mean)
    straddle = dist.prob_interval(a - delta, a + delta)
    omega = density_sup_check(sol.density).observed
    load_factor = max(der.alpha / der.mu, 1.0)
    majorant = (
        2.0 * delta * omega
        + d_k
        + 9.0 * load_factor * delta**2
        + 8.0 * load_factor**2 * delta**4
    )
    per_state = (
        0.5 * delta * np.abs(fpp_left * b)
        + params.lam * (np.abs(eps1) + np.abs(eps2))
        + np.abs(b * eps2) / delta
    )
    terms = {
        "term1_drift_f2": term1,
        "term2_eps1": term2,
        "term3_eps2": term3,
        "term4_drift_eps": term4,
    }
    total = term1 + term2 + term3 + term4
    extras = {
        "straddle": straddle,
        "straddle_majorant": majorant,
        "interm_rhs": 0.5 * straddle + 75.0 * delta,
    }
    return ErrorDecomposition(
        metric="kolmogorov",
        terms=terms,
        total=total,
        lhs=lhs,
        tolerance=_tolerance(dist, p, lhs, per_state),
        extras=extras,
    )
