"""Taylor-expansion error decompositions coupling the chain and diffusion.

Expanding the chain generator around a point x on the delta-grid gives,
per unit mu (the drift b and the generators too),

  G_chain f(x) = [b f'(x) + f''(x-)] - (delta/2) b(x) f''(x-)
                 + R (eps1(x) + eps2(x)) - (1/delta) b(x) eps2(x),

an exact identity whose bracket is the diffusion generator (with the left
limit of f'' at the indicator jump).  Taking stationary expectations, the
chain side vanishes and the correction terms bound the distance between the
two stationary laws: four absolute-value terms for Lipschitz test functions,
and for indicators the same with the integral remainders eps1/eps2, whose
integrands jump at the indicator anchor.  Each expansion is one term table
that one builder sums over the exact pmf, with panel quadrature split at
the drift kink and the anchor; one walk of the window per Poisson solution
also gives the generator identity E h(X~) - E h(Y) = E G_Y f_h(X~).  No
other code here walks the window: the states that walk keeps and
P(X~ <= a) are the chain's ``kept`` and ``cdf``.  The expansions only
expand: the straddle lemma that bounds P(a - delta < X~ <= a + delta),
and the bounds that compare the terms with the paper's constants, are
rows of ``report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _quad
from .ctmc import DiscreteStationary, _exact_sum
from .model import drift
from .poisson import PoissonSolution

__all__ = [
    "ErrorDecomposition",
    "wasserstein_decomposition",
    "kolmogorov_decomposition",
]

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


def _kept_states(dist: DiscreteStationary, sol: PoissonSolution):
    """The one read of the chain states for ``sol``, one walk block at a
    time: on the whole window, |E h(X~) - E h(Y)| and its
    generator-identity gap to |E G_Y f_h(X~)| = |E[b f' + f'']|, two
    rows of one stacked block stream; on the ``dist.kept`` states, the pmf,
    the drift and f'' (elementwise, so the window's values) and the panel
    edges of both decompositions: [x_k - delta, x_k] for the lowest state,
    then every forward panel.  Edges are the grid points themselves, so the
    drift kink is always a panel edge, never a sliver-interior point."""
    span, der = dist.kept, dist.derived
    kept = np.empty((4, span.stop - span.start))  # x, pmf, drift, f''

    def blocks():
        for i, x, p in dist._walk():
            b = drift(der, x)
            fp, fpp, _ = sol.derivatives(x)
            lo, hi = np.clip([span.start - i, span.stop - i], 0, x.size)
            kept[:, i + lo - span.start : i + hi - span.start] = [v[lo:hi] for v in (x, p, b, fpp)]
            yield np.stack((p * (b * fp + fpp), p * sol.h.value(x)))

    gen_y, e_h = _exact_sum(blocks())
    lhs = abs(e_h - sol.h_mean)
    xk, pk, bk, fppk = kept
    edges = np.concatenate(([xk[0] - der.delta], xk)), np.concatenate((xk, [xk[-1] + der.delta]))
    return pk, bk, fppk, edges, lhs, abs(lhs - abs(gen_y))


def _decomposition(
    metric: str, dist: DiscreteStationary, p: np.ndarray, lhs: float, table: list, extras: dict
) -> ErrorDecomposition:
    """A decomposition from (name, coefficient, factors[, extras key]) rows:
    term = coefficient * sum(p * factors[0] * factors[1] ...), multiplied in
    that order, its unscaled sum leading the extras under a row's key; the
    total in table order; and the numerical budget: the mass outside the kept
    states, with the chain's tail bound, charged 4 times the largest
    per-state sum of the integrands, plus rounding."""
    terms, per_state = {}, 0.0
    for name, coef, factors, *key in table:
        weighted, integrand = p, coef
        for factor in factors:
            weighted, integrand = weighted * factor, integrand * factor
        raw = _exact_sum(weighted)
        terms[name] = coef * raw
        extras = {**dict.fromkeys(key, raw), **extras}
        per_state = per_state + integrand
    dropped = max(0.0, 1.0 - float(_exact_sum(p))) + dist.tail_bound
    tolerance = 4.0 * dropped * float(np.max(per_state)) + 1e-13 * (1.0 + abs(lhs))
    return ErrorDecomposition(metric, terms, sum(terms.values()), lhs, tolerance, extras)


def _panel_abs_f3(sol: PoissonSolution, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """int |f'''| over panels [lo_i, hi_i], splitting at kinks/sign changes."""
    splits = sol._split_points()
    plain, f3_min, f3_max = (np.empty(lo.size) for _ in range(3))
    for s, pts, wts in _quad.panel_chunks(lo, hi, _ORDER):
        f3 = sol.derivatives(pts.ravel())[2].reshape(pts.shape)
        plain[s] = np.abs(np.sum(f3 * wts, axis=1))
        f3_min[s], f3_max[s] = np.min(f3, axis=1), np.max(f3, axis=1)
    # sign changes below rounding noise (f''' is exactly zero on the
    # constant-drift side for Erlang-C) do not warrant a panel split; the
    # largest |f'''| at a node is the larger of the top max and minus the least min
    noise = 1e-12 * np.max([np.max(f3_max), -np.min(f3_min)])
    mixed = (f3_min < -noise) & (f3_max > noise)
    redo = mixed | _quad._inside(lo, hi, splits).any(axis=1)
    plain[redo] = _quad.integrate_abs_with_splits(sol.f_third, lo[redo], hi[redo], splits)
    return plain


def wasserstein_decomposition(
    dist: DiscreteStationary, sol: PoissonSolution
) -> ErrorDecomposition:
    """Four-term expansion bound for a Lipschitz test function.

    term1_drift_f2    (delta/2) E|f''(X~) b(X~)|
    term2_forward_f3  (1/2)     E int_{X~}^{X~+delta} |f'''|
    term3_backward_f3 (1/2)     E int_{X~-delta}^{X~} |f'''|
    term4_drift_f3    (delta/2) E[|b(X~)| int_{X~-delta}^{X~} |f'''|]
    """
    if not sol.h.is_lipschitz:
        raise ValueError("the Wasserstein decomposition needs a Lipschitz h")
    der = dist.derived
    p, b, fpp, edges, lhs, gap = _kept_states(dist, sol)
    panel = _panel_abs_f3(sol, *edges)
    fwd = panel[1:]
    bwd = panel[:-1]
    table = [
        ("term1_drift_f2", 0.5 * der.delta, [np.abs(fpp * b)], "mean_abs_f2b"),
        ("term2_forward_f3", 0.5, [fwd]),
        ("term3_backward_f3", 0.5, [bwd]),
        ("term4_drift_f3", 0.5 * der.delta, [np.abs(b), bwd]),
    ]
    return _decomposition("wasserstein", dist, p, lhs, table, {"generator_identity": gap})


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
        out = np.empty((2, u.size))
        for s, pts, wts in _quad.panel_chunks(u, v, order):
            fpp = sol.derivatives(pts.ravel())[1].reshape(pts.shape)
            out[0, s] = np.sum((hi_w[s, None] - pts) * fpp * wts, axis=1)
            out[1, s] = np.sum((pts - lo_w[s, None]) * fpp * wts, axis=1)
        return out

    a_panel, b_panel = weighted(lo, hi, lo, hi, _ORDER)
    redo = _quad._inside(lo, hi, splits).any(axis=1)
    lo_r, hi_r = lo[redo], hi[redo]
    u, v, owner = _quad._split_panels(lo_r, hi_r, splits)
    a_piece, b_piece = weighted(u, v, lo_r[owner], hi_r[owner], _quad._ORDER)
    a_panel[redo] = np.bincount(owner, weights=a_piece, minlength=lo_r.size)
    b_panel[redo] = np.bincount(owner, weights=b_piece, minlength=lo_r.size)
    return a_panel, b_panel


def kolmogorov_decomposition(
    dist: DiscreteStationary, sol: PoissonSolution
) -> ErrorDecomposition:
    """Expansion bound for an indicator test function at anchor a.

    term1_drift_f2  (delta/2) E|f''(X~-) b(X~)|
    term2_eps1      R E|eps1(X~)|
    term3_eps2      R E|eps2(X~)|
    term4_drift_eps (1/delta) E|b(X~) eps2(X~)|
    """
    if sol.h.kind != "indicator":
        raise ValueError("the Kolmogorov decomposition needs an indicator h")
    delta = dist.derived.delta
    p, b, fpp_left, edges, _, gap = _kept_states(dist, sol)
    a_panel, b_panel = _weighted_f2_panels(sol, *edges)
    half_d2 = 0.5 * delta * delta
    eps1 = a_panel[1:] - fpp_left * half_d2
    eps2 = b_panel[:-1] - fpp_left * half_d2
    table = [
        ("term1_drift_f2", 0.5 * delta, [np.abs(fpp_left * b)]),
        ("term2_eps1", dist.derived.R, [np.abs(eps1)]),
        ("term3_eps2", dist.derived.R, [np.abs(eps2)]),
        ("term4_drift_eps", 1.0 / delta, [np.abs(b * eps2)]),
    ]
    lhs = abs(dist.cdf(sol.h.parameter) - sol.h_mean)
    return _decomposition("kolmogorov", dist, p, lhs, table, {"generator_identity": gap})
