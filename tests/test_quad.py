import math

import numpy as np

from conftest import density_for, pmf_for
from erlangdiff import _quad
from erlangdiff.model import ModelParams
from erlangdiff.poisson import TestFunction, build_solution


def _abs_sin_closed_form(lo: float, hi: float) -> float:
    """int_lo^hi |sin| as a sum of |cos u - cos v| between the roots k pi."""
    roots = [k * math.pi for k in range(math.ceil(lo / math.pi), math.floor(hi / math.pi) + 1)]
    edges = [lo] + [r for r in roots if lo < r < hi] + [hi]
    return sum(abs(math.cos(u) - math.cos(v)) for u, v in zip(edges[:-1], edges[1:]))


def test_abs_sin_matches_closed_form():
    # one panel with no sign change, one with a single root, two with two or
    # more roots, and a split at 4.5 inside the last panel; every root lies
    # between two of its sub-panel's nine probes
    lo = np.array([1.0, -2.0, 0.5, 2.5])
    hi = np.array([3.0, 2.5, 7.0, 10.0])
    got = _quad.integrate_abs_with_splits(np.sin, lo, hi, (4.5,))
    want = [_abs_sin_closed_form(a, b) for a, b in zip(lo, hi)]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_batch_invariance_on_poisson_f_third():
    # alpha = mu: f''' is zero up to rounding noise, whose sign flips are
    # bisected as roots; each panel must get the same bits alone or batched
    params = ModelParams(lam=20.0, mu=1.0, n=5, alpha=1.0)
    dist = pmf_for(params, 1e-14)
    sol = build_solution(density_for(params), TestFunction.identity())
    x = dist.x[dist.pmf > 1e-16]
    delta = dist.derived.delta
    lo = np.concatenate(([x[0] - delta], x))
    hi = np.concatenate((x, [x[-1] + delta]))
    splits = sol._split_points()
    batched = _quad.integrate_abs_with_splits(sol.f_third, lo, hi, splits)
    alone = np.concatenate(
        [_quad.integrate_abs_with_splits(sol.f_third, lo[i : i + 1], hi[i : i + 1], splits)
         for i in range(lo.size)]
    )
    assert batched.tobytes() == alone.tobytes()


def test_empty_panel_array():
    out = _quad.integrate_abs_with_splits(np.sin, np.array([]), np.array([]), (1.0,))
    assert out.shape == (0,)
