"""Gauss-Legendre panel quadrature helpers.

Integrands here are smooth on each panel once panels are split at the drift
kink and test-function breakpoints, so a fixed high-order rule reaches
machine precision; absolute-value integrands additionally get panels split
at sign changes, located in all panels at once by array bisection.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

_ORDER = 24
_BISECT_STEPS = 80


@lru_cache(maxsize=8)
def _gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights; numpy.polynomial loads on the first call."""
    return np.polynomial.legendre.leggauss(order)


def panel_chunks(lo: np.ndarray, hi: np.ndarray, order: int = _ORDER):
    """(s, node matrix, weight matrix) for consecutive slices s of the panels
    [lo_i, hi_i]: the one loop of panel quadrature, about ``ctmc._BLOCK``
    nodes a chunk.  A panel's sums read its own nodes only, so every
    chunking keeps their bits."""
    from .ctmc import _BLOCK  # read at call time: one unit sizes walk and chunks

    nodes, weights = _gl_rule(order)
    step = max(1, _BLOCK // order)
    for start in range(0, np.size(lo), step):
        s = slice(start, start + step)
        half = 0.5 * (hi[s] - lo[s])
        mid = 0.5 * (hi[s] + lo[s])
        yield s, mid[:, None] + half[:, None] * nodes[None, :], half[:, None] * weights[None, :]


def integrate_panels(
    fun: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    order: int = _ORDER,
) -> np.ndarray:
    """Vectorized int_{lo_i}^{hi_i} fun for smooth fun."""
    out = np.empty(np.size(lo))
    for s, pts, wts in panel_chunks(lo, hi, order):
        out[s] = np.sum(fun(pts.ravel()).reshape(pts.shape) * wts, axis=1)
    return out


def _inside(lo: np.ndarray, hi: np.ndarray, points) -> np.ndarray:
    """Mask [i, j] of the points[j] strictly inside the panels [lo_i, hi_i]."""
    return (lo[:, None] < points) & (points < hi[:, None])


def _cut(lo: np.ndarray, hi: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Pieces of the panels [lo_i, hi_i] cut at the non-nan cuts[i, :] inside them.

    Returns the pieces' ends and panel indices, by panel and then left to right.
    """
    edges = np.sort(np.column_stack((lo, cuts, hi)), axis=1)  # nan sorts last
    keep = ~np.isnan(edges[:, 1:])
    return edges[:, :-1][keep], edges[:, 1:][keep], np.nonzero(keep)[0]


def _split_panels(lo, hi, splits: tuple[float, ...]) -> tuple[np.ndarray, ...]:
    """Pieces of the panels [lo_i, hi_i] cut at the splits strictly inside them."""
    lo, hi = np.atleast_1d(lo).astype(float), np.atleast_1d(hi).astype(float)
    return _cut(lo, hi, np.where(_inside(lo, hi, splits), splits, np.nan))


def integrate_with_splits(
    fun: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, splits: tuple[float, ...] = ()
) -> float:
    """int_lo^hi fun with interior breakpoints inserted as panel edges."""
    u, v, _ = _split_panels(lo, hi, splits)
    return float(np.sum(integrate_panels(fun, u, v)))


def integrate_abs_with_splits(
    fun: Callable[[np.ndarray], np.ndarray], lo: np.ndarray, hi: np.ndarray, splits=()
) -> np.ndarray:
    """int_{lo_i}^{hi_i} |fun| for each panel, split at the splits and at sign changes.

    fun must be continuous on each split piece.  Each sub-panel is cut at a
    root in every bracket of its nine interior probes (its ends may sit on
    kinks where fun is undefined) with a strict sign change.  Sums run left
    to right from 0.0: pieces into sub-panels, sub-panels into panels.
    """
    a, b, panel = _split_panels(lo, hi, splits)
    probe = a[:, None] + (b - a)[:, None] * np.arange(1, 10) / 10.0
    vals = fun(probe.ravel()).reshape(probe.shape)
    signs = np.sign(vals)
    change = signs[:, :-1] * signs[:, 1:] < 0
    roots = np.full(change.shape, np.nan)
    roots[change] = _bisect(fun, probe[:, :-1][change], probe[:, 1:][change], vals[:, :-1][change])
    u, v, sub = _cut(a, b, roots)
    per_sub = np.bincount(sub, weights=np.abs(integrate_panels(fun, u, v)), minlength=a.size)
    return np.bincount(panel, weights=per_sub, minlength=np.size(lo))


def _bisect(fun, a: np.ndarray, b: np.ndarray, fa: np.ndarray) -> np.ndarray:
    """Bisect all brackets [a_i, b_i] (fa_i = fun(a_i)) at once, evaluating the live ones.

    A bracket stops once b - a < 1e-15 (1 + |a|).
    """
    live = np.arange(a.size)
    for _ in range(_BISECT_STEPS):
        if not live.size:
            break
        mid = 0.5 * (a[live] + b[live])
        fm = fun(mid)
        left = np.sign(fa[live]) * np.sign(fm) <= 0.0
        b[live[left]] = mid[left]
        a[live[~left]], fa[live[~left]] = mid[~left], fm[~left]
        live = live[~(b[live] - a[live] < 1e-15 * (1.0 + np.abs(a[live])))]
    return 0.5 * (a + b)
