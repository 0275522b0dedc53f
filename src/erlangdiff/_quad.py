"""Gauss-Legendre panel quadrature helpers.

Integrands here are smooth on each panel once panels are split at the drift
kink and test-function breakpoints, so a fixed high-order rule reaches
machine precision; absolute-value integrands additionally get panels split
at sign changes located by bisection.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np

_ORDER = 24


@lru_cache(maxsize=8)
def _gl_rule(order: int = _ORDER) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def panel_nodes(
    lo: np.ndarray, hi: np.ndarray, order: int = _ORDER
) -> tuple[np.ndarray, np.ndarray]:
    """Node matrix and weight matrix for panels [lo_i, hi_i]."""
    nodes, weights = _gl_rule(order)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    wts = half[:, None] * weights[None, :]
    return pts, wts


def integrate_panels(
    fun: Callable[[np.ndarray], np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    order: int = _ORDER,
) -> np.ndarray:
    """Vectorized int_{lo_i}^{hi_i} fun for smooth fun."""
    pts, wts = panel_nodes(lo, hi, order)
    vals = fun(pts.ravel()).reshape(pts.shape)
    return np.sum(vals * wts, axis=1)


def _split_edges(lo: float, hi: float, splits: tuple[float, ...]) -> list[float]:
    """Panel edges of [lo, hi] with the splits strictly inside it."""
    return [lo] + sorted(s for s in splits if lo < s < hi) + [hi]


def integrate_with_splits(
    fun: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    splits: tuple[float, ...] = (),
    order: int = _ORDER,
) -> float:
    """int_lo^hi fun with interior breakpoints inserted as panel edges."""
    edges_arr = np.asarray(_split_edges(lo, hi, splits))
    return float(np.sum(integrate_panels(fun, edges_arr[:-1], edges_arr[1:], order)))


def integrate_abs_with_splits(
    fun: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    splits: tuple[float, ...] = (),
    order: int = _ORDER,
) -> float:
    """int_lo^hi |fun| with breakpoints at splits and at located sign changes.

    fun must be continuous on each split panel.
    """
    edges = _split_edges(lo, hi, splits)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += _abs_panel(fun, a, b, order)
    return total


def _abs_panel(fun, a: float, b: float, order: int) -> float:
    # interior probes only: panel endpoints may sit exactly on kinks where
    # the integrand is undefined pointwise
    probe = a + (b - a) * np.arange(1, 10) / 10.0
    vals = fun(probe)
    signs = np.sign(vals)
    if np.all(signs >= 0) or np.all(signs <= 0):
        return abs(float(np.sum(integrate_panels(fun, np.array([a]), np.array([b]), order))))
    # locate each sign change by bisection and integrate the pieces
    roots = []
    for i in range(len(probe) - 1):
        if signs[i] * signs[i + 1] < 0:
            roots.append(_bisect_root(fun, float(probe[i]), float(probe[i + 1])))
    edges = [a] + roots + [b]
    total = 0.0
    for u, v in zip(edges[:-1], edges[1:]):
        total += abs(
            float(np.sum(integrate_panels(fun, np.array([u]), np.array([v]), order)))
        )
    return total


def _bisect_root(fun, a: float, b: float, iters: int = 80) -> float:
    fa = float(fun(np.array([a]))[0])
    for _ in range(iters):
        mid = 0.5 * (a + b)
        fm = float(fun(np.array([mid]))[0])
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a < 1e-15 * (1.0 + abs(a)):
            break
    return 0.5 * (a + b)
