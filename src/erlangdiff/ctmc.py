"""Exact stationary analysis of the birth-death customer-count chain.

The stationary pmf follows the flow-balance recursion (d per unit mu)
``log nu_k - log nu_{k-1} = log R - log d(k)``.  Rather than accumulating
that recursion (which drifts by ~sqrt(N) ulps over 10^5 states), each log
weight is written in closed form through log-gamma sums, so consecutive
weights still satisfy flow balance to a few ulps and any block of states
can be built on its own.  So nothing window-length is kept: one walk
builds ``_BLOCK`` states at a time wherever the window is read (panel
quadrature takes as many nodes a chunk; ``DiscreteStationary.cells``
carries the chain CDF through it).  The closed form is not exact,
though: its terms of size ~R log R cancel, so its absolute error grows
like |log weight| * eps and the pmf at the mode is off by 1.8e-8 relative
at R = 4.9e6 (ROADMAP item 1 tracks mode-anchored weights).  Truncation
is certified by a geometric tail majorant, moments are re-certified per
order, and all expectations are summed exactly or in extended precision:
tenth moments near critical load span thirty orders of magnitude.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import _special as special
from .model import Check, DerivedQuantities, ModelParams, departure_rate, derive

__all__ = [
    "DiscreteStationary",
    "TruncationError",
    "stationary_pmf",
    "moment",
    "stein_identity_residual",
    "SteinResidual",
    "moment_bound_report",
    "idle_probability_monotone",
]

_REL_MOMENT_TOL = 1e-8
# largest truncation index the doubling may reach before TruncationError
_STATE_CAP = 10**8
# the one scratch unit, read at call time: the window walk builds this many
# states at a time and panel quadrature (``_quad.panel_chunks``) takes about
# this many nodes, so scratch stays O(block), not O(window).  One
# np.getbufsize() buffer, so block sums chain to the one-array sum
# (``_exact_sum``), and 64 KiB an array, so a walk step stays in L2 cache
_BLOCK = 1 << 13


class TruncationError(RuntimeError):
    """Raised when the certified truncation cannot meet a tolerance."""


_LONGDOUBLE_EXACT = np.finfo(np.longdouble).eps < 1e-17


def _exact_sum(terms) -> float | list[float]:
    """Accumulate far below 1 ulp-per-term of double rounding.

    ``terms`` is one array or an iterable of arrays (blocks), summed as
    their concatenation, or of stacked row blocks (rows x states), whose
    rows are summed each as its own stream, bit for bit, into a list.
    Shewchuk summation (exact) for up to 20,000 terms a row;
    extended-precision pairwise summation for more, whose error bound
    log2(n) * 2^-63 relative is orders of magnitude inside the
    compensated-summation contract.  numpy reduces a cast input in buffers
    of ``np.getbufsize()`` elements, one after another, so blocks chained
    through ``initial`` keep the bits of the one-array sum when every block
    but the last is a whole multiple of that size (``_BLOCK`` is).  Falls
    back to exact summation where long double is not wider than double:
    one row still streams, but stacked rows hold every block of the stream,
    O(window) memory, as ``math.fsum`` sums one row at a time.
    """
    stream = iter([terms] if isinstance(terms, np.ndarray) else terms)
    head, size = [], 0
    for block in stream:
        head.append(block)
        size += block.shape[-1]
        if size > 20_000:
            break
    if not head:
        return 0.0
    rows = len(np.atleast_2d(head[0]))
    blocks = (np.atleast_2d(block) for part in (head, stream) for block in part)
    if size <= 20_000:
        sums = [math.fsum(row) for row in np.concatenate(list(blocks), axis=1).tolist()]
    elif not _LONGDOUBLE_EXACT:
        blocks = list(blocks) if rows > 1 else blocks
        sums = [math.fsum(t for b in blocks for t in b[r].tolist()) for r in range(rows)]
    else:
        acc = [np.longdouble(0.0)] * rows
        for block in blocks:
            acc = [np.sum(row, dtype=np.longdouble, initial=a) for row, a in zip(block, acc)]
        sums = list(map(float, acc))
    return sums if head[0].ndim > 1 else sums[0]


def _log_weights(derived: DerivedQuantities, k_lo: int, k_hi: int) -> np.ndarray:
    """log of the unnormalized stationary weights for k = k_lo..k_hi.

    Closed form: prod_{j<=k} R/d(j) becomes log-gamma sums, split at the
    server count where the death rate switches from k to n + a*q.
    Each entry depends on its own k only, so a sub-range carries the same
    values as the full grid.
    """
    n, a = derived.n, derived.a
    r = derived.R
    log_r = math.log(r)
    if derived.is_erlang_c:
        log_q = math.log(r / n)
    else:
        base = n / a
        log_q = log_r - math.log(a)
        log_base = special.gammaln(base + 1.0)
    # from state n on, served = n: served*log(r) - lgamma(served + 1) is one
    # constant there, and the queue k - n is exact in floats
    served_n = float(n) * log_r - special.gammaln(float(n) + 1.0)
    ell = np.empty(k_hi - k_lo + 1)
    below = min(max(n - k_lo, 0), ell.size)  # states k < n: served = k, no queue
    k = np.arange(k_lo, k_lo + below, dtype=float)
    queue = np.arange(k_lo + below - n, k_hi + 1 - n, dtype=float)
    # each part's last addition writes into the output, and an empty part
    # skips gammaln: joining one-shot parts made walk-bound ops 5% slower
    if below:  # the empty queue's term: -0.0 may become +0.0
        np.add(k * log_r - special.gammaln(k + 1.0), 0.0 * log_q, out=ell[:below])
    np.add(queue * log_q, served_n, out=ell[below:])
    if queue.size and not derived.is_erlang_c:
        # below n this term is lgamma(base + 1) - log_base = +0.0
        ell[below:] -= special.gammaln(queue + (base + 1.0)) - log_base
    return ell


def _log_weight_blocks(derived: DerivedQuantities, k_lo: int, k_hi: int):
    """(k, log weights of states k, k+1, ...) for k_lo..k_hi, ``_BLOCK``
    states at a time (read at call time): the one loop over a window."""
    for lo in range(k_lo, k_hi + 1, _BLOCK):
        yield lo, _log_weights(derived, lo, min(lo + _BLOCK - 1, k_hi))


def _log_weight(derived: DerivedQuantities, k: int) -> float:
    return float(_log_weights(derived, k, k)[0])


# States whose weight is below 1e-32 of the mode's are left out of the
# arrays.  Cutting shallower changes the rounding path of the chain CDF
# (``np.cumsum``) and with it the last digits of d_W.
_WINDOW_CUT = math.log(1e-32)


def _mode(derived: DerivedQuantities) -> int:
    """Largest k with d(k) <= R, where the weights peak; TruncationError past the state cap."""
    above = lambda k: departure_rate(derived, k) > derived.R  # noqa: E731
    return _capped(bisect_left(range(_STATE_CAP + 2), True, key=above) - 1)  # d nondecreasing


def _geometric_majorant(p: float, ratio: float, a: float, m: int, delta: float) -> float:
    """Bound on sum_{j>=1} p ratio^j (a + j delta)^m.

    (a + j delta)^m <= a^m exp(j m delta / a), so the sum is geometric with
    ratio ``ratio * exp(m delta / a)``.
    """
    if m == 0:
        return p * ratio / (1.0 - ratio) if ratio < 1.0 else math.inf
    q_eff = ratio * math.exp(m * delta / a)
    if q_eff >= 1.0:
        return math.inf
    try:
        return p * a**m * q_eff / (1.0 - q_eff)
    except OverflowError:  # a^m past the double range: the bound says nothing
        return math.inf


@dataclass(frozen=True)
class DiscreteStationary:
    """Exact stationary pmf of the chain on the states that carry mass.

    The window is the states k_min..k_top whose weight is within 1e-32 of
    the mode's (1e-64, 1e-96, ... where the states past a shallower cut
    alone would spoil a certified moment), with scaled coordinates
    x_k = delta*(k - x_inf).  Only the two scalars that normalize it are
    held: the largest log weight ``ell_max`` and the log normalizer
    ``log_z``.  The log pmf of any state is the closed-form log weight
    minus ``ell_max`` minus ``log_z``, and every read of the window goes
    through one walk (``_walk``), which builds x and the pmf ``_BLOCK``
    states at a time and drops them after.  One holding rule follows:
    nothing window-length is kept.  ``log_pmf``, ``pmf`` and ``x`` build
    their window array anew on each read; the moments, the tail bounds,
    the distances, the decompositions and the Stein-identity residual read
    the walk, and each window quantity they share has one owner here: the
    chain CDF at the cell edges ``cells``, which P(X~ <= t) ``cdf`` reads,
    interval masses ``prob_interval``, the states the decompositions keep
    ``kept`` and the sums of |x + offset|^m pmf ``_abs_moment_sum``.
    ``k_max >= k_top`` is the certified truncation index and ``tail_ratio``
    = R/d(k_max + 1) its tail ratio.  ``tail_bound`` certifies all the
    mass left out: the head below k_min, the gap (k_top, k_max] and the
    tail beyond k_max.
    """

    derived: DerivedQuantities
    k_min: int
    k_top: int
    k_max: int
    ell_max: float
    log_z: float
    # the window sums ``_abs_moment_sum`` took, by (m, offset)
    _abs_moment_sums: dict[tuple[int, float], float] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def _size(self) -> int:
        return self.k_top - self.k_min + 1

    def _walk(
        self, start: int = 0, stop: int | None = None, log: bool = False, edge: bool = False
    ):
        """(i, x, pmf) of window positions i, i+1, ... for the positions
        start..stop-1 (the log pmf if ``log``), ``_BLOCK`` at a time, each
        block built from the closed form; with ``edge``, x also holds the
        next block's first state, the right edge of the block's last cell.
        Positions past k_top are walked the same way."""
        stop = self._size if stop is None else stop
        for k, ell in _log_weight_blocks(self.derived, self.k_min + start, self.k_min + stop - 1):
            ell -= self.ell_max
            ell -= self.log_z
            # float states are exact below 2^53: delta*(states - x_inf) bit
            # for bit, without an int64 copy of the block
            x = np.arange(k, k + ell.size + edge, dtype=float)
            x -= self.derived.x_inf
            x *= self.derived.delta
            yield k - self.k_min, x, ell if log else np.exp(ell, out=ell)

    def _whole(self, item: int, log: bool = False) -> np.ndarray:
        """Item ``item`` (1: x, 2: the pmf) of every walk block, in one
        window array built anew on each read."""
        out = np.empty(self._size)
        for block in self._walk(log=log):
            out[block[0] : block[0] + block[item].size] = block[item]
        return out

    log_pmf = property(lambda self: self._whole(2, log=True))
    pmf = property(lambda self: self._whole(2))
    x = property(lambda self: self._whole(1))

    @cached_property
    def _ends(self) -> dict[int, tuple[float, float]]:
        """(x, pmf) of the states k_min, k_top and k_max, each read once
        through the walk, so bit for bit as in ``x`` and ``pmf``."""
        ends = {}
        for k in {self.k_min, self.k_top, self.k_max}:
            _, x, p = next(self._walk(k - self.k_min, k - self.k_min + 1))
            ends[k] = float(x[0]), float(p[0])
        return ends

    @cached_property
    def kept(self) -> slice:
        """Window positions from the first to the last state whose pmf
        exceeds 1e-16, found in one walk: the states the decompositions
        read.  A contiguous slice: isolated sub-threshold states in the
        middle would complicate the panel bookkeeping for no measurable gain."""
        cut = 1e-16
        ends = [i + np.flatnonzero(p > cut)[[0, -1]] for i, _, p in self._walk() if p.max() > cut]
        return slice(int(ends[0][0]), int(ends[-1][1]) + 1)

    def _abs_moment_sum(self, m: int, offset: float) -> float:
        """sum |x + offset|^m pmf over the window, taken on first read and
        kept: ``stationary_pmf`` certifies order-m moments with it and
        ``moment`` certifies against it."""
        sums = self._abs_moment_sums
        if (m, offset) not in sums:
            sums[m, offset] = _exact_sum(_moment_terms(self, slice(None), offset, m))
        return sums[m, offset]

    @property
    def x_max(self) -> float:
        """Scaled coordinate of k_max."""
        return self._ends[self.k_max][0]

    @cached_property
    def tail_ratio(self) -> float:
        return float(self.derived.R / departure_rate(self.derived, self.k_max + 1))

    @cached_property
    def tail_bound(self) -> float:
        return self.moment_tail_bound(0)

    def _position(self, t: float) -> int:
        """The number of window states with x <= t, by bisection on
        x_k = delta*(k - x_inf), rounded as the walk rounds it."""
        der, k_min = self.derived, self.k_min
        right = lambda k: (k - der.x_inf) * der.delta > t  # noqa: E731
        return bisect_left(range(self.k_top + 1), True, k_min, key=right) - k_min

    def cells(self, stop: int | None = None):
        """(i, x, c) of each walk block from window position i up to stop:
        its cell edges x (its states and the next block's first) and the
        chain CDF c right of each edge but the last.  Each block's cumsum
        starts from the last sum so far, so c keeps one cumsum's bits.  The
        flat stretch k_top..k_max ends the window's last block as one cell,
        two if the kink -zeta falls inside (which keeps d_W's bits)."""
        flat = [-self.derived.zeta] if self.k_top < self.derived.n < self.k_max else []
        flat += [self.x_max] if self.k_top < self.k_max else []
        before = 0.0
        for i, x, p in self._walk(0, stop, edge=True):
            p[0] += before
            c = np.cumsum(p, out=p)
            if i + c.size == self._size:
                x, c = np.append(x[:-1], flat), np.append(c, [c[-1]] * len(flat))
            yield i, x, c
            before = c[-1]

    def cdf(self, t) -> np.ndarray:
        """P(scaled state <= t), a right-continuous step: ``cells`` up to the largest t."""
        t_arr = np.asarray(t, dtype=float)
        out = np.zeros(t_arr.shape)
        for _, x, c in self.cells(self._position(np.max(t_arr, initial=-np.inf))):
            j = np.searchsorted(x[: c.size], t_arr, side="right")
            np.copyto(out, c[j - 1], where=j > 0)
        return out if np.ndim(t) else float(out)

    def prob_interval(self, lo: float, hi: float) -> float:
        """P(lo < scaled state <= hi), walked from the first state past lo."""
        walk = self._walk(self._position(lo), self._position(hi))
        return float(_exact_sum(p for _, _, p in walk))

    def moment_tail_bound(self, m: int, shift: float = 0.0, past_k_max: bool = True) -> float:
        """Upper bound on what the states left out add to E|X+shift|^m.

        Each region gets a geometric majorant from its edge state, with
        |x_k + shift| <= |x_edge| + |shift| + delta*|k - edge|: the head
        below k_min backwards (nu_{k-1}/nu_k = d(k)/R <= d(k_min)/R
        there), the gap past k_top and the tail past k_max forwards
        (nu_{k+1}/nu_k = R/d(k+1) <= R/d(edge+1)); the last only if ``past_k_max``.
        """
        der = self.derived
        delta = der.delta
        s = abs(shift)
        bound = 0.0
        if past_k_max:
            x, pmf = self._ends[self.k_max]
            bound = _geometric_majorant(pmf, self.tail_ratio, x + s, m, delta)
        if self.k_min > 0:
            ratio = departure_rate(der, self.k_min) / der.R
            x, pmf = self._ends[self.k_min]
            bound += _geometric_majorant(pmf, ratio, max(abs(x) + s, delta), m, delta)
        if self.k_top < self.k_max:
            ratio = der.R / departure_rate(der, self.k_top + 1)
            x, pmf = self._ends[self.k_top]
            bound += _geometric_majorant(pmf, ratio, max(abs(x) + s, delta), m, delta)
        return bound


def _doomed(
    der: DerivedQuantities, k_min: int, k_mode: int, ell_mode: float, k_hi: int, q: float,
    tol: float,
) -> bool:
    """Whether the tail test at k_hi fails for every window, so none is built.

    Death rates are nondecreasing, so the log weights are concave and peak
    at the mode: a closed-form weight above the mode's comes only from the
    terms the closed form cancels (ROADMAP item 1), and no window up to it
    is trusted.  Otherwise, in mode units, every window normalizer is at
    most Z = (k* - k_min + 1) + w(k*) r/(1 - r), with k* = max(n, mode) and
    r = R/d(k* + 1) < 1: no weight tops the mode's, and past k* each falls
    by r or more.  So the test fails where w(k_hi)/Z q/(1 - q) exceeds tol
    by more than a slack that grows with the cancelled terms; where r
    rounds to 1, q to 0 or the slack leaves the double range, no k_hi is.
    """
    n = der.n
    ell_hi = _log_weight(der, k_hi) - ell_mode
    if ell_hi > 0.0:
        return True
    k_star = max(n, k_mode)
    big = max(k_hi, k_star) + 1.0
    try:
        # k log R, k log q and the log-gammas: the terms the closed form cancels
        erlang_c = der.is_erlang_c
        log_d = math.log(n) if erlang_c else abs(math.log(der.a))
        base = 0.0 if erlang_c else n / der.a
        cancelled = big * (2.0 * abs(math.log(der.R)) + log_d)
        slack = 256.0 * np.finfo(float).eps * (cancelled + 3.0 * math.lgamma(big + base)) + 1e-12
        r = der.R / departure_rate(der, k_star + 1)
        ell_star = _log_weight(der, k_star) - ell_mode
        log_z = np.logaddexp(math.log(k_star - k_min + 1), ell_star + math.log(r / (1.0 - r)))
        return ell_hi - log_z + math.log(q / (1.0 - q)) - slack > math.log(tol)
    except (ArithmeticError, ValueError):
        return False


def stationary_pmf(
    params: ModelParams,
    tail_tol: float = 1e-14,
    *,
    moment_order: int = 0,
) -> DiscreteStationary:
    """Exact stationary distribution, truncated with a certified tail bound.

    ``moment_order`` = m additionally certifies that the order-m absolute
    moments E|X~|^m and E|X~ + zeta|^m are unperturbed beyond 1e-8 relative,
    which requires a longer grid than the mass criterion alone when the load
    is near critical.  The truncation index k_max is chosen on the full grid
    0..k_max, but only the window of states that carry mass is summed,
    block by block (see ``DiscreteStationary``); the window edges are found
    by bisection on the concave closed-form log weight.  k_max is the first
    k_hi of a doubling whose window passes the tail test; one rule for both
    models (``_doomed``) passes over, unbuilt, each k_hi whose test must
    fail, so weights that rise past the mode meet the state cap at once.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must be in (0, 1)")
    derived = derive(params)
    k_hi = int(_capped(derived.x_inf + 12.0 * math.sqrt(derived.x_inf) + 60.0))
    k_mode = _mode(derived)
    ell_mode = _log_weight(derived, k_mode)
    floor = ell_mode + _WINDOW_CUT
    heavy = lambda k: _log_weight(derived, k) >= floor  # noqa: E731
    k_min = bisect_left(range(k_mode), True, key=heavy)
    while True:
        q = derived.R / departure_rate(derived, _capped(k_hi) + 1)
        # Erlang-A keeps shrinking q; insist on q <= 1/2 there so the
        # geometric majorant is comfortably certified.
        q_ok = q < 1.0 if derived.is_erlang_c else q <= 0.5
        if q_ok and not _doomed(derived, k_min, k_mode, ell_mode, k_hi, q, tail_tol):
            dist = _truncated_pmf(derived, k_min, floor, k_hi, q, tail_tol)
            if dist is not None and moment_order:
                dist = _with_certified_moments(dist, moment_order)
            if dist is True:
                # states the window cut off spoil a moment, so no k_hi can
                # mend it: cut 1e-32 deeper (``heavy`` reads the new floor)
                # and try this k_hi again
                floor += _WINDOW_CUT
                k_min = bisect_left(range(k_mode), True, key=heavy)
                continue
            if dist is not None:
                return dist
        k_hi = 2 * k_hi + 64


def _capped(k_hi):
    """k_hi (a float by its integer part); TruncationError past the state cap."""
    if not k_hi < _STATE_CAP + 1:
        raise TruncationError(
            f"stationary grid would exceed {_STATE_CAP} states; "
            "parameters are pathological for exact summation"
        )
    return k_hi


def _truncated_pmf(
    derived: DerivedQuantities,
    k_min: int,
    floor: float,
    k_hi: int,
    q: float,
    tail_tol: float,
) -> DiscreteStationary | None:
    """The window pmf truncated at k_hi, or None if its tail exceeds tail_tol.

    The window ends at the last state up to k_hi whose log weight is at
    least ``floor``.  Its largest log weight and its normalizer take one
    closed-form pass each, block by block (the first stops at n in
    Erlang-C).  The tail test reads the weight at k_hi from the closed
    form, against the window's normalizer.
    """
    light = lambda k: _log_weight(derived, k) < floor  # noqa: E731
    k_top = bisect_left(range(k_hi + 1), True, k_min, key=light) - 1
    # past n an Erlang-C log weight is c + (k - n) log q with log q < 0, and
    # rounding keeps that nonincreasing in k, so its maximum lies at or below n
    k_peak = min(k_top, derived.n) if derived.is_erlang_c else k_top
    blocks = partial(_log_weight_blocks, derived, k_min)
    ell_max = np.max([ell.max() for _, ell in blocks(k_peak)])
    shifted_end = np.float64(_log_weight(derived, k_hi) - ell_max)
    z = _exact_sum(np.exp(np.subtract(ell, ell_max, out=ell), out=ell) for _, ell in blocks(k_top))
    with np.errstate(over="ignore"):  # an overflowing weight fails the test
        tail = (np.exp(shifted_end) / z) * q / (1.0 - q)
    if tail > tail_tol:
        return None
    return DiscreteStationary(derived, k_min, k_top, k_hi, float(ell_max), math.log(z))


def _with_certified_moments(dist: DiscreteStationary, m: int) -> DiscreteStationary | bool | None:
    """dist, with the window sums of |x|^m pmf (and of |x + zeta|^m pmf
    where it took that one) kept on it, or, if its tails could move
    either sum by more than 1e-8 relative, True where only a wider window
    can mend that and None where a longer grid may.

    The window has unit mass, so Minkowski gives the floor
    (sum |x|^m pmf)^(1/m) - |zeta| <= (sum |x + zeta|^m pmf)^(1/m); the
    shifted sum takes a second pass only where that floor, shaded down by
    1e-9 for rounding, is too low to certify it.
    """

    def only_wider(shift: float, scale: float) -> bool | None:
        # a window that ends below k_max, and so the bound on the states it
        # cuts off below k_max, is the same for every k_max
        cut_off = dist.moment_tail_bound(m, shift, past_k_max=False)
        return True if dist.k_top < dist.k_max and cut_off > _REL_MOMENT_TOL * scale else None

    bound = dist.moment_tail_bound(m)
    if not math.isfinite(bound):
        return None
    total = dist._abs_moment_sum(m, 0.0)
    if bound > _REL_MOMENT_TOL * total:
        return only_wider(0.0, total)
    zeta = dist.derived.zeta
    shifted_bound = dist.moment_tail_bound(m, shift=zeta)
    floor = max(total ** (1.0 / m) - abs(zeta), 0.0) ** m
    if shifted_bound > _REL_MOMENT_TOL * floor * (1.0 - 1e-9):
        scale = max(dist._abs_moment_sum(m, zeta), np.finfo(float).tiny)
        if shifted_bound > _REL_MOMENT_TOL * scale:
            return only_wider(zeta, scale)
    return dist


def _moment_terms(
    dist: DiscreteStationary, part: slice, offset: float, m: int, absolute: bool = True
):
    """Blocks of |x + offset|^m * pmf (the signed power if not absolute)
    over the window slice ``part``, one per walk block: every term keeps
    the bits of the one-array form and nothing window-length is held.
    """
    start, stop, _ = part.indices(dist._size)
    for _, terms, pmf in dist._walk(start, stop):
        terms += offset
        if absolute:
            np.abs(terms, out=terms)
        terms **= m
        terms *= pmf
        yield terms


def _region_slice(dist: DiscreteStationary, region: str) -> slice:
    """Window indices of the states k <= n ("below") or k >= n ("above")."""
    at_n = dist.derived.n - dist.k_min  # may lie outside the window
    if region == "all":
        return slice(None)
    if region == "below":
        return slice(0, max(at_n + 1, 0))
    if region == "above":
        return slice(max(at_n, 0), None)
    raise ValueError(f"unknown region {region!r}")


def moment(
    dist: DiscreteStationary,
    m: int,
    region: str = "all",
    shift: str = "none",
    *,
    absolute: bool = True,
) -> float:
    """E[|g(X~)|^m 1(region)] with g(x) = x (shift="none") or x + zeta.

    Regions cut exactly at the grid point -zeta (state k = n); "below" and
    "above" are the weak inequalities.  ``absolute=False`` yields the signed
    moment.  Terms are summed exactly over the pmf window; the mass left out
    (head, gap and tail) is re-certified for this order and a TruncationError
    signals if it could move the result by more than 1e-8 of the
    full-support absolute moment.  A region whose mass lies wholly
    outside the window, such as P(X <= n) in an overloaded Erlang-A model
    with n < k_min, therefore reads exactly 0.
    """
    if m < 0 or m > 20:
        raise ValueError("moment order must be in 0..20")
    if shift == "none":
        offset = 0.0
    elif shift == "plus_zeta":
        offset = dist.derived.zeta
    else:
        raise ValueError(f"unknown shift {shift!r}")
    part = _region_slice(dist, region)
    # certify against the full-support absolute moment, the whole-window
    # result: a region whose mass sits below the window's cut is exactly 0
    # in double precision, which no tail tolerance makes relatively accurate
    scale = dist._abs_moment_sum(m, offset)
    tail = dist.moment_tail_bound(m, shift=offset)
    if tail > _REL_MOMENT_TOL * max(scale, np.finfo(float).tiny):
        raise TruncationError(
            f"truncated tail could perturb moment of order {m} by more "
            f"than {_REL_MOMENT_TOL} relative; rebuild the pmf with "
            "moment_order or a smaller tail_tol"
        )
    if region == "all" and absolute:
        return scale
    return _exact_sum(_moment_terms(dist, part, offset, m, absolute))


class SteinResidual(NamedTuple):
    residual: float
    tolerance: float


def stein_identity_residual(
    dist: DiscreteStationary, f: Callable[[np.ndarray], np.ndarray]
) -> SteinResidual:
    """|E G f(X~)| per unit mu over the exact pmf, with its truncation/rounding budget.

    ``f`` must accept numpy arrays and have at-most-quadratic growth (checked
    numerically on the truncated support).  For the stationary law the
    expectation over the window k_min..k_top telescopes through flow balance,
    so the residual is pure truncation (R * nu_top * forward difference at
    the top, d(k_min) * nu_min * backward difference at the bottom) plus
    rounding.  It walks the window, f taken on each block with one state of
    halo either side (x_min - delta and x_top + delta at the ends).  A
    ``PoissonSolution``'s f is its ``antiderivative``, a running sum that
    each block starts from the value the block before reached at the
    block's first point, so it keeps the bits of one pass over the window.
    """
    g = getattr(f, "antiderivative", None) or (lambda xs, _: f(xs))
    der, delta = dist.derived, dist.derived.delta
    r, parts = der.R, []  # per block: bottom and top boundary terms, rounding

    def terms():
        xs = fx = None
        for i, x, p in dist._walk(edge=True):
            if i + p.size == dist._size:
                x[-1] = x[-2] + delta
            xs = np.concatenate(([x[0] - delta] if xs is None else xs[-2:-1], x))
            fx = np.asarray(g(xs, 0.0 if fx is None else fx[-2]), dtype=float)
            if not np.isfinite(np.max(np.abs(fx) / (1.0 + xs**2))):
                raise ValueError("test function is not dominated by a quadratic")
            fwd, bwd = fx[2:] - fx[1:-1], fx[:-2] - fx[1:-1]
            rates = departure_rate(der, np.arange(dist.k_min + i, dist.k_min + i + p.size))
            top = r * float(p[-1]) * abs(float(fwd[-1]))
            # the rounding budget, not printed, needs no exact sum
            rounding = np.sum(p * (r * np.abs(fwd) + rates * np.abs(bwd)))
            parts.append((float(rates[0] * p[0] * abs(bwd[0])), top, rounding))
            yield p * (r * fwd + rates * bwd)

    residual = abs(_exact_sum(terms()))
    rounding = 64.0 * np.finfo(float).eps * math.fsum(part[2] for part in parts)
    return SteinResidual(residual, parts[-1][1] + parts[0][0] + rounding)


_moment_row = partial(Check.at_most, rtol=1e-12, atol=1e-12)


def moment_bound_report(dist: DiscreteStationary) -> list[Check]:
    """Evaluate every closed-form stationary moment bound for the regime.

    Left sides come exactly from the pmf, right sides from the printed
    closed forms.  Each regime is a table of (name, order, region, shift,
    bound) rows; each distinct moment is evaluated once.  Violations are
    reported (satisfied=False), not raised: they would indicate an
    implementation bug, not a data error.
    """
    derived = dist.derived
    delta = derived.delta
    az = abs(derived.zeta)
    inv_az = math.inf if az == 0.0 else 1.0 / az
    ratio = derived.a
    q = delta**2 / 4.0  # delta^2/4 enters most bounds below

    if derived.is_erlang_c:
        cap = 4.0 / 3.0 + 2.0 * delta**2 / 3.0
        table = [
            ("xsquare_below", 2, "below", "none", cap),
            ("xabs_below_o1", 1, "below", "none", math.sqrt(cap)),
            ("xabs_below_zeta", 1, "below", "none", 2.0 * az),
            ("xabs_above", 1, "above", "none", inv_az + q * inv_az + delta / 2.0),
            ("idle_prob", 0, "below", "none", (2.0 + delta) * az),
        ]
    elif derived.R <= derived.n:
        cap1 = (ratio * delta**2 + delta**2 + 4.0) / 3.0
        cap2 = ((1.0 / ratio) * delta**2 + 4.0 / ratio + delta**2) / 3.0
        xabs_above = (1.0 + q + delta / 2.0 * math.sqrt(cap1)) * min(1.0 / min(1.0, ratio), inv_az)
        table = [
            ("u_xsquare_below", 2, "below", "none", cap1),
            ("u_xabs_below_o1", 1, "below", "none", math.sqrt(cap1)),
            ("u_xabs_below_zeta", 1, "below", "none", 2.0 * az + ratio * math.sqrt(cap2)),
            ("u_xabs_above", 1, "above", "none", xabs_above),
            ("u_shift_square_above", 2, "above", "plus_zeta", cap2),
            ("u_shift_above_o1", 1, "above", "plus_zeta", math.sqrt(cap2)),
            ("u_shift_above_zeta", 1, "above", "plus_zeta", inv_az * (q * ratio + q + 1.0)),
            ("u_idle_prob", 0, "below", "none", (2.0 + delta) * (az + ratio * math.sqrt(cap2))),
        ]
    else:
        cap3 = (delta**2 + 4.0 / ratio) / 3.0
        xabs_below = math.sqrt((ratio * delta**2 / 4.0 + 1.0) / min(ratio, 1.0))
        idle = (
            (3.0 + delta)
            * (16.0 / math.sqrt(2.0))
            * (q + 1.0)
            * min(max(inv_az, ratio), math.sqrt(ratio))
        )
        table = [
            ("o_xabs_below_o1", 1, "below", "none", xabs_below),
            ("o_xabs_below_zeta", 1, "below", "none", inv_az * (q + 1.0 / ratio)),
            ("o_xsquare_above", 2, "above", "none", cap3),
            ("o_xabs_above", 1, "above", "none", math.sqrt(cap3)),
            ("o_shift_below_zeta", 1, "below", "plus_zeta", inv_az * (q + 1.0)),
            ("o_shift_square_below", 2, "below", "plus_zeta", q * ratio + 1.0),
            ("o_shift_below_o1", 1, "below", "plus_zeta", math.sqrt(q * ratio + 1.0)),
            ("o_shift_below_mix", 1, "below", "plus_zeta", ratio * math.sqrt(cap3)),
            ("o_idle_prob", 0, "below", "none", idle),
        ]

    values: dict[tuple[int, str, str], float] = {}
    rows = []
    for name, m, region, shift, bound in table:
        if (m, region, shift) not in values:
            values[m, region, shift] = moment(dist, m, region, shift)
        rows.append(_moment_row(name, values[m, region, shift], bound))
    if derived.is_erlang_c:
        if derived.R >= 1.0:
            above_prob = moment(dist, 0, "above")
            rows.append(_moment_row("zeta_times_above_prob", az * above_prob, 7.0 / 4.0))
        idle_expect = moment(dist, 1, "below", "plus_zeta")
        ok = abs(idle_expect - az) <= 1e-10 * max(1.0, az)
        rows.append(Check("idle_expect_identity", idle_expect, az, ok))
    return rows


def idle_probability_monotone(
    mu: float, n: int, alpha: float, lambdas: Sequence[float], tail_tol: float = 1e-12
) -> list[float]:
    """P(X <= n) for each arrival rate, holding (n, mu, alpha) fixed.

    For alpha > 0 the sequence is nonincreasing in lambda: busier systems
    are less likely to have idle servers.
    """
    if alpha <= 0.0:
        raise ValueError("the comparison family requires alpha > 0")
    out = []
    for lam in lambdas:
        dist = stationary_pmf(ModelParams(lam=lam, mu=mu, n=n, alpha=alpha), tail_tol)
        out.append(moment(dist, 0, "below"))
    return out
