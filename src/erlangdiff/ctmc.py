"""Exact stationary analysis of the birth-death customer-count chain.

The stationary pmf follows the flow-balance recursion
``log nu_k - log nu_{k-1} = log lam - log d(k)``.  Rather than accumulating
that recursion (which drifts by ~sqrt(N) ulps over 10^5 states), each log
weight is written in closed form through log-gamma sums, so consecutive
weights still satisfy flow balance to a few ulps and any block of states
can be built on its own.  So no window is held: one walk builds it
``_BLOCK`` states at a time wherever it is read, and only the verify
suites keep its ``pmf`` and ``x``.  The closed form is not exact, though:
its terms of size ~R log R cancel, so its absolute error grows like
|log weight| * eps and the pmf at the mode is off by 1.8e-8 relative at
R = 4.9e6 (ROADMAP item 1 tracks mode-anchored weights).  Truncation is
certified by a geometric tail majorant, moments are re-certified per
order, and all expectations are accumulated with exact or
extended-precision summation: tenth moments near critical load span thirty
orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.special import gammaln

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
# the window walk (``_log_weight_blocks``) builds this many states at a
# time, so its scratch stays O(block), not O(window); a whole multiple of
# np.getbufsize(), so block sums chain to the one-array sum (``_exact_sum``)
_BLOCK = 1 << 16


class TruncationError(RuntimeError):
    """Raised when the certified truncation cannot meet a tolerance."""


_LONGDOUBLE_EXACT = np.finfo(np.longdouble).eps < 1e-17


def _exact_sum(terms) -> float:
    """Accumulate far below 1 ulp-per-term of double rounding.

    ``terms`` is one array or an iterable of arrays (blocks), summed as
    their concatenation.  Shewchuk summation (exact) for up to 20,000
    terms; extended-precision pairwise summation for more, whose error
    bound log2(n) * 2^-63 relative is orders of magnitude inside the
    compensated-summation contract.  numpy reduces a cast input in buffers
    of ``np.getbufsize()`` elements, one after another, so blocks chained
    through ``initial`` keep the bits of the one-array sum when every block
    but the last is a whole multiple of that size (``_BLOCK`` is).  Falls
    back to exact summation where long double is not wider than double.
    """
    stream = iter([terms] if isinstance(terms, np.ndarray) else terms)
    head, size = [], 0
    for block in stream:
        head.append(block)
        size += block.size
        if size > 20_000:
            break
    if size <= 20_000:
        return math.fsum(np.concatenate(head).tolist()) if head else 0.0
    blocks = (block for part in (head, stream) for block in part)
    if not _LONGDOUBLE_EXACT:
        return math.fsum(t for block in blocks for t in block.tolist())
    acc = np.longdouble(0.0)
    for block in blocks:
        acc = np.sum(block, dtype=np.longdouble, initial=acc)
    return float(acc)


def _log_weights(params: ModelParams, k_lo: int, k_hi: int) -> np.ndarray:
    """log of the unnormalized stationary weights for k = k_lo..k_hi.

    Closed form: prod_{j<=k} lam/d(j) becomes log-gamma sums, split at the
    server count where the death rate switches from mu*k to n*mu + alpha*q.
    Each entry depends on its own k only, so a sub-range carries the same
    values as the full grid.
    """
    n, mu, alpha = params.n, params.mu, params.alpha
    r = params.offered_load
    log_r = math.log(r)
    if params.is_erlang_c:
        log_q = math.log(r / n)
    else:
        beta = alpha / mu
        base = n / beta
        log_q = log_r - math.log(beta)
        log_base = gammaln(base + 1.0)
    # from state n on, served = n: served*log(r) - lgamma(served + 1) is one
    # constant there, and the queue k - n is exact in floats
    served_n = float(n) * log_r - gammaln(float(n) + 1.0)
    # one output array, split at n; each part runs the operations of the
    # plain array expressions, in their order up to the operands of one
    # addition, so every weight keeps its bits
    ell = np.empty(k_hi - k_lo + 1)
    below = min(max(n - k_lo, 0), ell.size)  # states k < n: served = k, no queue
    if below:
        head = ell[:below]
        k = np.arange(k_lo, k_lo + below, dtype=float)
        np.multiply(k, log_r, out=head)
        k += 1.0
        head -= gammaln(k, out=k)
        head += 0.0 * log_q  # the empty queue's term: -0.0 may become +0.0
    if below < ell.size:
        tail = ell[below:]
        queue = np.arange(k_lo + below - n, k_hi + 1 - n, dtype=float)
        np.multiply(queue, log_q, out=tail)
        tail += served_n
        if not params.is_erlang_c:
            # below n this term is lgamma(base + 1) - log_base = +0.0
            queue += base + 1.0
            queue = gammaln(queue, out=queue)
            queue -= log_base
            tail -= queue
    return ell


def _log_weight_blocks(params: ModelParams, k_lo: int, k_hi: int):
    """(k, log weights of states k, k+1, ...) for k_lo..k_hi, ``_BLOCK``
    states at a time (read at call time): the one loop over a window."""
    for lo in range(k_lo, k_hi + 1, _BLOCK):
        yield lo, _log_weights(params, lo, min(lo + _BLOCK - 1, k_hi))


def _log_weight(params: ModelParams, k: int) -> float:
    return float(_log_weights(params, k, k)[0])


# States whose weight is below 1e-32 of the mode's are left out of the
# arrays.  Cutting shallower changes the rounding path of the chain CDF
# (``np.cumsum``) and with it the last digits of d_W.
_WINDOW_CUT = math.log(1e-32)


def _mode(derived: DerivedQuantities) -> int:
    """Largest k with d(k) <= lam: the weights rise up to it, fall after."""
    params = derived.params
    k = int(derived.x_inf)  # d(x_inf) = lam, up to rounding
    while departure_rate(params, k + 1) <= params.lam:
        k += 1
    while k > 0 and departure_rate(params, k) > params.lam:
        k -= 1
    return k


def _first_true(pred: Callable[[int], bool], lo: int, hi: int) -> int:
    """Smallest k in [lo, hi] with pred(k), for pred monotone on [lo, hi].

    pred(hi) is taken as true without being evaluated.
    """
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


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
    ``pmf`` and ``x`` are kept from their first read, for the verify
    suites; nothing else window-length is kept, and the moments, the tail
    bounds and the distances hold no window-length array.
    ``k_max >= k_top`` is the certified truncation index and ``tail_ratio``
    = lam/d(k_max + 1) its tail ratio.  ``tail_bound`` certifies all the
    mass left out: the head below k_min, the gap (k_top, k_max] and the
    tail beyond k_max.
    """

    derived: DerivedQuantities
    k_min: int
    k_top: int
    k_max: int
    ell_max: float
    log_z: float
    # {(m, offset): sum of |x + offset|^m pmf over the window} for the sums
    # stationary_pmf took while certifying moments of order m (offset 0 and,
    # where the Minkowski floor fell short, zeta); ``moment`` reuses them as
    # its scale
    _abs_moment_sums: dict[tuple[int, float], float] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def params(self) -> ModelParams:
        return self.derived.params

    @property
    def _size(self) -> int:
        return self.k_top - self.k_min + 1

    def _walk(self, start: int = 0, stop: int | None = None, log: bool = False):
        """(i, x, pmf) of window positions i, i+1, ... for the positions
        start..stop-1 (the log pmf if ``log``), ``_BLOCK`` at a time, each
        block built from the closed form.  Positions past k_top are walked
        the same way."""
        stop = self._size if stop is None else stop
        for k, ell in _log_weight_blocks(self.params, self.k_min + start, self.k_min + stop - 1):
            ell -= self.ell_max
            ell -= self.log_z
            # float states are exact below 2^53: delta*(states - x_inf) bit
            # for bit, without an int64 copy of the block
            x = np.arange(k, k + ell.size, dtype=float)
            x -= self.derived.x_inf
            x *= self.derived.delta
            yield k - self.k_min, x, ell if log else np.exp(ell, out=ell)

    def _whole(self, item: int, log: bool = False) -> np.ndarray:
        """Item ``item`` (1: x, 2: the pmf) of every walk block, in one window array."""
        out = np.empty(self._size)
        for block in self._walk(log=log):
            out[block[0] : block[0] + block[item].size] = block[item]
        return out

    @property
    def log_pmf(self) -> np.ndarray:
        return self._whole(2, log=True)

    @cached_property
    def pmf(self) -> np.ndarray:
        return self._whole(2)

    @cached_property
    def x(self) -> np.ndarray:
        return self._whole(1)

    @property
    def states(self) -> np.ndarray:
        return np.arange(self.k_min, self.k_top + 1)

    @cached_property
    def _ends(self) -> dict[int, tuple[float, float]]:
        """(x, pmf) of the states k_min, k_top and k_max, each read once
        through the walk, so bit for bit as in ``x`` and ``pmf``."""
        ends = {}
        for k in {self.k_min, self.k_top, self.k_max}:
            _, x, p = next(self._walk(k - self.k_min, k - self.k_min + 1))
            ends[k] = float(x[0]), float(p[0])
        return ends

    @property
    def x_max(self) -> float:
        """Scaled coordinate of k_max."""
        return self._ends[self.k_max][0]

    @cached_property
    def tail_ratio(self) -> float:
        return float(self.params.lam / departure_rate(self.params, self.k_max + 1))

    @property
    def cdf_values(self) -> np.ndarray:
        return np.cumsum(self.pmf)

    @property
    def death_rates(self) -> np.ndarray:
        return departure_rate(self.params, self.states)

    @cached_property
    def tail_bound(self) -> float:
        return self.moment_tail_bound(0)

    def cdf(self, t) -> np.ndarray:
        """P(scaled state <= t); right-continuous step function."""
        idx = np.searchsorted(self.x, np.asarray(t, dtype=float), side="right")
        out = np.where(idx > 0, self.cdf_values[idx - 1], 0.0)
        return out if np.ndim(t) else float(out)

    def prob_interval(self, lo: float, hi: float) -> float:
        """P(lo < scaled state <= hi)."""
        i = int(np.searchsorted(self.x, lo, side="right"))
        jj = int(np.searchsorted(self.x, hi, side="right"))
        return float(_exact_sum(self.pmf[i:jj])) if jj > i else 0.0

    def moment_tail_bound(self, m: int, shift: float = 0.0, past_k_max: bool = True) -> float:
        """Upper bound on what the states left out add to E|X+shift|^m.

        Each region gets a geometric majorant from its edge state, with
        |x_k + shift| <= |x_edge| + |shift| + delta*|k - edge|: the head
        below k_min backwards (nu_{k-1}/nu_k = d(k)/lam <= d(k_min)/lam
        there), the gap past k_top and the tail past k_max forwards
        (nu_{k+1}/nu_k = lam/d(k+1) <= lam/d(edge+1)); the last only if ``past_k_max``.
        """
        params = self.params
        delta = self.derived.delta
        s = abs(shift)
        bound = 0.0
        if past_k_max:
            x, pmf = self._ends[self.k_max]
            bound = _geometric_majorant(pmf, self.tail_ratio, x + s, m, delta)
        if self.k_min > 0:
            ratio = departure_rate(params, self.k_min) / params.lam
            x, pmf = self._ends[self.k_min]
            bound += _geometric_majorant(pmf, ratio, max(abs(x) + s, delta), m, delta)
        if self.k_top < self.k_max:
            ratio = params.lam / departure_rate(params, self.k_top + 1)
            x, pmf = self._ends[self.k_top]
            bound += _geometric_majorant(pmf, ratio, max(abs(x) + s, delta), m, delta)
        return bound


def _min_useful_k_hi(params: ModelParams, tail_tol: float, ell_mode: float) -> float:
    """A lower bound on every k_hi that can pass the q and tail tests.

    Erlang-A insists on q = lam/d(k_hi + 1) <= 1/2, so d(k_hi + 1) >= 2 lam.
    Erlang-C weights fall by q = R/n per state above n, and the window
    normalizer is at most n mode weights plus nu_n/(1 - q), so a k_hi >= n
    passes the tail test only ``steps`` states or more past n.  Below n the
    weights fall more slowly than that, so the bound says nothing there
    unless even k_hi = n fails: then every k_hi in [mode, n) has a larger
    weight and ratio, hence a larger tail, and fails too (below the mode
    q >= 1).  A bound that rules out nothing is -inf.  It is shaded down by
    0.1% and one state, so rounding never rules out a k_hi that could
    succeed.
    """
    lam, mu, n = params.lam, params.mu, params.n
    if not params.is_erlang_c:
        need = 2.0 * lam
        k_q = need / mu if need <= n * mu else n + (need - n * mu) / params.alpha
        return 0.999 * k_q - 2.0
    q = params.offered_load / n
    log_q = math.log(q)
    log_1mq = math.log((n - params.offered_load) / n)
    log_wn = _log_weight(params, n) - ell_mode
    log_z = float(np.logaddexp(math.log(n), log_wn - log_1mq))
    excess = math.log(tail_tol) + log_z + log_1mq - log_q - log_wn
    steps = excess / log_q
    if steps <= 1.0:
        return -math.inf
    return n + 0.999 * steps - 1.0


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
    by bisection on the concave closed-form log weight.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must be in (0, 1)")
    derived = derive(params)
    k_mode = _mode(derived)
    ell_mode = _log_weight(params, k_mode)
    floor = ell_mode + _WINDOW_CUT
    k_min = _first_true(lambda k: _log_weight(params, k) >= floor, 0, k_mode)
    k_hi = int(derived.x_inf + 12.0 * math.sqrt(derived.x_inf) + 60.0)
    # no k_hi below this bound passes the q and tail tests: start the
    # doubling at the first one that can, and past the state cap, fail now
    k_need = _min_useful_k_hi(params, tail_tol, ell_mode)
    while k_hi < k_need and k_hi <= _STATE_CAP:
        k_hi = 2 * k_hi + 64
    while True:
        if k_hi > _STATE_CAP:
            raise TruncationError(
                f"stationary grid would exceed {_STATE_CAP} states; "
                "parameters are pathological for exact summation"
            )
        q = params.lam / departure_rate(params, k_hi + 1)
        # Erlang-A keeps shrinking q; insist on q <= 1/2 there so the
        # geometric majorant is comfortably certified.
        q_ok = q < 1.0 if params.is_erlang_c else q <= 0.5
        if q_ok:
            dist = _truncated_pmf(derived, k_min, floor, k_hi, q, tail_tol)
            if dist is not None and moment_order:
                dist = _with_certified_moments(dist, moment_order)
            if dist is True:
                # states the window cut off spoil a moment, so no k_hi can
                # mend it: cut 1e-32 deeper and try this k_hi again
                floor += _WINDOW_CUT
                k_min = _first_true(lambda k: _log_weight(params, k) >= floor, 0, k_mode)
                continue
            if dist is not None:
                return dist
        k_hi = 2 * k_hi + 64


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
    params = derived.params
    k_top = _first_true(lambda k: _log_weight(params, k) < floor, k_min, k_hi + 1) - 1
    # past n an Erlang-C log weight is c + (k - n) log q with log q < 0, and
    # rounding keeps that nonincreasing in k, so its maximum lies at or below n
    k_peak = min(k_top, params.n) if params.is_erlang_c else k_top
    blocks = partial(_log_weight_blocks, params, k_min)
    ell_max = np.max([ell.max() for _, ell in blocks(k_peak)])
    shifted_end = np.float64(_log_weight(params, k_hi) - ell_max)
    z = _exact_sum(np.exp(np.subtract(ell, ell_max, out=ell), out=ell) for _, ell in blocks(k_top))
    tail = (np.exp(shifted_end) / z) * q / (1.0 - q)
    if tail > tail_tol:
        return None
    return DiscreteStationary(derived, k_min, k_top, k_hi, float(ell_max), math.log(z))


def _with_certified_moments(dist: DiscreteStationary, m: int) -> DiscreteStationary | bool | None:
    """dist, with the window sums of |x|^m pmf (and of |x + zeta|^m pmf
    where it took that one) recorded on it, or, if its tails could move
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
    total = _exact_sum(_moment_terms(dist, slice(None), 0.0, m))
    if bound > _REL_MOMENT_TOL * total:
        return only_wider(0.0, total)
    zeta = dist.derived.zeta
    shifted_bound = dist.moment_tail_bound(m, shift=zeta)
    floor = max(total ** (1.0 / m) - abs(zeta), 0.0) ** m
    sums = dist._abs_moment_sums
    sums[m, 0.0] = total
    if shifted_bound > _REL_MOMENT_TOL * floor * (1.0 - 1e-9):
        sums[m, zeta] = _exact_sum(_moment_terms(dist, slice(None), zeta, m))
        scale = max(sums[m, zeta], np.finfo(float).tiny)
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
    at_n = dist.params.n - dist.k_min  # may lie outside the window
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
    result = _exact_sum(_moment_terms(dist, _region_slice(dist, region), offset, m, absolute))
    # certify against the full-support absolute moment: a region whose true
    # mass sits below the window's cut is exactly 0 in double precision and
    # no tail tolerance could make it relatively accurate
    if region == "all" and absolute:
        scale = result
    elif (m, offset) in dist._abs_moment_sums:
        scale = dist._abs_moment_sums[m, offset]
    else:
        scale = _exact_sum(_moment_terms(dist, slice(None), offset, m))
    tail = dist.moment_tail_bound(m, shift=offset)
    if tail > _REL_MOMENT_TOL * max(scale, np.finfo(float).tiny):
        raise TruncationError(
            f"truncated tail could perturb moment of order {m} by more "
            f"than {_REL_MOMENT_TOL} relative; rebuild the pmf with "
            "moment_order or a smaller tail_tol"
        )
    return result


class SteinResidual(NamedTuple):
    residual: float
    tolerance: float


def stein_identity_residual(
    dist: DiscreteStationary, f: Callable[[np.ndarray], np.ndarray]
) -> SteinResidual:
    """|E G f(X~)| over the exact pmf, with its truncation/rounding budget.

    ``f`` must accept numpy arrays and have at-most-quadratic growth (checked
    numerically on the truncated support).  For the stationary law the
    expectation over the window k_min..k_top telescopes through flow balance,
    so the residual is pure truncation (lam * nu_top * forward difference at
    the top, d(k_min) * nu_min * backward difference at the bottom) plus
    rounding.
    """
    derived = dist.derived
    params = dist.params
    delta = derived.delta
    x_ext = np.concatenate(([dist.x[0] - delta], dist.x, [dist.x[-1] + delta]))
    fx = np.asarray(f(x_ext), dtype=float)
    quad_scale = np.max(np.abs(fx) / (1.0 + x_ext**2))
    if not np.isfinite(quad_scale):
        raise ValueError("test function is not dominated by a quadratic")
    fwd = fx[2:] - fx[1:-1]
    bwd = fx[:-2] - fx[1:-1]
    rates = dist.death_rates
    terms = dist.pmf * (params.lam * fwd + rates * bwd)
    residual = abs(_exact_sum(terms))
    boundary = params.lam * float(dist.pmf[-1]) * abs(float(fwd[-1])) + float(
        rates[0] * dist.pmf[0] * abs(bwd[0])
    )
    rounding = 64.0 * np.finfo(float).eps * _exact_sum(
        dist.pmf * (params.lam * np.abs(fwd) + rates * np.abs(bwd))
    )
    return SteinResidual(residual=residual, tolerance=boundary + rounding)


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
    mu, alpha = derived.mu, derived.alpha
    inv_az = math.inf if az == 0.0 else 1.0 / az
    ratio = alpha / mu
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
        xabs_above = (1.0 + q + delta / 2.0 * math.sqrt(cap1)) * min(mu / min(mu, alpha), inv_az)
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
        xabs_below = math.sqrt((alpha * delta**2 / 4.0 + mu) / min(alpha, mu))
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
    from .metrics import Scenario  # metrics imports this module

    if alpha <= 0.0:
        raise ValueError("the comparison family requires alpha > 0")
    out = []
    for lam in lambdas:
        dist = Scenario(ModelParams(lam=lam, mu=mu, n=n, alpha=alpha), tail_tol).dist
        out.append(moment(dist, 0, "below"))
    return out
