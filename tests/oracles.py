"""Independent oracles: the values the tests check the program against.

The only test module that imports ``mpmath`` or ``scipy.integrate``; each
oracle states its accuracy and where it holds.  ``Law`` is the diffusion
law written from the paper's formulas in stdlib ``math``: it calls nothing
in ``erlangdiff.diffusion``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import mpmath
import numpy as np
from scipy import integrate

from erlangdiff.ctmc import stationary_pmf
from erlangdiff.model import ModelParams


def chain_pmf(params: ModelParams, k_top: int = 0, log: bool = False) -> dict:
    """{k: pi_k}, or {k: log pi_k} with ``log``, at 50 digits, for every
    state whose weight is above 1e-70 of the mode's and every state up to
    ``k_top``.  Flow balance, pi_{k+1} (mu (k+1 ^ n) + alpha (k+1-n)^+) =
    lam pi_k, is stepped outward from the mode and normalized by an mpmath
    sum; the weights left out fall geometrically below 1e-70, so each value
    is good to about 1e-45 relative."""
    n = params.n
    with mpmath.workdps(50):
        lam, mu, alpha = (mpmath.mpf(v) for v in (params.lam, params.mu, params.alpha))

        def death(k):
            return mu * min(k, n) + alpha * max(k - n, 0)

        mode = min(int(params.lam / params.mu), n)
        if params.lam > params.mu * n:  # Erlang-A: the weights peak above n
            mode = n + int((params.lam - params.mu * n) / params.alpha)
        tiny = mpmath.mpf(10) ** -70
        weights = {mode: mpmath.mpf(1)}
        k, w = mode, mpmath.mpf(1)
        while k > 0 and w > tiny:
            w, k = w * death(k) / lam, k - 1
            weights[k] = w
        k, w = mode, mpmath.mpf(1)
        while w > tiny or k <= k_top:
            w, k = w * lam / death(k + 1), k + 1
            weights[k] = w
        z = mpmath.fsum(weights.values())
        return {k: mpmath.log(v / z) if log else v / z for k, v in sorted(weights.items())}


def chain_cdf_sf(pmf) -> tuple[np.ndarray, np.ndarray]:
    """(C, S) with C[k] = pmf[0] + ... + pmf[k] and S[k] = pmf[k+1] + ...:
    the chain CDF on the window and its survival function, each value the
    exact sum rounded once (``math.fsum``); quadratic in the window."""
    p = np.asarray(pmf, dtype=float).tolist()
    return np.array([math.fsum(p[: k + 1]) for k in range(len(p))]), np.array(
        [math.fsum(p[k + 1 :]) for k in range(len(p))]
    )


def mm1_mean(lam: float) -> float:
    """E X of M/M/1 at mu = 1: rho/(1 - rho), rho = lam, at 50 digits, rounded once."""
    with mpmath.workdps(50):
        return float(mpmath.mpf(lam) / (1 - mpmath.mpf(lam)))


# alpha = mu (M/M/infinity): the departure rate is k mu in every state, so at
# every n the chain is Poisson(R) and its scaled form X~ has E X~ = 0 and
# E X~^2 = 1; both diffusion pieces have drift -mu x, so Y is N(0, 1), with
# E Y = 0, E Y^2 = 1 and the density's supremum phi(0).
MMINF_MOMENTS = (0.0, 1.0)
MMINF_DENSITY_SUP = 1.0 / math.sqrt(2.0 * math.pi)


def poisson_pmf(r: float, ks) -> np.ndarray:
    """Poisson(r) at the states ``ks`` at 50 digits, each rounded once."""
    with mpmath.workdps(50):
        r = mpmath.mpf(r)
        log_r = mpmath.log(r)
        return np.array([float(mpmath.exp(k * log_r - r - mpmath.loggamma(k + 1))) for k in ks])


def _log_shape(piece, x: float) -> float:
    kind, a, b = piece  # exp(-(x - a)^2 / (2 b^2)) or exp(-a x)
    return -0.5 * ((x - a) / b) ** 2 if kind == "gauss" else -a * x


def _log_integral(piece, u: float, v: float) -> float:
    """log int_u^v of the piece's shape, u < v: one erfc difference, of
    upper tails in the upper half; -inf where it underflows."""
    kind, a, b = piece
    if kind == "exp":
        diff, log_scale = -math.expm1(-a * (v - u)), -a * u - math.log(a)
    else:
        lo, hi = (u - a) / (b * math.sqrt(2.0)), (v - a) / (b * math.sqrt(2.0))
        diff = math.erfc(lo) - math.erfc(hi) if lo + hi > 0.0 else math.erfc(-hi) - math.erfc(-lo)
        log_scale = math.log(b * math.sqrt(math.pi / 2.0))
    return log_scale + math.log(diff) if diff > 0.0 else -math.inf


class Law:
    """The diffusion model's stationary law, exp((1/mu) int_0^x b) for the
    piecewise linear drift b: two pieces glued at j = -zeta,
    zeta = (x_inf - n)/sqrt(R),

      Erlang-C            N(0, 1) shape left of j, exp(-|zeta| x) right
      Erlang-A, R <= n    N(0, 1) left, N((mu/alpha - 1) zeta, mu/alpha) right
      Erlang-A, R > n     N((alpha/mu - 1) zeta, 1) left, N(0, mu/alpha) right

    with amplitudes from continuity at j and unit mass, in logs.  ``pdf``,
    ``cdf`` and ``sf`` take one float.  Against 50-digit quadrature of the
    density (``law_masses_mp``), all three agree to 2e-13 relative
    (1.1e-13 measured; an argument's rounding moves erfc(w) by about
    2 w^2 eps) down to 1e-80 of mass in each regime, and with the program's
    law to 4e-16 absolute.  A piece mass below about 1e-300
    reads 0, and past |zeta| of about 30 the amplitudes lose digits.
    """

    def __init__(self, params: ModelParams):
        lam, mu, n, alpha = params.lam, params.mu, params.n, params.alpha
        r = lam / mu
        zeta = ((r if r < n else n + (lam - n * mu) / alpha) - n) * (1.0 / math.sqrt(r))
        self.j = j = -zeta
        sd = math.sqrt(mu / alpha) if alpha > 0.0 else None
        if alpha == 0.0:
            left, right = ("gauss", 0.0, 1.0), ("exp", -zeta, None)
        elif r <= n:
            left, right = ("gauss", 0.0, 1.0), ("gauss", (mu / alpha - 1.0) * zeta, sd)
        else:
            left, right = ("gauss", (alpha / mu - 1.0) * zeta, 1.0), ("gauss", 0.0, sd)
        log_l, log_r = _log_integral(left, -math.inf, j), _log_integral(right, j, math.inf)
        shift = _log_shape(left, j) - _log_shape(right, j)  # continuity at j
        top = max(log_l, shift + log_r)
        log_amp = -top - math.log(math.exp(log_l - top) + math.exp(shift + log_r - top))
        self.pieces = ((left, log_amp, -math.inf, j), (right, log_amp + shift, j, math.inf))

    def pdf(self, x: float) -> float:
        piece, log_amp = self.pieces[x > self.j][:2]
        return math.exp(log_amp + _log_shape(piece, x))

    def mass(self, u: float, v: float) -> float:
        """int_u^v of the density, one closed-form mass per piece."""
        total = 0.0
        for piece, log_amp, lo, hi in self.pieces:
            if max(u, lo) < min(v, hi):
                total += math.exp(log_amp + _log_integral(piece, max(u, lo), min(v, hi)))
        return total

    def cdf(self, x: float) -> float:
        return self.mass(-math.inf, x)

    def sf(self, x: float) -> float:
        return self.mass(x, math.inf)


def law_masses_mp(params: ModelParams, xs) -> list:
    """[(F_Y(x), S_Y(x), density at x) for x in xs] by 50-digit mpmath
    quadrature of exp((1/mu) int_0^y b), with b(y) = [(y + zeta)^- - zeta^-]
    mu - [(y + zeta)^+ - zeta^+] alpha integrated in closed form: nothing
    of ``Law``'s pieces or amplitudes.  The side of x away from the mode 0
    is integrated, split at the kink -zeta and at x -+ 1 and scaled by the
    density's largest value there (quad's tolerance is absolute), and the
    other side is 1 less it: good to 1e-30 relative or better down to 1e-80
    of mass."""
    with mpmath.workdps(50):
        lam, mu, alpha = (mpmath.mpf(v) for v in (params.lam, params.mu, params.alpha))
        r, n = lam / mu, params.n
        zeta = ((r if r < n else n + (lam - n * mu) / alpha) - n) / mpmath.sqrt(r)
        nz, pz, c = max(-zeta, 0), max(zeta, 0), alpha / mu
        const, slope = (nz**2 + c * pz**2) / 2, c * pz - nz

        def log_nu(y):  # (1/mu) int_0^y b: one of (y + zeta)^- and (y + zeta)^+ is 0
            s = y + zeta
            return const + slope * y - (1 if s < 0 else c) * s * s / 2

        def integral(u, v, x=0):
            top = log_nu(min(max(0, u), v))  # the density is unimodal at 0
            cuts = sorted(p for p in (-zeta, x - 1, x + 1) if u < p < v)
            scaled = mpmath.quad(lambda y: mpmath.exp(log_nu(y) - top), [u, *cuts, v])
            return scaled * mpmath.exp(top)

        total, out = integral(-mpmath.inf, mpmath.inf), []
        for x in map(mpmath.mpf, xs):
            pdf = mpmath.exp(log_nu(x)) / total
            if x <= 0:
                f = integral(-mpmath.inf, x, x) / total
                out.append((f, 1 - f, pdf))
            else:
                s = integral(x, mpmath.inf, x) / total
                out.append((1 - s, s, pdf))
        return out


@lru_cache(maxsize=None)
def distances(lam: float, mu: float, n: int, alpha: float) -> tuple[float, float]:
    """(d_W, d_K) between the chain at tail tolerance 1e-14 and ``Law``.

    The chain is its ``stationary_pmf`` through ``chain_cdf_sf``: cells
    below level 1/2 compare CDFs, the others survival functions.  d_W is
    ``scipy.integrate.quad`` of the gap per cell (``limit=100``,
    ``epsabs=1e-12``), split where the law crosses the chain level (quad
    misses that kink: unsplit, one cell at (4.9, 1, 5, 0) reads 3.4e-10
    low with an error estimate of 2e-17), plus quad of the law's CDF over
    40 units left of the window and of its survival function over 2,500
    right of it (``epsabs=1e-13``); it matches the program to 6e-13 on
    ``SPOT_SETS``.  d_K is the supremum over 100,000 points spanning the
    window widened by 1, the states and the states less 1e-9; on a cell the
    chain is flat and the law monotone, so the gap is quasiconvex there and
    only each cell's first and last grid points are evaluated.
    """
    params = ModelParams(lam, mu, n, alpha)
    dist, y = stationary_pmf(params, 1e-14), Law(params)
    x, (c, s) = dist.x, chain_cdf_sf(dist.pmf)

    def gap(k, t):  # chain - law at t in cell k, -1 left of the window
        if k < 0:
            return -y.cdf(t)
        return c[k] - y.cdf(t) if c[k] <= 0.5 else y.sf(t) - s[k]

    def crossing(k):  # where the law passes the chain level in cell k, by bisection
        lo, hi = x[k], x[k + 1]
        if not gap(k, lo) > 0.0 > gap(k, hi):
            return ()
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(k, mid) > 0.0 else (lo, mid)
        return (lo,)

    d_w = sum(
        quad(lambda t: abs(gap(k, t)), x[k], x[k + 1], crossing(k), limit=100, epsabs=1e-12)
        for k in range(x.size - 1)
    )
    d_w += integrate.quad(y.cdf, x[0] - 40.0, x[0], limit=300, epsabs=1e-13)[0]
    d_w += integrate.quad(y.sf, x[-1], x[-1] + 2500.0, limit=500, epsabs=1e-13)[0]
    pts = np.sort(np.concatenate([np.linspace(x[0] - 1.0, x[-1] + 1.0, 100_000), x, x - 1e-9]))
    cell = np.searchsorted(x, pts, side="right") - 1
    ends = np.flatnonzero(np.diff(cell))
    return d_w, max(abs(gap(cell[i], pts[i])) for i in {0, pts.size - 1, *ends, *(ends + 1)})


def mm1_wasserstein(lam: float) -> mpmath.mpf:
    """d_W of M/M/1 (mu = 1) against N(0, 1) to 60 digits, for lam <= 1e-3.

    The chain puts (1 - lam) lam^k at x_k = (k - lam)/sqrt(lam); the
    diffusion law is N(0, 1) below -zeta = (1 - lam)/sqrt(lam) >= 31 and
    carries less than 1e-200 past it, so the cells integrate Phi through
    x Phi(x) + phi(x), split where Phi meets the chain level.
    """
    with mpmath.workdps(60):
        r = mpmath.mpf(lam)
        delta = 1 / mpmath.sqrt(r)
        big_phi = lambda x: x * mpmath.ncdf(x) + mpmath.npdf(x)
        total = big_phi(-r * delta)
        k = 0
        while r ** (k + 1) * delta > mpmath.mpf(10) ** -40:
            a, b = delta * (k - r), delta * (k + 1 - r)
            level = 1 - r ** (k + 1)
            t = min(max(mpmath.sqrt(2) * mpmath.erfinv(2 * level - 1), a), b)
            total += level * (t - a) - 2 * big_phi(t) + big_phi(a) + big_phi(b) - level * (b - t)
            k += 1
        return total


def quad(f, lo: float, hi: float, points=(), **kw) -> float:
    """int_lo^hi f by ``scipy.integrate.quad``, one call per stretch between
    the ``points`` inside (lo, hi), with ``kw``; quad's default tolerances
    are 1.49e-8 absolute and relative."""
    edges = [lo, *sorted(p for p in points if lo < p < hi), hi]
    return sum(integrate.quad(f, a, b, **kw)[0] for a, b in zip(edges, edges[1:]))


def pdf_integral(d, lo: float, hi: float, weight=None, points=(), **kw) -> float:
    """int_lo^hi weight(y) d.pdf(y) dy by ``quad`` (``limit=300`` unless
    given), split at the density's kink -zeta and at ``points``.  At quad's
    default tolerances its error estimates reach 6e-10, but on the tests'
    sets the masses agree with the closed forms to 1e-13."""
    f = d.pdf if weight is None else (lambda y: weight(y) * d.pdf(y))
    return quad(f, lo, hi, (d.switch_point, *points), **{"limit": 300, **kw})
