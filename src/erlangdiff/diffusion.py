"""Stationary law of the piecewise Ornstein-Uhlenbeck diffusion model.

The density is ``nu(x) = kappa * exp(int_0^x b)`` for the piecewise linear
drift b of the model per unit mu, which works out to two pieces glued at the
drift kink ``-zeta`` (a = alpha/mu):

  Erlang-C            N(0,1) shape left of -zeta, exponential(|zeta|) right
  Erlang-A, R <= n    N(0,1) shape left, N((1/a-1)*zeta, 1/a) right
  Erlang-A, R >= n    N((a-1)*zeta, 1) left, N(0, 1/a) right

Each piece carries its shape's closed forms and its amplitude, in log form:
in heavily staffed systems the right-piece amplitude is exp(zeta^2/2)-sized
and overflows a double even though the density itself is tame.  Every
amplitude-times-integral product is therefore assembled from log quantities,
and all tail arithmetic goes through the scaled complementary error function,
never through 1 - CDF subtraction.  One closed-form piece integral serves
the masses, the first moments and the whole-piece parts of the tail ratios
(1/nu(x)) int w nu, which take it in units of nu(x).

The density is unimodal with its mode at 0 in every regime (the left piece
rises toward the junction or peaks at 0, the right piece falls), a fact the
Poisson-equation machinery relies on when choosing integral representations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _special as special
from .model import Check, DerivedQuantities, EvaluationRangeError, ModelParams, derive

__all__ = [
    "DiffusionDensity",
    "build_density",
    "moment",
    "density_sup_check",
    "zeta_scaling_limit",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF_PI = math.sqrt(math.pi / 2.0)


def _log_phi_diff(a, b):
    """log(Phi(b) - Phi(a)) for a <= b, stable in both tails."""
    a_arr, b_arr = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    )
    use_sf = (a_arr + b_arr) > 0.0
    hi = np.where(use_sf, -a_arr, b_arr)
    lo = np.where(use_sf, -b_arr, a_arr)
    log_hi = special.log_ndtr(hi)
    log_lo = special.log_ndtr(lo)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = log_hi + np.log1p(-np.exp(np.minimum(log_lo - log_hi, 0.0)))
    return np.where(lo == hi, -np.inf, out)


# ---------------------------------------------------------------------------
# Pieces: a shape times exp(log_amp) on [lo, hi].  "Ratios" are integrals of
# the shape divided by the shape value at an evaluation point; they stay
# finite where a naive 1/nu(x) prefactor would overflow.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _GaussPiece:
    """exp(log_amp) * exp(-(x - mean)^2 / (2 var)) restricted to [lo, hi]."""

    mean: float
    var: float
    lo: float
    hi: float
    log_amp: float = 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.var)

    def log_shape(self, x):
        return -((np.asarray(x, dtype=float) - self.mean) ** 2) / (2.0 * self.var)

    def log_mass(self, u, v):
        s = self.std
        a = (np.asarray(u, dtype=float) - self.mean) / s
        b = (np.asarray(v, dtype=float) - self.mean) / s
        return math.log(s * _SQRT_2PI) + _log_phi_diff(a, b)

    def reflected(self) -> "_GaussPiece":
        """The piece mirrored by y -> -y."""
        return replace(self, mean=-self.mean, lo=-self.hi, hi=-self.lo)

    def ratio_left(self, x, u=-np.inf):
        """int_u^x shape(y) dy / shape(x).

        Tail-side form (difference of erfcx terms) when the interval reaches
        the rising side of the shape; when [u, x] lies entirely on the
        falling side the difference would cancel catastrophically, so the
        dominant endpoint is factored out instead.
        """
        s = self.std
        z = (np.asarray(x, dtype=float) - self.mean) / (s * _SQRT2)
        u_arr = np.asarray(u, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = s * _SQRT_HALF_PI * special.erfcx(-z)
            finite = np.isfinite(u_arr)
            if np.any(finite):
                zu = (np.where(finite, u_arr, 0.0) - self.mean) / (s * _SQRT2)
                corr = s * _SQRT_HALF_PI * special.erfcx(-zu) * np.exp(z * z - zu * zu)
                out = out - np.where(finite, corr, 0.0)
                falling = finite & (zu > 0.0)
                if np.any(falling):
                    grow = s * _SQRT_HALF_PI * (
                        special.erfcx(zu) * np.exp(z * z - zu * zu)
                        - special.erfcx(z)
                    )
                    out = np.where(falling, grow, out)
        return out

    def first_moment(self, m0, lo, nu_lo, hi, nu_hi):
        """int_lo^hi y shape(y) dy in the units of m0 = int_lo^hi shape, given the
        shape at the ends, nu_lo and nu_hi, in those units (0 at an infinite
        end).  An end is a scalar or an array of finite points."""
        return self.mean * m0 + self.var * (nu_lo - nu_hi)

    def raw_moments(self, m: int, u: float, v: float, mass: float, nu_u: float, nu_v: float):
        """[M_0..M_m], M_k = int_u^v y^k nu, from M_0 = mass and nu at the ends."""
        mom = [mass]
        for k in range(1, m + 1):
            bu = u ** (k - 1) * nu_u if math.isfinite(u) else 0.0
            bv = v ** (k - 1) * nu_v if math.isfinite(v) else 0.0
            prev2 = mom[k - 2] if k >= 2 else 0.0
            mom.append(self.mean * mom[k - 1] + self.var * (k - 1) * prev2 + self.var * (bu - bv))
        return mom

    def upper_point(self, log_eps: float) -> float:
        """A point with about eps of the piece's mass above it."""
        s = self.std
        log_target = log_eps - self.log_amp - math.log(s * _SQRT_2PI)
        z = float(special.ndtri_exp(min(log_target, math.log(0.5))))
        return self.mean - s * min(z, -1.0)

    def invert(self, u, mass):
        """t with int_u^t nu = mass; nan or out of range where that rounds badly."""
        s = self.std
        zu = (u - self.mean) / s
        target = special.ndtr(zu) + mass * math.exp(-self.log_amp) / (s * _SQRT_2PI)
        with np.errstate(invalid="ignore"):
            return self.mean + s * special.ndtri(target)

    @property
    def mode(self) -> float:
        return min(max(self.mean, self.lo), self.hi)


@dataclass(frozen=True)
class _ExpPiece:
    """exp(log_amp) * exp(-rate * x) on [lo, hi].

    The density's piece has rate > 0 and hi = inf.  Its reflection has
    rate < 0 and lo = -inf and is used only by the tail ratios and
    ``invert``; the other closed forms assume rate > 0.
    """

    rate: float
    lo: float
    hi: float
    log_amp: float = 0.0

    def reflected(self) -> "_ExpPiece":
        """The piece mirrored by y -> -y."""
        return replace(self, rate=-self.rate, lo=-self.hi, hi=-self.lo)

    def log_shape(self, x):
        return -self.rate * np.asarray(x, dtype=float)

    def log_mass(self, u, v):
        u_arr = np.asarray(u, dtype=float)
        v_arr = np.asarray(v, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            tail = np.where(
                np.isfinite(v_arr),
                np.log1p(-np.exp(-self.rate * np.maximum(v_arr - u_arr, 0.0))),
                0.0,
            )
        out = -self.rate * u_arr + tail - math.log(self.rate)
        return np.where(v_arr <= u_arr, -np.inf, out)

    def ratio_left(self, x, u):
        x_arr = np.asarray(x, dtype=float)
        u_arr = np.asarray(u, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            span = np.where(np.isfinite(u_arr), x_arr - u_arr, np.inf)
            return np.expm1(self.rate * span) / self.rate

    def first_moment(self, m0, lo, nu_lo, hi, nu_hi):
        r = self.rate
        # one expression, so numpy reuses the buffers of the cell-sized temporaries
        return (nu_lo * (lo / r + 1.0 / (r * r)) if np.isfinite(lo).all() else 0.0) - (
            nu_hi * (hi / r + 1.0 / (r * r)) if np.isfinite(hi).all() else 0.0
        )

    def raw_moments(self, m: int, u: float, v: float, mass: float, nu_u: float, nu_v: float):
        r = self.rate
        mom = [mass]
        for k in range(1, m + 1):
            bu = u**k * nu_u if math.isfinite(u) else 0.0
            bv = v**k * nu_v if math.isfinite(v) else 0.0
            mom.append((k / r) * mom[k - 1] + (bu - bv) / r)
        return mom

    def upper_point(self, log_eps: float) -> float:
        return (self.log_amp - math.log(self.rate) - log_eps) / self.rate

    def invert(self, u, mass):
        r = self.rate
        w_u = np.exp(self.log_amp - r * u)
        with np.errstate(divide="ignore", invalid="ignore"):
            return (self.log_amp - np.log(w_u - r * mass)) / r

    @property
    def mode(self) -> float:
        return self.lo


def _log_nu(piece: _GaussPiece | _ExpPiece, x):
    return piece.log_amp + piece.log_shape(x)


def _nu_or_zero(piece: _GaussPiece | _ExpPiece, t, log_unit=0.0):
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):
        val = np.exp(_log_nu(piece, t_arr) - log_unit)
    return np.where(np.isfinite(t_arr), val, 0.0)


def _piece_integral(piece: _GaussPiece | _ExpPiece, u, v, first: bool, log_unit=0.0):
    """[int_u^v w(y) nu(y) dy / exp(log_unit) for w = 1 and, if ``first``,
    w = y] for ends inside the piece: the first moment is read off the mass.

    ``log_unit`` is 0 for masses and moments and log nu(x) for the
    whole-piece parts of the tail ratios: every term is then exp(log
    difference), so extreme amplitude splits stay finite and a no-mass
    piece contributes 0, never nan.  Subtracting 0.0 leaves a double as
    it is.
    """
    val = np.exp(piece.log_amp + piece.log_mass(u, v) - log_unit)
    if not first:
        return [val]
    nu_u = _nu_or_zero(piece, u, log_unit)
    nu_v = _nu_or_zero(piece, v, log_unit)
    return [val, piece.first_moment(val, u, nu_u, v, nu_v)]


def _piece_moments(piece: _GaussPiece | _ExpPiece, m: int, u: float, v: float) -> list[float]:
    """[M_0..M_m] with M_j = int_u^v y^j nu(y) dy restricted to the piece.

    Density-scaled recurrences: every term is a probability-weighted
    quantity, so nothing overflows even when the raw amplitude would.
    """
    u = max(u, piece.lo)
    v = min(v, piece.hi)
    if not v > u:
        return [0.0] * (m + 1)
    mass = math.exp(piece.log_amp + float(piece.log_mass(u, v)))
    nu_u = float(_nu_or_zero(piece, u))
    nu_v = float(_nu_or_zero(piece, v))
    return piece.raw_moments(m, u, v, mass, nu_u, nu_v)


def _piece_ratio(piece: _GaussPiece | _ExpPiece, t, first: bool):
    """[int_lo^t w(y) shape(y) dy / shape(t) in one piece for w = 1 and, if ``first``, w = y]."""
    floor = piece.lo
    r0 = piece.ratio_left(t, floor)
    if not first:
        return [r0]
    shape_floor = (
        np.exp(piece.log_shape(floor) - piece.log_shape(t))
        if math.isfinite(floor)
        else 0.0
    )
    return [r0, piece.first_moment(r0, floor, shape_floor, t, 1.0)]


# ---------------------------------------------------------------------------
# The two-piece stationary density.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiffusionDensity:
    """Stationary density of the diffusion model, in closed two-piece form.

    ``regime`` is one of ``erlangC``, ``erlangA_under``, ``erlangA_over``
    (critical load R = n is filed under the underloaded branch; the two
    formulas coincide there).  ``left`` and ``right`` are the pieces on
    either side of the gluing point ``switch_point`` = -zeta, each with its
    own amplitude; the density loops over them without knowing their shapes.
    """

    derived: DerivedQuantities
    regime: str
    left: _GaussPiece
    right: _GaussPiece | _ExpPiece

    @property
    def switch_point(self) -> float:
        return -self.derived.zeta

    # -- pointwise evaluation -------------------------------------------------

    def log_pdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        out = np.where(
            x_arr <= self.switch_point, _log_nu(self.left, x_arr), _log_nu(self.right, x_arr)
        )
        return out if x_arr.ndim else float(out)

    def pdf(self, x):
        out = np.exp(self.log_pdf(x))
        return out if np.ndim(x) else float(out)

    def cdf(self, x):
        return self._mass_between(-np.inf, x)

    def sf(self, x):
        """Upper-tail probability, computed tail-first (no 1 - cdf)."""
        return self._mass_between(x, np.inf)

    def _mass_between(self, u, v):
        """int_u^v nu for u <= v, one closed-form mass per piece."""
        out = np.clip(self._integral_between(u, v, first=False)[0], 0.0, 1.0)
        return out if out.ndim else float(out)

    def first_moment_between(self, u, v):
        """int_u^v y nu(y) dy for u <= v; an end array is all finite or all infinite."""
        out = self._integral_between(u, v, first=True)[1]
        return out if out.ndim else float(out)

    def _integral_between(self, u, v, first: bool):
        """[int_u^v w(y) nu(y) dy for w = 1 and, if ``first``, w = y] for
        u <= v, in closed form.

        Each piece is integrated only over the intervals that reach into it,
        with the ends clipped to the piece, and the left piece is added
        first: an interval inside one piece gets exactly that piece's value.
        The intervals that cover a whole piece share one integral of it,
        taken on a one-element array so that it runs the same ufunc loops,
        with the same bits, as a per-interval integral.
        """
        u_arr, v_arr = np.broadcast_arrays(
            np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        )
        outs = [np.zeros(u_arr.shape) for _ in range(1 + first)]
        for piece in (self.left, self.right):
            reach = (u_arr < piece.hi) & (v_arr > piece.lo)
            if not np.any(reach):
                continue
            uu = np.maximum(u_arr[reach], piece.lo)
            vv = np.minimum(v_arr[reach], piece.hi)
            # computed before out[reach] is read, so the two never coexist
            whole = (uu == piece.lo) & (vv == piece.hi)
            if np.any(whole):
                ends = np.array([piece.lo]), np.array([piece.hi])
                vals = [np.full(uu.shape, w[0]) for w in _piece_integral(piece, *ends, first)]
                part = ~whole
                for val, w in zip(vals, _piece_integral(piece, uu[part], vv[part], first)):
                    val[part] = w
            else:
                vals = _piece_integral(piece, uu, vv, first)
            for out, val in zip(outs, vals):
                out[reach] += val
        return outs

    # -- partial raw moments ---------------------------------------------------

    def partial_raw_moment(self, m: int, lo: float, hi: float) -> float:
        """int_lo^hi y^m nu(y) dy, exact per piece."""
        return (
            _piece_moments(self.left, m, lo, hi)[m] + _piece_moments(self.right, m, lo, hi)[m]
        )

    def mean(self) -> float:
        return self.partial_raw_moment(1, -np.inf, np.inf)

    # -- tail ratio machinery for the Poisson-equation solutions --------------

    def ratio_below(self, x, cutoff: float = np.inf, first: bool = False):
        """[(1/nu(x)) int_{-inf}^{min(x, cutoff)} w nu dy for w = 1 and, if ``first``, w = y].

        Stable for x at or left of the mode (0); usable, with possibly huge
        but finite values, between the mode and the junction.  Cross-piece
        contributions are assembled from log quantities so that a negligible
        piece under a large 1/nu never produces 0 * inf.
        """
        return self._tail_ratio(x, cutoff, first, below=True)

    def ratio_above(self, x, cutoff: float = -np.inf, first: bool = False):
        """[(1/nu(x)) int_{max(x, cutoff)}^inf w nu dy for w = 1 and, if ``first``, w = y]."""
        return self._tail_ratio(x, cutoff, first, below=False)

    def _tail_ratio(self, x, cutoff: float, first: bool, below: bool):
        """Shared body of ratio_below and ratio_above: one pass gives both ratios.

        An upper-tail integral of a piece is a lower-tail integral of the
        piece reflected by y -> -y, taken at -t: int_t^hi w(y) shape(y) dy =
        int_{-hi}^{-t} w(-y) shape(-y) dy, and w(-y) = -w(y) for w = y, so
        the first-moment ratio changes sign.  IEEE negation is exact, so this
        gives the bits of the hand-mirrored formulas.  Only the piece is
        reflected, not the density: t <= -zeta still picks the left piece, so
        the junction belongs to the same piece on both sides.
        """
        x_arr = np.atleast_1d(np.asarray(x, dtype=float))
        t_arr = np.minimum(x_arr, cutoff) if below else np.maximum(x_arr, cutoff)
        j = self.switch_point
        log_nu_x = np.atleast_1d(self.log_pdf(x_arr))
        outs = [np.zeros_like(x_arr) for _ in range(1 + first)]
        signs = (1.0, 1.0 if below else -1.0)

        # contribution of the piece containing t, out to that piece's edge
        for piece, in_piece in ((self.left, t_arr <= j), (self.right, t_arr > j)):
            if not np.any(in_piece):
                continue
            t_in = t_arr[in_piece]
            if not below:
                piece, t_in = piece.reflected(), -t_in
            scale = np.exp(_log_nu(piece, t_in) - log_nu_x[in_piece])
            for out, sign, base in zip(outs, signs, _piece_ratio(piece, t_in, first)):
                out[in_piece] += sign * base * scale

        # the whole other piece when t lies past the junction
        past = (t_arr > j) if below else (t_arr <= j)
        if np.any(past):
            piece = self.left if below else self.right
            wholes = _piece_integral(piece, piece.lo, piece.hi, first, log_nu_x[past])
            for out, whole in zip(outs, wholes):
                out[past] += whole
        return [out if np.ndim(x) else float(out[0]) for out in outs]

    # -- quantiles -------------------------------------------------------------

    def tail_points(self, eps: float) -> tuple[float, float]:
        """Points bracketing all but ~eps of the mass (coarse closed forms).

        Each side solves the eps-quantile within its own piece, the lower
        one as the negated upper point of the reflected left piece; a piece
        holding less than eps of mass contributes its junction instead.
        """
        j = self.switch_point
        log_eps = math.log(eps)

        def upper(piece):
            has_mass = piece.log_amp + float(piece.log_mass(piece.lo, piece.hi)) > log_eps
            return piece.upper_point(log_eps) if has_mass else piece.lo

        x_lo, x_hi = -upper(self.left.reflected()), upper(self.right)
        return min(x_lo, j) - 1.0, max(x_hi, j) + 1.0

    def invert_in_cells(self, u, v, g_start, level, survival=False):
        """Points t in [u, v] with cdf(t) = level, for cell arrays with
        g_start = cdf(u) < level <= cdf(v); with ``survival``, sf(t) = level
        for g_start = sf(v) < level <= sf(u): the CDF crossing of the
        reflected pieces on [-v, -u], negated, as in ``_tail_ratio``.

        t lies in the first piece iff level is at most its mass up to the
        junction, where a straddling cell starts its second part.  Each
        piece inverts in closed form, bisecting where that rounds outside.
        """
        a, b = (-v, -u) if survival else (u, v)
        pieces = (self.right.reflected(), self.left.reflected()) if survival else (self.left, self.right)
        g_j = (self.sf if survival else self.cdf)(self.switch_point)
        out = np.empty_like(u)
        for piece, mask in zip(pieces, (level <= g_j, level > g_j)):
            if not np.any(mask):
                continue
            uu = np.maximum(a[mask], piece.lo)
            vv = np.minimum(b[mask], piece.hi)
            lev = level[mask]
            t = piece.invert(uu, lev - np.where(uu > a[mask], g_j, g_start[mask]))
            bad = ~np.isfinite(t) | (t < uu) | (t > vv)
            if np.any(bad):
                t[bad] = self._bisect(uu[bad], vv[bad], lev[bad], survival)
            out[mask] = t
        return -np.clip(out, a, b) if survival else np.clip(out, a, b)

    def _bisect(self, lo, hi, level, survival):
        """Bisect each [lo, hi] to where the CDF (with ``survival`` the
        reflected CDF sf(-t)) reaches level, until a round moves no bracket."""
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            below = (self.sf(-mid) if survival else self.cdf(mid)) < level
            if np.all(mid == np.where(below, lo, hi)):
                break
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


def build_density(derived: DerivedQuantities) -> DiffusionDensity:
    """Solve the piece amplitudes from continuity at -zeta and unit mass.

    Closed-form piece integrals only; no quadrature.
    """
    a, zeta = derived.a, derived.zeta
    j = -zeta
    if derived.is_erlang_c:
        if zeta >= 0.0:
            raise ValueError("Erlang-C density requires zeta < 0")
        regime = "erlangC"
        left = _GaussPiece(mean=0.0, var=1.0, lo=-np.inf, hi=j)
        right: _GaussPiece | _ExpPiece = _ExpPiece(rate=abs(zeta), lo=j, hi=np.inf)
    elif derived.R <= derived.n:
        regime = "erlangA_under"
        left = _GaussPiece(mean=0.0, var=1.0, lo=-np.inf, hi=j)
        right = _GaussPiece(mean=(1.0 / a - 1.0) * zeta, var=1.0 / a, lo=j, hi=np.inf)
    else:
        regime = "erlangA_over"
        left = _GaussPiece(mean=(a - 1.0) * zeta, var=1.0, lo=-np.inf, hi=j)
        right = _GaussPiece(mean=0.0, var=1.0 / a, lo=j, hi=np.inf)

    log_mass_left = float(left.log_mass(-np.inf, j))
    log_mass_right = float(right.log_mass(j, np.inf))
    # continuity at the junction: amp_left * shapeL(j) = amp_right * shapeR(j)
    log_ratio = float(left.log_shape(j)) - float(right.log_shape(j))
    with np.errstate(invalid="ignore"):
        log_amp_left = -np.logaddexp(log_mass_left, log_ratio + log_mass_right)
    if np.isnan(log_amp_left):
        raise EvaluationRangeError(
            "the density's amplitude past the double range: invalid value encountered in logaddexp"
        )
    return DiffusionDensity(
        derived=derived,
        regime=regime,
        left=replace(left, log_amp=float(log_amp_left)),
        right=replace(right, log_amp=float(log_amp_left + log_ratio)),
    )


def moment(d: DiffusionDensity, m: int, absolute: bool = False) -> float:
    """E[Y^m], or E|Y|^m with ``absolute=True`` (split at 0).

    Exact piecewise evaluation through moment recurrences; no quadrature.
    """
    if m < 0 or m > 20:
        raise ValueError("moment order must be in 0..20")
    if not absolute:
        return d.partial_raw_moment(m, -np.inf, np.inf)
    below_part = (-1.0) ** m * d.partial_raw_moment(m, -np.inf, 0.0)
    return below_part + d.partial_raw_moment(m, 0.0, np.inf)


def density_sup_check(d: DiffusionDensity) -> Check:
    """Supremum of the density against its regime bound.

    sqrt(2/pi) for Erlang-C and underloaded Erlang-A; an extra factor
    sqrt(a) for the overloaded case.  The sup is attained at a piece
    mode or the junction, so no search is needed.
    """
    sup = float(np.max(d.pdf(np.asarray([d.switch_point, d.left.mode, d.right.mode]))))
    bound = math.sqrt(2.0 / math.pi)
    if d.regime == "erlangA_over":
        bound *= math.sqrt(d.derived.a)
    return Check.at_most("density_sup", sup, bound, rtol=1e-12)


def zeta_scaling_limit(mu: float, n: int, m: int, zeta_sequence) -> list[float]:
    """|zeta|^m * E Y^m along an Erlang-C family parametrized by zeta.

    Converges to m! as zeta -> 0-.  Each zeta maps back to the arrival rate
    through sqrt(R) = (zeta + sqrt(zeta^2 + 4n)) / 2.
    """
    out = []
    for zeta in zeta_sequence:
        if zeta >= 0.0:
            raise ValueError("Erlang-C scaling limit needs zeta < 0")
        sqrt_r = (zeta + math.sqrt(zeta * zeta + 4.0 * n)) / 2.0
        params = ModelParams(lam=mu * sqrt_r * sqrt_r, mu=mu, n=n, alpha=0.0)
        d = build_density(derive(params))
        out.append(abs(zeta) ** m * moment(d, m))
    return out
