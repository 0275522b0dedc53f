import math
import warnings

import numpy as np
import pytest

import oracles
from conftest import density_for
from erlangdiff.diffusion import (
    _piece_integral,
    build_density,
    density_sup_check,
    moment,
    zeta_scaling_limit,
)
from erlangdiff.model import DerivedQuantities, EvaluationRangeError, ModelParams, derive, drift

REGIME_EXAMPLES = {
    "erlangC": ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0),
    "erlangA_under": ModelParams(lam=3.0, mu=1.0, n=5, alpha=4.0),
    "erlangA_over": ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0),
}


class TestBuild:
    def test_regime_tags(self):
        for tag, params in REGIME_EXAMPLES.items():
            assert density_for(params).regime == tag

    def test_erlang_c_normalizer_bounds(self):
        for lam, n in [(3.0, 5), (4.9, 5), (499.0, 500)]:
            d = density_for(ModelParams(lam=lam, mu=1.0, n=n, alpha=0.0))
            z2 = d.derived.zeta**2
            assert math.exp(d.left.log_amp) <= math.sqrt(2.0 / math.pi) * (1 + 1e-12)
            bound = math.exp(z2 / 2.0) * math.sqrt(2.0 / math.pi) * (1 + 1e-12)
            assert math.exp(d.right.log_amp) <= bound

    def test_alpha_equals_mu_is_standard_gaussian(self):
        d = density_for(ModelParams(lam=5.0, mu=1.0, n=5, alpha=1.0))
        gauss_amp = oracles.MMINF_DENSITY_SUP
        assert math.exp(d.left.log_amp) == pytest.approx(gauss_amp, rel=1e-12)
        assert math.exp(d.right.log_amp) == pytest.approx(gauss_amp, rel=1e-12)
        assert moment(d, 1) == pytest.approx(oracles.MMINF_MOMENTS[0], abs=1e-14)
        assert moment(d, 2) == pytest.approx(oracles.MMINF_MOMENTS[1], rel=1e-12)

    def test_underloaded_mass_sums_to_one(self):
        d = density_for(ModelParams(lam=3.0, mu=1.0, n=5, alpha=4.0))
        assert oracles.pdf_integral(d, -np.inf, np.inf) == pytest.approx(1.0, abs=1e-12)
        assert moment(d, 0) == pytest.approx(1.0, abs=1e-12)

    def test_underloaded_half_zeta_case(self):
        # arrival rate chosen so that zeta = -1/2 exactly solves
        # (R - n)/sqrt(R) = -1/2 with n = 5, alpha = 4
        sqrt_r = (-0.5 + math.sqrt(0.25 + 20.0)) / 2.0
        d = density_for(ModelParams(lam=sqrt_r * sqrt_r, mu=1.0, n=5, alpha=4.0))
        assert d.derived.zeta == pytest.approx(-0.5, abs=1e-12)
        assert d.regime == "erlangA_under"
        assert oracles.pdf_integral(d, -np.inf, np.inf) == pytest.approx(1.0, abs=1e-12)

    def test_continuity_at_junction(self):
        for params in REGIME_EXAMPLES.values():
            d = density_for(params)
            j = d.switch_point
            left = np.exp(d.left.log_amp + d.left.log_shape(j))
            right = np.exp(d.right.log_amp + d.right.log_shape(j))
            assert left == pytest.approx(right, rel=1e-12)

    def test_rejects_nonnormalizable(self):
        der = derive(ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0))
        broken = DerivedQuantities(
            params=ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0),
            R=der.R,
            a=0.0,
            delta=der.delta,
            rho=der.rho,
            x_inf=der.x_inf,
            zeta=abs(der.zeta),
        )
        with pytest.raises(ValueError):
            build_density(broken)

    @pytest.mark.parametrize("n", [1, 40])
    def test_nan_amplitude_is_a_typed_error(self, n):
        # the right piece's mean (mu/alpha - 1) zeta overflows to -inf, so
        # the amplitude comes out nan: a typed error, with no RuntimeWarning
        der = derive(ModelParams(lam=1e-30, mu=1.0, n=n, alpha=1e-300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationRangeError, match="the density's amplitude past the"):
                build_density(der)

    def test_regime_continuity_at_critical_load(self):
        # both branch formulas coincide when R = n
        under = density_for(ModelParams(lam=5.0, mu=1.0, n=5, alpha=4.0))
        over = build_density(
            derive(ModelParams(lam=5.0 * (1 + 1e-13), mu=1.0, n=5, alpha=4.0))
        )
        assert under.regime == "erlangA_under"
        assert over.regime == "erlangA_over"
        xs = np.linspace(-6.0, 6.0, 101)
        assert np.max(np.abs(under.pdf(xs) - over.pdf(xs))) < 1e-10


class TestPdfCdf:
    def test_deep_left_tail(self):
        d = density_for(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        assert d.cdf(-40.0) < 1e-300

    def test_cdf_at_junction_vs_quadrature(self):
        d = density_for(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        j = d.switch_point
        assert d.cdf(j) == pytest.approx(oracles.pdf_integral(d, -np.inf, j), abs=1e-12)

    def test_pdf_sup_erlang_c(self):
        for lam, n in [(3.0, 5), (4.9, 5), (499.0, 500)]:
            d = density_for(ModelParams(lam=lam, mu=1.0, n=n, alpha=0.0))
            xs = np.linspace(-8, 30, 4001)
            assert np.max(d.pdf(xs)) <= math.sqrt(2.0 / math.pi) * (1 + 1e-12)

    def test_cdf_monotone_with_limits(self):
        for params in REGIME_EXAMPLES.values():
            d = density_for(params)
            xs = np.linspace(-12, 12, 501)
            vals = d.cdf(xs)
            assert np.all(np.diff(vals) >= -1e-15)
            assert d.cdf(-60.0) < 1e-12
            assert d.cdf(1e4) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("params", list(REGIME_EXAMPLES.values()))
    def test_cdf_matches_quadrature_random_points(self, params):
        d = density_for(params)
        rng = np.random.default_rng(42)
        for x in rng.uniform(-6, 8, size=100):
            assert d.cdf(x) == pytest.approx(oracles.pdf_integral(d, -np.inf, x), abs=1e-10)

    @pytest.mark.parametrize("params", list(REGIME_EXAMPLES.values()))
    def test_whole_piece_integral_keeps_every_bit(self, params):
        # cdf, sf and the first moments share one integral of a piece that an
        # interval covers whole; the reference integrates it per interval
        d = density_for(params)
        xs = np.concatenate([np.linspace(-9.0, 12.0, 1001), [d.switch_point]])
        for u, v in ((np.full_like(xs, -np.inf), xs), (xs, np.full_like(xs, np.inf))):
            for first in (False, True):
                # the mass, and with ``first`` the first moment too
                ref = [np.zeros(xs.shape) for _ in range(1 + first)]
                for piece in (d.left, d.right):
                    reach = (u < piece.hi) & (v > piece.lo)
                    uu, vv = np.maximum(u[reach], piece.lo), np.minimum(v[reach], piece.hi)
                    for out, val in zip(ref, _piece_integral(piece, uu, vv, first)):
                        out[reach] += val
                got = d._integral_between(u, v, first)
                assert [g.tobytes() for g in got] == [r.tobytes() for r in ref]

    def test_stationary_ode(self):
        # (d/dx) log pdf = b(x), per unit mu, away from the kink
        for params in REGIME_EXAMPLES.values():
            d = density_for(params)
            der = d.derived
            xs = np.linspace(-4, 5, 301)
            xs = xs[np.abs(xs - d.switch_point) > 0.05]
            eps = 1e-6
            fd = (d.log_pdf(xs + eps) - d.log_pdf(xs - eps)) / (2 * eps)
            assert np.max(np.abs(fd - drift(der, xs))) < 1e-6


class TestMoments:
    @pytest.mark.parametrize("params", list(REGIME_EXAMPLES.values()))
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_quadrature(self, params, m):
        d = density_for(params)
        oracle = oracles.pdf_integral(d, -np.inf, np.inf, lambda y: y**m)
        assert moment(d, m) == pytest.approx(oracle, rel=1e-8, abs=1e-10)

    def test_absolute_moment_bound(self):
        for lam, n in [(3.0, 5), (4.9, 5), (499.0, 500)]:
            d = density_for(ModelParams(lam=lam, mu=1.0, n=n, alpha=0.0))
            e_abs = moment(d, 1, absolute=True)
            assert e_abs <= 1.0 / abs(d.derived.zeta) + 1.0

    def test_moment_order_cap(self):
        d = density_for(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        with pytest.raises(ValueError):
            moment(d, 21)


class TestDensitySup:
    def test_erlang_c_grid(self):
        for lam, n in [(1.0, 2), (3.0, 5), (4.9, 5), (499.0, 500)]:
            check = density_sup_check(density_for(ModelParams(lam=lam, mu=1.0, n=n, alpha=0.0)))
            assert check.satisfied

    def test_gaussian_case(self):
        check = density_sup_check(density_for(ModelParams(lam=5.0, mu=1.0, n=5, alpha=1.0)))
        assert check.observed == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
        assert check.observed < math.sqrt(2.0 / math.pi)

    def test_overloaded_scaling(self):
        check = density_sup_check(density_for(ModelParams(lam=10.0, mu=1.0, n=5, alpha=4.0)))
        assert check.bound == pytest.approx(math.sqrt(2.0 / math.pi) * 2.0, rel=1e-14)
        assert check.satisfied


class TestZetaScaling:
    def test_limit_is_factorial(self):
        for m in (1, 2, 3, 4):
            val = zeta_scaling_limit(1.0, 500, m, [-1e-3])[0]
            assert val == pytest.approx(math.factorial(m), rel=0.01)

    def test_monotone_approach_recorded(self):
        vals = zeta_scaling_limit(1.0, 500, 2, [-0.5, -0.1, -1e-2, -1e-3])
        assert all(np.isfinite(vals))
        assert vals == sorted(vals)  # increases toward 2 from below
        assert vals[-1] == pytest.approx(2.0, rel=0.01)

    def test_rejects_nonnegative_zeta(self):
        with pytest.raises(ValueError):
            zeta_scaling_limit(1.0, 500, 2, [0.0])


class TestTailRatios:
    """ratio_below/ratio_above against the masses and moments they divide by
    nu(x).  Each returns [mass ratio] or, with ``first``, [mass ratio,
    first-moment ratio] from one pass."""

    @staticmethod
    def points(d):
        """Evaluation points and cutoffs, including the junction -zeta and 0."""
        j = d.switch_point
        return [j, 0.0, j - 1.5, j + 1.5, -3.0, 4.0], [j, 0.0, 1.0, -2.5]

    @pytest.mark.parametrize("regime", list(REGIME_EXAMPLES))
    def test_mass_ratios_match_cdf_and_sf(self, regime):
        d = density_for(REGIME_EXAMPLES[regime])
        xs, cutoffs = self.points(d)
        for x in xs:
            assert d.pdf(x) * d.ratio_below(x)[0] == pytest.approx(d.cdf(x), rel=1e-10)
            assert d.pdf(x) * d.ratio_above(x)[0] == pytest.approx(d.sf(x), rel=1e-10)
            for c in cutoffs:
                lo, hi = min(x, c), max(x, c)
                below = d.pdf(x) * d.ratio_below(x, cutoff=c)[0]
                above = d.pdf(x) * d.ratio_above(x, cutoff=c)[0]
                assert below == pytest.approx(d.cdf(lo), rel=1e-10, abs=1e-15)
                assert above == pytest.approx(d.sf(hi), rel=1e-10, abs=1e-15)
                outside = 1.0 - (d.cdf(hi) - d.cdf(lo))
                assert below + above == pytest.approx(outside, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("regime", list(REGIME_EXAMPLES))
    def test_first_moment_ratios_match_partial_moments(self, regime):
        d = density_for(REGIME_EXAMPLES[regime])
        xs, cutoffs = self.points(d)
        for x in xs:
            for c in cutoffs + [None]:
                kw = {} if c is None else {"cutoff": c}
                lo = x if c is None else min(x, c)
                hi = x if c is None else max(x, c)
                mass_below, first_below = d.ratio_below(x, first=True, **kw)
                mass_above, first_above = d.ratio_above(x, first=True, **kw)
                # the pass that also takes the first moment keeps the mass's bits
                assert [mass_below, mass_above] == d.ratio_below(x, **kw) + d.ratio_above(x, **kw)
                below, above = d.pdf(x) * first_below, d.pdf(x) * first_above
                want_below = d.partial_raw_moment(1, -np.inf, lo)
                want_above = d.partial_raw_moment(1, hi, np.inf)
                assert below == pytest.approx(want_below, rel=1e-10, abs=1e-14)
                assert above == pytest.approx(want_above, rel=1e-10, abs=1e-14)

    @pytest.mark.parametrize("regime", list(REGIME_EXAMPLES))
    def test_empty_range_is_zero(self, regime):
        d = density_for(REGIME_EXAMPLES[regime])
        xs = np.array([-3.0, d.switch_point, 0.0, 4.0])
        for first in (False, True):
            zeros = np.zeros((1 + first, 4))
            assert np.array_equal(d.ratio_above(xs, cutoff=np.inf, first=first), zeros)
            assert np.array_equal(d.ratio_below(xs, cutoff=-np.inf, first=first), zeros)

    def test_vectorized_matches_scalar(self):
        for params in REGIME_EXAMPLES.values():
            d = density_for(params)
            xs = np.array([d.switch_point, 0.0, -3.0, 4.0])
            for first in (False, True):
                vec = d.ratio_above(xs, cutoff=d.switch_point, first=first)
                assert np.array(vec).T.tolist() == [
                    d.ratio_above(x, cutoff=d.switch_point, first=first) for x in xs
                ]
                vec = d.ratio_below(xs, first=first)
                assert np.array(vec).T.tolist() == [d.ratio_below(x, first=first) for x in xs]

    @pytest.mark.parametrize("regime", list(REGIME_EXAMPLES))
    def test_sf_deep_right_tail_vs_quadrature(self, regime):
        d = density_for(REGIME_EXAMPLES[regime])
        for eps in (1e-10, 1e-30, 1e-80):
            x = d.tail_points(eps)[1]
            oracle = oracles.pdf_integral(d, x, np.inf, epsabs=0.0, epsrel=1e-13)
            assert 0.0 < oracle < 1e-9
            assert d.sf(x) == pytest.approx(oracle, rel=1e-9)
            assert np.array_equal(d.sf(np.array([x])), [d.sf(x)])

    @pytest.mark.parametrize("regime", list(REGIME_EXAMPLES))
    def test_cdf_deep_left_tail_vs_quadrature(self, regime):
        # the lower tail point is the negated upper point of the reflected left piece
        d = density_for(REGIME_EXAMPLES[regime])
        for eps in (1e-10, 1e-30, 1e-80):
            x = d.tail_points(eps)[0]
            oracle = oracles.pdf_integral(d, -np.inf, x, epsabs=0.0, epsrel=1e-13)
            assert 0.0 < oracle < 1e-9
            assert d.cdf(x) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("regime", list(REGIME_EXAMPLES))
    def test_oracle_law_vs_mpmath_quadrature(self, regime):
        # the stdlib law of tests/oracles.py at the accuracy it states, at the
        # junction, the mode and both tails down to 1e-80 of mass
        params = REGIME_EXAMPLES[regime]
        d, law = density_for(params), oracles.Law(params)
        lows, highs = zip(*(d.tail_points(eps) for eps in (1e-10, 1e-30, 1e-80)))
        xs = [d.switch_point, 0.0, *lows, *highs]
        masses = oracles.law_masses_mp(params, xs)
        assert 0.0 < masses[4][0] < 1e-80 and 0.0 < masses[7][1] < 1e-80
        for x, want in zip(xs, masses):
            got = law.cdf(x), law.sf(x), law.pdf(x)
            assert got == pytest.approx([float(v) for v in want], rel=2e-13, abs=0.0)
