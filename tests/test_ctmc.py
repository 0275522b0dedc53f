import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

import oracles
from conftest import (
    density_for,
    full_grid_pmf,
    pmf_for,
    small_window_params,
    window_params,
    window_states,
)
from erlangdiff import ctmc, metrics, report
from erlangdiff.ctmc import (
    DiscreteStationary,
    TruncationError,
    _mode,
    idle_probability_monotone,
    moment,
    moment_bound_report,
    stationary_pmf,
    stein_identity_residual,
)
from erlangdiff.diffusion import build_density
from erlangdiff.metrics import moment_error
from erlangdiff.model import ModelParams, departure_rate, derive, drift
from erlangdiff.poisson import TestFunction, build_solution
from erlangdiff.stein_verify import kolmogorov_decomposition


class TestStationaryPmf:
    def test_total_mass(self):
        dist = pmf_for(ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0))
        assert math.fsum(dist.pmf.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_table1_mean(self):
        dist = pmf_for(ModelParams(lam=3.0, mu=1.0, n=5, alpha=0.0))
        mean_x = math.fsum((window_states(dist) * dist.pmf).tolist())
        assert mean_x == pytest.approx(3.35, abs=0.005)

    def test_product_form_oracle(self):
        # M/M/1+M with every rate equal to one: the departure rate in state k
        # is exactly k, so the chain is Poisson(1), nu_k proportional to 1/k!
        dist = pmf_for(ModelParams(lam=1.0, mu=1.0, n=1, alpha=1.0))
        oracle = oracles.poisson_pmf(1.0, window_states(dist))
        assert np.max(np.abs(oracle - dist.pmf)) < 1e-15

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0),
            ModelParams(lam=499.0, mu=1.0, n=500, alpha=0.0),
            ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0),
            ModelParams(lam=150.0, mu=1.0, n=500, alpha=0.1),
        ],
    )
    def test_flow_balance(self, params):
        dist = pmf_for(params)
        rates, pmf = departure_rate(dist.derived, window_states(dist)), dist.pmf
        lhs = dist.derived.R * pmf[:-1]
        rhs = rates[1:] * pmf[1:]
        mask = pmf[1:] > 1e-300
        assert np.max(np.abs(lhs[mask] - rhs[mask]) / rhs[mask]) < 1e-10

    def test_downward_reconstruction_matches(self):
        # the flow-balance recursion, stepped down and up from the mode at 50
        # digits, agrees with the closed-form weights
        params = ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.7)
        dist = pmf_for(params)
        ks = window_states(dist)[:401]
        oracle = oracles.chain_pmf(params, dist.k_top, log=True)
        want = np.array([float(oracle[k] - oracle[ks[0]]) for k in ks])
        assert np.max(np.abs(want - (dist.log_pmf[: ks.size] - dist.log_pmf[0]))) < 1e-10

    def test_tail_bound_certified(self):
        dist = stationary_pmf(ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0), 1e-10)
        assert dist.tail_bound <= 1e-10

    def test_rejects_bad_tail_tol(self):
        with pytest.raises(ValueError):
            stationary_pmf(ModelParams(lam=1.0, mu=1.0, n=2, alpha=0.0), 0.0)

    def test_state_cap_signals(self, monkeypatch):
        monkeypatch.setattr(ctmc, "_STATE_CAP", 1000)
        with pytest.raises(TruncationError, match="would exceed 1000 states"):
            stationary_pmf(ModelParams(lam=4.999, mu=1.0, n=5, alpha=0.0), 1e-14)

    def test_k_star_flow_property(self):
        for params in [
            ModelParams(lam=3.0, mu=1.0, n=5, alpha=0.0),
            ModelParams(lam=499.0, mu=1.0, n=500, alpha=0.0),
            ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0),
        ]:
            dist = pmf_for(params)
            ks, der = dist.k_min + int(np.argmax(dist.log_pmf)), dist.derived
            assert departure_rate(der, ks) <= der.R * (1 + 1e-15)
            assert der.R <= departure_rate(der, ks + 1) * (1 + 1e-15)

    @pytest.mark.parametrize(
        "pars",
        [(4.9, 5, 0.0), (12.0, 5, 2.0), (3.0, 5, 0.5), (5.0, 5, 1.0), (100.0, 90, 0.01),
         (5.0, 5, 1e-19), (1e-5, 1, 0.0)],
    )
    def test_mode_is_the_last_state_with_rate_at_most_lam(self, pars):
        # stepping oracle: 5 + 1e-19 q rounds to 5 up to q = 4,440
        lam, n, alpha = pars
        der = derive(ModelParams(lam=lam, mu=1.0, n=n, alpha=alpha))
        k = 0
        while departure_rate(der, k + 1) <= der.R:
            k += 1
        assert _mode(der) == k

    @pytest.mark.parametrize("pars", [(5.0, 5, 1e-22), (5.0, 5, 1e-300), (1e6, 1_000_000, 1e-20)])
    def test_critical_load_tiny_alpha_fails_fast(self, departure_rate_budget, pars):
        # at critical load n mu + alpha q rounds to lam for q up to
        # ulp(lam) / (2 alpha): 4.4e6 states at alpha = 1e-22, past the
        # state cap for the others; the mode search reads d(k) a few dozen
        # times, and a one-state stepping search would exceed the budget
        lam, n, alpha = pars
        with pytest.raises(TruncationError, match="would exceed 100000000 states"):
            stationary_pmf(ModelParams(lam=lam, mu=1.0, n=n, alpha=alpha))

    @settings(max_examples=25, deadline=None)
    @given(
        rho=st.floats(0.2, 0.98),
        n=st.integers(1, 40),
        ratio=st.sampled_from([0.0, 0.3, 1.0, 4.0]),
    )
    def test_random_params_mass_and_balance(self, rho, n, ratio):
        params = ModelParams(lam=rho * n, mu=1.0, n=n, alpha=ratio)
        dist = stationary_pmf(params, 1e-12)
        pmf = dist.pmf
        assert math.fsum(pmf.tolist()) == pytest.approx(1.0, abs=1e-12)
        mid = dist.k_min + int(np.argmax(dist.log_pmf))
        i = mid - dist.k_min
        if i >= 1:
            assert dist.derived.R * pmf[i - 1] == pytest.approx(
                departure_rate(dist.derived, mid) * pmf[i], rel=1e-10
            )


class TestWindow:
    @settings(max_examples=30, deadline=None)
    @given(params=window_params())
    def test_matches_full_grid(self, params):
        dist = stationary_pmf(params, 1e-12)
        ref = full_grid_pmf(params, 1e-12)
        assert dist.k_max == ref.k_max
        # the early failure gives up on no grid the doubling reaches
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctmc, "_STATE_CAP", ref.k_max)
            assert stationary_pmf(params, 1e-12).k_max == ref.k_max
        ref_pmf = ref.pmf
        window = ref_pmf[dist.k_min : dist.k_top + 1]
        np.testing.assert_allclose(dist.pmf, window, rtol=1e-12, atol=0.0)
        outside = np.concatenate((ref_pmf[: dist.k_min], ref_pmf[dist.k_top + 1 :]))
        # an Erlang-C tail is exactly geometric, so there the majorant is
        # tight and only the two normalizations' rounding separates them
        assert math.fsum(outside.tolist()) <= dist.tail_bound * (1.0 + 1e-12)

    @settings(max_examples=30, deadline=None)
    @given(params=small_window_params(), u=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=8))
    def test_cdf_is_the_pmf_cumsum(self, params, u):
        # cdf sums the pmf only up to the largest index it searched; cumsum
        # adds left to right, so each value has the whole window's bits
        dist = stationary_pmf(params, 1e-12)
        x, full = dist.x, np.cumsum(dist.pmf)
        u = np.asarray(u)
        # points between the states and outside the window, and states themselves
        on = np.clip(np.round(u * (x.size - 1)), 0, x.size - 1).astype(int)
        t = np.concatenate((x[0] + u * (x[-1] - x[0]), x[on]))
        idx = np.searchsorted(x, t, side="right")
        want = [full[i - 1].hex() if i else (0.0).hex() for i in idx]
        assert [v.hex() for v in dist.cdf(t).tolist()] == want
        assert [dist.cdf(float(v)).hex() for v in t] == want
        assert dist.cdf(np.nextafter(x[0], -np.inf)) == 0.0
        assert dist.cdf(np.array([x[0] - 1.0, -np.inf])).tolist() == [0.0, 0.0]

    def test_size_at_large_r(self):
        dist = stationary_pmf(ModelParams(lam=4.9e6, mu=1.0, n=4_998_000, alpha=0.0))
        assert dist.k_top - dist.k_min + 1 <= 100_000
        assert dist.k_max == 4_926_623
        assert dist.k_min > 0

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(lam=4.9e6, mu=1.0, n=4_998_000, alpha=0.0),
            ModelParams(lam=1000.0, mu=1.0, n=1000, alpha=0.01),
        ],
    )
    def test_mpmath_head_and_normalizer(self, params):
        dist = stationary_pmf(params)
        pmf = oracles.chain_pmf(params, dist.k_top)
        head = math.fsum(float(p) for k, p in pmf.items() if k < dist.k_min)
        beyond = math.fsum(float(p) for k, p in pmf.items() if k > dist.k_top)
        assert dist.k_min > 0
        assert 0.0 < head < 1e-32
        # the certificate covers the head, the gap and the tail
        assert head + beyond <= dist.tail_bound <= 1e-14
        # the closed-form log weights are accurate to ~|log weight| * eps in
        # absolute terms, which is 1.8e-8 relative at R = 4.9e6
        mode = _mode(dist.derived)
        assert dist.pmf[mode - dist.k_min] == pytest.approx(float(pmf[mode]), rel=1e-7)

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(lam=4.99, mu=1.0, n=5, alpha=0.0),
            ModelParams(lam=0.999, mu=1.0, n=1, alpha=0.0),
            ModelParams(lam=99.95, mu=1.0, n=100, alpha=0.0),
            ModelParams(lam=5.0, mu=1.0, n=5, alpha=0.01),
            ModelParams(lam=40.0, mu=1.0, n=5, alpha=0.05),
            ModelParams(lam=1e4, mu=1.0, n=20_000, alpha=0.0),
        ],
    )
    def test_fail_fast_keeps_k_max(self, params, monkeypatch):
        # near critical load the first k_hi that can pass lies past the
        # first doublings, at light load it lies below n; the early failure
        # must not give up on it, even with the state cap right at it
        k_max = full_grid_pmf(params, 1e-12).k_max
        assert stationary_pmf(params, 1e-12).k_max == k_max
        monkeypatch.setattr(ctmc, "_STATE_CAP", k_max)
        assert stationary_pmf(params, 1e-12).k_max == k_max

    @staticmethod
    def _walked(monkeypatch) -> list[int]:
        """The k_hi of every window ``stationary_pmf`` builds from now on."""
        tries = []
        truncated_pmf = ctmc._truncated_pmf

        def recorded(derived, k_min, floor, k_hi, q, tail_tol):
            tries.append(k_hi)
            return truncated_pmf(derived, k_min, floor, k_hi, q, tail_tol)

        monkeypatch.setattr(ctmc, "_truncated_pmf", recorded)
        return tries

    def test_doubling_starts_at_the_first_useful_k_hi(self, monkeypatch):
        # every k_hi before the first that passes the tail test fails it
        # against the largest normalizer any window can have: no window is
        # built for one
        tries = self._walked(monkeypatch)
        dist = stationary_pmf(ModelParams(lam=4.999, mu=1.0, n=5, alpha=0.0), 1e-14)
        assert dist.k_max == 317_376
        assert tries == [317_376]

    def test_normalizer_bound_starts_at_the_window_head(self, monkeypatch):
        # Z counts the states from k_min, not from 0: k_hi = 158,208 fails
        # against it and is skipped, where n mode weights would not rule it out
        tries = self._walked(monkeypatch)
        params = ModelParams(lam=37132.47339856808, mu=1.0, n=37142, alpha=0.0)
        dist = stationary_pmf(params, moment_order=1)
        assert dist.k_max == 316_480
        assert tries == [316_480]

    @pytest.mark.parametrize("n", [1, 40])
    def test_weights_above_the_mode_are_not_a_window(self, n):
        # at alpha = 1e-300 gammaln(queue + base + 1) - gammaln(base + 1)
        # cancels to 0, so the closed-form weights rise by lam/alpha a state
        # past n: they once made a point mass at k_hi, far from the true
        # chain's mass at k = 0
        with pytest.raises(TruncationError, match="stationary grid would exceed"):
            stationary_pmf(ModelParams(lam=1e-30, mu=1.0, n=n, alpha=1e-300))

    @pytest.mark.parametrize("lam", [0.5, 1e-8])
    def test_rising_weights_reach_the_cap_without_a_window(self, monkeypatch, lam):
        # the doubling once built all 20 windows up to the state cap
        tries = self._walked(monkeypatch)
        start = time.perf_counter()
        with pytest.raises(TruncationError, match="stationary grid would exceed"):
            stationary_pmf(ModelParams(lam=lam, mu=1.0, n=40, alpha=1e-300))
        assert tries == [] and time.perf_counter() - start < 0.5

    def test_fail_fast_at_light_load_and_large_n(self):
        # the tail test passes well below n = 1e8 here, so the geometric
        # bound above n must not force a grid past the default state cap
        dist = stationary_pmf(ModelParams(lam=5e7, mu=1.0, n=10**8, alpha=0.0))
        assert dist.k_max == 50_084_912

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(lam=5.0 - 1e-9, mu=1.0, n=5, alpha=0.0),
            ModelParams(lam=5.0 - 1e-9, mu=1.0, n=5, alpha=1e-9),
            # huge loads fail on their first grid, before the mode search:
            # past 2^53 a float departure rate cannot resolve a unit step,
            # and at 1e20 an integer state overflowed a C long there
            ModelParams(lam=1e15, mu=1.0, n=10**15 + 1, alpha=0.0),
            ModelParams(lam=1e16, mu=1.0, n=10**16 + 1, alpha=0.0),
            ModelParams(lam=1e19, mu=1.0, n=1, alpha=1.0),
            ModelParams(lam=1e20, mu=1.0, n=1, alpha=1.0),
        ],
        ids=["0.0", "1e-09", "lam1e15", "lam1e16", "lam1e19_alpha1", "lam1e20_alpha1"],
    )
    def test_hopeless_grid_fails_fast(self, params):
        start = time.perf_counter()
        with pytest.raises(TruncationError):
            stationary_pmf(params, 1e-14)
        assert time.perf_counter() - start < 1.0

    def test_stein_residual_on_window_above_zero(self):
        # with k_min > 0 the telescoped sum keeps a term at the bottom edge
        dist = stationary_pmf(ModelParams(lam=1000.0, mu=1.0, n=1100, alpha=0.0))
        assert dist.k_min > 0
        res = stein_identity_residual(dist, lambda x: np.asarray(x) ** 2)
        assert res.residual <= res.tolerance


def _assert_moments_match_mask_oracle(dist, orders):
    """Every region x shift x absolute moment against the boolean-mask
    formula, bit for bit; an empty region reads 0.0."""
    k, n, x, pmf = window_states(dist), dist.derived.n, dist.x, dist.pmf
    masks = {"all": k >= 0, "below": k <= n, "above": k >= n}
    for region, mask in masks.items():
        for shift, offset in (("none", 0.0), ("plus_zeta", dist.derived.zeta)):
            for absolute in (True, False):
                for m in orders:
                    g = x[mask] + offset
                    vals = np.abs(g) ** m if absolute else g**m
                    want = ctmc._exact_sum(vals * pmf[mask])
                    got = moment(dist, m, region, shift, absolute=absolute)
                    assert got.hex() == want.hex(), (region, shift, absolute, m)
                    if not mask.any():
                        assert got.hex() == (0.0).hex()


class TestMoment:
    def test_mass_moment(self):
        dist = pmf_for(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        assert moment(dist, 0, "all") == pytest.approx(1.0, abs=1e-12)

    def test_table2_second_moment(self):
        dist = pmf_for(ModelParams(lam=499.0, mu=1.0, n=500, alpha=0.0), 1e-14, 2)
        assert moment(dist, 2) == pytest.approx(9.47e2, rel=0.01)

    def test_idle_expectation_identity(self):
        # scaled expected idle servers below the kink equals |zeta| exactly
        for lam, n in [(3.0, 5), (4.9, 5), (499.0, 500)]:
            dist = pmf_for(ModelParams(lam=lam, mu=1.0, n=n, alpha=0.0))
            az = abs(dist.derived.zeta)
            assert moment(dist, 1, "below", "plus_zeta") == pytest.approx(az, rel=1e-10)

    def test_region_split_at_grid_point(self):
        dist = pmf_for(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        below = moment(dist, 0, "below")
        above = moment(dist, 0, "above")
        at_kink = dist.pmf[dist.derived.n]
        assert below + above - at_kink == pytest.approx(1.0, abs=1e-12)

    def test_signed_vs_absolute(self):
        dist = pmf_for(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        assert moment(dist, 1, absolute=True) >= abs(moment(dist, 1, absolute=False))

    def test_truncation_signals(self):
        dist = stationary_pmf(ModelParams(lam=4.99, mu=1.0, n=5, alpha=0.0), 1e-6)
        with pytest.raises(TruncationError):
            moment(dist, 10)
        # every region is certified against the full-support moment
        with pytest.raises(TruncationError):
            moment(dist, 10, "below")

    def test_region_outside_window_reads_zero(self):
        # overloaded Erlang-A: P(X <= n) ~ 1e-46 lies wholly in the head
        # below k_min, which the certificate bounds next to the total mass
        dist = stationary_pmf(ModelParams(lam=2000.0, mu=1.0, n=1400, alpha=1.0))
        assert dist.k_min > dist.derived.n
        assert moment(dist, 0, "below") == 0.0
        assert dist.tail_bound <= 1e-8

    @pytest.mark.parametrize(
        "params, edge",
        [
            (ModelParams(lam=100.0, mu=1.0, n=5, alpha=1.0), "n < k_min"),
            (ModelParams(lam=100.0, mu=1.0, n=7, alpha=1.0), "n == k_min"),
            (ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0), "inside"),
            (ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0), "inside"),
            (ModelParams(lam=0.5, mu=1.0, n=24, alpha=0.0), "n == k_top"),
            (ModelParams(lam=0.5, mu=1.0, n=50, alpha=0.0), "n > k_top"),
        ],
    )
    def test_regions_match_mask_oracle(self, params, edge):
        # the window slices against the boolean-mask formula, bit for bit
        dist = stationary_pmf(params, moment_order=5)
        n, k_min, k_top = params.n, dist.k_min, dist.k_top
        edges = {
            "n < k_min": n < k_min,
            "n == k_min": n == k_min,
            "inside": k_min < n < k_top,
            "n == k_top": n == k_top,
            "n > k_top": n > k_top,
        }
        assert edges[edge]
        _assert_moments_match_mask_oracle(dist, (0, 1, 2, 5))

    def test_moment_order_cap(self):
        dist = pmf_for(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        with pytest.raises(ValueError):
            moment(dist, 21)

    @pytest.mark.parametrize(
        "kwargs, message",
        [({"region": "middle"}, "unknown region 'middle'"),
         ({"shift": "minus_zeta"}, "unknown shift 'minus_zeta'")],
    )
    def test_unknown_region_or_shift(self, kwargs, message):
        dist = pmf_for(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        with pytest.raises(ValueError, match=message):
            moment(dist, 1, **kwargs)

    @pytest.mark.parametrize(
        ("lam", "n", "m"),
        [
            (4.37144481261109, 7, 9),
            (6.506643848685942, 10, 9),
            (6.90200036946078, 10, 6),
            (1.7431295383264858, 3, 10),
            (4.703755927359889, 7, 6),
            (9.71977383054598, 14, 7),
        ],
    )
    def test_moment_order_certifies_the_shifted_moment(self, lam, n, m):
        # moment_order=m certifies E|X + zeta|^m as well as E|X|^m, so this returns
        dist = stationary_pmf(ModelParams(lam=lam, mu=1.0, n=n, alpha=0.0), moment_order=m)
        assert moment(dist, m, "all", "plus_zeta") > 0.0

    def test_shifted_moment_takes_one_window_pass(self, monkeypatch):
        # the certification scale of a shifted moment is the shifted sum that
        # moment_order kept (|zeta| = 4 leaves the Minkowski floor at 0, so it
        # was taken), or, for the whole window, the absolute result itself
        params = ModelParams(lam=1.0, mu=1.0, n=5, alpha=0.0)
        certified = stationary_pmf(params, moment_order=2)
        plain = stationary_pmf(params)
        assert (2, certified.derived.zeta) in certified._abs_moment_sums
        passes = []
        terms = ctmc._moment_terms

        def counted(*args, **kwargs):
            passes.append(args[1])
            return terms(*args, **kwargs)

        monkeypatch.setattr(ctmc, "_moment_terms", counted)
        for dist, region in ((certified, "above"), (plain, "all")):
            passes.clear()
            assert moment(dist, 2, region, "plus_zeta") > 0.0
            assert len(passes) == 1

    def test_edge_states_are_read_once(self, monkeypatch):
        # moment_order records its sums on the pmf it certified, not on a
        # copy, so the tail bound's edge states k_min, k_top and k_max keep
        # the closed form they read there, and moment_error reuses it; the
        # window searches go through _log_weight and are not counted
        params = ModelParams(lam=88.98, mu=1.0, n=89, alpha=70.13)
        weights = ctmc._log_weights
        calls = []

        def counted(der, k_lo, k_hi):
            calls.append((k_lo, k_hi))
            return weights(der, k_lo, k_hi)

        monkeypatch.setattr(ctmc, "_log_weight", lambda der, k: float(weights(der, k, k)[0]))
        monkeypatch.setattr(ctmc, "_log_weights", counted)
        dist = stationary_pmf(params, moment_order=2)
        moment_error(dist, build_density(dist.derived), 2)
        edges = (dist.k_min, dist.k_top, dist.k_max)
        assert dist.k_min < dist.k_top < dist.k_max
        assert [calls.count((k, k)) for k in edges] == [1, 1, 1]


class TestMemory:
    def test_moment_pipeline_holds_no_window_array(self):
        # about 2.2M states, 34 blocks: every pass builds its blocks from the
        # closed form and drops them, so the peak is a few blocks of scratch
        # (and the diffusion side), whatever the window length
        params = ModelParams(lam=1.0 - 1.5e-5, mu=1.0, n=1, alpha=0.0)
        tracemalloc.start()
        try:
            dist = stationary_pmf(params, moment_order=1)
            moment_error(dist, build_density(dist.derived), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.k_top - dist.k_min + 1 > 2_000_000
        assert peak <= 12 * 8 * ctmc._BLOCK

    def test_moment_path_caches_no_pmf_or_x(self, monkeypatch):
        # nor do verify and distance, which read every suite off their pmf
        built = []

        def recorded(*args, **kwargs):
            built.append(stationary_pmf(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(metrics, "stationary_pmf", recorded)
        for params in (
            ModelParams(lam=4.99, mu=1.0, n=5, alpha=0.0),
            ModelParams(lam=2000.0, mu=1.0, n=1400, alpha=1.0),
        ):
            dist = stationary_pmf(params, moment_order=3)
            moment_error(dist, build_density(dist.derived), 3)
            moment_bound_report(dist)
            assert dist.tail_bound >= 0.0
            report.run_verify(params)
            report.run_distance(params)
            for each in [dist, *built]:
                for name in ("log_pmf", "pmf", "x"):
                    assert name not in each.__dict__
        assert len(built) == 4


class TestExactSum:
    # the block form chains np.sum through ``initial``; numpy reduces a
    # cast input in buffers of np.getbufsize() elements one after another,
    # so whole-buffer blocks reproduce the one-array sum bit for bit
    def test_block_is_whole_buffers(self):
        assert ctmc._BLOCK % np.getbufsize() == 0

    @settings(max_examples=20, deadline=None)
    @given(
        size=st.one_of(
            st.sampled_from([1, 20_000, 20_001, ctmc._BLOCK, ctmc._BLOCK + 1]),
            st.floats(0.0, math.log10(3e6)).map(lambda e: int(10.0**e)),
        ),
        seed=st.integers(0, 2**32 - 1),
        longdouble=st.booleans(),
    )
    @example(size=3_000_000, seed=1, longdouble=True)
    @example(size=3_000_000, seed=2, longdouble=False)
    def test_blocks_match_one_array(self, size, seed, longdouble):
        rng = np.random.default_rng(seed)
        terms = rng.standard_normal(size) * np.exp(rng.uniform(-30.0, 30.0, size))
        blocks = (terms[lo : lo + ctmc._BLOCK] for lo in range(0, size, ctmc._BLOCK))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctmc, "_LONGDOUBLE_EXACT", ctmc._LONGDOUBLE_EXACT and longdouble)
            got = ctmc._exact_sum(blocks)
            one = ctmc._exact_sum(terms)
            if size > 20_000 and ctmc._LONGDOUBLE_EXACT:
                want = float(np.sum(terms, dtype=np.longdouble))
            else:
                want = math.fsum(terms.tolist())
        assert got.hex() == one.hex() == want.hex()

    @pytest.mark.parametrize("longdouble", [True, False])
    @pytest.mark.parametrize(
        "size", [0, 1, 20_000, 20_001, ctmc._BLOCK, 3 * ctmc._BLOCK, 5 * ctmc._BLOCK + 7]
    )
    def test_row_blocks_sum_each_row(self, size, longdouble):
        # stacked row blocks: each row's sum is that row's own block stream
        # summed, bit for bit, on both sides of the 20,000-term switch; a
        # zero-width block is the empty stream of each row
        rng = np.random.default_rng(size)
        terms = rng.standard_normal((3, size)) * np.exp(rng.uniform(-30.0, 30.0, (3, size)))
        starts = range(0, max(size, 1), ctmc._BLOCK)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctmc, "_LONGDOUBLE_EXACT", ctmc._LONGDOUBLE_EXACT and longdouble)
            got = ctmc._exact_sum(terms[:, lo : lo + ctmc._BLOCK] for lo in starts)
            each = [ctmc._exact_sum(row[lo : lo + ctmc._BLOCK] for lo in starts) for row in terms]
        assert isinstance(got, list)
        assert [v.hex() for v in got] == [v.hex() for v in each]
        assert ctmc._exact_sum(iter([])) == 0.0

    def test_fallback_streams_one_row(self, monkeypatch):
        # without a wider long double a one-row stream is still summed as
        # its blocks come: the peak is a few blocks, not the stream's 100
        monkeypatch.setattr(ctmc, "_LONGDOUBLE_EXACT", False)
        blocks = (np.full(ctmc._BLOCK, 1.0 / (i + 1)) for i in range(100))
        tracemalloc.start()
        try:
            ctmc._exact_sum(blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * ctmc._BLOCK


def _plain_log_weights(der, k_lo, k_hi):
    """The closed-form log weights as one-shot array expressions."""
    k = np.arange(k_lo, k_hi + 1, dtype=float)
    served = np.minimum(k, float(der.n))
    r = der.R
    ell = served * math.log(r) - gammaln(served + 1.0)
    if der.is_erlang_c:
        return ell + (k - served) * math.log(r / der.n)
    beta = der.a
    base = der.n / beta
    ell = ell + (k - served) * (math.log(r) - math.log(beta))
    return ell - (gammaln(k - served + (base + 1.0)) - gammaln(base + 1.0))


class TestBlocks:
    # window passes run in blocks of ctmc._BLOCK states; with a small odd
    # block, block edges fall all over the window and inside every region
    @settings(max_examples=40, deadline=None)
    @given(
        params=small_window_params(),
        block=st.integers(1, 20).map(lambda i: 2 * i + 1),
        cut=st.floats(0.0, 1.0),
        m=st.integers(0, 10),
    )
    @example(
        params=ModelParams(lam=4.37144481261109, mu=1.0, n=7, alpha=0.0), block=3, cut=0.0, m=9
    )
    def test_blocks_keep_every_bit(self, params, block, cut, m):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctmc, "_BLOCK", block)
            dist = stationary_pmf(params, moment_order=m)
            k_hi, der = dist.k_top, dist.derived
            full = ctmc._log_weights(der, 0, k_hi)
            assert full.tobytes() == _plain_log_weights(der, 0, k_hi).tobytes()
            k_lo = int(cut * k_hi)
            sub = ctmc._log_weights(der, k_lo, k_hi)
            assert sub.tobytes() == full[k_lo:].tobytes()
            _assert_moments_match_mask_oracle(dist, (m,))


def _generator_at(der, f, k):
    """|G f(x_k)| from ``stein_identity_residual`` on a point mass at state k:
    a one-state window, normalized by its own weight."""
    ell_k = ctmc._log_weight(der, k)
    point = DiscreteStationary(der, k_min=k, k_top=k, k_max=k + 1, ell_max=ell_k, log_z=0.0)
    assert point.pmf.tolist() == [1.0]
    return stein_identity_residual(point, f).residual, float(point.x[0])


class TestGenerator:
    def test_kills_constants(self):
        der = derive(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        for k in range(0, 12):
            assert _generator_at(der, lambda x: np.full_like(x, 3.7), k)[0] == 0.0

    def test_identity_gives_drift(self):
        der = derive(ModelParams(lam=4.0, mu=1.0, n=5, alpha=1.5))
        for k in range(0, 20):
            got, x = _generator_at(der, lambda t: t, k)
            assert got == pytest.approx(abs(drift(der, x)), rel=1e-12, abs=1e-12)

    def test_quadratic_closed_form(self):
        # below the kink in the Erlang-C model:
        # G V(x) = -2x^2 + delta x + 2 per unit mu for V(x) = x^2
        der = derive(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        for k in range(0, der.n + 1):
            got, x = _generator_at(der, lambda t: t * t, k)
            want = -2.0 * x * x + der.delta * x + 2.0
            assert got == pytest.approx(abs(want), rel=1e-12, abs=1e-12)


class TestSteinIdentity:
    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0),
            ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0),
            ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0),
        ],
    )
    def test_linear_and_quadratic(self, params):
        dist = pmf_for(params, 1e-14)
        assert stein_identity_residual(dist, lambda x: x).residual < 1e-9
        assert stein_identity_residual(dist, lambda x: np.asarray(x) ** 2).residual < 1e-9

    def test_poisson_solution_residual(self):
        params = ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0)
        dist = pmf_for(params, 1e-14)
        sol = build_solution(density_for(params), TestFunction.identity())
        res = stein_identity_residual(dist, sol.antiderivative)
        assert res.residual < 1e-8

    def test_poisson_residual_holds_blocks_not_the_window(self):
        # 43,834 states, 6 blocks: the residual takes f and its differences
        # per walk block, and the antiderivative's panel quadrature per chunk
        # of about ctmc._BLOCK nodes, so the peak is a few dozen block
        # arrays (27.7 here), whatever the window length; each array over
        # the whole window would add 5.4
        s = metrics.Scenario(ModelParams(lam=99.9, mu=1.0, n=100, alpha=0.0))
        dist, sol = s.dist, s.anchors[1]
        tracemalloc.start()
        try:
            stein_identity_residual(dist, sol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dist.k_top - dist.k_min + 1 > 5 * ctmc._BLOCK
        assert peak <= 32 * 8 * ctmc._BLOCK

    def test_rejects_degenerate_function(self):
        dist = pmf_for(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        with pytest.raises(ValueError):
            stein_identity_residual(
                dist, lambda x: np.where(np.asarray(x) > 1.0, np.nan, 1.0)
            )


def _one_array_residual(dist, f):
    """|E G f(X~)| from whole-window arrays: f on x_min - delta, every
    window state and x_top + delta in one call."""
    x, pmf, delta, r = dist.x, dist.pmf, dist.derived.delta, dist.derived.R
    x_ext = np.concatenate(([x[0] - delta], x, [x[-1] + delta]))
    fx = np.asarray(f(x_ext), dtype=float)
    fwd, bwd = fx[2:] - fx[1:-1], fx[:-2] - fx[1:-1]
    rates = departure_rate(dist.derived, window_states(dist))
    return abs(ctmc._exact_sum(pmf * (r * fwd + rates * bwd)))


class TestWalkReads:
    # the Stein-identity residual, cdf and prob_interval walk the window
    # ctmc._BLOCK states at a time, the Kolmogorov decomposition reads
    # P(X <= a) through cdf, and verify the straddle through prob_interval;
    # with a small odd block, block seams fall all over the window, which one
    # block of 2^30 covers whole
    @settings(max_examples=15, deadline=None)
    @given(
        params=small_window_params(),
        block=st.integers(1, 40).map(lambda i: 2 * i + 1),
        u=st.lists(st.floats(-0.1, 1.1), min_size=1, max_size=8),
    )
    @example(params=ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0), block=3, u=[0.5])
    @example(params=ModelParams(lam=20.0, mu=1.0, n=5, alpha=1.0), block=25, u=[-0.1, 1.1])
    # k_top = 46 < n = 60 < k_max = 88: the flat stretch ends the last block
    # as two cells, split at -zeta
    @example(params=ModelParams(lam=4.0, mu=1.0, n=60, alpha=0.0), block=5, u=[1.1])
    def test_blocks_keep_every_bit(self, params, block, u):
        # the indicator anchored at the drift kink -zeta, as verify reads it
        dist, d = pmf_for(params, 1e-14), density_for(params)
        ident = build_solution(d, TestFunction.identity())
        kink = build_solution(d, TestFunction.indicator(-dist.derived.zeta))
        x, delta, a = dist.x, dist.derived.delta, kink.h.parameter
        u = np.asarray(u)
        # points between the states and outside the window, and states themselves
        on = np.clip(np.round(u * (x.size - 1)), 0, x.size - 1).astype(int)
        t = np.concatenate((x[0] + u * (x[-1] - x[0]), x[on]))
        fs = [lambda x: x, lambda x: np.asarray(x) ** 2, ident.antiderivative, kink.antiderivative]
        want = [_one_array_residual(dist, f).hex() for f in fs]

        def run():
            # a Poisson solution's antiderivative is carried across the blocks
            got = [stein_identity_residual(dist, f).residual for f in fs[:2] + [ident, kink]]
            assert [v.hex() for v in got] == want
            lhs = kolmogorov_decomposition(dist, kink).lhs
            straddle = dist.prob_interval(a - delta, a + delta)
            assert lhs.hex() == abs(dist.cdf(a) - kink.h_mean).hex()
            values = [row.observed for row in report._residual_rows(dist, ident, kink)]
            values += [*dist.cdf(t).tolist(), dist.prob_interval(t.min(), t.max())]
            # the cell edges and levels of the one running CDF, and cdf there
            cells = list(dist.cells())
            assert all(x[-1] == after[1][0] for (_, x, _), after in zip(cells, cells[1:]))
            edges = np.concatenate([x[: c.size] for _, x, c in cells])
            levels = np.concatenate([c for _, _, c in cells]).tolist()
            assert dist.cdf(edges).tolist() == levels
            values += [*edges.tolist(), *levels]
            return [float(v).hex() for v in values + [lhs, straddle]]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctmc, "_BLOCK", 1 << 30)
            one = run()
            mp.setattr(ctmc, "_BLOCK", block)
            blocks = run()
        assert blocks == one


class TestMomentBoundReport:
    def test_erlang_c_rows(self):
        dist = pmf_for(ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0))
        rows = {r.name: r for r in moment_bound_report(dist)}
        delta = dist.derived.delta
        r = rows["xsquare_below"]
        assert r.bound == pytest.approx(4.0 / 3.0 + 2.0 * delta**2 / 3.0, rel=1e-14)
        assert r.satisfied
        r = rows["idle_prob"]
        assert r.bound == pytest.approx((2.0 + delta) * abs(dist.derived.zeta), rel=1e-14)
        assert r.satisfied
        assert all(row.satisfied for row in rows.values())

    def test_erlang_a_overloaded_rows(self):
        dist = pmf_for(ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0))
        rows = {r.name: r for r in moment_bound_report(dist)}
        delta = dist.derived.delta
        r = rows["o_xsquare_above"]
        assert r.bound == pytest.approx((delta**2 + 4.0 / 2.0) / 3.0, rel=1e-14)
        assert all(row.satisfied for row in rows.values())

    def test_erlang_a_underloaded_rows(self):
        dist = pmf_for(ModelParams(lam=3.0, mu=1.0, n=5, alpha=0.5))
        assert all(r.satisfied for r in moment_bound_report(dist))

    @pytest.mark.parametrize(
        "params",
        [
            ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0),
            ModelParams(lam=3.0, mu=1.0, n=5, alpha=0.5),
            ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0),
        ],
    )
    def test_each_moment_evaluated_once(self, params, monkeypatch):
        # and each whole-window sum of |x + offset|^m pmf, the scale every
        # moment of that order and shift is certified against, once per window
        dist = stationary_pmf(params)
        calls, sums = [], []
        terms = ctmc._moment_terms

        def counting_moment(dist, m, region="all", shift="none"):
            calls.append((m, region, shift))
            return moment(dist, m, region, shift)

        def counting_terms(dist, part, offset, m, absolute=True):
            if part == slice(None) and absolute:
                sums.append((m, offset))
            return terms(dist, part, offset, m, absolute)

        monkeypatch.setattr(ctmc, "moment", counting_moment)
        monkeypatch.setattr(ctmc, "_moment_terms", counting_terms)
        moment_bound_report(dist)
        assert len(calls) == len(set(calls)) == 6
        offsets = {"none": 0.0, "plus_zeta": dist.derived.zeta}
        assert sorted(sums) == sorted({(m, offsets[shift]) for m, _, shift in calls})

    def test_critical_load_uses_under_branch(self):
        dist = pmf_for(ModelParams(lam=5.0, mu=1.0, n=5, alpha=1.0))
        rows = moment_bound_report(dist)
        assert any(r.name.startswith("u_") for r in rows)
        assert all(r.satisfied for r in rows)


class TestIdleMonotone:
    def test_strictly_decreasing(self):
        probs = idle_probability_monotone(1.0, 5, 1.0, [4.0, 6.0, 8.0])
        assert probs[0] > probs[1] > probs[2]

    def test_singleton(self):
        probs = idle_probability_monotone(1.0, 5, 1.0, [4.0])
        assert len(probs) == 1

    def test_deterministic(self):
        a = idle_probability_monotone(1.0, 5, 1.0, [6.0])
        b = idle_probability_monotone(1.0, 5, 1.0, [6.0])
        assert a == b

    def test_requires_abandonment(self):
        with pytest.raises(ValueError):
            idle_probability_monotone(1.0, 5, 0.0, [2.0, 3.0])
