import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pmf_for, density_for
from erlangdiff.ctmc import (
    TruncationError,
    apply_generator,
    idle_probability_monotone,
    moment,
    moment_bound_report,
    stationary_pmf,
    stein_identity_residual,
)
from erlangdiff.model import ModelParams, departure_rate, derive, drift, scaled_state
from erlangdiff.poisson import TestFunction, build_solution


class TestStationaryPmf:
    def test_total_mass(self):
        dist = pmf_for(ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0))
        assert math.fsum(dist.pmf.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_table1_mean(self):
        dist = pmf_for(ModelParams(lam=3.0, mu=1.0, n=5, alpha=0.0))
        mean_x = math.fsum((dist.states * dist.pmf).tolist())
        assert mean_x == pytest.approx(3.35, abs=0.005)

    def test_product_form_oracle(self):
        # M/M/1+M with every rate equal to one: nu_k proportional to 1/k!
        # (departure rate in state k is exactly k), summed directly to k=200
        w = [1.0]
        for k in range(1, 201):
            w.append(w[-1] / (min(k, 1) + max(k - 1, 0)))
        oracle = np.array(w) / math.fsum(w)
        dist = pmf_for(ModelParams(lam=1.0, mu=1.0, n=1, alpha=1.0))
        m = min(len(oracle), dist.k_max + 1)
        assert np.max(np.abs(oracle[:m] - dist.pmf[:m])) < 1e-15

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
        rates = dist.death_rates
        lhs = params.lam * dist.pmf[:-1]
        rhs = rates[1:] * dist.pmf[1:]
        mask = dist.pmf[1:] > 1e-300
        assert np.max(np.abs(lhs[mask] - rhs[mask]) / rhs[mask]) < 1e-10

    def test_downward_reconstruction_matches(self):
        # literal recursions both ways agree with the closed-form weights
        params = ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.7)
        dist = pmf_for(params)
        kmax = min(dist.k_max, 400)
        up = [0.0]
        for k in range(1, kmax + 1):
            up.append(up[-1] + math.log(params.lam) - math.log(departure_rate(params, k)))
        up = np.array(up)
        down = np.empty(kmax + 1)
        down[kmax] = up[kmax]
        for k in range(kmax, 0, -1):
            down[k - 1] = down[k] - math.log(params.lam) + math.log(departure_rate(params, k))
        log_pmf = dist.log_pmf[: kmax + 1]
        for rec in (up, down):
            rel = (rec - rec[0]) - (log_pmf - log_pmf[0])
            assert np.max(np.abs(rel)) < 1e-10

    def test_tail_bound_certified(self):
        dist = stationary_pmf(ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0), 1e-10)
        assert dist.tail_bound <= 1e-10

    def test_rejects_bad_tail_tol(self):
        with pytest.raises(ValueError):
            stationary_pmf(ModelParams(lam=1.0, mu=1.0, n=2, alpha=0.0), 0.0)

    def test_state_cap_signals(self):
        with pytest.raises(TruncationError):
            stationary_pmf(
                ModelParams(lam=4.999, mu=1.0, n=5, alpha=0.0),
                1e-14,
                state_cap=1000,
            )

    def test_k_star_flow_property(self):
        for params in [
            ModelParams(lam=3.0, mu=1.0, n=5, alpha=0.0),
            ModelParams(lam=499.0, mu=1.0, n=500, alpha=0.0),
            ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0),
        ]:
            dist = pmf_for(params)
            ks = dist.k_star
            assert departure_rate(params, ks) <= params.lam * (1 + 1e-15)
            assert params.lam <= departure_rate(params, ks + 1) * (1 + 1e-15)

    @settings(max_examples=25, deadline=None)
    @given(
        rho=st.floats(0.2, 0.98),
        n=st.integers(1, 40),
        ratio=st.sampled_from([0.0, 0.3, 1.0, 4.0]),
    )
    def test_random_params_mass_and_balance(self, rho, n, ratio):
        params = ModelParams(lam=rho * n, mu=1.0, n=n, alpha=ratio)
        dist = stationary_pmf(params, 1e-12)
        assert math.fsum(dist.pmf.tolist()) == pytest.approx(1.0, abs=1e-12)
        mid = dist.k_star
        if mid >= 1:
            assert params.lam * dist.pmf[mid - 1] == pytest.approx(
                departure_rate(params, mid) * dist.pmf[mid], rel=1e-10
            )


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
        at_kink = dist.pmf[dist.params.n]
        assert below + above - at_kink == pytest.approx(1.0, abs=1e-12)
        assert moment(dist, 0, "below_strict") == pytest.approx(below - at_kink, abs=1e-14)

    def test_signed_vs_absolute(self):
        dist = pmf_for(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        assert moment(dist, 1, absolute=True) >= abs(moment(dist, 1, absolute=False))

    def test_truncation_signals(self):
        dist = stationary_pmf(ModelParams(lam=4.99, mu=1.0, n=5, alpha=0.0), 1e-6)
        with pytest.raises(TruncationError):
            moment(dist, 10)

    def test_moment_order_cap(self):
        dist = pmf_for(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        with pytest.raises(ValueError):
            moment(dist, 21)


class TestGenerator:
    def test_kills_constants(self):
        der = derive(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        for k in range(0, 12):
            assert apply_generator(der, lambda _x: 3.7, k) == 0.0

    def test_identity_gives_drift(self):
        der = derive(ModelParams(lam=4.0, mu=1.0, n=5, alpha=1.5))
        for k in range(0, 20):
            x = scaled_state(der, k)
            assert apply_generator(der, lambda t: t, k) == pytest.approx(
                drift(der, x), rel=1e-12, abs=1e-12
            )

    def test_quadratic_closed_form(self):
        # below the kink in the Erlang-C model:
        # G V(x) = mu(-2x^2 + delta x) + 2 mu for V(x) = x^2
        der = derive(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        for k in range(0, der.n + 1):
            x = scaled_state(der, k)
            got = apply_generator(der, lambda t: t * t, k)
            want = der.mu * (-2.0 * x * x + der.delta * x) + 2.0 * der.mu
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


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

    def test_rejects_degenerate_function(self):
        dist = pmf_for(ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0))
        with pytest.raises(ValueError):
            stein_identity_residual(
                dist, lambda x: np.where(np.asarray(x) > 1.0, np.nan, 1.0)
            )


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
