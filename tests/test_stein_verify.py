import numpy as np
import pytest

from conftest import SPOT_SETS, density_for, pmf_for
from erlangdiff.metrics import kolmogorov_distance
from erlangdiff.model import Check, ModelParams
from erlangdiff.poisson import PoissonSolution, TestFunction, build_solution
from erlangdiff.stein_verify import (
    kolmogorov_decomposition,
    taylor_remainder_audit,
    wasserstein_decomposition,
)

C_HEAVY = ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0)


def _straddle_row(dec):
    # the verify row's verdict, with its slack
    extras = dec.extras
    return Check.at_most(
        "straddle", extras["straddle"], extras["straddle_majorant"], rtol=1e-12, atol=1e-12
    )


class TestWassersteinDecomposition:
    def test_heavy_traffic_example(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        sol = build_solution(density_for(C_HEAVY), TestFunction.identity())
        dec = wasserstein_decomposition(dist, sol)
        delta = dist.derived.delta
        assert dec.total <= 205.0 * delta
        assert dec.lhs <= dec.total + 1e-8
        assert dec.extras["mean_abs_f2b"] <= 111.0
        assert set(dec.terms) == {
            "term1_drift_f2",
            "term2_forward_f3",
            "term3_backward_f3",
            "term4_drift_f3",
        }
        assert all(v >= 0.0 for v in dec.terms.values())

    @pytest.mark.parametrize("pars", SPOT_SETS)
    def test_bound_validity(self, pars):
        params = ModelParams(*pars)
        dist = pmf_for(params, 1e-14)
        sol = build_solution(density_for(params), TestFunction.identity())
        dec = wasserstein_decomposition(dist, sol)
        assert dec.lhs <= dec.total + 1e-8

    def test_abs_dev_test_function(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        sol = build_solution(density_for(C_HEAVY), TestFunction.abs_dev(0.4))
        dec = wasserstein_decomposition(dist, sol)
        assert dec.lhs <= dec.total + 1e-8

    def test_rejects_indicator(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        sol = build_solution(density_for(C_HEAVY), TestFunction.indicator(0.0))
        with pytest.raises(ValueError):
            wasserstein_decomposition(dist, sol)

    def test_f_third_calls_are_batched(self, monkeypatch):
        # rounding noise in f''' reads as sign changes in about 1,100 panels
        # here; the probes, each bisection step and the piece integrals take
        # one array call each for all of them
        params = ModelParams(lam=100.0, mu=1.0, n=90, alpha=0.01)
        dist = pmf_for(params, 1e-14)
        sol = build_solution(density_for(params), TestFunction.identity())
        calls = []
        f_third = PoissonSolution.f_third

        def counted(self, x):
            calls.append(np.size(x))
            return f_third(self, x)

        monkeypatch.setattr(PoissonSolution, "f_third", counted)
        wasserstein_decomposition(dist, sol)
        assert 0 < len(calls) <= 100


class TestKolmogorovDecomposition:
    def test_anchor_at_kink(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        d = density_for(C_HEAVY)
        a = -dist.derived.zeta
        sol = build_solution(d, TestFunction.indicator(a))
        dec = kolmogorov_decomposition(dist, sol, kolmogorov_distance(dist, d))
        delta = dist.derived.delta
        assert dec.lhs <= 0.5 * dec.extras["straddle"] + 75.0 * delta
        assert _straddle_row(dec).satisfied
        assert dec.lhs <= dec.total + 1e-8

    def test_far_tail_anchor_vanishes(self):
        # |zeta| = 2 here, so the tail truly carries no mass at -zeta + 40
        params = ModelParams(lam=4.0, mu=1.0, n=8, alpha=0.0)
        dist = pmf_for(params, 1e-14)
        d = density_for(params)
        a = -dist.derived.zeta + 40.0
        sol = build_solution(d, TestFunction.indicator(a))
        dec = kolmogorov_decomposition(dist, sol, kolmogorov_distance(dist, d))
        assert all(abs(v) < 1e-12 for v in dec.terms.values())

    @pytest.mark.parametrize("pars", SPOT_SETS)
    def test_bound_validity(self, pars):
        params = ModelParams(*pars)
        dist = pmf_for(params, 1e-14)
        d = density_for(params)
        d_k = kolmogorov_distance(dist, d)
        for a in (-params.n * 0.0 - dist.derived.zeta, 0.0):
            dec = kolmogorov_decomposition(dist, build_solution(d, TestFunction.indicator(a)), d_k)
            assert dec.lhs <= dec.total + 1e-8
            assert _straddle_row(dec).satisfied

    def test_rejects_lipschitz(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        sol = build_solution(density_for(C_HEAVY), TestFunction.identity())
        with pytest.raises(ValueError):
            kolmogorov_decomposition(dist, sol, 0.0)


class _QuadraticSolution:
    """Stand-in solution with f(x) = x^2, for which the expansion is exact."""

    def value(self, x):
        return np.asarray(x, dtype=float) ** 2

    def f_prime(self, x):
        return 2.0 * np.asarray(x, dtype=float)

    def f_second(self, x):
        return np.full_like(np.asarray(x, dtype=float), 2.0)

    def _split_points(self):
        return ()


class TestTaylorAudit:
    def test_quadratic_is_exact(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        for k in (0, 3, 5, 9):
            audit = taylor_remainder_audit(dist, _QuadraticSolution(), k)
            assert audit["gap"] < 1e-12 * max(1.0, abs(audit["exact_gen"]))

    def test_states_index_the_window(self):
        dist = pmf_for(ModelParams(lam=1000.0, mu=1.0, n=1100, alpha=0.0), 1e-14)
        assert dist.k_min > 0
        audit = taylor_remainder_audit(dist, _QuadraticSolution(), dist.k_top)
        assert audit["gap"] < 1e-12 * max(1.0, abs(audit["exact_gen"]))
        with pytest.raises(ValueError):
            taylor_remainder_audit(dist, _QuadraticSolution(), dist.k_min - 1)

    def test_identity_solution_at_kink_state(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        sol = build_solution(density_for(C_HEAVY), TestFunction.identity())
        audit = taylor_remainder_audit(dist, sol, dist.params.n)
        assert audit["gap"] < 1e-9

    def test_indicator_at_anchor_state(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        k = dist.params.n + 2
        sol = build_solution(
            density_for(C_HEAVY), TestFunction.indicator(float(dist.x[k]))
        )
        audit = taylor_remainder_audit(dist, sol, k)
        assert audit["gap"] < 1e-9

    def test_generic_states(self):
        params = ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0)
        dist = pmf_for(params, 1e-14)
        sol = build_solution(density_for(params), TestFunction.identity())
        for k in (0, 2, 5, 11):
            audit = taylor_remainder_audit(dist, sol, k)
            assert audit["gap"] < 1e-9
