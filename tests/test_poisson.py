import math

import numpy as np
import pytest
from scipy import integrate

from conftest import density_for
from erlangdiff.diffusion import DiffusionDensity
from erlangdiff.metrics import Scenario
from erlangdiff.model import ModelParams, derive, drift
from erlangdiff.poisson import (
    PoissonSolution,
    TestFunction,
    _log_row,
    build_solution,
    gradient_bound_report,
    mean_h,
)

C_PARAMS = ModelParams(lam=4.0, mu=1.0, n=5, alpha=0.0)
C_HEAVY = ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0)
A_UNDER = ModelParams(lam=3.0, mu=1.0, n=5, alpha=0.5)
A_OVER = ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0)
ALL_PARAMS = [C_PARAMS, C_HEAVY, A_UNDER, A_OVER]
# indicators anchored on both sides of the representation switch at 0
ALL_H = [
    TestFunction.identity(),
    TestFunction.indicator(0.3),
    TestFunction.indicator(-0.2),
]


def _poisson_residual(sol, x):
    """b f' + mu f'' - (h_mean - h), with f' and f'' evaluated separately."""
    b = drift(sol.derived, x)
    return b * sol.f_prime(x) + sol.derived.mu * sol.f_second(x) - (sol.h_mean - sol.h.value(x))


class TestTestFunction:
    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            TestFunction("quadratic")

    def test_lipschitz_property(self):
        rng = np.random.default_rng(0)
        xs, ys = rng.uniform(-5, 5, 50), rng.uniform(-5, 5, 50)
        h = TestFunction.identity()
        assert np.all(np.abs(h.value(xs) - h.value(ys)) <= np.abs(xs - ys) * (1 + 1e-12))

    def test_identity_normalized(self):
        assert TestFunction.identity().value(0.0) == 0.0


class TestMeanH:
    def test_far_right_indicator(self):
        d = density_for(C_PARAMS)
        a = d.switch_point + 60.0 / abs(d.derived.zeta)
        assert mean_h(d, TestFunction.indicator(a)) == pytest.approx(1.0, abs=1e-12)

    def test_identity_symmetric_case(self):
        d = density_for(ModelParams(lam=5.0, mu=1.0, n=5, alpha=1.0))
        assert mean_h(d, TestFunction.identity()) == pytest.approx(0.0, abs=1e-14)

    def test_indicator_is_cdf(self):
        d = density_for(C_PARAMS)
        oracle = integrate.quad(d.pdf, -np.inf, 0.0, limit=300)[0]
        assert mean_h(d, TestFunction.indicator(0.0)) == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_abs_dev_vs_quadrature(self, params):
        # E|Y - c| = 2 c F(c) - c - 2 M1(-inf, c) + E Y checks the density's
        # partial first moment below a cutoff c off the junction and the mode
        d = density_for(params)
        c = 0.7
        j = d.switch_point
        pts = sorted({j, c})
        oracle = integrate.quad(
            lambda y: abs(y - c) * d.pdf(y), -np.inf, pts[0], limit=300
        )[0]
        oracle += integrate.quad(
            lambda y: abs(y - c) * d.pdf(y), pts[0], pts[-1], limit=300
        )[0] if len(pts) > 1 else 0.0
        oracle += integrate.quad(
            lambda y: abs(y - c) * d.pdf(y), pts[-1], np.inf, limit=300
        )[0]
        got = 2.0 * c * d.cdf(c) - c - 2.0 * d.partial_raw_moment(1, -np.inf, c) + d.mean()
        assert got == pytest.approx(oracle, rel=1e-10)


class TestSolutionEvaluation:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    @pytest.mark.parametrize("h", ALL_H)
    def test_poisson_residual(self, params, h):
        sol = build_solution(density_for(params), h)
        xs = np.linspace(-5.0, 6.0, 211)
        assert np.max(np.abs(_poisson_residual(sol, xs))) < 1e-8

    @pytest.mark.parametrize("params", ALL_PARAMS)
    @pytest.mark.parametrize("h", ALL_H)
    def test_representations_agree(self, params, h):
        sol = build_solution(density_for(params), h)
        xs = np.linspace(-3.0, 3.0, 61)
        left = sol.f_prime_rep(xs, below=True)
        right = sol.f_prime_rep(xs, below=False)
        assert np.max(np.abs(left - right) / (1.0 + np.abs(left))) < 1e-8

    def test_switch_continuity(self):
        sol = build_solution(density_for(C_HEAVY), TestFunction.identity())
        eps = 1e-9
        assert sol.f_prime(-eps) == pytest.approx(sol.f_prime(eps), rel=1e-8)

    def test_constant_like_h_gives_zero(self):
        # an indicator far beyond the support behaves as a constant h
        d = density_for(C_PARAMS)
        a = d.switch_point + 80.0 / abs(d.derived.zeta)
        sol = build_solution(d, TestFunction.indicator(a))
        xs = np.linspace(-4.0, 4.0, 41)
        assert np.max(np.abs(sol.f_prime(xs))) < 1e-12
        assert np.max(np.abs(sol.f_second(xs))) < 1e-12

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_derivative_consistency(self, params):
        sol = build_solution(density_for(params), TestFunction.identity())
        j = sol.density.switch_point
        xs = np.linspace(-3.0, 4.0, 41)
        xs = xs[np.abs(xs - j) > 0.1]
        eps = 1e-6
        fd2 = (sol.f_prime(xs + eps) - sol.f_prime(xs - eps)) / (2 * eps)
        assert np.max(np.abs(fd2 - sol.f_second(xs))) < 1e-5
        fd3 = (sol.f_second(xs + eps) - sol.f_second(xs - eps)) / (2 * eps)
        assert np.max(np.abs(fd3 - sol.f_third(xs))) < 1e-5

    def test_second_derivative_left_limit_at_anchor(self):
        d = density_for(C_PARAMS)
        a = 0.4
        sol = build_solution(d, TestFunction.indicator(a))
        eps = 1e-9
        left = sol.f_second(a - eps)
        right = sol.f_second(a + eps)
        at = sol.f_second(a)
        assert at == pytest.approx(left, abs=1e-6)
        assert abs(right - left) == pytest.approx(1.0 / d.derived.mu, rel=1e-6)

    def test_third_derivative_rejections(self):
        sol = build_solution(density_for(C_PARAMS), TestFunction.identity())
        with pytest.raises(ValueError):
            sol.f_third(-sol.derived.zeta)
        sol_ind = build_solution(density_for(C_PARAMS), TestFunction.indicator(0.0))
        with pytest.raises(ValueError):
            sol_ind.f_third(1.0)

    def test_stable_far_into_tails(self):
        sol = build_solution(density_for(C_PARAMS), TestFunction.identity())
        vals = sol.f_prime(np.array([-48.0, 900.0]))
        assert np.all(np.isfinite(vals))

    def test_antiderivative_tracks_f_prime(self):
        sol = build_solution(density_for(C_PARAMS), TestFunction.identity())
        xs = np.linspace(-2.0, 2.0, 9)
        f_vals = sol.antiderivative(xs)
        for k in range(len(xs) - 1):
            oracle = integrate.quad(
                lambda t: sol.f_prime(float(t)), xs[k], xs[k + 1], limit=200
            )[0]
            assert f_vals[k + 1] - f_vals[k] == pytest.approx(oracle, abs=1e-10)


class TestGradientBoundExamples:
    def test_kolmogorov_c_pointwise(self):
        d = density_for(C_HEAVY)
        der = d.derived
        az = abs(der.zeta)
        sol = build_solution(d, TestFunction.indicator(-der.zeta))
        below = np.linspace(-6.0, -der.zeta, 301)
        above = np.linspace(-der.zeta, 40.0, 301)
        assert np.max(np.abs(sol.f_prime(below))) <= 5.0 / der.mu * (1 + 1e-9)
        assert np.max(np.abs(sol.f_prime(above))) <= 1.0 / (der.mu * az) * (1 + 1e-9)
        allx = np.linspace(-6.0, 40.0, 601)
        assert np.max(np.abs(sol.f_second(allx))) <= 3.0 / der.mu * (1 + 1e-9)

    def test_wasserstein_c_pointwise(self):
        d = density_for(C_HEAVY)
        der = d.derived
        az = abs(der.zeta)
        sol = build_solution(d, TestFunction.identity())
        below = np.linspace(-6.0, -der.zeta, 301)
        assert np.max(np.abs(sol.f_prime(below))) <= (6.5 + 4.2 / az) / der.mu * (1 + 1e-9)
        above = np.linspace(-der.zeta + 1e-6, 40.0, 301)
        assert np.max(np.abs(sol.f_second(above))) <= 1.0 / (der.mu * az) * (1 + 1e-9)
        assert np.max(np.abs(sol.f_third(above))) <= 2.0 / der.mu * (1 + 1e-9)
        strictly_below = np.linspace(-6.0, -der.zeta - 1e-6, 301)
        assert np.max(np.abs(sol.f_third(strictly_below))) <= (23.0 + 13.0 / az) / der.mu * (
            1 + 1e-9
        )

    def test_erlang_a_under_kolmogorov(self):
        der = derive(ModelParams(lam=5.0, mu=1.0, n=5, alpha=1.0))
        d = density_for(ModelParams(lam=5.0, mu=1.0, n=5, alpha=1.0))
        sol = build_solution(d, TestFunction.indicator(0.0))
        below = np.linspace(-8.0, -der.zeta, 301)
        cap = math.sqrt(2.0 * math.pi) * math.exp(0.5) / der.mu
        assert np.max(np.abs(sol.f_prime(below))) <= cap * (1 + 1e-9)


def _suites(params: ModelParams) -> dict:
    s = Scenario(params)
    return dict(gradient_bound_report(s.identity, s.anchors))


class TestGradientBoundReport:
    def test_erlang_c_suites_pass(self):
        suites = _suites(C_HEAVY)
        assert list(suites) == ["wasserstein_C", "kolmogorov_C"]
        for suite, rows in suites.items():
            assert rows, suite
            assert all(r.satisfied is not False for r in rows)

    def test_fbound_rows_present(self):
        ids = {r.name for r in _suites(C_HEAVY)["wasserstein_C"]}
        assert {"fbound1_neg", "fbound2_right", "fbound5", "fbound6", "fbound7"} <= ids

    def test_erlang_a_suites(self):
        for params in (A_UNDER, A_OVER, ModelParams(lam=5.0, mu=1.0, n=5, alpha=1.0)):
            suites = _suites(params)
            assert list(suites) == ["wasserstein_A", "kolmogorov_A"]
            assert all(r.satisfied is not False for r in suites["kolmogorov_A"])
            w_rows = suites["wasserstein_A"]
            strict = [r for r in w_rows if r.mode == "strict"]
            empirical = [r for r in w_rows if r.mode == "empirical"]
            assert strict and empirical
            assert all(r.satisfied for r in strict)
            assert all(np.isfinite(r.observed) for r in empirical)

    @pytest.mark.parametrize(
        "params, suite, calls",
        [
            (C_HEAVY, "wasserstein_C", 1),
            (C_HEAVY, "kolmogorov_C", 4),
            (A_UNDER, "wasserstein_A", 1),
            (A_UNDER, "kolmogorov_A", 4),
            (A_OVER, "wasserstein_A", 1),
            (A_OVER, "kolmogorov_A", 4),
        ],
    )
    def test_each_solution_evaluated_once(self, monkeypatch, params, suite, calls):
        # one f' evaluation on the whole grid per solution: the identity for
        # the wasserstein suite, the indicator at each of the four anchors
        # for the kolmogorov suite; 5 x 2,001 points per report
        sizes = []
        f_prime = PoissonSolution.f_prime

        def counting(sol, x):
            sizes.append((sol.h.kind, np.size(x)))
            return f_prime(sol, x)

        s = Scenario(params)
        monkeypatch.setattr(PoissonSolution, "f_prime", counting)
        gradient_bound_report(s.identity, s.anchors)
        kind = "lipschitz_identity" if suite.startswith("wasserstein") else "indicator"
        assert [size for k, size in sizes if k == kind] == [2001] * calls
        assert [size for _, size in sizes] == [2001] * 5

    @pytest.mark.parametrize(
        "params", [C_HEAVY, A_UNDER, A_OVER, ModelParams(lam=5.0, mu=1.0, n=5, alpha=1.0)]
    )
    def test_each_ratio_evaluated_once(self, monkeypatch, params):
        # the density-ratio rows take the mass ratio, the first-moment ratio
        # and the first-moment ratio cut at 0 once each, on the whole grid;
        # f' is stubbed out so that its own ratio calls do not count
        calls = []
        for name in ("ratio_below", "ratio_above"):

            def counting(d, x, *args, _name=name, _ratio=getattr(DiffusionDensity, name), **kw):
                calls.append((_name, np.size(x)))
                return _ratio(d, x, *args, **kw)

            monkeypatch.setattr(DiffusionDensity, name, counting)
        monkeypatch.setattr(
            PoissonSolution, "derivatives", lambda sol, x: (np.zeros(np.size(x)),) * 3
        )
        s = Scenario(params)
        gradient_bound_report(s.identity, s.anchors)
        assert sorted(calls) == [("ratio_above", 2001)] * 3 + [("ratio_below", 2001)] * 3

    def test_empty_middle_rows(self):
        # overloaded with zeta = 4.47e-9, below the grid's kink nudge: no
        # sample lies in [-zeta, 0], so the middle rows read a zero ratio
        params = ModelParams(lam=5.00000001, mu=1.0, n=5, alpha=1.0)
        assert 0.0 < derive(params).zeta < 1e-8
        rows = {r.name: r for r in _suites(params)["wasserstein_A"]}
        for name, empty in (
            ("oingredient1_mid", 0.0),
            ("oingredient3_mid", 0.0),
            ("oingredient2_mid_log", -math.inf),
            ("oingredient4_mid_log", -math.inf),
        ):
            assert rows[name].observed == empty and rows[name].satisfied, name

    def test_log_rows_get_relative_slack_on_negative_bounds(self):
        # a log row compares log observed <= log bound + log1p(1e-9), which
        # loosens a negative log bound as much as a positive one
        params = ModelParams(lam=1.000001 * 0.01, mu=0.01, n=1, alpha=0.1)
        rows = {r.name: r for r in _suites(params)["wasserstein_A"]}
        row = rows["oingredient2_mid_log"]
        assert row.bound == pytest.approx(-0.2324, abs=1e-4)
        slack = math.log1p(1e-9)
        assert row.satisfied == (row.observed <= row.bound + slack)
        for name in ("oingredient2_mid_log", "oingredient4_mid_log"):
            bound = rows[name].bound
            assert bound < 0.0
            # inside the slack, where bound * (1 + 1e-9) would fail the row
            assert bound * (1.0 + 1e-9) < bound + 0.5 * slack
            assert _log_row(name, bound + 0.5 * slack, bound).satisfied
            assert not _log_row(name, bound + 2.0 * slack, bound).satisfied
