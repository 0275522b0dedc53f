import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SPOT_SETS, density_for, pmf_for, small_window_params, window_states
from erlangdiff import _quad, ctmc
from erlangdiff.ctmc import DiscreteStationary, _exact_sum
from erlangdiff.diffusion import density_sup_check
from erlangdiff.metrics import Scenario
from erlangdiff.model import EvaluationRangeError, ModelParams, departure_rate, drift
from erlangdiff.poisson import PoissonSolution, TestFunction, build_solution
from erlangdiff.report import _expansion_suites, run_verify
from erlangdiff.stein_verify import (
    ErrorDecomposition,
    _panel_abs_f3,
    _weighted_f2_panels,
    kolmogorov_decomposition,
    wasserstein_decomposition,
)

C_HEAVY = ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0)


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

    @pytest.mark.parametrize(
        "pars", [(0.5, 1.0, 1, 0.001), (3.0, 1.0, 5, 0.5), (100.0, 1.0, 90, 0.01)]
    )
    def test_tolerance_charges_every_term(self, monkeypatch, pars):
        # each dropped state is charged the largest per-state sum of all four
        # terms, (delta/2)|f'' b| + (mu/2)(fwd + bwd) + (delta/2)|b| bwd; a
        # dropped mass of 1e-6 lifts that charge above the rounding allowance
        monkeypatch.setattr(DiscreteStationary, "tail_bound", property(lambda dist: 1e-6))
        params = ModelParams(*pars)
        dist = pmf_for(params, 1e-14)
        sol = build_solution(density_for(params), TestFunction.identity())
        dec = wasserstein_decomposition(dist, sol)
        der = dist.derived
        x, p = dist.x[dist.kept], dist.pmf[dist.kept]
        b = np.abs(drift(der, x))
        f2b = np.abs(sol.derivatives(x)[1]) * b
        panel = _panel_abs_f3(
            sol, np.concatenate(([x[0] - der.delta], x)), np.concatenate((x, [x[-1] + der.delta]))
        )
        fwd, bwd = panel[1:], panel[:-1]
        sup = np.max(0.5 * der.delta * (f2b + b * bwd) + 0.5 * (fwd + bwd))
        dropped = max(0.0, 1.0 - _exact_sum(p)) + 1e-6
        charged = (dec.tolerance - 1e-13 * (1.0 + dec.lhs)) / (4.0 * dropped)
        assert charged == pytest.approx(sup, rel=1e-9)

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


def _bits(values) -> list[str]:
    """float.hex of every number in ``values``: arrays, floats and the
    numbers an ErrorDecomposition carries."""
    out = []
    for v in values:
        if isinstance(v, ErrorDecomposition):
            out += _bits([v.total, v.lhs, v.tolerance, *v.terms.values(), *v.extras.values()])
        else:
            out += [float(t).hex() for t in np.ravel(v)]
    return out


class TestChunks:
    # panel quadrature runs in chunks of about ctmc._BLOCK nodes, and the
    # decompositions read the chain states in walk blocks of ctmc._BLOCK;
    # with a small odd block, chunk and block edges fall all over the
    # active window, which one chunk of 2^30 covers whole
    @settings(max_examples=15, deadline=None)
    @given(params=small_window_params(), block=st.integers(1, 40).map(lambda i: 2 * i + 1))
    # Erlang-C, whose f''' vanishes past the kink up to noise; and alpha = mu,
    # where f''' is rounding noise everywhere and its sign flips are bisected
    @example(params=ModelParams(lam=4.9, mu=1.0, n=5, alpha=0.0), block=3)
    @example(params=ModelParams(lam=20.0, mu=1.0, n=5, alpha=1.0), block=25)
    def test_chunks_keep_every_bit(self, params, block):
        # the indicator anchored at the drift kink -zeta: its panels split there
        dist, d = pmf_for(params, 1e-14), density_for(params)
        ident = build_solution(d, TestFunction.identity())
        kink = build_solution(d, TestFunction.indicator(-dist.derived.zeta))
        x, delta = dist.x[dist.kept], dist.derived.delta
        lo, hi = np.concatenate(([x[0] - delta], x)), np.concatenate((x, [x[-1] + delta]))

        def run():
            return _bits(
                [
                    _quad.integrate_panels(ident.f_prime, lo, hi, 7),
                    _panel_abs_f3(ident, lo, hi),
                    *_weighted_f2_panels(kink, lo, hi),
                    ident.antiderivative(dist.x),
                    kink.antiderivative(dist.x),
                    wasserstein_decomposition(dist, ident),
                    kolmogorov_decomposition(dist, kink),
                ]
            )

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ctmc, "_BLOCK", 1 << 30)
            one = run()
            mp.setattr(ctmc, "_BLOCK", block)
            chunks = run()
        assert chunks == one


class TestMemory:
    def test_decompositions_hold_states_not_nodes(self):
        # 29,974 active states in 43,834: the decompositions keep a few
        # arrays per active state and evaluate the Poisson solutions per
        # walk block and per chunk of about ctmc._BLOCK panel nodes, so the
        # peak is c per active state plus k blocks; (states x nodes)
        # matrices over the whole window take about 1.3 kB per active state
        s = Scenario(ModelParams(lam=99.9, mu=1.0, n=100, alpha=0.0), 1e-12)
        dist, ident, kink = s.dist, s.identity, s.anchors[1]
        tracemalloc.start()
        try:
            wasserstein_decomposition(dist, ident)
            kolmogorov_decomposition(dist, kink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = dist.kept
        assert kept.stop - kept.start > 3 * ctmc._BLOCK
        assert peak <= 16 * 8 * (kept.stop - kept.start) + 32 * 8 * ctmc._BLOCK

    def test_without_long_double_in_the_same_bound(self, monkeypatch):
        # the exact-sum fallback holds the window walk's two stacked rows
        # (16 B a window state) until it sums the second
        monkeypatch.setattr(ctmc, "_LONGDOUBLE_EXACT", False)
        self.test_decompositions_hold_states_not_nodes()


class TestOneOwner:
    # the window quantities are DiscreteStationary's: the kept range takes
    # one walk per window, and this module walks the window only in
    # _kept_states, once per solution (the identity and four anchors): its
    # generator-identity and lhs sums are two rows of one block stream
    @pytest.mark.parametrize(
        "pars", [(4.9, 1.0, 5, 0.0), (12.0, 1.0, 5, 2.0), (2000.0, 1.0, 1990, 0.05)]
    )
    def test_verify_walks(self, monkeypatch, pars):
        walk, callers = DiscreteStationary._walk, []

        def counted(self, *args, **kwargs):
            caller = sys._getframe(1)
            callers.append((caller.f_globals["__name__"], caller.f_code.co_name))
            return walk(self, *args, **kwargs)

        monkeypatch.setattr(DiscreteStationary, "_walk", counted)
        run_verify(ModelParams(*pars))
        assert callers.count(("erlangdiff.ctmc", "kept")) == 1
        ours = Counter(name for module, name in callers if module == "erlangdiff.stein_verify")
        assert ours == {"blocks": 5}


class TestKolmogorovDecomposition:
    def test_anchor_at_kink(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        d = density_for(C_HEAVY)
        a = -dist.derived.zeta
        sol = build_solution(d, TestFunction.indicator(a))
        dec = kolmogorov_decomposition(dist, sol)
        delta = dist.derived.delta
        assert dec.lhs <= 0.5 * dist.prob_interval(a - delta, a + delta) + 75.0 * delta
        assert dec.lhs <= dec.total + 1e-8
        assert set(dec.extras) == {"generator_identity"}

    def test_far_tail_anchor_vanishes(self):
        # |zeta| = 2 here, so the tail truly carries no mass at -zeta + 40
        params = ModelParams(lam=4.0, mu=1.0, n=8, alpha=0.0)
        dist = pmf_for(params, 1e-14)
        d = density_for(params)
        a = -dist.derived.zeta + 40.0
        sol = build_solution(d, TestFunction.indicator(a))
        dec = kolmogorov_decomposition(dist, sol)
        assert all(abs(v) < 1e-12 for v in dec.terms.values())

    @pytest.mark.parametrize("pars", SPOT_SETS)
    def test_bound_validity(self, pars):
        params = ModelParams(*pars)
        dist = pmf_for(params, 1e-14)
        d = density_for(params)
        for a in (-dist.derived.zeta, 0.0):
            dec = kolmogorov_decomposition(dist, build_solution(d, TestFunction.indicator(a)))
            assert dec.lhs <= dec.total + 1e-8

    def test_rejects_lipschitz(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        sol = build_solution(density_for(C_HEAVY), TestFunction.identity())
        with pytest.raises(ValueError):
            kolmogorov_decomposition(dist, sol)


class TestStraddleRows:
    # the straddle lemma: verify's rows hold the chain's
    # P(a - delta < X~ <= a + delta) at each anchor a against one majorant
    # per scenario, 2 delta sup p_Y + d_K + 9 L delta^2 + 8 L^2 delta^4 with
    # L = max(alpha/mu, 1)
    @pytest.mark.parametrize("pars", SPOT_SETS)
    def test_one_majorant_per_scenario(self, pars):
        s = Scenario(ModelParams(*pars), moment_order=2)
        dist, der = s.dist, s.dist.derived
        delta, load = der.delta, max(der.a, 1.0)
        sup_p = density_sup_check(s.density).observed
        majorant = 2.0 * delta * sup_p + s.d_k + 9.0 * load * delta**2 + 8.0 * load**2 * delta**4
        rows = [
            c
            for _, checks in run_verify(ModelParams(*pars))["suites"]
            for c in checks
            if c.name.startswith("kolmogorov_straddle_majorant")
        ]
        # one row per anchor, in anchor order (at zeta = -1 two anchors coincide)
        assert len(rows) == len(s.anchors) == 4
        assert {c.bound for c in rows} == {majorant}
        for sol, row in zip(s.anchors, rows):
            a = sol.h.parameter
            assert row.name == f"kolmogorov_straddle_majorant[a={a:+.3g}]"
            assert row.observed == dist.prob_interval(a - delta, a + delta)
            assert row.satisfied

    def test_majorant_past_the_double_range(self):
        # alpha/mu = 1e160: the majorant's 8 (alpha/mu)^2 delta^4 overflows a double
        s = Scenario(ModelParams(lam=0.5, mu=1.0, n=1, alpha=1e160), moment_order=2)
        sup_p = density_sup_check(s.density).observed
        with pytest.raises(EvaluationRangeError, match="1e.160: the straddle majorant overflows"):
            _expansion_suites(s.dist, [s.identity, *s.anchors], 0.0, sup_p)


def _assert_expansion(dist, sol, atol):
    """The chain generator equals its Taylor expansion at every window state.

    The chain side is R (f(x+delta) - f(x)) + d(k) (f(x-delta) - f(x)) with
    f from ``sol.antiderivative``; the expansion is G_Y f - (delta/2) b f''
    + R (eps1 + eps2) - b eps2 / delta, all per unit mu, with eps1 and eps2 from the panels
    that ``kolmogorov_decomposition`` integrates.  The two agree to ``atol``
    plus 1e-12 of the chain's two terms: far in the tail f' grows like x,
    and rounding x +- delta alone moves a term by |x| eps relative.  f is
    taken per state on (x - delta, x, x + delta), since one cumulative f
    over the window rounds its differences like |f|, which grows like x^2.
    """
    der = dist.derived
    r, delta = der.R, der.delta
    x = dist.x
    f = np.array([sol.antiderivative(np.array([t - delta, t, t + delta])) for t in x])
    up = r * (f[:, 2] - f[:, 1])
    down = departure_rate(der, window_states(dist)) * (f[:, 0] - f[:, 1])
    fp, fpp, _ = sol.derivatives(x)
    b = drift(der, x)
    lo = np.concatenate(([x[0] - delta], x))
    hi = np.concatenate((x, [x[-1] + delta]))
    a_panel, b_panel = _weighted_f2_panels(sol, lo, hi)
    eps1 = a_panel[1:] - fpp * (0.5 * delta * delta)
    eps2 = b_panel[:-1] - fpp * (0.5 * delta * delta)
    gen_y = b * fp + fpp
    expansion = gen_y - 0.5 * delta * b * fpp + r * (eps1 + eps2) - b * eps2 / delta
    gap = np.abs(up + down - expansion)
    assert np.all(gap <= atol + 1e-12 * (np.abs(up) + np.abs(down)))


class _QuadraticSolution:
    """Stand-in solution with f(x) = x^2, for which the expansion is exact."""

    def antiderivative(self, x):
        return np.asarray(x, dtype=float) ** 2

    def derivatives(self, x):
        x = np.asarray(x, dtype=float)
        return 2.0 * x, np.full_like(x, 2.0), np.zeros_like(x)

    def _split_points(self):
        return ()


class TestTaylorAudit:
    """The generator expansion identity behind both decompositions."""

    def test_quadratic_is_exact(self):
        _assert_expansion(pmf_for(C_HEAVY, 1e-14), _QuadraticSolution(), 1e-12)

    def test_states_index_the_window(self):
        # x and the death rates of a window that starts above state 0 line up
        dist = pmf_for(ModelParams(lam=1000.0, mu=1.0, n=1100, alpha=0.0), 1e-14)
        assert dist.k_min > 0
        _assert_expansion(dist, _QuadraticSolution(), 1e-12)

    def test_identity_solution_at_kink_state(self):
        dist = pmf_for(C_HEAVY, 1e-14)
        sol = build_solution(density_for(C_HEAVY), TestFunction.identity())
        assert dist.k_min <= dist.derived.n <= dist.k_top
        _assert_expansion(dist, sol, 1e-9)

    def test_indicator_at_anchor_state(self):
        # an anchor on a grid state is a panel edge; 0 lies inside a panel
        # here (x_inf = 4.9 and 8.5), so that panel is split at the jump of f''
        for params in (C_HEAVY, ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0)):
            dist = pmf_for(params, 1e-14)
            d = density_for(params)
            for anchor in (float(dist.x[params.n + 2 - dist.k_min]), 0.0):
                sol = build_solution(d, TestFunction.indicator(anchor))
                _assert_expansion(dist, sol, 1e-9)

    def test_generic_states(self):
        params = ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0)
        dist = pmf_for(params, 1e-14)
        sol = build_solution(density_for(params), TestFunction.identity())
        _assert_expansion(dist, sol, 1e-9)
