"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines.  Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

import oracles
from conftest import (
    SPOT_SETS,
    density_for,
    erlang_c_grid,
    pmf_for,
    standard_grid,
)
from erlangdiff import report
from erlangdiff.ctmc import (
    moment_bound_report,
    stein_identity_residual,
)
from erlangdiff.ctmc import _exact_sum
from erlangdiff.diffusion import zeta_scaling_limit
from erlangdiff.metrics import (
    Scenario,
    kolmogorov_distance,
    universality_sweep,
    wasserstein_distance,
)
from erlangdiff.model import ModelParams, drift
from erlangdiff.poisson import TestFunction, build_solution, gradient_bound_report
from erlangdiff.stein_verify import kolmogorov_decomposition, wasserstein_decomposition


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


TABLE1_EXPECTED = {
    (3.0, 5): (3.35, 0.10),
    (4.0, 5): (6.22, 0.20),
    (4.9, 5): (51.47, 0.28),
    (4.95, 5): (101.48, 0.29),
    (4.99, 5): (501.49, 0.29),
    (300.0, 500): (300.00, None),
    (400.0, 500): (400.00, None),
    (490.0, 500): (516.79, 0.24),
    (495.0, 500): (569.15, 0.28),
    (499.0, 500): (970.89, 0.32),
}

# columns: m2, m2_err, m10, m10_err
TABLE2_EXPECTED = {
    300.0: (1.0, 4.55e-15, 9.77e2, 31.58),
    400.0: (1.0, 5.95e-7, 9.70e2, 24.44),
    490.0: (6.96, 0.11, 7.51e9, 7.01e8),
    495.0: (31.56, 0.27, 9.10e12, 4.34e11),
    499.0: (9.47e2, 1.59, 1.07e20, 1.03e18),
    499.9: (9.94e4, 16.50, 1.13e30, 1.09e27),
}

TABLE3_ZETA_ERR = {499.0: 7.10e-2, 499.9: 7.38e-2, 499.95: 7.40e-2, 499.99: 7.41e-2}


def test_criterion_01_table1():
    start = time.perf_counter()
    rows = report.run_table1()
    elapsed = time.perf_counter() - start
    assert len(rows) == 10
    for row in rows:
        want_mean, want_err = TABLE1_EXPECTED[(row["R"], row["n"])]
        assert row["mean_customers"] == pytest.approx(want_mean, abs=0.01)
        if (row["R"], row["n"]) == (300.0, 500):
            assert row["abs_error"] < 1e-12
        elif (row["R"], row["n"]) == (400.0, 500):
            assert row["abs_error"] < 1e-5
        else:
            assert row["abs_error"] == pytest.approx(want_err, abs=0.01)
    _report("criterion 1: first-moment table", elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_02_table2():
    start = time.perf_counter()
    rows = report.run_table2()
    elapsed = time.perf_counter() - start
    for row in rows:
        m2, m2e, m10, m10e = TABLE2_EXPECTED[row["R"]]
        assert row["m2"] == pytest.approx(m2, rel=0.01)
        assert row["m10"] == pytest.approx(m10, rel=0.05)
        assert row["m10_err"] == pytest.approx(m10e, rel=0.05)
        if row["R"] == 300.0:
            # printed 4.55e-15 is below the double-precision resolution of a
            # difference of two O(1) moments; order-of-magnitude check only
            assert row["m2_err"] < 1e-13
        else:
            # half a print ulp for the two-decimal cells, else the stated 2%
            tol = max(0.02 * m2e, 0.005 if m2e < 100 else 0.0)
            assert abs(row["m2_err"] - m2e) <= tol
    _report("criterion 2: higher-moment table", elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_03_table3():
    start = time.perf_counter()
    rows = report.run_table3()
    elapsed = time.perf_counter() - start
    for row in rows:
        n, r = row["n"], row["R"]
        formula = (n - r) / math.sqrt(r)
        assert row["abs_zeta"] == pytest.approx(formula, rel=0.005)
        assert row["zeta_err"] == pytest.approx(TABLE3_ZETA_ERR[r], rel=0.02)
    errs = [row["err"] for row in rows]
    half = [row["zeta_half_err"] for row in rows]
    three_half = [row["zeta_three_half_err"] for row in rows]
    zeta_scaled = [row["zeta_err"] for row in rows]
    assert errs == sorted(errs)
    assert half == sorted(half)
    assert three_half == sorted(three_half, reverse=True)
    assert max(zeta_scaled) / min(zeta_scaled) < 1.10  # ~constant column
    _report("criterion 3: zeta-scaling table", elapsed < 10.0, f"{elapsed:.2f}s")


_C_REPORTS: list = []


def _erlang_c_reports():
    """Distances over the universal-bound grid, built on first use so the
    criterion-4 timer includes the whole computation."""
    if not _C_REPORTS:
        for params in erlang_c_grid():
            dist = pmf_for(params, 1e-12, 1)
            d = density_for(params)
            _C_REPORTS.append(
                (
                    params,
                    dist,
                    d,
                    wasserstein_distance(dist, d),
                    kolmogorov_distance(dist, d),
                )
            )
    return _C_REPORTS


def test_criterion_04_wasserstein_universal():
    start = time.perf_counter()
    worst = 0.0
    for params, dist, d, dw, _dk in _erlang_c_reports():
        delta = dist.derived.delta
        assert dist.derived.R >= 1.0
        assert dw <= 205.0 * delta, params
        worst = max(worst, dw / delta)
    elapsed = time.perf_counter() - start
    _report(
        "criterion 4: d_W <= 205 delta on the Erlang-C grid",
        elapsed < 30.0,
        f"max ratio {worst:.2f}, {elapsed:.2f}s",
    )


def test_criterion_05_kolmogorov_universal():
    worst = 0.0
    for params, dist, d, _dw, dk in _erlang_c_reports():
        delta = dist.derived.delta
        assert dk <= 188.0 * delta, params
        worst = max(worst, dk / delta)
    _report(
        "criterion 5: d_K <= 188 delta on the Erlang-C grid",
        True,
        f"max ratio {worst:.2f}",
    )


def test_criterion_06_erlang_a_existence():
    # NOTE: the d_W half of this criterion is numerically false and the test
    # fails honestly.  The exact (oracle-verified) Wasserstein sups are
    # strictly DECREASING in alpha/mu under QED staffing: abandonment pulls
    # the stationary law closer to the diffusion in W1.  The Kolmogorov sups
    # do increase.  The underlying theorems assert only that some increasing
    # constants majorize the ratios, which the data satisfies; the stronger
    # substituted property below does not hold for d_W.
    sups_w, sups_k = [], []
    for ratio in (0.1, 1.0, 10.0):
        rows = universality_sweep("qed", [1.0, 10.0, 100.0, 1000.0], 1.0, ratio)
        sups_w.append(max(r["dw_over_delta"] for r in rows))
        sups_k.append(max(r["dk_over_delta"] for r in rows))
    finite = all(np.isfinite(sups_w)) and all(np.isfinite(sups_k))
    k_monotone = sups_k == sorted(sups_k)
    w_monotone = sups_w == sorted(sups_w)
    detail = (
        f"d_W/delta sups {['%.4f' % s for s in sups_w]} "
        f"d_K/delta sups {['%.4f' % s for s in sups_k]}"
    )
    assert finite and k_monotone, detail
    _report(
        "criterion 6: per-alpha/mu sups finite and nondecreasing",
        w_monotone,
        detail + "; d_W sups DECREASE in alpha/mu - see decisions ledger",
    )


def test_criterion_07_stein_identity():
    worst = 0.0
    for params in standard_grid():
        dist = pmf_for(params, 1e-12)
        d = density_for(params)
        for f in (
            lambda x: x,
            lambda x: np.asarray(x) ** 2,
            build_solution(d, TestFunction.identity()).antiderivative,
            build_solution(d, TestFunction.indicator(-dist.derived.zeta)).antiderivative,
        ):
            res = stein_identity_residual(dist, f)
            worst = max(worst, res.residual)
            assert res.residual <= 1e-8, params
    _report("criterion 7: Stein identity residuals", True, f"worst {worst:.2e}")


def test_criterion_08_generator_identity():
    worst = 0.0
    for pars in SPOT_SETS:
        params = ModelParams(*pars)
        dist = pmf_for(params, 1e-14)
        d = density_for(params)
        zeta = dist.derived.zeta
        hs = [TestFunction.identity()] + [
            TestFunction.indicator(a)
            for a in (-zeta - 1.0, -zeta, 0.0, -zeta + 1.0)
        ]
        x, pmf = dist.x, dist.pmf
        b = drift(dist.derived, x)
        for h in hs:
            sol = build_solution(d, h)
            gen_y = _exact_sum(pmf * (b * sol.f_prime(x) + sol.f_second(x)))
            lhs = abs(_exact_sum(pmf * h.value(x)) - sol.h_mean)
            gap = abs(lhs - abs(gen_y))
            worst = max(worst, gap)
            assert gap <= 1e-8, (params, h)
    _report("criterion 8: |E h(X)-E h(Y)| = |E G_Y f(X)|", True, f"worst {worst:.2e}")


def test_criterion_09_moment_bounds():
    checked = 0
    for params in standard_grid():
        dist = pmf_for(params, 1e-12)
        rows = moment_bound_report(dist)
        for row in rows:
            assert row.satisfied, (params, row)
        checked += len(rows)
    _report("criterion 9: moment-bound suites", True, f"{checked} rows")


def test_criterion_10_gradient_bounds():
    strict_rows = 0
    empirical_rows = 0
    for params in standard_grid():
        s = Scenario(params)
        for suite, rows in gradient_bound_report(s.identity, s.anchors):
            for row in rows:
                if row.mode == "strict":
                    strict_rows += 1
                    assert row.satisfied, (params, suite, row)
                else:
                    empirical_rows += 1
                    assert np.isfinite(row.observed), (params, suite, row)
    _report(
        "criterion 10: gradient-bound suites",
        True,
        f"{strict_rows} strict rows, {empirical_rows} empirical rows",
    )


def test_criterion_11_proof_path_decompositions():
    for params, dist, d, _dw, _dk in _erlang_c_reports():
        delta = dist.derived.delta
        dec = wasserstein_decomposition(
            dist, build_solution(d, TestFunction.identity())
        )
        assert dec.total <= 205.0 * delta, params
        assert dec.lhs <= dec.total + 1e-8
        zeta = dist.derived.zeta
        for a in (-zeta - 1.0, -zeta, 0.0, -zeta + 1.0):
            deck = kolmogorov_decomposition(dist, build_solution(d, TestFunction.indicator(a)))
            straddle = dist.prob_interval(a - delta, a + delta)
            assert deck.lhs <= 0.5 * straddle + 75.0 * delta, (params, a)
            assert deck.lhs <= deck.total + 1e-8
    _report("criterion 11: proof-path decompositions", True)


def test_criterion_12_zeta_scaling_limit():
    worst = 0.0
    for m in (1, 2, 3, 4):
        val = zeta_scaling_limit(1.0, 500, m, [-1e-3])[0]
        rel = abs(val - math.factorial(m)) / math.factorial(m)
        worst = max(worst, rel)
        assert rel < 0.01, m
    _report("criterion 12: |zeta|^m E Y^m -> m!", True, f"worst rel {worst:.2e}")


def test_criterion_13_oracle_equivalence():
    for pars in SPOT_SETS:
        params = ModelParams(*pars)
        dist = pmf_for(params, 1e-14)
        d = density_for(params)
        dw_oracle, dk_oracle = oracles.distances(*pars)
        assert kolmogorov_distance(dist, d) == pytest.approx(dk_oracle, abs=1e-9)
        assert wasserstein_distance(dist, d) == pytest.approx(dw_oracle, abs=1e-8)
    _report("criterion 13: closed forms match oracles", True)


def test_criterion_14_idle_probability_monotone():
    from erlangdiff.ctmc import idle_probability_monotone

    probs = idle_probability_monotone(1.0, 5, 1.0, [4.0, 6.0, 8.0, 12.0])
    assert all(a > b for a, b in zip(probs, probs[1:]))
    _report(
        "criterion 14: P(X <= n) strictly decreasing in lambda",
        True,
        " > ".join(f"{p:.4f}" for p in probs),
    )
