"""Tests of the benchmark itself: seeding, tracing and the output checker.

Run with the package source on the path:
    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json

import pytest

import checker
import scenarios
from child import Runner
from scenarios import Op
from tracer import Tracer

SMALL_OPS = (
    Op("distance", lam=1000.0, n=1032),
    Op("verify", lam=20.0, n=5, alpha=1.0),  # overloaded: bisection path
    Op("moment", lam=49.0, n=50, m=10),
    Op("table1"),
)


@pytest.fixture(scope="module")
def runner():
    return Runner()


@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_same_seed_same_scenarios(workload):
    first = scenarios.first_ops(workload, 7, 80)
    assert first == scenarios.first_ops(workload, 7, 80)
    assert first != scenarios.first_ops(workload, 8, 80)


def test_verify_spots_lead_every_stream():
    for seed in (1, 2):
        ops = scenarios.first_ops("verify_mixed", seed, len(scenarios.VERIFY_SPOTS))
        assert tuple(ops) == scenarios.VERIFY_SPOTS


def test_traced_outputs_are_byte_identical(runner):
    plain = [runner.execute(op)[:3] for op in SMALL_OPS]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [runner.execute(op)[:3] for op in SMALL_OPS]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.calls["cli.main"] == 3
    assert tracer.calls["quad.integrate_abs_with_splits"] > 0
    assert tracer.counts["ctmc.states_built"] > 0
    from erlangdiff import ctmc, metrics, poisson

    assert metrics.chain_moment is ctmc.moment  # rebinding undone everywhere
    assert not hasattr(poisson.PoissonSolution.f_prime, "__wrapped__")


def _output(runner, op):
    rc, text, _, _ = runner.execute(op)
    return rc, json.loads(text)


def test_checker_accepts_real_outputs(runner):
    for op in SMALL_OPS:
        rc, text, _, _ = runner.execute(op)
        assert checker.check(op, rc, text).problems == []


@pytest.mark.parametrize("d_w", [1e3, 0.0])
def test_checker_flags_corrupted_d_w(runner, d_w):
    op = Op("distance", lam=4.9, n=5)
    rc, doc = _output(runner, op)
    assert checker.check(op, rc, json.dumps(doc)).ok
    doc["rows"][0]["d_w"] = d_w  # above 205 delta, or below the mean gap
    assert not checker.check(op, rc, json.dumps(doc)).ok


def test_checker_flags_violated_stein_identity(runner):
    op = Op("verify", lam=4.9, n=5)
    rc, doc = _output(runner, op)
    assert rc == 0 and checker.check(op, rc, json.dumps(doc)).ok
    row = next(r for r in doc["rows"] if r["suite"] == "stein_identity")
    row["satisfied"] = False
    verdict = checker.check(op, 2, json.dumps(doc))
    assert verdict.violated_rows == 1
    assert any("exact identity" in p for p in verdict.problems)


def test_reference_mismatch_is_flagged():
    reference = {"k": [1.0, 2.0]}
    assert checker.match_reference("k", [1.0, 2.0 * (1 + 1e-12)], reference) == []
    assert checker.match_reference("k", [1.0, 2.001], reference)
    assert checker.match_reference("k", [1.0], reference)
