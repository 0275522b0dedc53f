"""Bit identity of the chain, distance and verify numbers on seeded parameter sets.

``data/golden_hex.json`` holds, by ``float.hex``, each set's window
(k_min, k_top, k_max), d_W, d_K, ``mean_error``, the moment sums that
``stationary_pmf(..., moment_order=m)`` certified, and the signed and
``plus_zeta`` order-m moments; after those sets, every ``verify`` row
(suite, name, observed value, bound and verdict) of the verify sets; and
last, for the ``VERIFY_SPECIAL`` sets, every term, total, lhs and extra of
the five decompositions ``verify`` reads (the CLI prints the totals, lhs
and extras but not the terms).  The decomposition block was generated at
commit f62e7b2, before the two decompositions were built from one term
table.  A change that moves a digit on purpose regenerates the file and
logs each value it changed:

    PYTHONPATH=src python tests/test_golden_hex.py
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from erlangdiff.ctmc import TruncationError, moment
from erlangdiff.metrics import Scenario, mean_error
from erlangdiff.model import ModelParams
from erlangdiff.report import run_verify
from erlangdiff.stein_verify import kolmogorov_decomposition, wasserstein_decomposition

GOLDEN = Path(__file__).parent / "data" / "golden_hex.json"

# (lam, mu, n, alpha, tail_tol, m) sets that reach particular paths
SPECIAL = [
    # windows longer than ctmc._BLOCK: the long-double sums chain across blocks
    (499.95, 1.0, 500, 0.0, 1e-12, 1),
    (0.9995, 1.0, 1, 0.0, 1e-12, 2),
    (99.9, 1.0, 100, 0.0, 1e-12, 1),
    (2000.0, 1.0, 1990, 0.05, 1e-14, 3),
    # light load, delta > 100: W1 cells in survival form
    (1e-5, 1.0, 1, 0.0, 1e-14, 1),
    (3e-6, 1.0, 2, 0.5, 1e-12, 2),
    # Erlang-A with k_top < n < k_max: the flat stretch splits at -zeta
    (100.0, 1.0, 250, 1.0, 1e-12, 1),
    (100.0, 1.0, 260, 0.5, 1e-12, 2),
    # crossing cells whose piece inverse rounds outside the cell: _bisect
    (0.99, 1.0, 1, 0.0, 1e-14, 1),
    (0.98, 1.0, 1, 0.0, 1e-12, 3),
]

# (lam, mu, n, alpha, tail_tol) verify sets with a violated
# kolmogorov_lhs_le_total row, so a False verdict is pinned too: alpha/mu
# near 1e6, and light load with n = 1
VERIFY_SPECIAL = [
    (4.556580558168598, 1.0, 2, 914586.475433082, 1e-14),
    (0.0010783228970192103, 1.0, 1, 0.0, 1e-14),
    # active windows of 29,974, 2,106 and 10,837 states: the walk blocks and
    # the panel-quadrature chunks of ctmc._BLOCK end inside them
    (99.9, 1.0, 100, 0.0, 1e-12),
    (2000.0, 1.0, 1990, 0.05, 1e-14),
    (500000.0, 1.0, 500500, 1.0, 1e-12),
]


def _seeded_sets(seed: int = 19, count: int = 31) -> list[tuple]:
    """Erlang-C and Erlang-A sets with R log-uniform in [1e-3, 1e3]."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        r = float(10.0 ** rng.uniform(-3.0, 3.0))
        mu = float(10.0 ** rng.uniform(-1.0, 1.0))
        erlang_a = bool(rng.integers(2))
        beta = float(rng.uniform(-1.5, 2.0) if erlang_a else rng.uniform(0.05, 2.0))
        n = max(1, math.ceil(r + beta * math.sqrt(r)))
        if not erlang_a and n <= r:
            n = math.floor(r) + 1
        alpha = float(10.0 ** rng.uniform(-2.0, 1.0)) * mu if erlang_a else 0.0
        tail_tol = float(rng.choice([1e-12, 1e-14]))
        out.append((r * mu, mu, n, alpha, tail_tol, int(rng.integers(1, 7))))
    return out


def _verify_sets(seed: int = 20) -> list[tuple]:
    """3 Erlang-C, 2 underloaded and 3 overloaded Erlang-A, 2 Erlang-A with
    zeta = 0 (R = n) and 2 light-load sets (R < 0.2, n = 1); every window
    holds under 2,000 states."""
    rng = np.random.default_rng(seed)
    out = []
    for kind in ("C",) * 3 + ("under",) * 2 + ("over",) * 3 + ("zeta0",) * 2 + ("light",) * 2:
        mu = float(10.0 ** rng.uniform(-1.0, 1.0))
        r = float(10.0 ** rng.uniform(0.0, 3.0))
        alpha = float(10.0 ** rng.uniform(-1.0, 1.0)) * mu
        beta = float(rng.uniform(0.5, 2.0))
        if kind in ("C", "under"):
            n = math.ceil(r + beta * math.sqrt(r))
        elif kind == "over":
            n = max(1, math.floor(r - beta * math.sqrt(r)))
        elif kind == "zeta0":
            n = max(1, round(r))
            r = float(n)
        else:
            r, n = float(10.0 ** rng.uniform(-3.0, -0.7)), 1
        if kind == "C" or (kind == "light" and rng.integers(2)):
            alpha = 0.0
        out.append((r * mu, mu, n, alpha, float(rng.choice([1e-12, 1e-14]))))
    return out


def _certified_sums(dist) -> dict[str, str]:
    sums = dist._abs_moment_sums
    return {f"{m}:{offset.hex()}": total.hex() for (m, offset), total in sums.items()}


def _hex_or_error(fn) -> str:
    try:
        return fn().hex()
    except TruncationError:
        return "TruncationError"


def record(case: tuple) -> dict:
    """The pinned numbers of one (lam, mu, n, alpha, tail_tol, m) set."""
    lam, mu, n, alpha, tail_tol, m = case
    s = Scenario(ModelParams(lam=lam, mu=mu, n=n, alpha=alpha), tail_tol, moment_order=m)
    dist = s.dist
    # read before any moment: later reads keep their own sums on dist
    certified = _certified_sums(dist)
    return {
        "window": [dist.k_min, dist.k_top, dist.k_max],
        "d_w": s.d_w.hex(),
        "d_k": s.d_k.hex(),
        "mean_error": _hex_or_error(lambda: mean_error(dist, s.density)),
        "certified": certified,
        "signed": moment(dist, m, absolute=False).hex(),
        "plus_zeta": moment(dist, m, "all", "plus_zeta").hex(),
        "plus_zeta_above": moment(dist, m, "above", "plus_zeta").hex(),
    }


def verify_record(case: tuple) -> list[str]:
    """Every verify row of one (lam, mu, n, alpha, tail_tol) set, one
    "suite name observed bound verdict" line each."""
    lam, mu, n, alpha, tail_tol = case
    report = run_verify(ModelParams(lam=lam, mu=mu, n=n, alpha=alpha), tail_tol)
    return [
        f"{suite} {c.name} {float(c.observed).hex()} {float(c.bound).hex()} {c.satisfied}"
        for suite, checks in report["suites"]
        for c in checks
    ]


def decomposition_record(case: tuple) -> list[str]:
    """The identity's Wasserstein and the four anchors' Kolmogorov
    decompositions of one verify set, as ``verify`` builds them, one
    "metric[i] field value" line per number (``tolerance`` left out)."""
    lam, mu, n, alpha, tail_tol = case
    s = Scenario(ModelParams(lam=lam, mu=mu, n=n, alpha=alpha), tail_tol, moment_order=2)
    decs = [wasserstein_decomposition(s.dist, s.identity)]
    decs += [kolmogorov_decomposition(s.dist, sol) for sol in s.anchors]
    fields = [
        (i, dec, [*dec.terms.items(), ("total", dec.total), ("lhs", dec.lhs), *dec.extras.items()])
        for i, dec in enumerate(decs)
    ]
    return [
        f"{dec.metric}[{i}] {name} {float(value).hex()}"
        for i, dec, named in fields
        for name, value in named
    ]


def _encode(case: tuple) -> list:
    return [v.hex() if isinstance(v, float) else v for v in case]


def _decode(row: list) -> tuple:
    return tuple(float.fromhex(v) if isinstance(v, str) else v for v in row)


def _golden_rows(kind: str = "values") -> list[dict]:
    return [row for row in json.loads(GOLDEN.read_text()) if kind in row]


def _case_id(row: dict) -> str:
    return "-".join(map(str, row["case"]))


@pytest.mark.parametrize("row", _golden_rows(), ids=_case_id)
def test_matches_golden(row):
    assert record(_decode(row["case"])) == row["values"]


@pytest.mark.parametrize("row", _golden_rows("verify"), ids=_case_id)
def test_verify_matches_golden(row):
    assert verify_record(_decode(row["case"])) == row["verify"]


@pytest.mark.parametrize("row", _golden_rows("decompositions"), ids=_case_id)
def test_decompositions_match_golden(row):
    assert decomposition_record(_decode(row["case"])) == row["decompositions"]


def test_golden_covers_the_paths():
    rows = _golden_rows()
    windows = [row["values"]["window"] for row in rows]
    ns = [row["case"][2] for row in rows]
    assert len(rows) >= 40
    assert sum(k_top - k_min + 1 > 1 << 16 for k_min, k_top, _ in windows) >= 2
    assert any(k_top < n < k_max for (_, k_top, k_max), n in zip(windows, ns))
    verdicts = {line.split()[-1] for row in _golden_rows("verify") for line in row["verify"]}
    assert len(_golden_rows("verify")) >= 12 and verdicts == {"True", "False", "None"}
    assert len(_golden_rows("decompositions")) == len(VERIFY_SPECIAL)


if __name__ == "__main__":
    cases = [tuple(float(v) if i in (0, 1, 3, 4) else v for i, v in enumerate(c)) for c in SPECIAL]
    rows = [{"case": _encode(c), "values": record(c)} for c in cases + _seeded_sets()]
    rows += [{"case": _encode(c), "verify": verify_record(c)} for c in VERIFY_SPECIAL + _verify_sets()]
    rows += [{"case": _encode(c), "decompositions": decomposition_record(c)} for c in VERIFY_SPECIAL]
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} sets to {GOLDEN}")
