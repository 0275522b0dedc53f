"""Bit identity of the chain and distance numbers on seeded parameter sets.

``data/golden_hex.json`` holds, by ``float.hex``, each set's window
(k_min, k_top, k_max), d_W, d_K, ``mean_error``, the moment sums that
``stationary_pmf(..., moment_order=m)`` certified, and the signed and
``plus_zeta`` order-m moments.  A change that moves a digit on purpose
regenerates the file and logs each value it changed:

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
    # crossing cells whose piece inverse rounds outside the cell: _bisect_cdf
    (0.99, 1.0, 1, 0.0, 1e-14, 1),
    (0.98, 1.0, 1, 0.0, 1e-12, 3),
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
    return {
        "window": [dist.k_min, dist.k_top, dist.k_max],
        "d_w": s.d_w.hex(),
        "d_k": s.d_k.hex(),
        "mean_error": _hex_or_error(lambda: mean_error(dist, s.density)),
        "certified": _certified_sums(dist),
        "signed": moment(dist, m, absolute=False).hex(),
        "plus_zeta": moment(dist, m, "all", "plus_zeta").hex(),
        "plus_zeta_above": moment(dist, m, "above", "plus_zeta").hex(),
    }


def _encode(case: tuple) -> list:
    lam, mu, n, alpha, tail_tol, m = case
    return [lam.hex(), mu.hex(), n, alpha.hex(), tail_tol.hex(), m]


def _decode(row: list) -> tuple:
    lam, mu, n, alpha, tail_tol, m = row
    return (float.fromhex(lam), float.fromhex(mu), n, float.fromhex(alpha), float.fromhex(tail_tol), m)


def _golden_rows() -> list[dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("row", _golden_rows(), ids=lambda row: "-".join(map(str, row["case"])))
def test_matches_golden(row):
    assert record(_decode(row["case"])) == row["values"]


def test_golden_covers_the_paths():
    rows = _golden_rows()
    windows = [row["values"]["window"] for row in rows]
    ns = [row["case"][2] for row in rows]
    assert len(rows) >= 40
    assert sum(k_top - k_min + 1 > 1 << 16 for k_min, k_top, _ in windows) >= 2
    assert any(k_top < n < k_max for (_, k_top, k_max), n in zip(windows, ns))


if __name__ == "__main__":
    cases = [tuple(float(v) if i in (0, 1, 3, 4) else v for i, v in enumerate(c)) for c in SPECIAL]
    rows = [{"case": _encode(c), "values": record(c)} for c in cases + _seeded_sets()]
    GOLDEN.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} sets to {GOLDEN}")
