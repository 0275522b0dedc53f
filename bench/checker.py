"""Checks on every op's output, and the match against reference values.

The invariant checks hold for any seed.  The reference match applies to
the ops of the default seed whose values are stored in reference.json.
Verify verdicts are not matched: violated rows are counted instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")
RTOL = 1e-9
ATOL = 1e-12

# Suites that check exact identities: a violation there is a bug, not a
# quadrature artefact, so it fails the op.
EXACT_SUITES = ("stein_identity", "generator_identity", "density_sup")
TABLE_ROWS = {"table1": 10, "table2": 6, "table3": 4}
_W_CONST = 205.0  # d_W <= 205 delta for Erlang-C
_K_CONST = 188.0  # d_K <= 188 delta for Erlang-C
_SLACK = 1e-9


@dataclass
class Verdict:
    problems: list[str] = field(default_factory=list)
    violated_rows: int = 0
    numbers: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def _le(a: float, b: float) -> bool:
    return a <= b * (1.0 + _SLACK) + 1e-15


def _parse(text: str, verdict: Verdict):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        verdict.problems.append(f"output is not JSON: {exc}")
        return None


def _numbers(row: dict) -> list[float]:
    return [
        float(v)
        for v in row.values()
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    ]


def _non_finite(row: dict) -> list[str]:
    """Fields holding a non-finite number that the row cannot explain.

    A verify row may carry a vacuous bound of +inf (a bound with 1/|zeta|
    at zeta = 0) and a log-scale row may observe log 0 = -inf.
    """
    bad = []
    for name, v in row.items():
        if isinstance(v, bool) or not isinstance(v, (int, float)) or math.isfinite(v):
            continue
        if name == "bound" and v == math.inf:
            continue
        if name == "observed" and v == -math.inf and row.get("name", "").endswith("_log"):
            continue
        bad.append(f"{row.get('name', 'row')}.{name} = {v}")
    return bad


def check(op, rc: int, text: str) -> Verdict:
    """Check one op's exit code and output; ``op`` is a scenarios.Op."""
    verdict = Verdict()
    allowed = (0, 2) if op.kind == "verify" else (0,)
    if rc not in allowed:
        verdict.problems.append(f"exit code {rc}")
        return verdict
    doc = _parse(text, verdict)
    if doc is None:
        return verdict
    if op.kind == "moment":
        _check_moment(op, doc, verdict)
        return verdict
    if doc.get("schema_version") != 1:
        verdict.problems.append(f"schema_version {doc.get('schema_version')!r}")
    rows = doc.get("rows") or []
    for row in rows:
        verdict.numbers += _numbers(row)
        verdict.problems += [f"non-finite {field}" for field in _non_finite(row)]
    if op.kind == "distance":
        _check_distance(op, rows, verdict)
    elif op.kind == "verify":
        _check_verify(rc, rows, verdict)
    elif len(rows) != TABLE_ROWS[op.kind]:
        verdict.problems.append(f"{len(rows)} rows, expected {TABLE_ROWS[op.kind]}")
    return verdict


def _check_distance(op, rows: list, verdict: Verdict) -> None:
    if len(rows) != 1:
        verdict.problems.append(f"{len(rows)} distance rows, expected 1")
        return
    row = rows[0]
    d_w, d_k, delta = row["d_w"], row["d_k"], row["delta"]
    if not 0.0 <= d_k <= 1.0:
        verdict.problems.append(f"d_K = {d_k} outside [0, 1]")
    if not row["dwdk_ok"]:
        verdict.problems.append("dwdk_ok is false")
    if op.alpha == 0.0:
        if not _le(d_w, _W_CONST * delta):
            verdict.problems.append(f"d_W = {d_w} > 205 delta = {_W_CONST * delta}")
        if not _le(d_k, _K_CONST * delta):
            verdict.problems.append(f"d_K = {d_k} > 188 delta = {_K_CONST * delta}")
    # W1 bounds the gap of the means: |E X~ - E Y| = mean_error / sqrt(R)
    mean_gap = row["mean_error"] / math.sqrt(op.lam / op.mu)
    if not _le(mean_gap, d_w):
        verdict.problems.append(f"mean_error/sqrt(R) = {mean_gap} > d_W = {d_w}")


def _check_verify(rc: int, rows: list, verdict: Verdict) -> None:
    for row in rows:
        if row["satisfied"] is False:
            verdict.violated_rows += 1
            if row["suite"] in EXACT_SUITES:
                verdict.problems.append(f"exact identity violated: {row['suite']}/{row['name']}")
    if (rc == 2) != (verdict.violated_rows > 0):
        verdict.problems.append(f"exit code {rc} with {verdict.violated_rows} violated rows")


def _check_moment(op, doc: dict, verdict: Verdict) -> None:
    verdict.numbers = [float(doc[k]) for k in ("k_max", "exact_m", "diff_m", "zeta_scaled")]
    verdict.problems += [f"non-finite {field}" for field in _non_finite(doc)]
    if doc["diff_m"] < 0.0:
        verdict.problems.append(f"negative moment error {doc['diff_m']}")
    if op.m % 2 == 0 and doc["exact_m"] < 0.0:
        verdict.problems.append(f"negative even moment {doc['exact_m']}")


def load_reference() -> dict:
    """Reference numbers by op key, or an empty map if none are stored."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["ops"]


def match_reference(key: str, numbers: list[float], reference: dict) -> list[str]:
    """Problems from comparing an op's numbers with its stored reference."""
    expected = reference.get(key)
    if expected is None:
        return []
    if len(expected) != len(numbers):
        return [f"{len(numbers)} numbers, reference has {len(expected)}"]
    return [
        f"value {i}: {got!r} differs from reference {want!r}"
        for i, (got, want) in enumerate(zip(numbers, expected))
        if not math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)
    ]
