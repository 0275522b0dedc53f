"""Seeded scenario streams for the benchmark workloads.

A workload is an endless stream of ops.  It starts with fixed spot
scenarios, then repeats rounds of slots.  Every slot has a fixed kind and
a fixed point on a log-spaced grid of its parameter range; the seed jitters
that point within a fifth of its grid cell and draws the remaining
parameters.  A run holds few ops (about 25 in distance_large_R), so fully
random draws would change its cost profile from seed to seed; on the grid,
runs with different seeds cost the same and their timings compare.

Slot order inside a round is a fixed interleave, not a seeded shuffle, so
a run cut by its time budget in mid-round always drops the same slots.

Parameter ranges keep every op within the benchmark's time and memory
envelope (a few seconds, under 1 GB) at the parent commit; README.md gives
the ranges and why each was chosen.  This module imports nothing from the
package under test.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("distance_large_R", "verify_mixed", "moments_near_critical")

DEFAULT_SEED = 1
# The head of a stream whose violated verify rows are counted (a
# verify_mixed run completes it within seconds, so the count is fixed for a
# seed) and, on the default seed, whose numbers reference.json stores.
COUNTED_OPS = 80


@dataclass(frozen=True)
class Op:
    """One certified report: a CLI command or a library moment op."""

    kind: str  # distance | verify | table1 | table2 | table3 | moment
    lam: float = 0.0
    mu: float = 1.0
    n: int = 0
    alpha: float = 0.0
    m: int = 0  # moment order, for kind == "moment"

    @property
    def is_cli(self) -> bool:
        return self.kind != "moment"

    def argv(self) -> list[str]:
        """Arguments for ``erlangdiff.cli.main``."""
        args = [self.kind]
        if self.kind in ("distance", "verify"):
            args += [
                "--lambda", repr(self.lam),
                "--mu", repr(self.mu),
                "--n", str(self.n),
                "--alpha", repr(self.alpha),
            ]
        return args + ["--format", "json"]

    def key(self) -> str:
        """Stable text identity, used for reference values and reports."""
        if self.kind.startswith("table"):
            return self.kind
        text = f"{self.kind} lam={self.lam!r} mu={self.mu!r} n={self.n} alpha={self.alpha!r}"
        return text + (f" m={self.m}" if self.kind == "moment" else "")


# Single named scenarios, for rebuilding the ROADMAP baseline rows through
# the same timing and trace path.  "import" has no op: it measures setup_s.
SINGLE_SCENARIOS = {
    "distance_R4.9e6": Op("distance", lam=4.9e6, n=4998000),
    "verify_R5e4": Op("verify", lam=5e4, n=50000, alpha=1.0),
    "import": None,
}

# A small op of each workload's kind, run once before timing starts.
WARMUP = {
    "distance_large_R": Op("distance", lam=1000.0, n=1032),
    "verify_mixed": Op("verify", lam=4.9, n=5),
    "moments_near_critical": Op("moment", lam=49.0, n=50, m=2),
}


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


JITTER = 0.2  # share of a grid cell that the seed moves a slot's point


def _strata(rng: random.Random, k: int) -> list[float]:
    """The centres of k equal cells of [0, 1), each jittered by the seed."""
    return [(i + 0.5 + JITTER * (rng.random() - 0.5)) / k for i in range(k)]


def _interleave(k: int) -> list[int]:
    """A fixed order of k strata that spreads any prefix across the range."""
    return sorted(range(k), key=lambda i: (i * 0.6180339887498949) % 1.0)


def _qed_staffing(r: float, beta: float) -> int:
    return max(1, math.ceil(r + beta * math.sqrt(r)))


# -- distance_large_R ---------------------------------------------------------

_DIST_R = (1e3, 5e6)
# Erlang-A keeps a grid of about R * (1 + mu/alpha) states; this cap keeps
# one op near 2 s and 300 MB.
_DIST_A_STATES = 1e6


def _distance_round(rng: random.Random) -> list[Op]:
    slots = []
    for u in _strata(rng, 8):  # Erlang-C, QED staffing
        r = _log_uniform(*_DIST_R, u)
        slots.append(Op("distance", lam=r, n=_qed_staffing(r, rng.uniform(0.5, 2.0))))
    for u in _strata(rng, 2):  # Erlang-C, quality-driven: n = R (1 + beta)
        r = _log_uniform(*_DIST_R, u)
        slots.append(Op("distance", lam=r, n=math.ceil(r * (1.0 + rng.uniform(0.1, 1.0)))))
    for u in _strata(rng, 2):  # Erlang-C, efficiency-driven: n = R + beta
        r = _log_uniform(1e3, 1e5, u)
        slots.append(Op("distance", lam=r, n=math.ceil(r + rng.uniform(8.0, 12.0))))
    for u in _strata(rng, 2):  # Erlang-A, QED staffing either side of R
        alpha = _log_uniform(1e-2, 1e2, u)
        r_hi = min(_DIST_R[1], _DIST_A_STATES / (1.0 + 1.0 / alpha))
        r = _log_uniform(_DIST_R[0], r_hi, u)
        slots.append(
            Op("distance", lam=r, n=_qed_staffing(r, rng.uniform(-1.0, 1.0)), alpha=alpha)
        )
    return [slots[i] for i in _interleave(len(slots))]


# -- verify_mixed ---------------------------------------------------------------

# ROADMAP item 2's two false violations, and its R = 5e4 baseline row.
VERIFY_SPOTS = (
    Op("verify", lam=0.001, n=1),
    Op("verify", lam=4.9, n=5, alpha=1e6),
    Op("verify", lam=5e4, n=50000, alpha=1.0),
)
_VERIFY_A_STATES = 3e4


def _verify_round(rng: random.Random) -> list[Op]:
    slots = []
    for u in _strata(rng, 6):  # stratum 1: Erlang-C, R in [1e-3, 1e3]
        r = _log_uniform(1e-3, 1e3, u)
        slots.append(Op("verify", lam=r, n=_qed_staffing(r, rng.uniform(0.5, 2.0))))
    for u in _strata(rng, 6):  # stratum 2: critical or under-loaded Erlang-A
        alpha = _log_uniform(1e-3, 1e6, u)
        r_hi = min(5e4, _VERIFY_A_STATES / (1.0 + 1.0 / alpha))
        r = _log_uniform(1e-3, r_hi, u)
        slots.append(
            Op("verify", lam=r, n=_qed_staffing(r, rng.uniform(0.0, 2.0)), alpha=alpha)
        )
    for u, v in zip(_strata(rng, 4), reversed(_strata(rng, 4))):  # stratum 3
        n = round(_log_uniform(2, 100, v))  # overloaded Erlang-A
        lam = _log_uniform(2.0, 100.0, u) * n
        alpha = _log_uniform(*_overload_alpha_range(lam), rng.uniform(0.4, 0.6))
        slots.append(Op("verify", lam=lam, n=n, alpha=alpha))
    return [slots[i] for i in _interleave(len(slots))]


def _overload_alpha_range(lam: float) -> tuple[float, float]:
    """Abandonment rates with alpha/mu >= 1 and lam/alpha <= 20.

    The cost of an overloaded verify grows steeply with lam/alpha (lam=50,
    n=5, alpha=1 takes 4 s; alpha=1e-3 takes minutes); this range keeps ops
    under about a second while some still take the scalar bisection path.
    """
    return max(1.0, lam / 20.0), max(10.0, lam / 2.0)


# -- moments_near_critical ----------------------------------------------------

MOMENT_SPOTS = (
    Op("table1"),
    Op("table2"),
    Op("table3"),
    Op("moment", lam=1000.0 * (1.0 - 1e-5), n=1000, m=10),
)
_MOMENT_ORDERS = (1, 2, 10)


def _moment_round(rng: random.Random) -> list[Op]:
    slots = []
    for count, erlang_a in ((12, False), (4, True)):
        gaps = _strata(rng, count)
        ns = _strata(rng, count)
        ns = [ns[i] for i in _interleave(count)]  # n spread across loads
        for i, (ug, un) in enumerate(zip(gaps, ns)):
            gap = _log_uniform(1e-5, 1e-1, ug)
            n = max(1, round(_log_uniform(1.0, 1000.0, un)))
            alpha = _log_uniform(1e-2, 1e2, rng.random()) if erlang_a else 0.0
            slots.append(
                Op("moment", lam=n * (1.0 - gap), n=n, alpha=alpha,
                   m=_MOMENT_ORDERS[i % len(_MOMENT_ORDERS)])
            )
    return [slots[i] for i in _interleave(len(slots))]


_ROUNDS = {
    "distance_large_R": ((Op("distance", lam=4.9e6, n=4998000),), _distance_round),
    "verify_mixed": (VERIFY_SPOTS, _verify_round),
    "moments_near_critical": (MOMENT_SPOTS, _moment_round),
}


def op_stream(workload: str, seed: int) -> Iterator[Op]:
    """The endless op stream of a workload or of a single named scenario."""
    if workload in SINGLE_SCENARIOS:
        return itertools.repeat(SINGLE_SCENARIOS[workload])
    spots, make_round = _ROUNDS[workload]
    rng = random.Random(f"{workload}/{seed}")

    def stream():
        yield from spots
        while True:
            yield from make_round(rng)

    return stream()


def first_ops(workload: str, seed: int, count: int) -> list[Op]:
    return list(itertools.islice(op_stream(workload, seed), count))
