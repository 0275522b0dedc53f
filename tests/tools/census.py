"""Census of how the admissible space answers: classes of outcomes, with cost.

    PYTHONPATH=src python tests/tools/census.py --seed N --points P [--budget S]

``census_points`` draws P seeded parameter sets in the cheap regimes (it is
also the sampler of ``tests/test_cli.py::TestCensus``).  Each set runs
through ``report.run_distance`` and ``report.run_verify`` in this process,
each call with a budget of S seconds (``signal.alarm``, so POSIX only), and
a RuntimeWarning raised as an error, as in the test suite.  Each call falls
in one class:

- answered;
- violated: ``verify``'s first violated row, by name without its
  ``[a=...]`` tag, or ``distance``'s first non-finite column;
- typed: a ``ValueError`` or ``TruncationError``, which the CLI prints as
  one error line, by class and message family (the head of the message,
  its numbers masked);
- over budget;
- untyped: any other exception, warnings included.

The script prints each class with its count, its summed time and its first
reproducer as a CLI command, and exits 1 if any call is untyped.  The
classes at a seed do not depend on the machine, unless a call runs near
its budget.
"""

from __future__ import annotations

import argparse
import math
import re
import signal
import sys
import time
import warnings

import numpy as np


def census_points(seed: int, count: int = 30) -> list[list[str]]:
    """--lambda/--n/--alpha of ``count`` seeded sets in the cheap regimes:
    R log-uniform in [1e-6, 1e3], mu = 1; QED (beta in [-2, 3]),
    efficiency-driven, quality-driven, light (n = R [3, 100] + 1) or one
    server; alpha/mu = 0 with probability 0.4, else log-uniform in
    [1e-4, 1e6].  An Erlang-A set with R (1 + mu/alpha) > 3e4 or an Erlang-C
    set with n <= R is drawn again."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        r = 10.0 ** rng.uniform(-6.0, 3.0)
        staffing = rng.choice(["qed", "ed", "qd", "light", "one"])
        if staffing == "qed":
            n = math.ceil(r + rng.uniform(-2.0, 3.0) * math.sqrt(r))
        elif staffing == "ed":
            n = math.ceil(r * rng.uniform(0.5, 0.95))
        elif staffing == "qd":
            n = math.ceil(r * rng.uniform(1.1, 2.0))
        elif staffing == "light":
            n = math.ceil(r * rng.uniform(3.0, 100.0) + 1.0)
        else:
            n = 1
        n = max(n, 1)
        ratio = 0.0 if rng.random() < 0.4 else 10.0 ** rng.uniform(-4.0, 6.0)
        if (ratio == 0.0 and n <= r) or (ratio > 0.0 and r * (1.0 + 1.0 / ratio) > 3e4):
            continue
        points.append(["--lambda", repr(r), "--n", str(n), "--alpha", repr(ratio)])
    return points


class _Timeout(BaseException):
    """Raised by SIGALRM in the call that ran past its budget; a
    BaseException, so no ``except Exception`` in the program swallows it."""


def _alarm(signum, frame):
    raise _Timeout


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _family(exc: Exception) -> str:
    """The exception's class and the head of its message, numbers masked."""
    return f"{type(exc).__name__}: {_NUMBER.sub('#', str(exc))[:40].rstrip()}"


def classify(report, command: str, point: list[str], budget: int) -> str:
    """The class of one call of ``report.run_<command>`` at ``point``."""
    opts = dict(zip(point[::2], point[1::2]))
    lam, n, alpha = float(opts["--lambda"]), int(opts["--n"]), float(opts["--alpha"])
    signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.alarm(budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            params = report.ModelParams(lam=lam, mu=1.0, n=n, alpha=alpha)
            if command == "distance":
                (row,) = report.run_distance(params)
                bad = [key for key in ("d_w", "d_k", "mean_error") if not math.isfinite(row[key])]
                return f"violated {bad[0]}" if bad else "answered"
            verdict = report.run_verify(params)
    except _Timeout:
        return "over budget"
    except (ValueError, report.TruncationError) as exc:
        return f"typed {_family(exc)}"
    except Exception as exc:  # noqa: BLE001 -- an untyped failure is a class too
        return f"untyped {_family(exc)}"
    finally:
        signal.alarm(0)
    for _, checks in verdict["suites"]:
        for check in checks:
            if check.satisfied is False:
                return f"violated {check.name.split('[')[0]}"
    return "answered"


def census(seed: int, points: int, budget: int) -> dict[tuple[str, str], list]:
    """{(command, class): [calls, seconds, first reproducer]} over the sample."""
    from erlangdiff import report

    classes: dict[tuple[str, str], list] = {}
    for point in census_points(seed, points):
        for command in ("distance", "verify"):
            start = time.perf_counter()
            label = classify(report, command, point, budget)
            entry = classes.setdefault((command, label), [0, 0.0, " ".join([command, *point])])
            entry[0] += 1
            entry[1] += time.perf_counter() - start
    return classes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--points", type=int, default=30)
    parser.add_argument("--budget", type=int, default=30, help="seconds per call")
    args = parser.parse_args(argv)
    classes = census(args.seed, args.points, args.budget)
    print(f"seed {args.seed}, {args.points} points, budget {args.budget} s")
    print(f"{'command':<9} {'class':<68} {'calls':>5} {'time_s':>7}  first reproducer")
    for (command, label), (calls, seconds, first) in sorted(classes.items()):
        print(f"{command:<9} {label:<68} {calls:>5} {seconds:>7.2f}  {first}")
    return 1 if any(label.startswith("untyped") for _, label in classes) else 0


if __name__ == "__main__":
    sys.exit(main())
