"""Compare the CLI output of two source trees, command by command.

    python tests/tools/bit_sweep.py PARENT_SRC CHANGE_SRC [--seed N]

PARENT_SRC and CHANGE_SRC are ``src`` directories, each holding an
``erlangdiff`` package (a checkout of the parent commit and the working
tree, say).  A seeded stream of ``distance``, ``verify`` and ``sweep``
commands, with ``table1``-``table3``, each in CSV and in JSON, and
``--help`` and ``--version``, runs through ``erlangdiff.cli.main`` of one
tree and then of the other, in this process: the package is imported
from one tree, run, dropped from ``sys.modules`` and imported from the
other.  Each command's stdout, stderr, exit code (or ``SystemExit`` code)
and the warnings it raised (category and message, without the file and
line) are kept; the script lists every command whose outcomes differ,
names the fields that differ and shows, for each tree, its exit code, the
first line of its stderr and its first stdout line that differs from the
other's, and exits 1 if any command differs.  Each command has a fixed budget
of ``BUDGET_S`` seconds (``signal.alarm``, so POSIX only): one that runs
past it records the outcome ``timeout`` and the sweep goes on.  The
stream covers light load (delta past 100, the survival form), Erlang-C
under QED, quality- and efficiency-driven staffing, under- and
overloaded Erlang-A, a few input errors, a critical-load Erlang-A with
alpha = 1e-300 (whose mode search once stepped one state at a time
without end), and tail tolerances of 1e-14 and 1e-12.  A fixed list of
edge cases rides along: exact zeta = 0 and +-1; sets past the double
range that fail with a typed error, some of which once warned first or
answered inf; W1 crossing cells that bisect or cross in survival form, and
whose inverses reach every branch of ``ndtri``; a tail point on each tail
branch of ``ndtri_exp``; and a window whose flat stretch past k_top holds
the server count.  The random
``verify`` draws stop at R = 300, whose windows fit in one walk block
(``erlangdiff.ctmc._BLOCK`` states), so a fixed list of larger ``verify``
commands rides along in every stream; four of their windows span several
blocks, so block seams fall inside every window pass.  A seeded stream of library moment ops rides along too, as
pseudo-commands ``moment --lambda L --mu U --n N --alpha A --m M``:
``stationary_pmf(params, moment_order=M)``, ``build_density`` and
``moment_error``, whose k_max and result (or typed error) are hashed.
Their loads are near critical, R = n (1 - gap) with gap from 1e-5 to 0.1,
in Erlang-C and Erlang-A, and M is 1, 2 or 10; windows reach millions of
states.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import io
import math
import random
import signal
import sys
import time
import warnings

COUNTS = {"distance": 400, "verify": 100, "sweep": 50, "moment": 48}
BUDGET_S = 60
MULTI_BLOCK_VERIFY = [
    ["verify", "--lambda", "99.9", "--n", "100"],
    ["verify", "--lambda", "2000", "--n", "1990", "--alpha", "0.05"],
    ["verify", "--lambda", "5e5", "--n", "500500", "--alpha", "1"],
    ["verify", "--lambda", "4.9e6", "--n", "4902214"],
    ["verify", "--lambda", "3761.82", "--n", "3762"],
]
# the random draws never land on an exact zeta: zeta = 0, whose middle
# regions hold no grid point, and zeta = +1 and -1, where two anchors
# coincide; then sets past the double range (overflowing shape and
# majorant bounds, a Stein residual that is the flow out of the window's
# top state, nan distances), each of which fails with a typed error
EDGE_CASES = [
    ["verify", "--lambda", "5", "--n", "5", "--alpha", "1"],
    ["verify", "--lambda", "16", "--n", "12", "--alpha", "1"],
    ["verify", "--lambda", "16", "--n", "20"],
    ["verify", "--lambda", "3", "--n", "1", "--alpha", "1e160"],
    ["verify", "--lambda", "0.5", "--n", "1", "--alpha", "1e160"],
    ["verify", "--lambda", "0.5", "--n", "1", "--alpha", "1e33"],
    ["distance", "--lambda", "1e-08", "--n", "1", "--alpha", "1e300"],
    ["distance", "--lambda", "1e-30", "--n", "1", "--alpha", "1e-300"],
    ["sweep", "--regime", "qd", "--sizes", "1e-8", "--alpha-over-mu", "1e300"],
    # typed errors once preceded by a RuntimeWarning: a nan density
    # amplitude, and a tail test whose weight overflows
    ["verify", "--lambda", "1e-30", "--n", "1", "--alpha", "1e-300"],
    ["distance", "--lambda", "1e-30", "--n", "40", "--alpha", "1e-300"],
    ["distance", "--lambda", "1e-08", "--n", "40", "--alpha", "1e-300"],
    ["distance", "--lambda", "0.5", "--n", "40", "--alpha", "1e-300"],
    # the exp(zeta^2/2) range error once preceded by a RuntimeWarning from
    # the identity's solution at far grid points
    ["verify", "--lambda", "1e-08", "--n", "40", "--alpha", "1e+300"],
    ["verify", "--lambda", "7.213573917123804e-20", "--n", "1", "--alpha", "2.940001338569436e+292"],
    ["verify", "--lambda", "2.0358067795786205e-12", "--n", "1", "--alpha", "1.482162426149318e+298"],
    # an answer once given after RuntimeWarnings from the quadrature's brackets
    ["verify", "--lambda", "5e-201", "--mu", "1e-200", "--n", "1", "--alpha", "1e-200"],
    # mu <= 1e-200, where f''' in the units of mu once overflowed: answers
    # once given with gwu3_right = inf, then typed errors once preceded by a
    # RuntimeWarning; per unit mu each answers as its twin (lam/mu, 1, n,
    # alpha/mu)
    ["verify", "--lambda", "3e-300", "--mu", "1e-300", "--n", "40", "--alpha", "1e-250"],
    ["verify", "--lambda", "3e-300", "--mu", "1e-300", "--n", "40", "--alpha", "1e-200"],
    ["verify", "--lambda", "3e-300", "--mu", "1e-300", "--n", "40", "--alpha", "1e-170"],
    ["verify", "--lambda", "3e-200", "--mu", "1e-200", "--n", "40", "--alpha", "1e-70"],
    ["verify", "--lambda", "5e-201", "--mu", "1e-200", "--n", "1", "--alpha", "1e-70"],
    ["verify", "--lambda", "3e-200", "--mu", "1e-200", "--n", "40", "--alpha", "1e-40"],
    ["verify", "--lambda", "3e-200", "--mu", "1e-200", "--n", "1", "--alpha", "1e-70"],
    # lam/mu or alpha/mu past the double range, a typed error: once a
    # ZeroDivisionError, RuntimeWarnings or the state cap
    ["distance", "--lambda", "1e-300", "--mu", "1e300", "--n", "1", "--alpha", "1e-300"],
    ["distance", "--lambda", "1e-320", "--mu", "1e10", "--n", "1"],
    ["distance", "--lambda", "0.5", "--mu", "1e300", "--n", "1", "--alpha", "1e-30"],
    ["distance", "--lambda", "1", "--mu", "1e-300", "--n", "1", "--alpha", "1e300"],
    ["distance", "--lambda", "1e300", "--mu", "1e-300", "--n", "1", "--alpha", "1"],
    # k_top < n < k_max: the flat stretch ends the chain CDF as two cells
    ["distance", "--lambda", "4", "--n", "60"],
    # upper_point's ndtri_exp takes its y < -2 branch with x >= 8 on both
    # pieces at (16, 20) above; here one piece has x < 8
    ["verify", "--lambda", "4", "--n", "10", "--alpha", "100"],
]
# W1 crossing cells: 8 cells whose closed-form piece inverse rounds outside
# the cell, and light-load cells that cross in survival form.  Their ndtri
# targets take the central branch, then the lower tail with x = sqrt(-2 log p)
# below 8 and past 8; the last command's reach the upper tail past x = 8
# (and every other branch)
CROSSINGS = [
    ["distance", "--lambda", "0.99", "--n", "1"],
    ["distance", "--lambda", "1e-5", "--n", "1"],
    ["distance", "--lambda", "1e-40", "--n", "1"],
    ["distance", "--lambda", "4", "--n", "2", "--alpha", "0.001"],
]


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _params(rng: random.Random, r_hi: float, states: float) -> list[str]:
    """--lambda/--mu/--n/--alpha of one parameter set with offered load R up
    to ``r_hi`` and, in Erlang-A, about R (1 + mu/alpha) <= ``states``."""
    mu = _log_uniform(rng, 0.5, 2.0)
    kind = rng.choice(["light", "qed", "qd", "nds", "erlang_a", "overload"])
    alpha = 0.0
    if kind == "light":  # delta = 1/sqrt(R) > 100
        r = _log_uniform(rng, 1e-7, 1e-4)
        n = rng.choice([1, 2, 5])
    elif kind == "erlang_a":
        ratio = _log_uniform(rng, 1e-2, 1e2)
        r = _log_uniform(rng, 1e-3, min(r_hi, states / (1.0 + 1.0 / ratio)))
        n = max(1, math.ceil(r + rng.uniform(-1.0, 1.0) * math.sqrt(r)))
        alpha = ratio * mu
    elif kind == "overload":
        n = rng.randint(1, 50)
        r = n * _log_uniform(rng, 1.0, 5.0)
        alpha = _log_uniform(rng, max(1.0, r / 20.0), max(10.0, r / 2.0)) * mu
    else:
        r = _log_uniform(rng, 1e-3, r_hi)
        if kind == "qed":
            n = math.ceil(r + rng.uniform(0.5, 2.0) * math.sqrt(r))
        elif kind == "qd":
            n = math.ceil(r * (1.0 + rng.uniform(0.1, 1.0)))
        else:
            n = math.ceil(r + rng.uniform(1.0, 12.0))
    return ["--lambda", repr(r * mu), "--mu", repr(mu), "--n", str(n), "--alpha", repr(alpha)]


def commands(seed: int) -> list[list[str]]:
    """The seeded stream: every command in CSV and in JSON."""
    rng = random.Random(seed)
    base = []
    for _ in range(COUNTS["distance"]):
        base.append(["distance", *_params(rng, 1e5, 1e6)])
    for _ in range(COUNTS["verify"]):
        base.append(["verify", *_params(rng, 300.0, 1e4)])
    for _ in range(COUNTS["sweep"]):
        sizes = sorted(_log_uniform(rng, 1e-2, 1e4) for _ in range(rng.randint(1, 3)))
        ratio = rng.choice([0.0, _log_uniform(rng, 1e-1, 1e1)])
        base.append(
            [
                "sweep",
                "--regime", rng.choice(["qd", "qed", "nds"]),
                "--beta", repr(rng.uniform(0.5, 2.0)),
                "--sizes", ",".join(repr(s) for s in sizes),
                "--alpha-over-mu", repr(ratio),
            ]
        )
    for cmd in base:
        if rng.random() < 0.1:
            cmd += ["--tail-tol", "1e-12"]
    base += [list(cmd) for cmd in MULTI_BLOCK_VERIFY + EDGE_CASES + CROSSINGS]
    base += [["table1"], ["table2"], ["table3"]]
    # input errors: a negative rate, no servers, a non-finite load; and a
    # critical load whose d(k) = 5 + 1e-300 (k - 5) rounds to lam in every state
    base += [
        ["distance", "--lambda", "-1", "--n", "5"],
        ["verify", "--lambda", "4", "--n", "0"],
        ["sweep", "--regime", "qed", "--sizes", "4,nan"],
        ["distance", "--lambda", "5", "--n", "5", "--alpha", "1e-300"],
    ]
    formatted = [cmd + ["--format", fmt] for cmd in base for fmt in ("csv", "json")]
    formatted += [["--help"], ["--version"], ["distance", "--help"]]
    for i in range(COUNTS["moment"]):
        # one in four Erlang-A, with alpha/mu from 1e-2 to 1e2
        n = max(1, round(_log_uniform(rng, 1.0, 1000.0)))
        mu = _log_uniform(rng, 0.5, 2.0)
        alpha = _log_uniform(rng, 1e-2, 1e2) * mu if i % 4 == 3 else 0.0
        lam = n * (1.0 - _log_uniform(rng, 1e-5, 1e-1)) * mu
        params = ["--lambda", repr(lam), "--mu", repr(mu), "--n", str(n), "--alpha", repr(alpha)]
        formatted.append(["moment", *params, "--m", str((1, 2, 10)[i % 3])])
    return formatted


def _moment(pkg, argv: list[str]) -> None:
    """Print the k_max and ``moment_error`` result of one library moment op."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    lam, mu, alpha = (float(opts[key]) for key in ("--lambda", "--mu", "--alpha"))
    m = int(opts["--m"])
    params = pkg.ModelParams(lam=lam, mu=mu, n=int(opts["--n"]), alpha=alpha)
    dist = pkg.stationary_pmf(params, moment_order=m)
    result = pkg.moment_error(dist, pkg.build_density(dist.derived), m)
    print(dist.k_max, *(f"{key}={value.hex()}" for key, value in result.items()))


class _Timeout(BaseException):
    """Raised by SIGALRM in the command that ran past ``BUDGET_S``; a
    BaseException, so no ``except Exception`` in the program swallows it."""


def _alarm(signum, frame):
    raise _Timeout


FIELDS = ("stdout", "stderr", "code", "warnings")


def outcomes(src: str, argvs: list[list[str]]) -> list[tuple]:
    """(stdout, stderr, exit code, warnings) of each command, in ``FIELDS``
    order, run through the ``erlangdiff`` package found in ``src``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "erlangdiff"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module("erlangdiff.cli")
        pkg = importlib.import_module("erlangdiff")
    finally:
        sys.path.remove(src)
    out = []
    signal.signal(signal.SIGALRM, _alarm)
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                signal.alarm(BUDGET_S)
                try:
                    code = repr(_moment(pkg, argv) if argv[0] == "moment" else cli.main(argv))
                except SystemExit as exc:  # --help and --version exit through argparse
                    code = f"exit {exc.code!r}"
                except _Timeout:
                    code = "timeout"
                except Exception as exc:  # an untyped failure is an outcome too
                    code = f"raised {type(exc).__name__}: {exc}"
                finally:
                    signal.alarm(0)
        seen = tuple(f"{w.category.__name__}: {w.message}" for w in caught)
        out.append((stdout.getvalue(), stderr.getvalue(), code, seen))
    return out


def _first_line(text: str) -> str:
    return text.splitlines()[0] if text else "(empty)"


def explain(parent: tuple, change: tuple) -> list[str]:
    """What differs between two outcomes of one command: the fields, each
    tree's exit code and first stderr line, and the first stdout line
    where the two differ, from each side."""
    fields = [name for name, a, b in zip(FIELDS, parent, change) if a != b]
    lines = [f"  fields: {', '.join(fields)}"]
    for side, (_, err, code, _) in (("parent", parent), ("change", change)):
        lines.append(f"  {side}: code {code}; stderr {_first_line(err)}")
    if "stdout" in fields:
        a, b = parent[0].splitlines(), change[0].splitlines()
        i = next((i for i, (u, v) in enumerate(zip(a, b)) if u != v), min(len(a), len(b)))
        for side, out in (("parent", a), ("change", b)):
            lines.append(f"  {side} stdout line {i + 1}: {out[i] if i < len(out) else '(none)'}")
    if "warnings" in fields:
        for side, seen in (("parent", parent[3]), ("change", change[3])):
            lines.append(f"  {side} warnings: {'; '.join(seen) or '(none)'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    argvs = commands(args.seed)
    sides = []
    for src in (args.parent_src, args.change_src):
        start = time.perf_counter()
        sides.append(outcomes(src, argvs))
        print(f"{src}: {len(argvs)} commands in {time.perf_counter() - start:.1f} s")
    differ = [(argv, a, b) for argv, a, b in zip(argvs, *sides) if a != b]
    for argv, a, b in differ:
        print("differs:", " ".join(argv))
        print(*explain(a, b), sep="\n")
    kinds = dict(collections.Counter(argv[0] for argv in argvs))
    print(f"seed {args.seed}: {kinds}, {len(differ)} of {len(argvs)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
