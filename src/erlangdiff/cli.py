"""Command-line front end: reference tables, distances, verification, sweeps.

Subcommands
  table1    first-moment approximation error, 10 reference configurations
  table2    second and tenth scaled moments with n = 500
  table3    second-moment error scaling as the load approaches capacity
  distance  Wasserstein/Kolmogorov distance report for one parameter set
  verify    run every bound-verification suite; exit 2 on any violation
  sweep     staffing-regime sweep of distance reports

Output is CSV (default) or a single JSON document; numbers are emitted with
shortest round-trip precision so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .ctmc import (
    TruncationError,
    moment as chain_moment,
    moment_bound_report,
    stein_identity_residual,
)
from .diffusion import density_sup_check
from .metrics import Scenario, mean_error, moment_error, universality_sweep
from .model import Check, ModelParams, ValidationError
from .poisson import _SUITE_NAMES, gradient_bound_report
from .stein_verify import kolmogorov_decomposition, wasserstein_decomposition

__all__ = [
    "run_table1",
    "run_table2",
    "run_table3",
    "run_distance",
    "run_verify",
    "main",
]

# five loads approaching capacity at each of n = 5 and n = 500
TABLE1_CASES = [(lam, 5) for lam in (3.0, 4.0, 4.9, 4.95, 4.99)] + [
    (lam, 500) for lam in (300.0, 400.0, 490.0, 495.0, 499.0)
]
TABLE2_LOADS = [300.0, 400.0, 490.0, 495.0, 499.0, 499.9]
TABLE3_LOADS = [499.0, 499.9, 499.95, 499.99]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VIOLATION = 2

# absolute slack of the stein_identity, generator_identity and
# decomposition rows; the JSON document prints it as its tolerances
_IDENTITY_TOL = 1e-8


def _round_like_paper(value: float, decimals: int = 2) -> str:
    if value != 0.0 and abs(value) < 10.0 ** (-decimals) / 2.0:
        return f"{value:.0e}"
    return f"{value:.{decimals}f}"


def run_table1(tail_tol: float = 1e-14) -> list[dict]:
    """First-moment table: E X and |E X - (R + sqrt(R) E Y)| per row."""
    rows = []
    for lam, n in TABLE1_CASES:
        s = Scenario(ModelParams(lam=lam, mu=1.0, n=n, alpha=0.0), tail_tol, moment_order=1)
        der = s.dist.derived
        mean_x = der.x_inf + math.sqrt(der.R) * chain_moment(s.dist, 1, absolute=False)
        err = mean_error(s.dist, s.density)
        rows.append(
            {
                "R": lam,
                "n": n,
                "mean_customers": mean_x,
                "mean_printed": _round_like_paper(mean_x),
                "abs_error": err,
                "abs_error_printed": _round_like_paper(err),
            }
        )
    return rows


def run_table2(tail_tol: float = 1e-14) -> list[dict]:
    """Second/tenth scaled moments and their diffusion errors, n = 500."""
    rows = []
    for lam in TABLE2_LOADS:
        s = Scenario(ModelParams(lam=lam, mu=1.0, n=500, alpha=0.0), tail_tol, moment_order=10)
        r2 = moment_error(s.dist, s.density, 2)
        r10 = moment_error(s.dist, s.density, 10)
        rows.append(
            {
                "R": lam,
                "n": 500,
                "m2": r2["exact_m"],
                "m2_printed": f"{r2['exact_m']:.4g}",
                "m2_err": r2["diff_m"],
                "m2_err_printed": f"{r2['diff_m']:.3g}",
                "m10": r10["exact_m"],
                "m10_printed": f"{r10['exact_m']:.3g}",
                "m10_err": r10["diff_m"],
                "m10_err_printed": f"{r10['diff_m']:.3g}",
            }
        )
    return rows


def run_table3(tail_tol: float = 1e-14) -> list[dict]:
    """Second-moment error against powers of |zeta| near critical load."""
    rows = []
    for lam in TABLE3_LOADS:
        s = Scenario(ModelParams(lam=lam, mu=1.0, n=500, alpha=0.0), tail_tol, moment_order=2)
        r2 = moment_error(s.dist, s.density, 2)
        az = abs(s.dist.derived.zeta)
        err = r2["diff_m"]
        rows.append(
            {
                "R": lam,
                "n": 500,
                "abs_zeta": az,
                "abs_zeta_printed": f"{az:.3g}",
                "m2": r2["exact_m"],
                "m2_printed": f"{r2['exact_m']:.3g}",
                "err": err,
                "err_printed": f"{err:.4g}",
                "zeta_err": az * err,
                "zeta_err_printed": f"{az * err:.3g}",
                "zeta_half_err": math.sqrt(az) * err,
                "zeta_three_half_err": az**1.5 * err,
            }
        )
    return rows


def run_distance(params: ModelParams, tail_tol: float = 1e-14) -> list[dict]:
    s = Scenario(params, tail_tol, moment_order=1)
    return [
        {
            "lam": params.lam,
            "mu": params.mu,
            "n": params.n,
            "alpha": params.alpha,
            **s.distance_columns(),
            "mean_error": mean_error(s.dist, s.density),
        }
    ]


def _residual_rows(dist, sol_id, sol_kink) -> list[Check]:
    # E G f scales with the rates, so the polynomial residuals are read per
    # unit mu; a Poisson solution carries a 1/mu factor that already cancels it
    mu = dist.params.mu
    checks = [
        ("f_linear", lambda x: x, mu),
        ("f_quadratic", lambda x: np.asarray(x) ** 2, mu),
        ("f_poisson_identity", sol_id, 1.0),
        ("f_poisson_indicator", sol_kink, 1.0),
    ]
    return [
        Check.at_most(name, stein_identity_residual(dist, f).residual / scale, _IDENTITY_TOL)
        for name, f, scale in checks
    ]


def _expansion_suites(dist, sols, d_k: float) -> list[tuple[str, list[Check]]]:
    """The generator identity and decomposition suites of the identity
    (``sols[0]``) and the anchors, both read from their decompositions."""
    der = dist.derived
    delta = der.delta
    universal = der.is_erlang_c and der.R >= 1.0
    dec = wasserstein_decomposition(dist, sols[0])
    decs = [dec] + [kolmogorov_decomposition(dist, sol, d_k) for sol in sols[1:]]
    # |E h(X~) - E h(Y)| against |E G_Y f_h(X~)| for each test function
    identity = []
    for sol, d in zip(sols, decs):
        name = f"generator_identity[{sol.h.kind}@{sol.h.parameter:+.3g}]"
        identity.append(Check.at_most(name, d.extras["generator_identity"], _IDENTITY_TOL))
    rows = [Check.at_most("wasserstein_lhs_le_total", dec.lhs, dec.total + _IDENTITY_TOL)]
    if universal:
        rows.append(Check.at_most("wasserstein_total_le_205delta", dec.total, 205.0 * delta))
        rows.append(Check.at_most("wasserstein_f2b_le_111", dec.extras["mean_abs_f2b"], 111.0))
    for sol, deck in zip(sols[1:], decs[1:]):
        tag = f"[a={sol.h.parameter:+.3g}]"
        extras = deck.extras
        rows += [
            Check.at_most(f"kolmogorov_lhs_le_total{tag}", deck.lhs, deck.total + _IDENTITY_TOL),
            Check.at_most(
                f"kolmogorov_straddle_majorant{tag}",
                extras["straddle"],
                extras["straddle_majorant"],
                rtol=1e-12,
                atol=1e-12,
            ),
        ]
        if universal:
            rows.append(Check.at_most(f"kolmogorov_interm{tag}", deck.lhs, extras["interm_rhs"]))
    return [("generator_identity", identity), ("decompositions", rows)]


def run_verify(params: ModelParams, tail_tol: float = 1e-14) -> dict:
    """All desk-checkable suites for one parameter set.

    Returns ``{"suites": [(suite, [Check, ...]), ...], "all_passed": bool}``.
    Every suite reads one ``Scenario``: the pmf, the density, the identity
    and the four anchor solutions are built once, and d_K is computed once
    (d_W is not needed).  The gradient suites take one sample grid, and
    each solution's decomposition one pass over the chain states.
    """
    s = Scenario(params, tail_tol, moment_order=2)
    # built in this order up front, so a failing input names the same stage
    dist, d, sol_id, anchor_sols, d_k = s.dist, s.density, s.identity, s.anchors, s.d_k
    suites = [("moment_bounds", moment_bound_report(dist))]
    suites += gradient_bound_report(sol_id, anchor_sols)
    suites += [
        ("density_sup", [density_sup_check(d)]),
        # anchor_sols[1] is the indicator at the drift kink -zeta
        ("stein_identity", _residual_rows(dist, sol_id, anchor_sols[1])),
        *_expansion_suites(dist, [sol_id, *anchor_sols], d_k),
    ]
    all_passed = all(c.satisfied is not False for _, checks in suites for c in checks)
    return {"suites": suites, "all_passed": all_passed}


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _emit_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _csv_cell(v) for k, v in row.items()})
    return buf.getvalue()


def _csv_cell(v):
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, float) and (math.isnan(v) or math.isinf(v)):
        return repr(v)
    return v


def _flatten_verify(report: dict) -> list[dict]:
    return [
        {
            "suite": suite,
            "name": c.name,
            "observed": c.observed,
            "bound": c.bound,
            "satisfied": c.satisfied,
            "mode": c.mode,
        }
        for suite, checks in report["suites"]
        for c in checks
    ]


def _schema1_suites(report: dict) -> list[dict]:
    """The JSON ``suites`` block in its schema-1 row shapes.

    Gradient-bound rows are ``{bound_id, max_observed, bound, mode,
    satisfied}``; every other suite's rows are ``{name, lhs, rhs,
    satisfied}``.
    """
    out = []
    for suite, checks in report["suites"]:
        if suite in _SUITE_NAMES:
            rows = [
                {
                    "bound_id": c.name,
                    "max_observed": c.observed,
                    "bound": c.bound,
                    "mode": c.mode,
                    "satisfied": c.satisfied,
                }
                for c in checks
            ]
        else:
            rows = [
                {"name": c.name, "lhs": c.observed, "rhs": c.bound, "satisfied": c.satisfied}
                for c in checks
            ]
        out.append({"suite": suite, "rows": rows})
    return out


def _emit(args: argparse.Namespace, rows: list[dict], suites: list | None = None) -> str:
    if args.format == "json":
        doc = {
            "schema_version": 1,
            "command": args.command,
            "config": {
                "lam": args.lam,
                "mu": args.mu,
                "n": args.n,
                "alpha": args.alpha,
                "tail_tol": args.tail_tol,
                "regime": args.regime,
                "beta": args.beta,
                "sizes": args.sizes,
                "alpha_over_mu": args.alpha_over_mu,
            },
            "rows": rows,
            "suites": suites if suites is not None else [],
            "tolerances": {
                "tail_tol": args.tail_tol,
                "stein_residual": _IDENTITY_TOL,
                "generator_identity": _IDENTITY_TOL,
            },
        }
        # numpy scalars serialize as the Python scalars .item() gives
        return json.dumps(doc, indent=2, default=lambda o: o.item()) + "\n"
    return _emit_csv(rows)


def _write(out: str | None, text: str) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _offered_loads(text: str) -> list[float]:
    """The --sizes value: comma-separated offered loads, such as 4,25."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated offered loads such as 4,25, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="erlangdiff",
        description="Exact Erlang-A/C steady-state analysis against the "
        "piecewise-OU diffusion model",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_params: bool):
        p.add_argument("--tail-tol", type=float, default=1e-14)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        if with_params:
            p.add_argument("--lambda", dest="lam", type=float, required=True)
            p.add_argument("--mu", type=float, default=1.0)
            p.add_argument("--n", type=int, required=True)
            p.add_argument("--alpha", type=float, default=0.0)

    for name in ("table1", "table2", "table3"):
        add_common(sub.add_parser(name), with_params=False)
    add_common(sub.add_parser("distance"), with_params=True)
    add_common(sub.add_parser("verify"), with_params=True)
    sweep = sub.add_parser("sweep")
    add_common(sweep, with_params=False)
    sweep.add_argument("--regime", choices=("qd", "qed", "nds"), required=True)
    sweep.add_argument("--beta", type=float, default=1.0)
    sweep.add_argument("--sizes", type=_offered_loads, required=True)
    sweep.add_argument("--alpha-over-mu", type=float, default=0.0)
    sweep.add_argument("--mu", type=float, default=1.0)
    # the JSON config block lists every key, also those a subcommand lacks
    parser.set_defaults(
        lam=None, mu=1.0, n=None, alpha=0.0, regime=None, beta=1.0, sizes=[], alpha_over_mu=0.0
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0:  # -h and --version
            raise
        # argparse has printed the usage error; exit 2 means a violated bound
        return EXIT_VALIDATION
    suites, code = None, EXIT_OK
    try:
        if args.command in ("distance", "verify"):
            params = ModelParams(lam=args.lam, mu=args.mu, n=args.n, alpha=args.alpha)
        if args.command == "table1":
            rows = run_table1(args.tail_tol)
        elif args.command == "table2":
            rows = run_table2(args.tail_tol)
        elif args.command == "table3":
            rows = run_table3(args.tail_tol)
        elif args.command == "distance":
            rows = run_distance(params, args.tail_tol)
        elif args.command == "verify":
            report = run_verify(params, args.tail_tol)
            rows, suites = _flatten_verify(report), _schema1_suites(report)
            code = EXIT_OK if report["all_passed"] else EXIT_VIOLATION
        else:
            rows = universality_sweep(
                args.regime,
                args.sizes,
                args.beta,
                alpha_over_mu=args.alpha_over_mu,
                mu=args.mu,
                tail_tol=args.tail_tol,
            )
    except (ValidationError, ValueError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        _write(args.out, _emit(args, rows, suites))
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
