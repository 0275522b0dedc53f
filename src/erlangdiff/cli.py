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

The rows come from ``erlangdiff.report``, which ``main`` imports once a
command is parsed: ``--help``, ``--version`` and usage errors load no numpy.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import __version__

__all__ = ["main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_VIOLATION = 2


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------


def _emit_csv(rows: list[dict]) -> str:
    if not rows:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)  # bools, None and non-finite floats print as str() gives them
    return buf.getvalue()


def _emit(
    args: argparse.Namespace, rows: list[dict], suites: list | None, identity_tol: float
) -> str:
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
                "stein_residual": identity_tol,
                "generator_identity": identity_tol,
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
    from . import report  # numpy and every layer load here, once a command is parsed

    suites, code = None, EXIT_OK
    try:
        if args.command in ("distance", "verify"):
            params = report.ModelParams(lam=args.lam, mu=args.mu, n=args.n, alpha=args.alpha)
        if args.command == "table1":
            rows = report.run_table1(args.tail_tol)
        elif args.command == "table2":
            rows = report.run_table2(args.tail_tol)
        elif args.command == "table3":
            rows = report.run_table3(args.tail_tol)
        elif args.command == "distance":
            rows = report.run_distance(params, args.tail_tol)
        elif args.command == "verify":
            verdict = report.run_verify(params, args.tail_tol)
            rows, suites = report._flatten_verify(verdict), report._schema1_suites(verdict)
            code = EXIT_OK if verdict["all_passed"] else EXIT_VIOLATION
        else:
            rows = report.universality_sweep(
                args.regime,
                args.sizes,
                args.beta,
                alpha_over_mu=args.alpha_over_mu,
                mu=args.mu,
                tail_tol=args.tail_tol,
            )
    except (ValueError, report.TruncationError) as exc:  # ValidationError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        _write(args.out, _emit(args, rows, suites, report._IDENTITY_TOL))
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return EXIT_VALIDATION
    return code


if __name__ == "__main__":
    sys.exit(main())
