"""One benchmark run in a fresh process: a closed loop of ops.

One client sends the next op only when the previous one has finished.
Each op is timed alone; its output is checked outside the timed region.
With tracing on, the first third of the time budget runs untraced and
fixes the op list.  Each op is then run twice more, traced and untraced in
alternating order; the traced runs give the per-layer figures, and the
pairs give the tracing overhead.  The first pass is left out of the
overhead because it runs colder (page faults, allocator growth).  Every
traced output must be byte-identical to its untraced ones.

Run by run.py as ``python3 bench/child.py``, with a JSON request on stdin
and the JSON result as the last line of stdout.  PYTHONPATH must name the
checkout's ``src``.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checker
import scenarios


class Runner:
    """Executes ops against the package under test, looked up at call time
    so that a tracer's rebinding is seen."""

    def __init__(self) -> None:
        import erlangdiff.cli  # noqa: F401 - loads every module

        self.pkg = sys.modules["erlangdiff"]

    def execute(self, op) -> tuple[int, str, str, float]:
        """(exit code, stdout, stderr, seconds) for one op."""
        out, err = io.StringIO(), io.StringIO()
        if op.is_cli:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                rc = self.pkg.cli.main(op.argv())
                seconds = time.perf_counter() - start
            return rc, out.getvalue(), err.getvalue(), seconds
        pkg = self.pkg
        start = time.perf_counter()
        params = pkg.model.ModelParams(lam=op.lam, mu=op.mu, n=op.n, alpha=op.alpha)
        dist = pkg.ctmc.stationary_pmf(params, moment_order=op.m)
        d = pkg.diffusion.build_density(dist.derived)
        result = pkg.metrics.moment_error(dist, d, op.m)
        seconds = time.perf_counter() - start
        return 0, json.dumps({"k_max": dist.k_max, **result}) + "\n", "", seconds

    def run_op(self, op, op_id: int, reference: dict) -> dict:
        record = {"op": op_id, "key": op.key(), "kind": op.kind}
        try:
            rc, text, err, seconds = self.execute(op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            record.update(
                seconds=None, rc=None, ok=False, violated_rows=0, output_bytes=0,
                problems=[f"raised {type(exc).__name__}: {exc}"],
                traceback=traceback.format_exc(limit=-3),
            )
            return record
        verdict = checker.check(op, rc, text)
        problems = verdict.problems + checker.match_reference(op.key(), verdict.numbers, reference)
        if err and rc not in (0, 2):
            problems.append(f"stderr: {err.strip()}")
        record.update(
            seconds=seconds, rc=rc, ok=not problems, problems=problems,
            violated_rows=verdict.violated_rows, output_bytes=len(text.encode("utf-8")),
            numbers=verdict.numbers, output=text,
        )
        return record


def closed_loop(runner: Runner, ops, seconds: float, reference: dict) -> tuple[list[dict], float]:
    """Run ops until the budget is spent; returns records and wall seconds."""
    records = []
    start = time.perf_counter()
    for op_id, op in enumerate(ops):
        if time.perf_counter() - start >= seconds:
            break
        records.append(runner.run_op(op, op_id, reference))
    return records, time.perf_counter() - start


def per_layer(tracer, ops_traced: int, overhead: float, violated_rows: int, cli_bytes: float) -> dict:
    """Per-op layer figures from the tracer's aggregates."""
    per_op = 1.0 / max(ops_traced, 1)
    s, c, k = tracer.self_s, tracer.calls, tracer.counts
    built = k["ctmc.states_built"]
    values = {
        "ctmc.stationary_pmf.self_s": s["ctmc.stationary_pmf"] * per_op,
        "ctmc.states_built": built * per_op,
        "ctmc.kept_ratio": k["ctmc.states_kept"] / built if built else 1.0,
        "ctmc.moment.self_s": s["ctmc.moment"] * per_op,
        "ctmc.moment_bound_report.self_s": s["ctmc.moment_bound_report"] * per_op,
        "ctmc.stein_identity_residual.self_s": s["ctmc.stein_identity_residual"] * per_op,
        "metrics.wasserstein_distance.self_s": s["metrics.wasserstein_distance"] * per_op,
        "metrics.kolmogorov_distance.self_s": s["metrics.kolmogorov_distance"] * per_op,
        "metrics.kolmogorov_distance.calls": c["metrics.kolmogorov_distance"] * per_op,
        "diffusion.cdf.points": k["diffusion.cdf.points"] * per_op,
        "diffusion.cdf.self_s": s["diffusion.cdf"] * per_op,
        "diffusion.build_density.self_s": s["diffusion.build_density"] * per_op,
        "diffusion.moment.self_s": s["diffusion.moment"] * per_op,
        "diffusion.density_sup_check.self_s": s["diffusion.density_sup_check"] * per_op,
        "poisson.deriv.points": k["poisson.deriv.points"] * per_op,
        "poisson.deriv.calls": c["poisson.deriv"] * per_op,
        "poisson.deriv.scalar_calls": k["poisson.deriv.scalar_calls"] * per_op,
        "poisson.deriv.self_s": s["poisson.deriv"] * per_op,
        "poisson.antiderivative.self_s": s["poisson.antiderivative"] * per_op,
        "poisson.build_solution.calls": c["poisson.build_solution"] * per_op,
        "poisson.build_solution.self_s": s["poisson.build_solution"] * per_op,
        "poisson.gradient_bound_report.self_s": s["poisson.gradient_bound_report"] * per_op,
        "quad.integrate_abs_with_splits.calls": c["quad.integrate_abs_with_splits"] * per_op,
        "quad.integrate_panels.calls": c["quad.integrate_panels"] * per_op,
        "quad.integrate_panels.nodes": k["quad.integrate_panels.nodes"] * per_op,
        "quad.self_s": sum(v for name, v in s.items() if name.startswith("quad.")) * per_op,
        "stein_verify.wasserstein_decomposition.self_s":
            s["stein_verify.wasserstein_decomposition"] * per_op,
        "stein_verify.kolmogorov_decomposition.self_s":
            s["stein_verify.kolmogorov_decomposition"] * per_op,
        "stein_verify.panels": k["stein_verify.panels"] * per_op,
        "cli.self_s": s["cli.main"] * per_op,
        "cli.output_bytes": cli_bytes,
        "verify_violated_rows": violated_rows,
        "trace.overhead_ratio": overhead,
    }
    return values


def run(request: dict) -> dict:
    workload, seed = request["workload"], request["seed"]
    seconds, trace = request["seconds"], request["trace"]
    root = Path(request["root"])
    runner = Runner()
    import numpy
    import scipy

    src = Path(runner.pkg.__file__).resolve().parent
    if root / "src" / "erlangdiff" != src:
        raise SystemExit(f"erlangdiff imported from {src}, not from the checkout")

    reference = checker.load_reference() if seed == scenarios.DEFAULT_SEED else {}
    warmup = scenarios.WARMUP.get(workload)
    if warmup is not None:
        runner.execute(warmup)

    ops = []

    def remember(stream):
        for op in stream:
            ops.append(op)
            yield op

    budget = seconds / 3.0 if trace else seconds
    records, wall = closed_loop(runner, remember(scenarios.op_stream(workload, seed)), budget, reference)
    del ops[len(records):]
    result = {
        "records": records,
        "wall_s": wall,
        "warmup_op": warmup.key() if warmup is not None else None,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        traced, replay = [], []
        for op_id, op in enumerate(ops):
            tracer.op_id = op_id
            # alternate which run of the pair goes first, so neither the
            # warmer second run nor drift in machine speed favours a side
            for with_trace in (op_id % 2 == 0, op_id % 2 == 1):
                if not with_trace:
                    replay.append(runner.run_op(op, op_id, reference))
                    continue
                tracer.install()
                try:
                    traced.append(runner.run_op(op, op_id, reference))
                finally:
                    tracer.uninstall()
        for plain, rec, again in zip(records, traced, replay):
            if not plain.get("output") == rec.get("output") == again.get("output"):
                rec["ok"] = False
                rec["problems"].append("output differs between untraced and traced runs")
        untraced_s = sum(r["seconds"] or 0.0 for r in replay)
        traced_s = sum(r["seconds"] or 0.0 for r in traced)
        cli_records = [r for r in traced if r["kind"] != "moment"]
        result["records"] = traced
        result["per_layer"] = per_layer(
            tracer,
            len(traced),
            traced_s / untraced_s - 1.0 if untraced_s > 0 else 0.0,
            sum(r["violated_rows"] for r in traced[:scenarios.COUNTED_OPS]),
            sum(r["output_bytes"] for r in cli_records) / max(len(cli_records), 1),
        )
        result["spans"] = len(tracer.span_start)
        result["spans_dropped"] = tracer.spans_dropped
        result["untraced_op_s"] = untraced_s
        result["traced_op_s"] = traced_s
        spans_path = request.get("spans_path")
        if spans_path:
            tracer.write_spans(spans_path)
    for rec in result["records"]:
        rec.pop("output", None)
        rec.pop("numbers", None)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.stdin.read()))))
