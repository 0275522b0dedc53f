"""erlangdiff benchmark: seeded closed-loop workloads, checked outputs.

    python3 bench/run.py --workload verify_mixed --seed 3 --seconds 30 --trace 0
    python3 bench/run.py                       # every workload, one table
    python3 bench/run.py --workload distance_R4.9e6 --seconds 10
    python3 bench/run.py --write-reference     # refresh reference.json

Each workload runs in a fresh child process (child.py) with BLAS/OpenMP
pinned to one thread.  With ``--trace 0`` the last line of stdout is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The lines before it are a readable
summary.  The full record (machine facts, run facts, every op and every
failed op with its parameters) goes to bench/results/.  Run from the root
of a checkout; the package is imported from its ``src`` directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import scenarios  # noqa: E402

RESULTS = BENCH / "results"
THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
SETUP_SAMPLES = 5
TAIL_BEYOND = 10  # ops that must lie above the tail percentile
CHILD_DEADLINE_S = 170.0
# Every end-to-end metric the summary prints.  BENCHMARK.json declares, with
# bounds, only those steady enough to gate on (see README.md).
SUMMARY_UNITS = {
    "setup_s": "s",
    "op_latency_p50_s": "s",
    "op_latency_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "failed_ops_ratio": "ratio",
    "verify_violated_rows": "count",
}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **THREAD_PINS)
    env["PYTHONPATH"] = str(ROOT / "src")
    # imports use cached bytecode, as an installed package would, whatever
    # the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup() -> list[float]:
    """Seconds from spawning an interpreter until ``import erlangdiff.cli``
    returns, one unmeasured spawn first (it may write bytecode caches)."""
    code = "import time, erlangdiff.cli; print(repr(time.monotonic()))"
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=child_env(), capture_output=True,
            text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"import erlangdiff.cli failed: {proc.stderr.strip()}")
        if i:
            samples.append(float(proc.stdout.strip()) - start)
    return samples


def run_child(request: dict) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")], env=child_env(), cwd=ROOT,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(json.dumps(request), timeout=CHILD_DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"child ran past {CHILD_DEADLINE_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, ops beyond) at the highest percentile that leaves
    at least TAIL_BEYOND ops above it; the maximum if there are too few ops."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = count - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / count, TAIL_BEYOND


def end_to_end(child: dict, setup: list[float]) -> tuple[dict, dict]:
    records = child["records"]
    latencies = [r["seconds"] for r in records if r["seconds"] is not None]
    failed = sum(not r["ok"] for r in records)
    tail, pct, beyond = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_latency_p50_s": statistics.median(latencies),
        "op_latency_tail_s": tail,
        "ops_per_s": len(latencies) / child["wall_s"],
        "peak_rss_mb": child["peak_rss_mb"],
        "failed_ops_ratio": failed / len(records),
        "verify_violated_rows": sum(r["violated_rows"] for r in records[:scenarios.COUNTED_OPS]),
    }
    facts = {
        "setup_samples_s": setup,
        "ops": len(records),
        "ops_timed": len(latencies),
        "failed": failed,
        "tail_percentile": pct,
        "tail_ops_beyond": beyond,
    }
    return metrics, facts


def machine_facts() -> dict:
    """CPU model and data-cache sizes, from the files Linux exposes."""
    cpu = ""
    caches = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "type").read_text().strip() != "Instruction":
                level = (index / "level").read_text().strip()
                caches[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass  # facts stay partial off Linux
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": caches,
        "platform": platform.platform(),
        "thread_pins": THREAD_PINS,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    request = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "root": str(ROOT),
        "spans_path": str(RESULTS / f"{stem}.spans.csv") if trace else None,
    }
    setup = [] if trace else measure_setup()
    child = run_child(request) if workload != "import" else None
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_facts()}
    if child is None:
        metrics = {"setup_s": statistics.median(setup)}
        record.update(metrics=metrics, setup_samples_s=setup)
        summary = {"correct": True, "attempted": len(setup), "failed": 0}
    else:
        records = child["records"]
        failed_ops = [r for r in records if not r["ok"]]
        record.update(
            child={k: v for k, v in child.items() if k not in ("records", "per_layer")},
            failed_ops=[{"key": r["key"], "problems": r["problems"]} for r in failed_ops],
            ops=records,
        )
        if trace:
            metrics = child["per_layer"]
        else:
            metrics, facts = end_to_end(child, setup)
            record["facts"] = facts
        record["metrics"] = metrics
        summary = {"correct": not failed_ops, "attempted": len(records), "failed": len(failed_ops)}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    record["summary"] = summary
    return record


def print_record(record: dict, units: dict) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={int(record['trace'])}")
    machine = record["machine"]
    print(f"#   machine: nproc={machine['nproc']} cpu={machine['cpu']!r} caches={machine['caches']}")
    child = record.get("child")
    if child:
        print(f"#   numpy {child['numpy']}, scipy {child['scipy']}, python {child['python']}, "
              f"warm-up op: {child['warmup_op']}")
    facts = record.get("facts")
    if facts:
        print(f"#   ops {facts['ops']}, failed {facts['failed']}, tail = p{facts['tail_percentile']:.1f} "
              f"with {facts['tail_ops_beyond']} ops beyond")
    for name, value in record["metrics"].items():
        print(f"#   {name:48s} {value:.6g} {units.get(name) or SUMMARY_UNITS.get(name, '')}")
    for failed in record.get("failed_ops", []):
        print(f"#   FAILED {failed['key']}: {'; '.join(failed['problems'])}")


def write_reference(seconds: float) -> None:
    """Store the numbers of the default seed's ops: the first COUNTED_OPS
    of each workload, or fewer if ``seconds`` runs out first."""
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(ROOT / "src"))
    import child as child_mod

    runner = child_mod.Runner()
    ops = {}
    for workload in scenarios.WORKLOADS:
        stream = scenarios.op_stream(workload, scenarios.DEFAULT_SEED)
        stream = itertools.islice(stream, scenarios.COUNTED_OPS)
        records, _ = child_mod.closed_loop(runner, stream, seconds, {})
        for r in records:
            if not r["ok"]:
                raise BenchError(f"{r['key']} fails: {r['problems']}")
            # 12 digits are ample for the checker's relative tolerance
            ops[r["key"]] = [float(f"{x:.12g}") for x in r["numbers"]]
    lines = [f"{json.dumps(key)}: {json.dumps(numbers)}" for key, numbers in ops.items()]
    text = f'{{"seed": {scenarios.DEFAULT_SEED}, "ops": {{\n' + ",\n".join(lines) + "\n}}\n"
    (BENCH / "reference.json").write_text(text, encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    names = list(scenarios.WORKLOADS) + list(scenarios.SINGLE_SCENARIOS)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=scenarios.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.trace and args.workload == "import":
        parser.error("the import scenario runs no ops to trace")
    if not (ROOT / "src" / "erlangdiff" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'erlangdiff'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            write_reference(args.seconds)
            return 0
        workloads = scenarios.WORKLOADS if args.workload == "all" else (args.workload,)
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    units = declared_units(bool(args.trace))
    for record in records:
        print_record(record, units)
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else f"{r['workload']}."
        for name, unit in units.items():
            if name in r["metrics"]:
                metrics[prefix + name] = {"value": r["metrics"][name], "unit": unit}
    result = {
        "correct": all(r["summary"]["correct"] for r in records),
        "attempted": sum(r["summary"]["attempted"] for r in records),
        "failed": sum(r["summary"]["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def declared_units(trace: bool) -> dict:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
