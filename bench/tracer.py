"""Span tracer for the per-layer metrics, kept entirely in the benchmark.

``Tracer.install`` rebinds the traced public functions in every
``erlangdiff.*`` namespace that holds them (so calls that go through a
module's own imports are caught too) and the traced methods on their
classes.  Each call becomes a span: name, start, end, parent span and op id.
Self time is a span's duration minus the time its child spans cover.
Counts come from arguments and return values.  Spans stay in memory until
``write_spans`` runs at the end of the run.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

# Span storage is capped; aggregates stay exact past the cap.
MAX_SPANS = 1_000_000
_LOG_PMF_CUT = math.log(1e-16)


def _size(x) -> int:
    return int(np.size(x))


def _count_pmf(tracer: "Tracer", fn, args, kwargs, result) -> None:
    tracer.counts["ctmc.states_built"] += result.k_max + 1
    tracer.counts["ctmc.states_kept"] += int(np.count_nonzero(result.log_pmf > _LOG_PMF_CUT))


def _count_points(prefix: str):
    def count(tracer: "Tracer", fn, args, kwargs, result) -> None:
        size = _size(args[1])  # args[0] is self
        tracer.counts[f"{prefix}.points"] += size
        tracer.counts[f"{prefix}.scalar_calls"] += size == 1
    return count


def _count_nodes(tracer: "Tracer", fn, args, kwargs, result) -> None:
    order = args[3] if len(args) > 3 else kwargs.get("order", fn.__defaults__[0])
    tracer.counts["quad.integrate_panels.nodes"] += _size(args[1]) * order


def _count_panels(tracer: "Tracer", fn, args, kwargs, result) -> None:
    tracer.counts["stein_verify.panels"] += _size(args[1])


# (module, attribute, span name, counter).  A dotted attribute is a method.
# A span name of None counts without opening a span, so the caller's self
# time is not split.
TARGETS = (
    ("ctmc", "stationary_pmf", "ctmc.stationary_pmf", _count_pmf),
    ("ctmc", "moment", "ctmc.moment", None),
    ("ctmc", "moment_bound_report", "ctmc.moment_bound_report", None),
    ("ctmc", "stein_identity_residual", "ctmc.stein_identity_residual", None),
    ("diffusion", "DiffusionDensity.cdf", "diffusion.cdf", _count_points("diffusion.cdf")),
    ("diffusion", "build_density", "diffusion.build_density", None),
    ("diffusion", "moment", "diffusion.moment", None),
    ("diffusion", "density_sup_check", "diffusion.density_sup_check", None),
    ("poisson", "PoissonSolution.f_prime", "poisson.deriv", _count_points("poisson.deriv")),
    ("poisson", "PoissonSolution.f_second", "poisson.deriv", _count_points("poisson.deriv")),
    ("poisson", "PoissonSolution.f_third", "poisson.deriv", _count_points("poisson.deriv")),
    ("poisson", "PoissonSolution.antiderivative", "poisson.antiderivative", None),
    ("poisson", "build_solution", "poisson.build_solution", None),
    ("poisson", "gradient_bound_report", "poisson.gradient_bound_report", None),
    ("_quad", "integrate_panels", "quad.integrate_panels", _count_nodes),
    ("_quad", "integrate_with_splits", "quad.integrate_with_splits", None),
    ("_quad", "integrate_abs_with_splits", "quad.integrate_abs_with_splits", None),
    ("stein_verify", "wasserstein_decomposition", "stein_verify.wasserstein_decomposition", None),
    ("stein_verify", "kolmogorov_decomposition", "stein_verify.kolmogorov_decomposition", None),
    ("stein_verify", "_panel_abs_f3", None, _count_panels),
    ("stein_verify", "_weighted_f2_panels", None, _count_panels),
    ("metrics", "wasserstein_distance", "metrics.wasserstein_distance", None),
    ("metrics", "kolmogorov_distance", "metrics.kolmogorov_distance", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Collects spans and per-layer counters while installed."""

    def __init__(self) -> None:
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one column per span field, to keep a million spans small
        self.span_id = array("q")
        self.span_op = array("q")
        self.span_parent = array("q")
        self.span_name = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_dropped = 0
        self._next_id = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, count):
        tracer = self

        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                count(tracer, fn, args, kwargs, result)
                return result
            return counted

        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            duration = end - start
            tracer.self_s[name] += duration - frame[1]
            tracer.calls[name] += 1
            if count is not None:
                count(tracer, fn, args, kwargs, result)
            if stack:
                # counting time is the tracer's, not the caller's
                stack[-1][1] += time.perf_counter() - start
            tracer._record(span_id, stack[-1][0] if stack else -1, name_id, start, end)
            return result

        return spanned

    def _record(self, span_id, parent, name_id, start, end) -> None:
        if len(self.span_start) >= MAX_SPANS:
            self.spans_dropped += 1
            return
        self.span_id.append(span_id)
        self.span_op.append(self.op_id)
        self.span_parent.append(parent)
        self.span_name.append(name_id)
        self.span_start.append(start)
        self.span_end.append(end)

    def install(self) -> None:
        """Rebind every target in every loaded ``erlangdiff`` namespace."""
        mods = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "erlangdiff" or name.startswith("erlangdiff."))
        }
        for mod_name, attr, name, count in TARGETS:
            owner = mods[f"erlangdiff.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._set(cls, meth, self._wrap(original, name, count))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, name, count)
            for mod in mods.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped)

    def _set(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def write_spans(self, path) -> None:
        """Write the kept spans as CSV: op,span,parent,name,start_s,end_s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,span,parent,name,start_s,end_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{self.span_op[i]},{self.span_id[i]},{self.span_parent[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_start[i]:.9f},{self.span_end[i]:.9f}\n"
                )
