"""The report builders behind the CLI commands: tables 1-3, distance rows
and the verify suites, each a list of rows or checks ready to print.

Importing this module loads numpy and every layer; ``cli.main`` imports it
once a command has been parsed.
"""

from __future__ import annotations

import math

import numpy as np

from .ctmc import (
    TruncationError,
    moment as chain_moment,
    moment_bound_report,
    stein_identity_residual,
)
from .diffusion import density_sup_check
from .metrics import _WASSERSTEIN_BOUND, Scenario, mean_error, moment_error, universality_sweep
from .model import Check, EvaluationRangeError, ModelParams
from .poisson import _SUITE_NAMES, gradient_bound_report
from .stein_verify import kolmogorov_decomposition, wasserstein_decomposition

__all__ = ["run_table1", "run_table2", "run_table3", "run_distance", "run_verify"]

# five loads approaching capacity at each of n = 5 and n = 500
TABLE1_CASES = [(lam, 5) for lam in (3.0, 4.0, 4.9, 4.95, 4.99)] + [
    (lam, 500) for lam in (300.0, 400.0, 490.0, 495.0, 499.0)
]
TABLE2_LOADS = [300.0, 400.0, 490.0, 495.0, 499.0, 499.9]
TABLE3_LOADS = [499.0, 499.9, 499.95, 499.99]

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
    checks = [
        ("f_linear", lambda x: x),
        ("f_quadratic", lambda x: np.asarray(x) ** 2),
        ("f_poisson_identity", sol_id),
        ("f_poisson_indicator", sol_kink),
    ]
    rows = []
    for name, f in checks:
        residual, budget = stein_identity_residual(dist, f)
        if residual > _IDENTITY_TOL and residual <= budget:
            raise TruncationError(
                f"stein_identity {name}: the residual {residual:.6g} is the flow per unit mu "
                "R nu_top |f(x_top + delta) - f(x_top)| into a state the window dropped"
            )
        rows.append(Check.at_most(name, residual, _IDENTITY_TOL))
    return rows


def _expansion_suites(dist, sols, d_k: float, sup_p: float) -> list[tuple[str, list[Check]]]:
    """The generator identity and decomposition suites of the identity
    (``sols[0]``) and the anchors, both read from their decompositions; per
    anchor a, also the straddle lemma, P(a - delta < X~ <= a + delta) against
    one majorant 2 delta sup_p + d_K + 9 L delta^2 + 8 L^2 delta^4 with
    L = max(alpha/mu, 1), and where the universal rows print the
    intermediate bound straddle/2 + 75 delta."""
    der = dist.derived
    delta = der.delta
    universal = der.is_erlang_c and der.R >= 1.0
    dec = wasserstein_decomposition(dist, sols[0])
    decs = [dec] + [kolmogorov_decomposition(dist, sol) for sol in sols[1:]]
    # |E h(X~) - E h(Y)| against |E G_Y f_h(X~)| for each test function
    identity = []
    for sol, d in zip(sols, decs):
        name = f"generator_identity[{sol.h.kind}@{sol.h.parameter:+.3g}]"
        identity.append(Check.at_most(name, d.extras["generator_identity"], _IDENTITY_TOL))
    load = max(der.a, 1.0)
    try:
        majorant = 2.0 * delta * sup_p + d_k + 9.0 * load * delta**2 + 8.0 * load**2 * delta**4
    except OverflowError:
        majorant = np.inf
    if not np.isfinite(majorant):
        raise EvaluationRangeError(f"alpha/mu = {load:.6g}: the straddle majorant overflows")
    rows = [Check.at_most("wasserstein_lhs_le_total", dec.lhs, dec.total + _IDENTITY_TOL)]
    if universal:
        bound_w = _WASSERSTEIN_BOUND * delta  # the bound ``distance`` prints
        rows.append(Check.at_most("wasserstein_total_le_205delta", dec.total, bound_w))
        rows.append(Check.at_most("wasserstein_f2b_le_111", dec.extras["mean_abs_f2b"], 111.0))
    for sol, deck in zip(sols[1:], decs[1:]):
        a = sol.h.parameter
        tag = f"[a={a:+.3g}]"
        straddle = dist.prob_interval(a - delta, a + delta)
        rows += [
            Check.at_most(f"kolmogorov_lhs_le_total{tag}", deck.lhs, deck.total + _IDENTITY_TOL),
            Check.at_most(
                f"kolmogorov_straddle_majorant{tag}", straddle, majorant, rtol=1e-12, atol=1e-12
            ),
        ]
        if universal:
            interm = 0.5 * straddle + 75.0 * delta
            rows.append(Check.at_most(f"kolmogorov_interm{tag}", deck.lhs, interm))
    return [("generator_identity", identity), ("decompositions", rows)]


def run_verify(params: ModelParams, tail_tol: float = 1e-14) -> dict:
    """All desk-checkable suites for one parameter set.

    Returns ``{"suites": [(suite, [Check, ...]), ...], "all_passed": bool}``.
    Every suite reads one ``Scenario``: the pmf, the density, the identity
    and the four anchor solutions are built once, and d_K and the density
    supremum are computed once (d_W is not needed).  The gradient suites
    take one sample grid, and each solution's decomposition one pass over
    the chain states.
    """
    s = Scenario(params, tail_tol, moment_order=2)
    # built in this order up front, so a failing input names the same stage
    dist = s.dist
    d, sol_id, anchor_sols, d_k = s.density, s.identity, s.anchors, s.d_k
    suites = [("moment_bounds", moment_bound_report(dist))]
    suites += gradient_bound_report(sol_id, anchor_sols)
    # after the gradient suites, whose exp(zeta^2/2) range check comes first
    sup_check = density_sup_check(d)
    suites += [
        ("density_sup", [sup_check]),
        # anchor_sols[1] is the indicator at the drift kink -zeta
        ("stein_identity", _residual_rows(dist, sol_id, anchor_sols[1])),
        *_expansion_suites(dist, [sol_id, *anchor_sols], d_k, sup_check.observed),
    ]
    all_passed = all(c.satisfied is not False for _, checks in suites for c in checks)
    return {"suites": suites, "all_passed": all_passed}


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
