import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
from erlangdiff import cli, ctmc, diffusion, metrics, poisson, report
from erlangdiff.ctmc import TruncationError, moment as chain_moment
from erlangdiff.diffusion import DiffusionDensity
from erlangdiff.model import Check, ModelParams
from tools.census import census_points


def run_cli(args, tmp_path, name="out.txt"):
    path = tmp_path / name
    code = cli.main(args + ["--out", str(path)])
    return code, path.read_bytes()


# Golden outputs in tests/data/<name>.<format>, written by
# ``erlangdiff <command> --format <format> --out tests/data/<name>.<format>``.
# Rewrite one only with a change that means to alter that output.
GOLDEN = Path(__file__).parent / "data"
REFERENCE_COMMANDS = {
    "table1": ["table1"],
    "table2": ["table2"],
    "table3": ["table3"],
    "sweep_qed": ["sweep", "--regime", "qed", "--beta", "1", "--sizes", "4,25"],
    "verify_4.9_5": ["verify", "--lambda", "4.9", "--n", "5"],
    "verify_12_5_2": ["verify", "--lambda", "12", "--n", "5", "--alpha", "2"],
    "verify_3_5_0.5": ["verify", "--lambda", "3", "--n", "5", "--alpha", "0.5"],
    # critical load: zeta = 0, infinite bounds and an empty `mid` region
    "verify_5_5_1": ["verify", "--lambda", "5", "--n", "5", "--alpha", "1"],
    # overloaded Erlang-A with the log-scale upper-tail rows
    "verify_100_90_0.01": ["verify", "--lambda", "100", "--n", "90", "--alpha", "0.01"],
    # light-load underloaded Erlang-A
    "verify_0.5_1_0.001": ["verify", "--lambda", "0.5", "--n", "1", "--alpha", "0.001"],
    "distance_12_5_2": ["distance", "--lambda", "12", "--n", "5", "--alpha", "2"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(REFERENCE_COMMANDS))
def test_reference_outputs_stable(tmp_path, name, fmt):
    code, payload = run_cli(REFERENCE_COMMANDS[name] + ["--format", fmt], tmp_path)
    assert code == 0
    assert payload == (GOLDEN / f"{name}.{fmt}").read_bytes()


class TestTables:
    def test_table1_shape(self, tmp_path):
        code, payload = run_cli(["table1"], tmp_path)
        assert code == 0
        lines = payload.decode().splitlines()
        assert len(lines) == 11  # header + 10 rows
        assert lines[0].startswith("R,n,mean_customers")

    def test_table2_rows(self):
        rows = report.run_table2()
        assert [r["R"] for r in rows] == [300.0, 400.0, 490.0, 495.0, 499.0, 499.9]

    def test_table3_rows(self):
        rows = report.run_table3()
        assert [r["R"] for r in rows] == [499.0, 499.9, 499.95, 499.99]
        errs = [r["err"] for r in rows]
        assert errs == sorted(errs)


class TestOutputFormats:
    def test_byte_stable(self, tmp_path):
        _, a = run_cli(["table3", "--format", "json"], tmp_path, "a.json")
        _, b = run_cli(["table3", "--format", "json"], tmp_path, "b.json")
        assert a == b
        _, c = run_cli(["distance", "--lambda", "4.9", "--n", "5"], tmp_path, "c.csv")
        _, d = run_cli(["distance", "--lambda", "4.9", "--n", "5"], tmp_path, "d.csv")
        assert c == d

    def test_json_schema(self, tmp_path):
        _, payload = run_cli(
            ["distance", "--lambda", "4.9", "--n", "5", "--format", "json"], tmp_path
        )
        doc = json.loads(payload)
        assert doc["schema_version"] == 1
        assert set(doc) == {
            "schema_version",
            "command",
            "config",
            "rows",
            "suites",
            "tolerances",
        }
        assert doc["command"] == "distance"
        assert len(doc["rows"]) == 1

    @pytest.mark.parametrize(
        "params",
        [
            ["--lambda", "4.9", "--n", "5"],
            ["--lambda", "3", "--n", "5", "--alpha", "4"],
            ["--lambda", "12", "--n", "5", "--alpha", "2"],
        ],
        ids=["erlang_c", "erlang_a_under", "erlang_a_over"],
    )
    def test_verify_suites_match_rows(self, tmp_path, params):
        # the schema-1 suites block and the flat rows describe the same checks
        _, payload = run_cli(["verify", *params, "--format", "json"], tmp_path)
        doc = json.loads(payload)
        expected = []
        for suite in doc["suites"]:
            for row in suite["rows"]:
                if "bound_id" in row:
                    assert list(row) == ["bound_id", "max_observed", "bound", "mode", "satisfied"]
                    keys = ("bound_id", "max_observed", "bound")
                else:
                    assert list(row) == ["name", "lhs", "rhs", "satisfied"]
                    keys = ("name", "lhs", "rhs")
                name, observed, bound = (row[k] for k in keys)
                expected.append(
                    {
                        "suite": suite["suite"],
                        "name": name,
                        "observed": observed,
                        "bound": bound,
                        "satisfied": row["satisfied"],
                        "mode": row.get("mode", "strict"),
                    }
                )
        assert doc["rows"] == expected
        assert len(expected) > 40

    def test_csv_is_lf_terminated(self, tmp_path):
        _, payload = run_cli(["table1"], tmp_path)
        assert b"\r\n" not in payload
        assert payload.endswith(b"\n")


# the stein_identity error of f_linear at verify --lambda 0.5 --n 1
# --alpha 1e33: the residual is the flow out of the window's top state
_RESIDUAL_FLOW = (
    "stein_identity f_linear: the residual 0.235702 is the flow per unit mu "
    "R nu_top |f(x_top + delta) - f(x_top)| into a state the window dropped\n"
)


class TestExitCodes:
    def test_validation_error(self, capsys):
        assert cli.main(["distance", "--lambda", "6", "--n", "5"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_unwritable_out_exit_1(self, capsys, tmp_path, where):
        out = tmp_path / "missing" / "x.csv" if where == "missing" else tmp_path
        argv = ["distance", "--lambda", "12", "--n", "5", "--alpha", "2", "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_distance_writes_nothing_to_stderr(self):
        # the exponential piece's closed-form cell inverse takes the log of a
        # negative number here; bisection replaces that nan without a warning
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        argv = ["distance", "--lambda", "1.8437837412319305", "--n", "2"]
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "erlangdiff.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert proc.stdout

    def test_verify_passes(self, tmp_path):
        code, payload = run_cli(
            ["verify", "--lambda", "4.9", "--n", "5", "--tail-tol", "1e-12"], tmp_path
        )
        assert code == 0
        assert b"False" not in payload

    def test_verify_erlang_a_passes(self, tmp_path):
        code, _ = run_cli(
            ["verify", "--lambda", "10", "--n", "5", "--alpha", "2", "--tail-tol", "1e-12"],
            tmp_path,
        )
        assert code == 0

    @pytest.mark.parametrize("lam, mu", [("4.9e8", "1e8"), ("4.9e-6", "1e-6")])
    def test_verify_time_units(self, tmp_path, lam, mu):
        # the queue of verify_4.9_5 in other time units: the polynomial Stein
        # residuals scale with the rates and are read per unit mu
        code, payload = run_cli(["verify", "--lambda", lam, "--mu", mu, "--n", "5"], tmp_path)
        assert code == 0
        assert b"False" not in payload

    def test_violation_exit_code(self, monkeypatch, tmp_path):
        # force a failing row to check the exit-code plumbing
        def fake_report(dist):
            return [Check("forced", 2.0, 1.0, False)]

        monkeypatch.setattr(report, "moment_bound_report", fake_report)
        code, payload = run_cli(
            ["verify", "--lambda", "4.0", "--n", "5", "--tail-tol", "1e-10"], tmp_path
        )
        assert code == 2
        assert b"forced" in payload

    def test_truncation_error_exit_code(self, monkeypatch, capsys):
        def fake_pmf(*args, **kwargs):
            raise TruncationError("stationary grid would exceed the state cap")

        monkeypatch.setattr(metrics, "stationary_pmf", fake_pmf)
        assert cli.main(["distance", "--lambda", "4.9", "--n", "5"]) == 1
        assert capsys.readouterr().err == (
            "error: stationary grid would exceed the state cap\n"
        )


    def test_light_load_distance_answers(self, capsys):
        # state 1 carries 1e-40 of the mass but half of E|X~|: the window is
        # cut deeper until it holds it, instead of doubling k_hi to the cap
        assert cli.main(["distance", "--lambda", "1e-40", "--n", "1"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        row = dict(zip(*[line.split(",") for line in out.out.splitlines()]))
        # d_W = E|Y| = sqrt(2/pi) up to about sqrt(R) = 1e-20, d_K = Phi(0) = 1/2
        assert float(row["d_w"]) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15, abs=0.0)
        assert float(row["d_k"]) == pytest.approx(0.5, rel=1e-15, abs=0.0)
        assert row["dwdk_ok"] == "True"
        dist = metrics.Scenario(ModelParams(lam=1e-40, mu=1.0, n=1), moment_order=1).dist
        der = dist.derived
        mean_x = der.x_inf + math.sqrt(der.R) * chain_moment(dist, 1, absolute=False)
        assert mean_x == pytest.approx(oracles.mm1_mean(1e-40), rel=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--lambda", "abc", "--n", "5"],
            ["sweep", "--regime", "qed", "--sizes", "4,x"],
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        # exit 2 is kept for a violated bound
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: erlangdiff ")
        assert "error: argument " in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--mu", "0", "service rate mu must be finite and positive, got 0.0"),
            ("--mu", "inf", "service rate mu must be finite and positive, got inf"),
            ("--alpha-over-mu", "nan", "alpha_over_mu must be {}, got nan"),
            ("--alpha-over-mu", "-1", "alpha_over_mu must be {}, got -1.0"),
        ],
    )
    def test_sweep_names_the_bad_parameter(self, capsys, flag, value, message):
        # the sweep checks its own rates before ModelParams, so the error
        # names the flag the user passed, not the rate built from it
        assert cli.main(["sweep", "--regime", "qed", "--sizes", "4,25", flag, value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: " + message.format("finite and >= 0") + "\n"

    def test_sizes_error_names_the_expected_form(self, capsys):
        assert cli.main(["sweep", "--regime", "qed", "--sizes", "4,x"]) == 1
        err = capsys.readouterr().err
        assert err.endswith(
            "error: argument --sizes: expected comma-separated offered loads "
            "such as 4,25, got '4,x'\n"
        )
        assert "<lambda>" not in err

    @pytest.mark.parametrize("flag", ["-h", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            cli.main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize(
        "lam, n", [("343.55", "1737"), ("1e-8", "1"), ("1e-30", "1"), ("1e-300", "1")]
    )
    def test_gradient_suite_range_errors(self, capsys, lam, n):
        # |zeta| > 37.7 overflows the exp(zeta^2/2) bounds of the underloaded
        # density-ratio rows; at zeta = -1e15 the sample grid is also too
        # coarse to hold a point at or below 0.  At lam = 1e-300 the pmf
        # certifies its moments once the window holds state 1 (weight 1e-300),
        # then the grid fails
        assert cli.main(["verify", "--lambda", lam, "--n", n]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: zeta = ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["distance", "verify"])
    @pytest.mark.parametrize(
        "load",
        [
            ["--lambda", "1e16", "--n", "10000000000000001"],
            ["--lambda", "1e20", "--n", "1", "--alpha", "1"],
        ],
    )
    def test_huge_load_exits_1(self, capsys, command, load):
        # the first grid passes the state cap: a typed error, not a hang
        # in the mode search or an integer overflow
        assert cli.main([command, *load]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: stationary grid would exceed 100000000 states")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["distance", "verify"])
    @pytest.mark.parametrize(
        "load",
        [
            ["--lambda", "5", "--n", "5", "--alpha", "1e-22"],
            ["--lambda", "5", "--n", "5", "--alpha", "1e-300"],
            ["--lambda", "1e6", "--n", "1000000", "--alpha", "1e-20"],
        ],
    )
    def test_critical_load_tiny_alpha_exits_1_fast(
        self, capsys, departure_rate_budget, command, load
    ):
        # n mu + alpha q rounds to lam for millions of states or more: the
        # mode search bisects within the read budget, and the grid fails
        # the state cap at once
        assert cli.main([command, *load]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            # overloaded shapes past the double range (alpha/mu > 1.3e154)
            ("verify --lambda 3 --n 1 --alpha 1e160", "the bound of gwo41_right overflows"),
            # the window's top state is the mode, and the state it dropped
            # has mass below 1e-32; the mu = 2 twin is the same chain per
            # unit mu, so the same flow R nu_top
            ("verify --lambda 0.5 --n 1 --alpha 1e33", _RESIDUAL_FLOW),
            ("verify --lambda 1 --mu 2 --n 1 --alpha 2e33", _RESIDUAL_FLOW),
            ("verify --lambda 0.5 --n 1 --alpha 1e160", "stein_identity f_linear: the residual"),
            # distances that came out nan: a right piece of variance 1e-300;
            # and a chain whose closed-form weights rise past the mode, so
            # that no window is built before the state cap
            ("distance --lambda 1e-08 --n 1 --alpha 1e300", "d_w, d_k past the double range"),
            ("distance --lambda 1e-30 --n 1 --alpha 1e-300", "stationary grid would exceed"),
            ("sweep --regime qd --sizes 1e-8 --alpha-over-mu 1e300", "d_w, d_k past the double"),
        ],
    )
    def test_past_the_double_range_exits_1(self, capsys, argv, message):
        # in this process, where a RuntimeWarning is an error: one typed
        # error line, no traceback and no warning
        assert cli.main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            # the closed-form weights rise past the mode, so no window is
            # built before the state cap: at lambda = 1e-30 they once gave a
            # point mass, whose density's amplitude came out nan, and the
            # other two once walked every window up to the cap
            ("verify --lambda 1e-30 --n 1 --alpha 1e-300", "stationary grid would exceed"),
            ("distance --lambda 1e-30 --n 40 --alpha 1e-300", "stationary grid would exceed"),
            ("distance --lambda 1e-08 --n 40 --alpha 1e-300", "stationary grid would exceed"),
            ("distance --lambda 0.5 --n 40 --alpha 1e-300", "stationary grid would exceed"),
            # |zeta| > 37.7 is rejected before the grid, far past the
            # switch point, is fed to the identity's solution
            (
                "verify --lambda 1e-08 --n 40 --alpha 1e+300",
                "zeta = -400000: the bound exp(zeta^2/2) overflows",
            ),
            (
                "verify --lambda 7.213573917123804e-20 --n 1 --alpha 2.940001338569436e+292",
                "zeta = -3.72327e+09: the bound exp(zeta^2/2) overflows",
            ),
            (
                "verify --lambda 2.0358067795786205e-12 --n 1 --alpha 1.482162426149318e+298",
                "zeta = -700861: the bound exp(zeta^2/2) overflows",
            ),
            # alpha/mu = 1e300 at mu = 1e-200: once an overflow of f''' in
            # the units of mu, which warned first; per unit mu, the error of
            # its twin at mu = 1
            (
                "verify --lambda 3e-200 --mu 1e-200 --n 40 --alpha 1e+100",
                "alpha/mu = 1e+300: the straddle majorant overflows",
            ),
            # lam/mu or alpha/mu past the double range, which once crashed
            # with a ZeroDivisionError, warned or met the state cap
            (
                "distance --lambda 1e-300 --mu 1e300 --n 1 --alpha 1e-300",
                "lam/mu = 0.0 is not a positive finite double",
            ),
            ("distance --lambda 1e-320 --mu 1e10 --n 1", "lam/mu = 0.0 is not a positive"),
            (
                "distance --lambda 0.5 --mu 1e300 --n 1 --alpha 1e-30",
                "alpha/mu = 0.0 is not a positive finite double",
            ),
            (
                "distance --lambda 1 --mu 1e-300 --n 1 --alpha 1e300",
                "alpha/mu = inf is not a positive finite double",
            ),
            (
                "distance --lambda 1e300 --mu 1e-300 --n 1 --alpha 1",
                "lam/mu = inf is not a positive finite double",
            ),
        ],
    )
    def test_typed_errors_come_without_warnings(self, capsys, argv, message):
        # a RuntimeWarning is an error in this process
        assert cli.main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_mu_1e_minus_200_answers_as_its_twin(self, capsys):
        # every layer works per unit mu, so the set prints the bytes of its
        # twin (lam/mu, 1, n, alpha/mu); f''' in the units of mu once
        # overflowed here and exited 1 on gwu3_right
        outs = []
        for argv in ("--lambda 3e-200 --mu 1e-200 --alpha 1e-70", "--lambda 3 --alpha 1e130"):
            assert cli.main(["verify", "--n", "40", *argv.split()]) == 0
            outs.append(capsys.readouterr())
        assert outs[0].err == outs[1].err == ""
        assert outs[0].out == outs[1].out and outs[0].out.startswith("suite,")

    def test_answers_at_mu_1e_minus_200_without_warnings(self, capsys):
        # the quadrature's bracket test reads signs: the product of two
        # values near 1e200 no longer overflows
        argv = "verify --lambda 5e-201 --mu 1e-200 --n 1 --alpha 1e-200".split()
        assert cli.main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == "" and captured.out.startswith("suite,")


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path):
        code, payload = run_cli(
            ["sweep", "--regime", "qed", "--beta", "1", "--sizes", "4,25"], tmp_path
        )
        assert code == 0
        lines = payload.decode().splitlines()
        assert len(lines) == 3
        assert lines[0].split(",")[0] == "regime"

    def test_sweep_requires_regime(self, capsys):
        assert cli.main(["sweep", "--sizes", "4"]) == 1
        assert "required: --regime" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, value",
        [
            (["--sizes", "inf"], "inf"),
            (["--sizes", "4,nan"], "nan"),
            (["--sizes", "4", "--beta", "inf"], "inf"),
            (["--sizes", "4", "--beta", "nan"], "nan"),
        ],
    )
    def test_non_finite_inputs_exit_1(self, capsys, extra, value):
        assert cli.main(["sweep", "--regime", "qed", *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"finite and positive, got {value}" in err
        assert "Traceback" not in err


class TestDistanceOnePass:
    def test_run_distance_reads_the_window_once(self, monkeypatch):
        # d_W and d_K read one block stream: one walk of the window with
        # its cell edges, and F_Y once per edge (the states, one right edge
        # per block, at most two flat-stretch edges), plus, per call that
        # inverts crossing cells, the junction and each crossing point
        monkeypatch.setattr(ctmc, "_BLOCK", 101)
        walks, points, crossings = [], [], []
        walk = ctmc.DiscreteStationary._walk
        cdf, invert = DiffusionDensity.cdf, DiffusionDensity.invert_in_cells

        def walked(dist, *args, **kwargs):
            if kwargs.get("edge"):
                walks.append(dist)
            return walk(dist, *args, **kwargs)

        def counted(d, x):
            points.append(np.size(x))
            return cdf(d, x)

        def inverted(d, u, *args):
            crossings.append(np.size(u))
            return invert(d, u, *args)

        monkeypatch.setattr(ctmc.DiscreteStationary, "_walk", walked)
        monkeypatch.setattr(DiffusionDensity, "cdf", counted)
        monkeypatch.setattr(DiffusionDensity, "invert_in_cells", inverted)
        report.run_distance(ModelParams(lam=1000.0, mu=1.0, n=1010, alpha=0.5))
        assert len(walks) == 1
        size = walks[0].k_top - walks[0].k_min + 1
        blocks = -(-size // 101)
        assert blocks > 5
        assert sum(points) <= size + blocks + 1 + sum(1 + c for c in crossings)


class TestVerifyBuildsOnce:
    def test_one_build_per_object(self, monkeypatch):
        # one verify: one pmf, one density, the identity and four anchor
        # solutions, one sample grid, d_K once and d_W never
        calls = {}

        def counted(owner, name):
            fn = getattr(owner, name)
            calls[name] = 0

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in (
            "stationary_pmf",
            "build_density",
            "build_solution",
            "kolmogorov_distance",
            "wasserstein_distance",
        ):
            counted(metrics, name)
        counted(poisson, "_sample_grid")
        verdict = report.run_verify(ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0))
        assert verdict["all_passed"]
        assert calls == {
            "stationary_pmf": 1,
            "build_density": 1,
            "build_solution": 5,
            "kolmogorov_distance": 1,
            "wasserstein_distance": 0,
            "_sample_grid": 1,
        }

    def test_one_window_pass_per_solution(self, monkeypatch):
        # each of the five solutions is evaluated on the chain states once,
        # for its generator identity and its decomposition together
        dists, points = [], []
        pmf, derivatives = metrics.stationary_pmf, poisson.PoissonSolution.derivatives

        def built(*args, **kwargs):
            dists.append(pmf(*args, **kwargs))
            return dists[-1]

        def recorded(sol, x):
            points.append(np.asarray(x))
            return derivatives(sol, x)

        monkeypatch.setattr(metrics, "stationary_pmf", built)
        monkeypatch.setattr(poisson.PoissonSolution, "derivatives", recorded)
        report.run_verify(ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0))
        (dist,) = dists
        states = dist.x
        assert sum(x.size > 0 and np.isin(x, states).all() for x in points) == 5

    def test_one_density_sup(self, monkeypatch):
        # the density_sup suite and the straddle majorant read one
        # supremum: the wrapper replaces every module's binding
        calls = []
        check = diffusion.density_sup_check

        def counted(d):
            calls.append(d)
            return check(d)

        for name, module in list(sys.modules.items()):
            if name.startswith("erlangdiff.") and hasattr(module, "density_sup_check"):
                monkeypatch.setattr(module, "density_sup_check", counted)
        report.run_verify(ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0))
        assert len(calls) == 1


class TestCensus:
    # every call answers (exit 0 or 2) or fails with one typed error line
    # (exit 1); a RuntimeWarning is an error in this process, so no call
    # warns either
    @pytest.mark.parametrize("seed", [1, 2])
    def test_cheap_regimes_answer_or_fail_typed(self, capsys, seed):
        for point in census_points(seed):
            for command in ("distance", "verify"):
                code = cli.main([command, *point, "--format", "json"])
                captured = capsys.readouterr()
                assert code in (0, 1, 2), (command, point)
                if code == 1:
                    assert captured.out == "", (command, point)
                    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
                elif command == "distance":
                    (row,) = json.loads(captured.out)["rows"]
                    values = [row["d_w"], row["d_k"], row["mean_error"]]
                    assert all(math.isfinite(v) for v in values), (point, values)
