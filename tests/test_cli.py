import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

from erlangdiff import cli, metrics, poisson
from erlangdiff.ctmc import TruncationError, moment as chain_moment
from erlangdiff.model import Check, ModelParams


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
        rows = cli.run_table2()
        assert [r["R"] for r in rows] == [300.0, 400.0, 490.0, 495.0, 499.0, 499.9]

    def test_table3_rows(self):
        rows = cli.run_table3()
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


class TestExitCodes:
    def test_validation_error(self, capsys):
        assert cli.main(["distance", "--lambda", "6", "--n", "5"]) == 1
        assert "error" in capsys.readouterr().err

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

        monkeypatch.setattr(cli, "moment_bound_report", fake_report)
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
        rho = mpmath.mpf("1e-40")
        oracle = mpmath.nsum(lambda k: k * (1 - rho) * rho**k, [0, mpmath.inf])
        assert mean_x == pytest.approx(float(oracle), rel=1e-12)

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
        report = cli.run_verify(ModelParams(lam=12.0, mu=1.0, n=5, alpha=2.0))
        assert report["all_passed"]
        assert calls == {
            "stationary_pmf": 1,
            "build_density": 1,
            "build_solution": 5,
            "kolmogorov_distance": 1,
            "wasserstein_distance": 0,
            "_sample_grid": 1,
        }
