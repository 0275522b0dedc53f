"""Imports are deferred: ``import erlangdiff.cli`` loads neither numpy nor
scipy, and every layer loads once ``cli.main`` dispatches a parsed command.
Each scipy function loads at its first call.  No command imports ``scipy``
or ``scipy.special``: ``gammaln``, ``log_ndtr``, ``erfcx`` and ``ndtr`` are
the ufuncs of scipy's xsf extension, loaded alone, and each is the
``scipy.special`` object itself; ``ndtri`` and ``ndtri_exp`` are the
module's own Cephes transcriptions, whose bits ``tests/test_special.py``
checks against scipy's.

Each case runs in a fresh interpreter, because this test session has
imported numpy and scipy already.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from erlangdiff import ModelParams, build_density, cli, moment_error, stationary_pmf

SRC = str(Path(cli.__file__).resolve().parents[1])

# runs cli.main(argv) (argv None: import only), its output discarded, and
# prints the exit code and whether scipy.special and scipy are loaded by then
SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, {src!r})
from erlangdiff import cli
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
print(json.dumps([code, "scipy.special" in sys.modules, "scipy" in sys.modules]))
"""

XSF = ("gammaln", "log_ndtr", "erfcx", "ndtr")
OWN = ("ndtri", "ndtri_exp")
# the scipy.special package import and two of what its __init__ loads:
# array_api_compat's numpy clone, and through it the lazy numpy submodules
PACKAGE = ("scipy", "scipy.special", "scipy._lib._array_api", "numpy.f2py")
# prints the PACKAGE modules loaded by then
LOADED = f"""
print(json.dumps([m for m in {PACKAGE!r} if m in sys.modules]))
"""


def _run(argv, extra=""):
    """The JSON lines printed by SCRIPT and then by the extra code."""
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(src=SRC) + extra, json.dumps(argv)],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize(
    "argv, code",
    [
        (None, None),
        (["--help"], 0),
        (["--version"], 0),
        (["distance", "--n", "5"], 1),  # argparse usage error: no --lambda
        (["distance", "--lambda", "-1", "--n", "5"], 1),  # typed ValidationError
    ],
)
def test_no_special_function_call_loads_no_scipy(argv, code):
    assert _run(argv) == [[code, False, False]]


def test_dunder_probes_load_no_scipy():
    probe = """
from erlangdiff import _special
names = ("__all__", "__path__", "__wrapped__", "__signature__")
print(json.dumps([hasattr(_special, name) for name in names] + ["scipy" in sys.modules]))
"""
    assert _run(None, probe) == [[None, False, False], [False] * 5]


def test_special_names_are_the_six_checked():
    # a special function read anywhere in src/ is one the tests here bind
    # to the scipy.special object, or one tests/test_special.py checks
    reads = set()
    for path in Path(SRC, "erlangdiff").glob("*.py"):
        if path.name != "_special.py":
            reads |= set(re.findall(r"(?<![\w.])special\.([A-Za-z_]\w*)", path.read_text()))
    assert reads == set(XSF + OWN)


@pytest.mark.parametrize("table", ["table1", "table2", "table3"])
def test_tables_skip_the_scipy_package(table):
    assert _run([table], LOADED) == [[0, False, False], []]


@pytest.mark.parametrize(
    "argv",
    [
        ["distance", "--lambda", "1000", "--n", "1032"],  # ndtri
        ["verify", "--lambda", "16", "--n", "20"],  # ndtri_exp
    ],
    ids=["distance", "verify"],
)
def test_distance_and_verify_skip_the_scipy_package(argv):
    assert _run(argv, LOADED) == [[0, False, False], []]


@pytest.mark.parametrize(
    "argv",
    [
        ["table1"],
        ["distance", "--lambda", "1000", "--n", "1032"],
        ["verify", "--lambda", "16", "--n", "20"],
    ],
    ids=["table1", "distance", "verify"],
)
def test_every_binding_is_the_scipy_ufunc_itself(argv):
    check = f"""
import scipy.special
from erlangdiff import _special
print(json.dumps([getattr(_special, name) is getattr(scipy.special, name) for name in {XSF!r}]))
print(json.dumps([vars(_special)[name].__module__ for name in {OWN!r}]))
"""
    assert _run(argv, check) == [[0, False, False], [True] * len(XSF), ["erlangdiff._special"] * 2]


# prints the numpy and scipy modules loaded by then
NUMERIC = """
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))))
"""


@pytest.mark.parametrize(
    "argv, code",
    [(None, None), (["--help"], 0), (["--version"], 0), (["distance", "--n", "5"], 1)],
    ids=["import", "help", "version", "usage-error"],
)
def test_front_end_loads_no_numpy(argv, code):
    assert _run(argv, NUMERIC) == [[code, False, False], []]


def test_package_lookups_load_nothing_unasked():
    probe = """
import erlangdiff
names = ("__wrapped__", "__signature__", "_special", "_quad", "no_such_name")
print(json.dumps([hasattr(erlangdiff, name) for name in names]))
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("erlangdiff", "numpy")))))
"""
    assert _run(None, probe) == [[None, False, False], [False] * 5, ["erlangdiff", "erlangdiff.cli"]]


# the layers whose names bench/tracer.py rebinds; it indexes each in
# sys.modules once the benchmark's warm-up command has run
TRACED_LAYERS = ("ctmc", "diffusion", "poisson", "_quad", "stein_verify", "metrics", "cli")


def test_first_command_loads_every_traced_layer():
    probe = f"""
print(json.dumps([m for m in {TRACED_LAYERS!r} if "erlangdiff." + m not in sys.modules]))
"""
    assert _run(["distance", "--lambda", "1000", "--n", "1032"], probe) == [[0, False, False], []]


def test_library_path_runs_with_only_the_front_end_imported():
    # the benchmark's moment op, reached through the package attributes
    probe = """
pkg = sys.modules["erlangdiff"]
params = pkg.model.ModelParams(lam=49.0, mu=1.0, n=50, alpha=0.0)
dist = pkg.ctmc.stationary_pmf(params, moment_order=2)
d = pkg.diffusion.build_density(dist.derived)
print(json.dumps({"k_max": dist.k_max, **pkg.metrics.moment_error(dist, d, 2)}))
"""
    params = ModelParams(lam=49.0, mu=1.0, n=50, alpha=0.0)
    dist = stationary_pmf(params, moment_order=2)
    want = {"k_max": dist.k_max, **moment_error(dist, build_density(dist.derived), 2)}
    assert _run(None, probe + LOADED) == [[None, False, False], json.loads(json.dumps(want)), []]
