"""scipy loads at the first special-function call, never at import.

Each case runs in a fresh interpreter, because this test session has
imported scipy already.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from erlangdiff import cli

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

SIX = ("gammaln", "log_ndtr", "erfcx", "ndtri_exp", "ndtr", "ndtri")


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


def test_distance_binds_the_scipy_ufuncs_themselves():
    check = f"""
import scipy.special
from erlangdiff import _special
print(json.dumps([getattr(_special, name) is getattr(scipy.special, name) for name in {SIX!r}]))
"""
    assert _run(["distance", "--lambda", "1000", "--n", "1032"], check) == [
        [0, True, True],
        [True] * len(SIX),
    ]
