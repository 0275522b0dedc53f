"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import erlangdiff

MODULES = ["erlangdiff"] + [
    f"erlangdiff.{info.name}" for info in pkgutil.iter_modules(erlangdiff.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", erlangdiff.__all__)
def test_export_is_the_defining_modules_object(name):
    obj = getattr(erlangdiff, name)
    owner = importlib.import_module(obj.__module__)
    assert owner.__name__.startswith("erlangdiff.")
    assert vars(owner)[name] is obj


def test_star_import_in_a_fresh_interpreter():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from erlangdiff import *\n"
        "import erlangdiff\n"
        "print(all(globals()[name] is getattr(erlangdiff, name) for name in erlangdiff.__all__))"
    )
    src = str(Path(erlangdiff.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n"
