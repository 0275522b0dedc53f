"""Every exported name resolves, so a deletion cannot leave a stale export,
and every layer imports only the layers below it."""

import ast
import importlib
import pkgutil
import re
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


# the layers, lowest first; the package __init__, which loads them lazily, is exempt
LAYERS = [
    "_special", "model", "ctmc", "_quad", "diffusion", "poisson", "stein_verify", "metrics",
    "report", "cli",
]


def _package_imports(path: Path) -> list[tuple[int, str]]:
    """(line, dotted name) of every erlangdiff import in a module's source,
    inside functions too, relative ones made absolute: ``from .a import b``
    names erlangdiff.a, ``from . import b`` names erlangdiff.b."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.append((node.lineno, node.module))
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else [alias.name for alias in node.names]
            out += [(node.lineno, f"erlangdiff.{name}") for name in names]
    return [(line, name) for line, name in out if name.split(".")[0] == "erlangdiff"]


def test_layers_import_only_lower_layers():
    package = Path(erlangdiff.__file__).parent
    assert sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__") == sorted(LAYERS)
    upward = []
    for rank, layer in enumerate(LAYERS):
        for line, name in _package_imports(package / f"{layer}.py"):
            # erlangdiff alone, or one of its attributes, is the exempt __init__
            target = name.split(".")[1] if "." in name else None
            if target in LAYERS and LAYERS.index(target) >= rank:
                upward.append(f"{layer}.py:{line} imports {name}")
    assert not upward


def test_the_expansions_only_expand():
    # the straddle lemma's majorant, which needs the density supremum and
    # its range error, is built in report; the expansions read no density law
    package = Path(erlangdiff.__file__).parent
    imports = [name for _, name in _package_imports(package / "stein_verify.py")]
    assert "erlangdiff.diffusion" not in imports
    assert "EvaluationRangeError" not in (package / "stein_verify.py").read_text()


def test_only_the_window_owners_walk_it():
    # the window is read through DiscreteStationary; past ctmc, only the
    # decompositions' kept-state pass walks it (the distances read cells)
    package = Path(erlangdiff.__file__).parent
    walkers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "_walk"
    }
    assert walkers == {"ctmc.py", "stein_verify.py"}


def test_only_the_missing_extension_fallback_imports_scipy_special():
    # the scipy.special package __init__ costs about 24 MB: _special binds
    # the xsf ufuncs without it and imports it only where the extension is
    # missing, and no other module names it
    package = Path(erlangdiff.__file__).parent
    naming = [p.name for p in package.glob("*.py") if re.search(r"scipy\W+special", p.read_text())]
    assert naming == ["_special.py"]
    tree = ast.parse((package / "_special.py").read_text())
    imports = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and "scipy" in ast.unparse(node)
    ]
    hook = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "__getattr__")
    body = [ast.unparse(stmt).splitlines()[0] for stmt in hook.body]
    fallback = [
        stmt
        for node in hook.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "module is None"
        for stmt in node.body
    ]
    assert body.index("module = _xsf()") < body.index("if module is None:")
    assert len(imports) == 1 and imports[0] in fallback
