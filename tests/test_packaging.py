"""Declared dependencies match what the package imports; the test oracles
import nothing from the package they check; the su(2) stack and the Bessel
model import nothing from each other, and neither imports the check code."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def imported_top_level_names():
    names = set()
    for path in (SRC / "eomod").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+; only these reads need it
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.\-]+", d).group(0).lower().replace("-", "_")
            for d in deps}


def test_every_dependency_is_imported():
    declared = declared_dependencies()
    assert declared
    assert declared <= imported_top_level_names()


def test_import_loads_only_declared_dependencies():
    # a dependency that is dropped from pyproject.toml must not come back
    # through an optional import
    declared = declared_dependencies()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = ("import json, sys; before = set(sys.modules); "
             "import eomod.cli, eomod.verify; "
             "print(json.dumps(sorted({m.split('.')[0] for m in "
             "set(sys.modules) - before} - set(sys.stdlib_module_names))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert set(json.loads(out.stdout)) <= declared | {"eomod"}


def test_cli_import_leaves_numpy_fft_unloaded():
    # numpy loads numpy.fft lazily; only the classical Fourier check needs
    # it, so a one-shot CLI process must not pay for it at import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = "import sys, eomod.cli; print('numpy.fft' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["eomod.verify", "eomod.reference"])
def test_cli_import_leaves_verify_unloaded(module):
    # only the verify command needs the check layer and the oracle routes
    # behind it; every other one-shot CLI process skips importing them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    probe = f"import sys, eomod.cli; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_oracles_import_nothing_from_eomod():
    # an oracle built on eomod's own code would check that code against itself
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            continue
        assert not any(m.split(".")[0] == "eomod" for m in modules), ast.unparse(node)


def eomod_imports(module):
    """The eomod modules that ``src/eomod/<module>.py`` imports, read from its AST
    (one module's import loads the others it reaches, so sys.modules cannot
    tell which module named them)."""
    tree = ast.parse((SRC / "eomod" / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("eomod" if node.level else None, node.module)))
            names = ([f"{base}.{alias.name}" for alias in node.names] if base == "eomod"
                     else [base])
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("eomod."))
    return found


@pytest.mark.parametrize("module", ["su2", "wigner", "dynamics", "reference"])
def test_su2_stack_imports_no_bessel_model(module):
    # only detection, verify and cli join the two models
    assert not eomod_imports(module) & {"unrestricted", "detection", "verify", "cli"}


def test_bessel_model_imports_no_other_module():
    assert eomod_imports("unrestricted") == set()
    # the walk sees both relative import forms
    assert {"detection", "dynamics", "unrestricted", "wigner"} <= eomod_imports("verify")


@pytest.mark.parametrize("module", ["su2", "wigner", "dynamics", "unrestricted", "detection"])
def test_model_layers_import_no_check_code(module):
    # the oracle routes, LAPACK's solver and the checks serve verify alone
    assert not eomod_imports(module) & {"reference", "verify"}


# only perfbench's warm-sweep calls these; ROADMAP item 13 moves them out
UNREAD_IN_PACKAGE = {"revival_scan", "find_revival_peak"}


def test_every_public_name_is_read_in_the_package():
    # src/ keeps only code that a command runs or that checks it: a public
    # top-level name that no module reads serves the tests alone
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in (SRC / "eomod").rglob("*.py")]
    defined = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    public = {name for name in defined if not name.startswith("_")}
    assert public - read - UNREAD_IN_PACKAGE == set()
