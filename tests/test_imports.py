"""Every name a package module imports is used there: a stdlib ``ast``
check that stands in for a linter's unused-import rule. And the CLI's
import leaves out the standard modules that only cost start-up."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chebconvex"


def imported_names(tree):
    """(name, line) of each name an import statement binds, except
    ``from __future__`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """The names a module reads: in code, in annotations, quoted ones
    included, and in the strings of ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                            if isinstance(n, ast.Name))
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(item.value for item in ast.walk(node.value)
                        if isinstance(item, ast.Constant) and isinstance(item.value, str))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom math import inf, nan as missing\n"
              "from typing import Sequence\n"
              "__all__ = ['inf']\n"
              "def f(x: 'Sequence[float]'):\n    return os.sep\n")
    assert unused_imports(source) == [("missing", 3)]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # Each CLI invocation is one process: a frozen dataclass compiles its
    # methods when its module runs, and dataclasses imports inspect, ast and
    # dis. -S keeps site-packages' start-up hooks out of the count.
    check = ("import sys, chebconvex.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-S", "-c", check], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_only_determinants_names_the_zero_test_factor():
    # The scale proxy and tau belong to determinants: the scans and the map
    # at fixed knots decide their zero tests through its ScaleBound.
    naming = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        if "TAU_FACTOR" in names | {name for name, _ in imported_names(tree)}:
            naming.append(path.name)
    assert naming == ["determinants.py"]
