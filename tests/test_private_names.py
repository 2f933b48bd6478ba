"""Every module-level private function or class, and every module-level
UPPER_CASE constant, of the package has a use in the package: a stdlib
``ast`` check that stands in for a linter's dead-code rule. Tests do not
count, so a helper or a constant that only tests read is reported."""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chebconvex"


def definitions(tree):
    """(name, node) of the module-level functions and classes whose names
    start with one underscore, and of the names that module-level
    assignments bind in UPPER_CASE."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.startswith("__"):
                found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(name.id, node) for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)
                      and re.fullmatch(r"[A-Z][A-Z0-9_]*", name.id)]
    return found


def referenced_names(node, skip):
    """The names that ``node`` reads, as a name or as an attribute, or
    imports, outside the subtree ``skip``."""
    if node is skip:
        return set()
    names = set()
    if isinstance(node, ast.Name):
        names.add(node.id)
    elif isinstance(node, ast.Attribute):
        names.add(node.attr)
    elif isinstance(node, ast.alias):
        names.add(node.name)
    for child in ast.iter_child_nodes(node):
        names |= referenced_names(child, skip)
    return names


def unreferenced(sources):
    """(module, name) of each definition in ``sources`` (module name ->
    source text) that no module references outside the definition
    itself."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    return [(module, name)
            for module, tree in trees.items() for name, node in definitions(tree)
            if not any(name in referenced_names(other, node) for other in trees.values())]


def test_every_private_helper_and_constant_has_a_use():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced(sources) == []


def test_check_sees_a_helper_with_no_caller():
    sources = {"a.py": ("def _called(): pass\n"
                        "def _recursive(n): return _recursive(n - 1)\n"
                        "class _Orphan: pass\n"
                        "def _imported(): pass\n"
                        "def _method_name(): pass\n"
                        "def public(): return _called()\n"),
               "b.py": ("from .a import _imported\n"
                        "def g(obj): return obj._method_name, _imported\n")}
    assert unreferenced(sources) == [("a.py", "_recursive"), ("a.py", "_Orphan")]


def test_check_sees_a_constant_that_nothing_reads():
    sources = {"a.py": ("READ = 1.0\n"
                        "ORPHAN = 16.0\n"
                        "SELF_REFERENCE = [SELF_REFERENCE for _ in ()]\n"
                        "IMPORTED: int = 2\n"
                        "LEFT, RIGHT = 0, 1\n"
                        "_private = lower = 3\n"
                        "def f(): return READ * LEFT\n"),
               "b.py": "from .a import IMPORTED\n"}
    assert unreferenced(sources) == [("a.py", "ORPHAN"), ("a.py", "SELF_REFERENCE"),
                                     ("a.py", "RIGHT")]
