"""Every module-level private function or class of the package has a use in
the package: a stdlib ``ast`` check that stands in for a linter's dead-code
rule. Tests do not count, so a helper that only tests call is reported."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chebconvex"


def private_definitions(tree):
    """The module-level functions and classes whose names start with one
    underscore."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


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
    """(module, name) of each private definition in ``sources`` (module name
    -> source text) that no module references outside the definition
    itself."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    return [(module, node.name)
            for module, tree in trees.items() for node in private_definitions(tree)
            if not any(node.name in referenced_names(other, node) for other in trees.values())]


def test_every_private_helper_has_a_use():
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
