"""Every name a ``sasakigeo`` module imports is read by that module, and every private helper is read.

An AST scan of each module but ``__init__`` (which imports to re-export)
lists the names its ``import`` statements bind and the names its code
reads; a bound name that is never read fails, unless the line that binds it
is marked ``# noqa: F401``.  ``from __future__`` imports are not names.

A second scan lists each private name (one leading underscore, not a
dunder) that a module defines at module level or as a method, and fails on
one that no module of the package reads outside its own definition.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sasakigeo"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads, outside lines marked ``# noqa: F401``."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported.append((alias.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_flags_an_unread_name_and_honours_the_marker_on_its_line_only():
    source = """from __future__ import annotations
import math
from os import (  # noqa: F401
    getcwd,
    path,
    sep,  # noqa: F401
)
print(path)
"""
    assert unused_imports(source) == [(2, "math"), (4, "getcwd")]


def _private_definitions(tree: ast.Module) -> list:
    """(name, node) of each private function, class or assigned name at module level, and each private method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
            if isinstance(node, ast.ClassDef):
                out += [(f.name, f) for f in node.body if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in out if name.startswith("_") and not name.startswith("__")]


def unread_private_names(sources: dict) -> list:
    """(module, line, name) of each private definition of the modules ``sources`` ({module: source}) that no
    module reads, as a loaded name or attribute, outside the lines of that definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {}  # name -> [(module, line)]
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append((module, node.lineno))
    unread = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if all(where == module and line in inside for where, line in reads.get(name, [])):
                unread.append((module, node.lineno, name))
    return unread


def test_every_private_helper_is_read():
    assert unread_private_names({path.stem: path.read_text() for path in PACKAGE.glob("*.py")}) == []


def test_the_scan_flags_an_unread_helper_and_not_a_read_one():
    sources = {
        "a": """_TABLE = {}


def _read():
    return _TABLE


def _unread(k):
    return _unread(k - 1) if k else 0


class Box:
    def _kept(self):
        return 1

    def _stranded(self):
        return self._stranded
""",
        "b": """from a import Box, _read

print(_read(), Box()._kept(), Box.__init__)
""",
    }
    assert unread_private_names(sources) == [("a", 8, "_unread"), ("a", 16, "_stranded")]
