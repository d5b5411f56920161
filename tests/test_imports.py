"""Every name a ``sasakigeo`` module imports is read by that module.

An AST scan of each module but ``__init__`` (which imports to re-export)
lists the names its ``import`` statements bind and the names its code
reads; a bound name that is never read fails, unless the line that binds it
is marked ``# noqa: F401``.  ``from __future__`` imports are not names.
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
