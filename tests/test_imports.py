"""Every name a ``talescale`` module imports is used in that module.

A deletion tends to leave its imports behind; this reads each module's
syntax tree and names each imported name that no expression reads.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "talescale"


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Every name an expression reads."""
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    read = read_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in read}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_an_unused_import_is_named():
    tree = ast.parse("import os, re.x as rx\nfrom json.encoder import py_encode_basestring, dumps\n"
                     "from __future__ import annotations\nos.sep\nprint(dumps)\n")
    assert set(imported_names(tree)) - read_names(tree) == {"rx", "py_encode_basestring"}
