"""An offline lint: no module of the package imports a name it never uses."""
import ast
from pathlib import Path

import pytest

import jordanloops

PACKAGE = Path(jordanloops.__file__).parent
# search.py re-exports classify_up_to_iso for its callers; bench/tracing.py
# times the classification layer through that name
RE_EXPORTS = {("search.py", "classify_up_to_iso")}


def unused_imports(source: str) -> list[str]:
    """The names an import binds in ``source`` that no other name reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("source,unused", [
    ("import os\n", ["os"]),
    ("import os.path\nos.sep\n", []),
    ("from math import inf as big, pi\nx: big = 1\n", ["pi"]),
    ("from __future__ import annotations\n", []),
])
def test_lint_finds_unused_imports(source, unused):
    assert unused_imports(source) == unused


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(path):
    unused = unused_imports((PACKAGE / path).read_text(encoding="utf-8"))
    assert [name for name in unused if (path, name) not in RE_EXPORTS] == []
