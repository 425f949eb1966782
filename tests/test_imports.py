"""Offline lints: no module of the package imports a name it never uses,
and no private function or class goes unnamed by the package."""
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


def names_read(node) -> set:
    """Every name ``node`` reads: as a variable, an attribute or an import."""
    kinds = (ast.Name, ast.Attribute, ast.alias)
    return {
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name
        for n in ast.walk(node) if isinstance(n, kinds)
    }


def unused_private_definitions(sources) -> list[str]:
    """The module-level private functions and classes of the module texts
    ``sources`` that no module names outside their own definitions."""
    nodes = [node for source in sources for node in ast.parse(source).body]
    reads = [names_read(node) for node in nodes]
    return sorted(
        node.name for k, node in enumerate(nodes)
        if isinstance(node, ast.FunctionDef | ast.ClassDef) and node.name.startswith("_")
        and not any(node.name in read for j, read in enumerate(reads) if j != k)
    )


@pytest.mark.parametrize("sources,unused", [
    (["def _helper():\n    return _helper()\n"], ["_helper"]),
    (["def _helper(): ...\n", "from .a import _helper\n"], []),
    (["class _Box: ...\nx = _Box()\n"], []),
    (["def _a(): ...\n", "import a\na._a()\n"], []),
    (["def public(): ...\nclass _Unused: ...\n"], ["_Unused"]),
])
def test_lint_finds_unused_private_definitions(sources, unused):
    assert unused_private_definitions(sources) == unused


def test_package_names_every_private_definition():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert unused_private_definitions(sources) == []
