"""The library's only runtime dependency is numpy: no module imports scipy."""

import ast
from pathlib import Path

import pytest

import collisim

MODULES = sorted(Path(collisim.__file__).parent.glob("*.py"))


def imported_roots(tree: ast.AST) -> set[str]:
    """The top-level package of every import in ``tree``, nested ones included."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"linalg", "qstate", "engine", "nonmarkov"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_no_scipy(path):
    assert "scipy" not in imported_roots(ast.parse(path.read_text(), str(path)))


@pytest.mark.parametrize("source", [
    "import scipy", "import numpy, scipy.sparse", "from scipy.sparse import csgraph",
    "def f():\n    from scipy import linalg\n"])
def test_guard_sees_scipy_imports(source):
    assert "scipy" in imported_roots(ast.parse(source))
