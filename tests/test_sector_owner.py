"""One owner of the sector split: in the library, only ``linalg.sector_eigvalsh``
and the full backend's ``engine._sector_plan`` label a pattern's sectors."""

import ast
from pathlib import Path

import pytest

import collisim

MODULES = sorted(Path(collisim.__file__).parent.glob("*.py"))
OWNERS = {"linalg.sector_eigvalsh", "engine._sector_plan"}


def referrers(tree: ast.AST, module: str) -> set[str]:
    """``module.name`` for each top-level function or class whose code refers
    to ``sectors`` (a name, an attribute or an import), ``module`` for
    module-level code that does; nested functions count for their owner."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if owner == module and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                      ast.ClassDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id == "sectors"
                    or isinstance(child, ast.Attribute) and child.attr == "sectors"
                    or isinstance(child, ast.alias) and "sectors" in (child.name, child.asname)):
                found.add(owner)
            visit(child, owner)
    visit(tree, module)
    return found


def test_only_the_owners_refer_to_sectors():
    found = set()
    for path in MODULES:
        found |= referrers(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == OWNERS


@pytest.mark.parametrize("source,expected", [
    ("def f(a):\n    return linalg.sectors(a)\n", {"m.f"}),
    ("def f(a):\n    def g():\n        return sectors(a)\n    return g\n", {"m.f"}),
    ("class C:\n    def f(self, a):\n        return self.sectors\n", {"m.C"}),
    ("from .linalg import sectors\n", {"m"}),
    ("def sectors(a):\n    return a\n", set()),
    ("def f(a):\n    return linalg.sector_eigvalsh(a)\n", set())])
def test_guard_sees_references(source, expected):
    assert referrers(ast.parse(source), "m") == expected
