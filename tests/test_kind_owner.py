"""One kind rule: in the library, only ``errors.check_kind`` asks whether a
value is a bool, so no other code decides on its own what counts as a number."""

import ast
from pathlib import Path

import pytest

import collisim

MODULES = sorted(Path(collisim.__file__).parent.glob("*.py"))
OWNERS = {"errors.check_kind"}


def bool_testers(tree: ast.AST, module: str) -> set[str]:
    """``module.name`` for each top-level function or class whose code calls
    ``isinstance(..., bool)`` (``bool`` alone or in a tuple), ``module`` for
    module-level code that does; nested functions count for their owner."""
    found = set()

    def names_bool(node) -> bool:
        elements = node.elts if isinstance(node, ast.Tuple) else [node]
        return any(isinstance(e, ast.Name) and e.id == "bool" for e in elements)

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if owner == module and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                      ast.ClassDef)):
                visit(child, f"{module}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2
                    and names_bool(child.args[1])):
                found.add(owner)
            visit(child, owner)
    visit(tree, module)
    return found


def test_only_check_kind_tests_for_a_bool():
    found = set()
    for path in MODULES:
        found |= bool_testers(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == OWNERS


@pytest.mark.parametrize("source,expected", [
    ("def f(v):\n    return isinstance(v, bool)\n", {"m.f"}),
    ("def f(v):\n    return isinstance(v, (int, bool))\n", {"m.f"}),
    ("def f(v):\n    def g():\n        return isinstance(v, bool)\n    return g\n", {"m.f"}),
    ("class C:\n    def f(self, v):\n        return isinstance(v, bool)\n", {"m.C"}),
    ("OK = isinstance(1, bool)\n", {"m"}),
    ("def f(v):\n    return isinstance(v, int)\n", set()),
    ("def f(v):\n    return isinstance(v, np.bool_)\n", set())])
def test_guard_sees_bool_tests(source, expected):
    assert bool_testers(ast.parse(source), "m") == expected
