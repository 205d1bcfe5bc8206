"""No function of the library calls itself by name.

Python's recursion limit would bound whatever such a function walks: the
factor count of a candidate product, or the length of an enumerated word.
The walks keep their own stacks or levels instead; this reads the syntax
trees to keep it so.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "reebchords"


def self_calls(tree):
    """[(line, name)] of calls by bare name to the enclosing function."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [(node.lineno, fn.name) for node in ast.walk(fn)
                      if isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == fn.name]
    return sorted(found)


def test_checker_finds_self_calls_only():
    tree = ast.parse("def walk(n):\n"
                     "    def extend(k):\n"
                     "        return extend(k - 1) if k else walk(0)\n"
                     "    return extend(n)\n"
                     "class Wire(Base):\n"
                     "    def __init__(self):\n"
                     "        super().__init__()\n"
                     "    def append(self, p):\n"
                     "        self.points.append(p)\n")
    assert self_calls(tree) == [(3, "extend"), (3, "walk")]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_self_calls(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert self_calls(tree) == []
