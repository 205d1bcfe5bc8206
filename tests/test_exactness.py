"""Every module of the library computes exactly: no floats anywhere.

``Fraction(1, 2) == 0.5`` holds, so a stray float can pass an equality
test; this reads the syntax trees instead.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "reebchords"
MATH_NAMES = {"gcd", "lcm"}       # the only exact helpers from ``math``


def inexact_uses(tree):
    """[(line, what)] of float and complex literals, names ``float`` and
    ``math`` names other than gcd and lcm, in a module's syntax tree."""
    math_modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            math_modules |= {a.asname or a.name for a in node.names
                             if a.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names
                      if a.name not in MATH_NAMES]
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in math_modules and node.attr not in MATH_NAMES:
            found.append((node.lineno, f"math.{node.attr}"))
    return sorted(found)


def test_checker_finds_each_kind():
    tree = ast.parse("import math as m\n"
                     "from math import gcd, floor\n"
                     "x = 0.5 + 2j\n"
                     "y = float(gcd(4, 6)) + m.sqrt(2) + m.lcm(2, 3)\n")
    assert inexact_uses(tree) == [(2, "math.floor"), (3, "literal 0.5"),
                                  (3, "literal 2j"), (4, "float"),
                                  (4, "math.sqrt")]


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: p.name)
def test_module_has_no_floats(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    assert inexact_uses(tree) == []
