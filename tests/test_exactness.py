"""Every module of the library computes exactly: no floats anywhere.

``Fraction(1, 2) == 0.5`` holds, so a stray float can pass an equality
test; this reads the syntax trees instead.  ``int / int`` is a float that
no syntax tree shows, so the numbers that commands leave in a diagram's
memo are checked at run time too.
"""

import argparse
import ast
import numbers
import pathlib
from fractions import Fraction
from typing import NamedTuple

import pytest

from reebchords import cli
from reebchords.diagram import parse_front, resolve
from reebchords.homology import h1_presentation
from test_lp import TREFOIL_2_COPY
from test_words import FIXTURE_FRONTS, FIXTURE_IDS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "reebchords"
MATH_NAMES = {"gcd", "lcm"}       # the only exact helpers from ``math``


class Point(NamedTuple):
    x: object
    y: object


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


def memo_numbers(value):
    """Every number in a value built of tuples (NamedTuples too), lists
    and dicts, dict keys included; other objects are not entered."""
    stack, found = [value], []
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            stack += list(v.items())
        elif isinstance(v, (tuple, list)):
            stack += v
        elif isinstance(v, numbers.Number):
            found.append(v)
    return found


def test_memo_walk_finds_nested_floats():
    value = {("grid",): (96, [(1, Fraction(1, 2))]), 2.5: [Point(1, 0.5)]}
    assert sorted(map(repr, memo_numbers(value))) == sorted(map(repr, [
        96, 1, Fraction(1, 2), 2.5, 1, 0.5]))


@pytest.mark.parametrize("text", FIXTURE_FRONTS + [TREFOIL_2_COPY],
                         ids=FIXTURE_IDS + ["2-copy"])
def test_chain_and_grading_leave_only_exact_numbers_in_the_memo(text,
                                                                capsys):
    """``/`` on two ints gives a float that the syntax check cannot see:
    after ``chain`` and ``grading`` every number the diagram's memo holds
    is an int or a Fraction."""
    d = resolve(parse_front(text))
    max_len = 1 if text == TREFOIL_2_COPY else 2
    args = argparse.Namespace(max_len=max_len, max_action=None,
                              epsilon="1/100", format="json")
    cli.cmd_chain.__wrapped__(args, d)
    if h1_presentation(d).finite:
        cli.cmd_grading.__wrapped__(args, d)
        assert ("grid",) in d.memo
    capsys.readouterr()
    found = memo_numbers(d.memo)
    assert found
    assert [v for v in found if not isinstance(v, (int, Fraction))] == []
