"""Every public function and class of the library is reached from outside it.

A public top-level name of ``src/reebchords`` must be named somewhere other
than its own definition and the package's ``__init__.py``: elsewhere in the
library, or in the benchmark harness (``perfbench/``) or the tools
(``tools/``).  A name that only the tests use is a second route, and those
live in ``tests/oracles.py``.  This reads the syntax trees to keep it so.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reebchords"


def public_definitions(tree):
    """Top-level public function and class definitions of a module."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")]


def names_used(tree, skip=()):
    """Every bare name and attribute name read in tree, outside the
    subtrees in ``skip``; imports alone do not count."""
    skipped = {id(n) for node in skip for n in ast.walk(node)}
    used = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def dead_exports(modules, others):
    """[(module, name)] of the public definitions in ``modules`` (a dict
    of name to tree) that no other module of ``modules`` nor any tree in
    ``others`` names outside the definition itself."""
    dead = []
    for mod, tree in sorted(modules.items()):
        for node in public_definitions(tree):
            used = names_used(tree, skip=[node])
            for other, t in modules.items():
                if other != mod:
                    used |= names_used(t)
            for t in others:
                used |= names_used(t)
            if node.name not in used:
                dead.append((mod, node.name))
    return dead


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_checker_finds_unreached_definitions_only():
    core = ast.parse("def reached():\n"
                     "    return helper()\n"
                     "def helper():\n"
                     "    return 1\n"
                     "def only_itself(n):\n"
                     "    return only_itself(n - 1) if n else 0\n"
                     "class Lonely(object):\n"
                     "    def __eq__(self, other):\n"
                     "        return isinstance(other, Lonely)\n"
                     "class Used(object):\n"
                     "    pass\n"
                     "def _private():\n"
                     "    pass\n")
    cli = ast.parse("from .core import Used, only_itself\n"
                    "def main():\n"
                    "    return Used()\n"
                    "main()\n")
    tool = ast.parse("import core\n"
                     "print(core.reached())\n")
    assert dead_exports({"core": core, "cli": cli}, [tool]) == [
        ("core", "only_itself"), ("core", "Lonely")]


def test_every_public_definition_is_reached():
    modules = {p.stem: parse(p) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    others = [parse(p) for d in ("perfbench", "tools")
              for p in sorted((ROOT / d).glob("*.py"))]
    assert modules and others
    assert dead_exports(modules, others) == []
