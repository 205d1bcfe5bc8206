"""Every public function, class, method and property of the library is
reached from outside its own definition.

A public top-level name of ``src/reebchords``, or a public method or
property of one of its classes, must be named somewhere other than its own
definition and the package's ``__init__.py``: elsewhere in the library, or
in the benchmark harness (``perfbench/``) or the tools (``tools/``).  A
method counts as reached when any attribute of that name is read, since the
trees carry no types.  A name that only the tests use is a second route, and
those live in ``tests/oracles.py``.  Likewise every ``__slots__`` name of
a library class must be read as an attribute somewhere in those trees: a
slot that is only written is state no one uses.  This reads the syntax
trees to keep it so.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "reebchords"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_definitions(tree):
    """[(qualified name, node)] of a module's public top-level functions and
    classes, and of the public methods and properties of its classes."""
    found = []
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)) \
                and not node.name.startswith("_"):
            found.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            found += [(f"{node.name}.{member.name}", member)
                      for member in node.body
                      if isinstance(member, FUNCTIONS)
                      and not member.name.startswith("_")]
    return found


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
        for name, node in public_definitions(tree):
            used = names_used(tree, skip=[node])
            for other, t in modules.items():
                if other != mod:
                    used |= names_used(t)
            for t in others:
                used |= names_used(t)
            if node.name not in used:
                dead.append((mod, name))
    return dead


def unread_slots(modules, others):
    """[(module, class.slot)] of the ``__slots__`` names of the classes in
    ``modules`` that no tree in ``modules`` or ``others`` reads as an
    attribute."""
    read = {node.attr for tree in list(modules.values()) + list(others)
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    unread = []
    for mod, tree in sorted(modules.items()):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets):
                    unread += [(mod, f"{cls.name}.{name}")
                               for name in ast.literal_eval(stmt.value)
                               if name not in read]
    return unread


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
                     "    def called(self):\n"
                     "        return self.helps()\n"
                     "    def helps(self):\n"
                     "        return 1\n"
                     "    def recurses(self, n):\n"
                     "        return self.recurses(n - 1) if n else 0\n"
                     "    @property\n"
                     "    def read(self):\n"
                     "        return 2\n"
                     "    @property\n"
                     "    def unread(self):\n"
                     "        return 3\n"
                     "    def _hidden(self):\n"
                     "        pass\n"
                     "def _private():\n"
                     "    pass\n")
    cli = ast.parse("from .core import Used, only_itself\n"
                    "def main():\n"
                    "    return Used().called() + Used().read\n"
                    "main()\n")
    tool = ast.parse("import core\n"
                     "print(core.reached())\n")
    assert dead_exports({"core": core, "cli": cli}, [tool]) == [
        ("core", "only_itself"), ("core", "Lonely"),
        ("core", "Used.recurses"), ("core", "Used.unread")]


def test_slot_checker_finds_slots_never_read():
    core = ast.parse("class Record(object):\n"
                     "    __slots__ = ('read', 'stored', 'elsewhere')\n"
                     "    def __init__(self, a):\n"
                     "        self.read, self.stored = a, a\n"
                     "        self.elsewhere = a\n"
                     "    def total(self):\n"
                     "        return self.read\n"
                     "class Plain(object):\n"
                     "    stored = 1\n")
    tool = ast.parse("from core import Record\n"
                     "print(Record(1).elsewhere)\n")
    assert unread_slots({"core": core}, [tool]) == [("core", "Record.stored")]


def test_every_public_definition_is_reached():
    modules = {p.stem: parse(p) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    others = [parse(p) for d in ("perfbench", "tools")
              for p in sorted((ROOT / d).glob("*.py"))]
    assert modules and others
    assert dead_exports(modules, others) == []


def test_every_slot_is_read():
    modules = {p.stem: parse(p) for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    others = [parse(p) for d in ("perfbench", "tools")
              for p in sorted((ROOT / d).glob("*.py"))]
    assert modules and others
    assert unread_slots(modules, others) == []
