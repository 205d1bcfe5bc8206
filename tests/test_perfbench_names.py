"""The names the benchmark harness traces are functions of the library.

``perfbench/spans.py`` wraps each ``SPANNED`` and ``COUNTED`` name, a
``reebchords`` module and a function in it, and ``perfbench/run.py`` fails a
traced run whose ``REQUIRED`` names recorded no call.  A refactor that
renames or drops one of these functions would otherwise show only in a
traced benchmark run.  This reads the lists off the harness's syntax trees,
without running it.
"""

import ast
import importlib
import inspect
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def assigned_lists(path, *names):
    """The literal values of top-level assignments to ``names``."""
    found = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in names:
                    found[target.id] = ast.literal_eval(node.value)
    assert set(found) == set(names)
    return found


def traced_names():
    lists = assigned_lists(PERFBENCH / "spans.py", "SPANNED", "COUNTED")
    return lists["SPANNED"] + lists["COUNTED"]


def test_traced_names_are_library_functions():
    traced = traced_names()
    assert traced
    for name in traced:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"reebchords.{module}"), attr,
                     None)
        assert inspect.isfunction(fn), name


def test_required_names_are_traced():
    required = assigned_lists(PERFBENCH / "run.py", "REQUIRED")["REQUIRED"]
    assert required
    for workload, names in required.items():
        assert set(names) <= set(traced_names()), workload
