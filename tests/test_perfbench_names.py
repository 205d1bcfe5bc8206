"""The names the benchmark harness traces are functions of the library.

``perfbench/spans.py`` wraps each ``SPANNED`` and ``COUNTED`` name, a
``reebchords`` module and a function in it, and ``perfbench/run.py`` fails a
traced run whose ``REQUIRED`` names recorded no call.  A refactor that
renames or drops one of these functions would otherwise show only in a
traced benchmark run.  This reads the lists off the harness's syntax trees,
without running the harness, and runs one pass of two corpora under its
``Tracer`` to see every ``REQUIRED`` name called.
"""

import ast
import contextlib
import importlib
import inspect
import io
import pathlib
import sys

import pytest

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


@pytest.mark.parametrize("workload", ["realize", "orbit_tables"])
def test_a_traced_pass_reaches_every_required_name(workload, monkeypatch):
    """One pass of the workload's seed-1 corpus under the harness's own
    ``Tracer`` records a call of each of its ``REQUIRED`` names, so a
    refactor that stops calling a pinned function fails here, not only in
    a traced benchmark run.  ``search`` is left out: its commands are meant
    to run into the deadline."""
    required = assigned_lists(PERFBENCH / "run.py", "REQUIRED")["REQUIRED"]
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    corpus = importlib.import_module("corpus")
    from reebchords import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        for item in corpus.build(workload, 1):
            monkeypatch.setattr(sys, "stdin", io.StringIO(item["front"]))
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(item["argv"] + ["--input", "-"]) == 0, \
                    item["name"]
    finally:
        tracer.uninstall()
    calls = {name: row["calls"] for name, row in tracer.summary().items()}
    missing = [name for name in required[workload]
               if not calls.get(name, tracer.counts.get(name + ".calls"))]
    assert not missing
