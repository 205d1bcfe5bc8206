"""The census of small diagrams (``tools/census.py``) as a soundness gate.

Every front of at most 6 events in the benchmark's grammar, with every +-1
assignment, runs ``chain --max-len 2 --epsilon 1/100``.  The facts pinned
here hold for every realization of these fronts, so a later failure is a
soundness finding to record, not a pin to edit:

* every command exits 0, none with an internal fault (3);
* Legendrian (-1) surgery gives a Stein fillable manifold, whose contact
  homology is not zero, so no all -1 diagram has a certified row;
* +1 surgery on a tb = -1, rot = 0 unknot gives S^1 x S^2 with its Stein
  fillable structure, so no one-component +1 front with tb = -1 and rot =
  0 has a certified row.
"""

import sys
from pathlib import Path

import pytest

from reebchords.diagram import parse_front, resolve

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="module")
def census():
    sys.path.insert(0, str(TOOLS))
    try:
        import census
    finally:
        sys.path.remove(str(TOOLS))
    return census, census.census(6)


def test_census_of_six_events_exits_0_everywhere(census):
    tool, results = census
    assert [len(tool.event_lists(n)) for n in range(2, 7)] == \
        [1, 1, 11, 48, 491]
    assert len(results) == 2186
    assert [text for text, *_, code in results if code != 0] == []
    assert "exit codes: 0: 2186" in tool.summary(6, results)


def test_census_certifies_no_all_minus_one_diagram(census):
    tool, results = census
    minus = [(text, out) for text, kind, out, _, _ in results
             if kind == "all -1"]
    assert len(minus) == 552
    assert [text for text, out in minus if tool.certified_rows(out)] == []
    assert "all -1: 552 diagrams, 0 with a certified row, 0 certified " \
        "rows" in tool.summary(6, results)


def test_census_certifies_no_plus_one_surgery_giving_s1_x_s2(census):
    tool, results = census
    fillable = []
    for text, kind, out, _, _ in results:
        front = parse_front(text)
        if kind == "all +1" and front.n_components == 1:
            d = resolve(front)
            if d.tb[0] == -1 and d.rot[0] == 0:
                fillable.append((text, tool.certified_rows(out)))
    assert len(fillable) == 7
    assert [text for text, rows in fillable if rows] == []
