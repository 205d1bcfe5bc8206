import argparse
import contextlib
import io
import json
import pathlib
import random
from fractions import Fraction

import pytest

from oracles import (all_orbit_strings, collection_i_grading, count_cycles,
                     count_paths, fraction_fiber_vector, k_copy,
                     letter_cap_row, pushout_grading)
from reebchords import quiver
from reebchords.cli import cmd_quiver
from reebchords.diagram import DiagramError, Face, parse_front, resolve
from reebchords.homology import (H1Presentation, h1_presentation,
                                 orbit_class_monomial)
from reebchords.quiver import bubbling_faces, effective_fiber_vector, i_grading
from reebchords.report import generators
from reebchords.words import CyclicWord, enumerate_orbit_words, push_out
from test_realization import FIXTURES

F = Fraction
ROOT = pathlib.Path(__file__).resolve().parent.parent
TREFOIL_PLUS = "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}"
# split links whose H1 exponent, the fiber vectors' denominator, is not |H1|
SPLIT_TREFOILS = ("L1,L3,X2,X2,X2,R1,R1,L1,L3,X2,X2,X2,R1,R1 "
                  "/ surgery {0:+1, 1:+1}")
SPLIT_TREFOIL_T25 = ("L1,L3,X2,X2,X2,R1,R1,L1,L3,X2,X2,X2,X2,X2,R1,R1 "
                     "/ surgery {0:+1, 1:+1}")


def quiver_json(d):
    """The ``quiver`` command's JSON output on the resolved diagram d."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cmd_quiver.__wrapped__(argparse.Namespace(format="json"), d)
    return json.loads(out.getvalue())


def test_hopf_quiver_shape(hopf_plus):
    q = quiver_json(hopf_plus)
    assert len(q["vertices"]) == 2
    assert len(q["edges"]) == 4
    assert len(q["loops"]["0"]) == 1
    assert len(q["loops"]["1"]) == 1
    across = [(e["tail"], e["tip"]) for e in q["edges"]
              if e["tail"] != e["tip"]]
    assert sorted(across) == [(0, 1), (1, 0)]


def test_quiver_of_no_chords_is_a_fault():
    # every right cusp makes a chord, so a diagram without one is a fault
    d = resolve(parse_front("L1,R1"))
    d.chords = []
    with pytest.raises(DiagramError, match="no quiver"):
        quiver_json(d)


def test_trefoil_quiver_shape(trefoil_plus):
    q = quiver_json(trefoil_plus)
    assert q["vertices"] == [0]
    assert len(q["loops"]["0"]) == 5
    assert q["collapsed_h1_rank"] == 5


def test_cycle_counts_match_word_enumeration(trefoil_plus, hopf_plus):
    for d in (trefoil_plus, hopf_plus):
        surgered_words = enumerate_orbit_words(d, max_len=3)
        for n in (1, 2, 3):
            words_n = [w for w in surgered_words if len(w.chords) == n]
            assert count_cycles(d, n) == len(words_n)


def test_hopf_path_counts(hopf_mixed):
    d = hopf_mixed
    lam0 = next(i for i, v in d.surgery.items() if v == 0)
    # the loop twice, and out across the link and back
    assert count_paths(d, lam0, lam0, 2) == 2
    assert count_paths(d, lam0, lam0, 1) == 1


TABLE = {
    ((4,),): (0, 0, 0, 0, 1, 0),
    ((1,), (1,)): (-1, 0, -2, -1, 1, 1),
    ((2,), (2,)): (1, 2, 2, 1, -1, -1),
    ((3,), (3,)): (-1, -2, 0, -1, 1, 1),
    ((1,), (2,)): (0, 1, 0, 0, 0, 0),
    ((1,), (3,)): (-1, -1, -1, -1, 1, 1),
    ((2,), (3,)): (0, 0, 1, 0, 0, 0),
}


def paper_face_order(d):
    """Map of the published face labels onto this realization's face ids.

    Identified structurally: the two one-corner faces belong to the cusp
    chords r4 and r5, the two-corner faces are the eyes at (r1, r2) and
    (r2, r3), the face whose corner at r4 is positive-W is the top band and
    the remaining one the bottom band.
    """
    by_corners = {}
    for f in d.faces_list:
        by_corners[tuple(sorted(f.corner_chords()))] = f.id
    top = next(f.id for f in d.faces_list
               if len(f.corners) > 2 and 4 in f.corner_chords())
    bottom = next(f.id for f in d.faces_list
                  if len(f.corners) > 2 and 5 in f.corner_chords())
    return [top, by_corners[(1, 2)], by_corners[(2, 3)], bottom,
            by_corners[(4,)], by_corners[(5,)]]


def test_trefoil_igrading_table(trefoil_plus, trefoil_plus_h1):
    d, h1 = trefoil_plus, trefoil_plus_h1
    perm = paper_face_order(d)
    for words, expect in TABLE.items():
        cws = [CyclicWord(d, w) for w in words]
        ig = collection_i_grading(d, h1, cws)
        assert tuple(ig[p - 1] for p in perm) == expect


def test_igrading_string_independence(trefoil_plus, trefoil_plus_h1,
                                      unknot_minus):
    """The library grades along 'eta' only; whole push-out curves along
    every side string give the same grading."""
    cases = [(trefoil_plus, trefoil_plus_h1, base)
             for base in ((4,), (4, 5), (1, 2), (1, 1), (2, 3, 5))]
    cases.append((unknot_minus, h1_presentation(unknot_minus), (1, 1)))
    graded = 0
    for d, h1, base in cases:
        w = CyclicWord(d, base)
        if not orbit_class_monomial(d, h1, w).is_zero():
            continue
        arcs = {}
        want = i_grading(d, h1, w)
        for s in all_orbit_strings(w):
            assert pushout_grading(d, [(w, s)], arcs) == want, (w, s)
        graded += 1
    assert graded >= 4


def test_igrading_additive(trefoil_plus, trefoil_plus_h1):
    d, h1 = trefoil_plus, trefoil_plus_h1
    w4 = CyclicWord(d, [4])
    w5 = CyclicWord(d, [5])
    both = collection_i_grading(d, h1, [w4, w5])
    assert list(both) == [a + b for a, b in zip(
        i_grading(d, h1, w4), i_grading(d, h1, w5))]
    assert collection_i_grading(d, h1, []) == (0,) * 6


def test_igrading_preconditions(trefoil_minus, trefoil_plus, trefoil_plus_h1):
    h1m = h1_presentation(trefoil_minus)
    w = CyclicWord(trefoil_minus, [4])
    # the CLI checks finiteness first, so an infinite H1 here is a fault
    with pytest.raises(DiagramError, match="finite first homology"):
        i_grading(trefoil_minus, h1m, w)
    # every caller checks the class first, so a class that is not zero here
    # is an internal fault
    w1 = CyclicWord(trefoil_plus, [1])
    with pytest.raises(DiagramError, match="not null-homologous"):
        i_grading(trefoil_plus, trefoil_plus_h1, w1)


def test_bubbling_faces(trefoil_plus, stab_plus, unknot_plus, unknot_minus,
                        hopf_mixed):
    tre = {word: f.id for f, word in bubbling_faces(trefoil_plus)}
    perm = paper_face_order(trefoil_plus)
    assert tre[(4,)] == perm[4]
    assert tre[(5,)] == perm[5]
    stab = [word for _f, word in bubbling_faces(stab_plus)]
    assert (1,) in stab
    unk = [word for _f, word in bubbling_faces(unknot_plus)]
    assert unk == [(1,), (1,)]
    # detection only applies over +1-surgered components
    assert bubbling_faces(unknot_minus) == []
    assert all(w != (1,) or True for w in bubbling_faces(hopf_mixed))


def test_bubbling_faces_walks_the_faces_once_per_diagram(monkeypatch):
    d = resolve(parse_front(TREFOIL_PLUS))
    first = bubbling_faces(d)
    walked = []
    real = Face.all_positive
    monkeypatch.setattr(Face, "all_positive",
                        lambda f: walked.append(f) or real(f))
    assert bubbling_faces(d) == first and walked == []
    # a new diagram of the same front walks its own faces, once each
    other = resolve(parse_front(TREFOIL_PLUS))
    assert [w for _f, w in bubbling_faces(other)] == [w for _f, w in first]
    assert len(walked) == len(other.faces_list)


def test_bubbling_stable_under_rerealization(trefoil_plus):
    other = resolve(parse_front({
        "events": ["L1", "L3", "X2", "X2", "X2", "R1", "R1"],
        "surgery": {0: 1}}), action_margin=F(7))
    words_a = sorted(word for _f, word in bubbling_faces(trefoil_plus))
    words_b = sorted(word for _f, word in bubbling_faces(other))
    assert words_a == words_b


@pytest.mark.parametrize("text", [
    TREFOIL_PLUS, "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:+1}",
    SPLIT_TREFOILS], ids=["trefoil+1", "hopf++", "split-trefoils"])
def test_fiber_vectors_solve_once_per_letter(text, monkeypatch):
    """Generator records up to length 5 solve against the relation matrix
    at most once per surgered component, fewer times than there are
    letters: a fiber vector applies the cap table to its class vector."""
    d = resolve(parse_front(text))
    h1 = h1_presentation(d)
    calls = []
    real = H1Presentation.solve

    def counting(self, rhs):
        calls.append(tuple(rhs))
        return real(self, rhs)

    monkeypatch.setattr(H1Presentation, "solve", counting)
    records = generators(d, h1, max_len=5)
    graded = sum(r.igrading is not None for r in records)
    assert len(calls) <= len(h1.surgered) < len(d.memo[("letters",)])
    assert len(h1.surgered) < graded


def test_an_odd_letter_sum_is_a_fault_in_fibers_and_gradings():
    """A word's letters' crossing monomials sum to twice its class vector,
    which the fiber vector reads; an odd sum is orbit_class_monomial's
    fault, never floored, for the fiber vector and the grading alike."""
    d = resolve(parse_front(TREFOIL_PLUS))
    h1 = h1_presentation(d)
    real = d.letter(4, 4)
    d.memo[("letters",)][4, 4] = real._replace(
        vector=tuple(v + 1 for v in real.vector))
    w = CyclicWord(d, [4])
    for graded in (effective_fiber_vector, i_grading):
        with pytest.raises(DiagramError, match="non-integral class"):
            graded(d, h1, w)


def check_fibers_against_fraction_route(d, max_len):
    """Every orbit word's fiber vector, in ints, is h1.exponent times the
    oracle's ``Fraction`` fiber counts; returns (words checked, whether
    some count is fractional).  An infinite H1 has no fiber vectors."""
    h1 = h1_presentation(d)
    words = enumerate_orbit_words(d, max_len=max_len)
    if not h1.finite:
        with pytest.raises(DiagramError):
            effective_fiber_vector(d, h1, words[0])
        return 0, False
    fractional = False
    for w in words:
        vec = effective_fiber_vector(d, h1, w)
        want = fraction_fiber_vector(d, h1, w)
        assert all(type(v) is int for v in vec)
        assert list(vec) == [h1.exponent * v for v in want], w
        fractional |= any(v.denominator != 1 for v in want)
    return len(words), fractional


def check_cap_table_against_letter_rows(d, max_len):
    """Every orbit word's meridian-cap correction, its fiber vector less
    ``h1.exponent`` times its push-out, is half the sum of its letters'
    ``letter_cap_row``s, and each letter's row is the cap table applied to
    the letter's crossing monomial (its fiber column); returns the number
    of words checked, 0 when H1 is infinite."""
    h1 = h1_presentation(d)
    if not h1.finite:
        return 0
    words = enumerate_orbit_words(d, max_len=max_len)
    table = quiver._cap_table(d, h1)
    assert len(table) == len(h1.surgered)
    for w in words:
        rows = [letter_cap_row(d, h1, letter) for letter in w.letters]
        twice = [sum(col) for col in zip(*rows)]
        assert not any(v % 2 for v in twice), w
        assert [f - h1.exponent * x for f, x in zip(
            effective_fiber_vector(d, h1, w), push_out(d, w))] == \
            [v // 2 for v in twice], w
        for letter, row in zip(w.letters, rows):
            assert row == tuple(sum(letter.vector[j] * t[k] for j, t in
                                    zip(h1.surgered, table))
                                for k in range(len(d.faces_list))), w
    return len(words)


@pytest.mark.parametrize("name", FIXTURES)
def test_fiber_vectors_match_the_fraction_route_on_fixtures(name, request):
    d = request.getfixturevalue(name)
    checked, _ = check_fibers_against_fraction_route(d, 3)
    assert checked or name in ("trefoil_minus", "unknot_plus", "hopf_mixed")


@pytest.mark.parametrize("name", FIXTURES)
def test_cap_table_matches_the_letter_rows_on_fixtures(name, request):
    d = request.getfixturevalue(name)
    checked = check_cap_table_against_letter_rows(d, 3)
    assert checked or name in ("trefoil_minus", "unknot_plus", "hopf_mixed")


def test_cap_table_matches_the_letter_rows_on_seeded_fronts_and_copies(
        monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from fronts import random_fronts

    checked = [check_cap_table_against_letter_rows(resolve(parse_front(t)), 2)
               for t in random_fronts(random.Random(23), 10, 6, 14, 3)]
    assert sum(1 for n in checked if n) == 8
    for k in (2, 3):
        d = resolve(k_copy(parse_front(TREFOIL_PLUS), k))
        assert check_cap_table_against_letter_rows(d, 2)
    for text in (SPLIT_TREFOILS, SPLIT_TREFOIL_T25):
        assert check_cap_table_against_letter_rows(resolve(parse_front(text)),
                                                   3)


def test_fiber_vectors_match_the_fraction_route_on_seeded_fronts(
        monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from fronts import random_fronts

    results = [check_fibers_against_fraction_route(resolve(parse_front(t)), 2)
               for t in random_fronts(random.Random(23), 10, 6, 14, 3)]
    # eight of the ten have finite H1, of exponents 2 to 7
    assert sum(1 for checked, _ in results if checked) == 8
    assert any(fractional for _, fractional in results)


@pytest.mark.parametrize("k", [2, 3])
def test_fiber_vectors_match_the_fraction_route_on_copies(k):
    d = resolve(k_copy(parse_front(TREFOIL_PLUS), k))
    checked, _ = check_fibers_against_fraction_route(d, 2)
    assert checked


@pytest.mark.parametrize("text, diagonal", [(SPLIT_TREFOILS, [2, 2]),
                                            (SPLIT_TREFOIL_T25, [2, 4])],
                         ids=["trefoil+trefoil", "trefoil+T(2,5)"])
def test_fiber_vectors_match_the_fraction_route_on_split_links(text,
                                                               diagonal):
    d = resolve(parse_front(text))
    h1 = h1_presentation(d)
    assert h1.diagonal == diagonal
    assert h1.exponent == diagonal[-1] < diagonal[0] * diagonal[1]
    checked, fractional = check_fibers_against_fraction_route(d, 3)
    assert checked and fractional
