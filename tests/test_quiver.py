from fractions import Fraction

import pytest

from oracles import all_orbit_strings, count_cycles, count_paths
from reebchords.diagram import DiagramError, parse_front, resolve
from reebchords.homology import h1_presentation, orbit_class_monomial
from reebchords.quiver import Quiver, bubbling_faces, i_grading
from reebchords.words import CyclicWord, enumerate_orbit_words

F = Fraction


def test_hopf_quiver_shape(hopf_plus):
    q = Quiver(hopf_plus)
    assert len(q.vertices) == 2
    assert len(q.edges) == 4
    assert len(q.loops_at(0)) == 1
    assert len(q.loops_at(1)) == 1
    across = [(a, b) for _e, a, b in q.edges if a != b]
    assert sorted(across) == [(0, 1), (1, 0)]


def test_trefoil_quiver_shape(trefoil_plus):
    q = Quiver(trefoil_plus)
    assert q.vertices == [0]
    assert len(q.loops_at(0)) == 5
    assert q.collapsed_h1_rank() == 5


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
        ig = i_grading(d, h1, [(w, None) for w in cws])
        assert tuple(ig[p - 1] for p in perm) == expect


def test_igrading_string_independence(trefoil_plus, trefoil_plus_h1,
                                      unknot_minus):
    d, h1 = trefoil_plus, trefoil_plus_h1
    for base in ((4,), (4, 5), (1, 2)):
        w = CyclicWord(d, base)
        if not orbit_class_monomial(d, h1, w).is_zero():
            continue
        vals = {i_grading(d, h1, [(w, s)])
                for s in all_orbit_strings(w)}
        assert len(vals) == 1
    h1u = h1_presentation(unknot_minus)
    w = CyclicWord(unknot_minus, [1, 1])
    vals = {i_grading(unknot_minus, h1u, [(w, s)])
            for s in all_orbit_strings(w)}
    assert len(vals) == 1


def test_igrading_additive(trefoil_plus, trefoil_plus_h1):
    d, h1 = trefoil_plus, trefoil_plus_h1
    w4 = CyclicWord(d, [4])
    w5 = CyclicWord(d, [5])
    both = i_grading(d, h1, [(w4, None), (w5, None)])
    assert list(both) == [a + b for a, b in zip(
        i_grading(d, h1, [(w4, None)]), i_grading(d, h1, [(w5, None)]))]
    assert i_grading(d, h1, []) == (0,) * 6


def test_igrading_preconditions(trefoil_minus, trefoil_plus, trefoil_plus_h1):
    h1m = h1_presentation(trefoil_minus)
    w = CyclicWord(trefoil_minus, [4])
    with pytest.raises(ValueError):
        i_grading(trefoil_minus, h1m, [(w, None)])
    # every caller checks the class first, so a class that is not zero here
    # is an internal fault
    w1 = CyclicWord(trefoil_plus, [1])
    with pytest.raises(DiagramError, match="not null-homologous"):
        i_grading(trefoil_plus, trefoil_plus_h1, [(w1, None)])


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


def test_bubbling_stable_under_rerealization(trefoil_plus):
    other = resolve(parse_front({
        "events": ["L1", "L3", "X2", "X2", "X2", "R1", "R1"],
        "surgery": {0: 1}}), action_margin=F(7))
    words_a = sorted(word for _f, word in bubbling_faces(trefoil_plus))
    words_b = sorted(word for _f, word in bubbling_faces(other))
    assert words_a == words_b
