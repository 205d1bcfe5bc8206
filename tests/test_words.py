import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (all_orbit_strings, arc_pass_counts,
                     brute_force_orbit_words, candidate_pool, capping_walk,
                     endpoints_between, full_curve_pushout, k_copy, mat_mul,
                     packed_reference, padd, passage_arcs, pmul, pscale,
                     reference_return_map, rot_number, step_matrix,
                     turn_octants, unshifted_windings, whole_arc_piece)
from reebchords import report, words
from reebchords.diagram import (DiagramError, Letter, ResolvedDiagram,
                                parse_front, resolve)
from reebchords.dynamics import is_bad, orbit_action, return_map
from reebchords.geometry import OCTANT_VECTORS, offset_polyline
from reebchords.homology import h1_presentation, orbit_class_monomial
from reebchords.indices import cz_integral
from reebchords.report import differential_candidates, generators
from reebchords.words import (PUSH_OFF, CyclicWord, Word,
                              enumerate_chord_words, enumerate_orbit_words,
                              push_out)
from test_cli import TREFOIL_3_COPY
from test_lp import TREFOIL_2_COPY
from test_realization import seeded_fronts

F = Fraction
TREFOIL_PLUS = "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}"
T25_PLUS = "L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:+1}"
T25_MINUS = "L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:-1}"
HOPF_PLUS_MINUS = "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:-1}"


def test_canonical_cyclic_examples(trefoil_plus):
    d = trefoil_plus
    assert CyclicWord(d, [2, 3, 1]).chords == (1, 2, 3)
    assert CyclicWord(d, [1]).chords == (1,)
    assert CyclicWord(d, [5, 4]).chords == (4, 5)


def test_canonical_cyclic_rotation_invariant(trefoil_plus):
    d = trefoil_plus
    for w in enumerate_orbit_words(d, max_len=3):
        n = len(w.chords)
        for k in range(n):
            assert CyclicWord(d, w.chords[k:] + w.chords[:k]) == w


def test_canonical_cyclic_idempotent(trefoil_plus):
    d = trefoil_plus
    w = CyclicWord(d, [3, 1, 2])
    assert CyclicWord(d, w.chords) == w


def test_word_validation(hopf_mixed):
    d = hopf_mixed
    # every caller builds words from composable chords, so a bad word is an
    # internal fault; r1 ends on component 0, r4 starts on component 1
    with pytest.raises(DiagramError, match="not composable"):
        Word(d, [1, 4])
    with pytest.raises(DiagramError, match="empty word"):
        Word(d, [])
    # composable but not cyclically closable
    with pytest.raises(DiagramError, match="closing pair"):
        CyclicWord(d, [2, 4])


def test_primitive_decomposition(unknot_minus, trefoil_plus):
    """w = v^k with k the multiplicity: the chords repeat with period
    len(w) / k and with no shorter period."""
    assert CyclicWord(unknot_minus, [1, 1, 1]).multiplicity() == 3
    assert CyclicWord(trefoil_plus, [1, 2, 1, 2]).multiplicity() == 2
    assert CyclicWord(trefoil_plus, [1, 2]).multiplicity() == 1
    assert CyclicWord(trefoil_plus, [1, 2, 1, 2, 1, 2]).multiplicity() == 3
    assert CyclicWord(trefoil_plus, [1, 1, 2, 1, 1, 2]).multiplicity() == 2
    assert CyclicWord(trefoil_plus, [1, 1, 2, 1, 2]).multiplicity() == 1
    for w in enumerate_orbit_words(trefoil_plus, max_len=6):
        seq, k = w.chords, w.multiplicity()
        period = len(seq) // k
        assert seq == seq[:period] * k
        assert all(seq != seq[p:] + seq[:p] for p in range(1, period))


def test_unknot_enumeration(unknot_minus):
    words = enumerate_orbit_words(unknot_minus, max_len=3)
    assert [w.chords for w in words] == [(1,), (1, 1), (1, 1, 1)]


def test_trefoil_enumeration_counts(trefoil_plus):
    words = enumerate_orbit_words(trefoil_plus, max_len=2)
    by_len = {}
    for w in words:
        by_len.setdefault(len(w.chords), []).append(w)
    assert len(by_len[1]) == 5
    assert len(by_len[2]) == 15
    squares = [w for w in by_len[2] if w.chords[0] == w.chords[1]]
    assert len(squares) == 5


def test_hopf_length_one_words_are_loops(hopf_plus):
    words = enumerate_orbit_words(hopf_plus, max_len=1)
    assert len(words) == 2
    for w in words:
        c = hopf_plus.chord(w.chords[0])
        assert c.tail_comp == c.tip_comp


def test_enumeration_needs_surgery():
    d = resolve(parse_front("L1,R1"))
    with pytest.raises(ValueError):
        enumerate_orbit_words(d, max_len=2)


def test_enumeration_bound_modes(trefoil_plus):
    with pytest.raises(ValueError):
        enumerate_orbit_words(trefoil_plus, max_len=None, max_action=None)
    acts = sorted(c.action for c in trefoil_plus.chords)
    words = enumerate_orbit_words(trefoil_plus, max_action=acts[0])
    assert all(w.action() <= acts[0] for w in words)
    assert words
    # epsilon slack widens the bound
    more = enumerate_orbit_words(trefoil_plus, max_action=acts[0],
                                 epsilon=F(1, 100))
    assert set(w.chords for w in words) <= set(w.chords for w in more)


@pytest.mark.parametrize("text", [
    "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}",
    "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:-1}",
    "L1,L3,X2,X2,X2,X2,R1,R1 / surgery {0:0, 1:+1}",
])
def test_enumerators_emit_in_length_then_chord_order(text):
    # the CLI prints words in the order the enumerators return them
    d = resolve(parse_front(text))
    enumerators = [enumerate_orbit_words]
    if 0 in d.surgery.values():
        enumerators.append(enumerate_chord_words)
    for enumerate_words in enumerators:
        keys = [(len(w.chords), w.chords)
                for w in enumerate_words(d, max_len=4)]
        assert keys == sorted(set(keys)) and len(keys) > 1


def test_chord_word_examples(hopf_mixed):
    d = hopf_mixed
    words1 = enumerate_chord_words(d, max_len=1)
    assert len(words1) == 1
    loop = d.chord(words1[0].chords[0])
    assert loop.tail_comp == loop.tip_comp
    assert d.surgery[loop.tail_comp] == 0
    words2 = [w for w in enumerate_chord_words(d, max_len=2)
              if len(w.chords) == 2]
    # oracle: paths through the surgered vertex only
    lam0 = {i for i, v in d.surgery.items() if v == 0}
    count = 0
    for c1 in d.chords:
        for c2 in d.chords:
            if c1.tail_comp in lam0 and c2.tip_comp in lam0 and \
                    c1.tip_comp == c2.tail_comp and c1.tip_comp not in lam0:
                count += 1
    assert len(words2) == count == 1


def test_chord_words_need_zero_sublink(trefoil_plus):
    with pytest.raises(ValueError):
        enumerate_chord_words(trefoil_plus, max_len=2)


def test_orbit_strings(trefoil_plus):
    w = CyclicWord(trefoil_plus, [1, 2])
    assert all_orbit_strings(w) == [("eta", "eta"), ("etabar", "eta"),
                                    ("eta", "etabar"), ("etabar", "etabar")]


def test_push_out_basic(unknot_minus):
    w = CyclicWord(unknot_minus, [1])
    assert len(push_out(unknot_minus, w)) == len(unknot_minus.faces_list)
    for s in all_orbit_strings(w):
        _offset, _pts, windings, linking = full_curve_pushout(
            unknot_minus, w, s, {})
        assert all(Fraction(v).denominator == 1 for v in linking.values())


def test_push_off_moves_no_point_more_than_sqrt5_over_8():
    """Over every turn of two octant segments but a reversal, on either side,
    offset_polyline at PUSH_OFF moves each vertex at most sqrt(5)/8, and
    exactly that far at a 135 degree corner."""
    worst = {}
    for o1, (ax, ay) in enumerate(OCTANT_VECTORS):
        for o2, (bx, by) in enumerate(OCTANT_VECTORS):
            if abs(turn_octants(o1, o2)) == 4:
                continue
            path = [(F(0), F(0)), (F(4 * ax), F(4 * ay)),
                    (F(4 * ax + 4 * bx), F(4 * ay + 4 * by))]
            turn = abs(turn_octants(o1, o2))
            for side in ("left", "right"):
                shifted = offset_polyline(path, side, PUSH_OFF)
                worst[turn] = max([worst.get(turn, 0)] + [
                    (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2
                    for p, q in zip(shifted, path)])
    assert max(worst.values()) == worst[3] == 5 * PUSH_OFF ** 2


def on_grid(points, unit):
    """Points times unit, each coordinate checked to be an integer."""
    scaled = [tuple(v * unit for v in p) for p in points]
    assert all(v.denominator == 1 for p in scaled for v in p)
    return [tuple(int(v) for v in p) for p in scaled]


def test_passage_arcs_offset_in_ints_on_the_push_out_grid():
    """Every passage arc of the fixtures, the seeded fronts and the 2-copy,
    given as ints over its diagram's push-out grid, offsets at PUSH_OFF to
    int coordinates only, the Fraction route's times the unit.  On the
    unit 2 * _scale the arc's points are ints but PUSH_OFF is not, and the
    offset raises ValueError."""
    fronts = [parse_front(t) for t in FIXTURE_FRONTS + [TREFOIL_2_COPY]]
    checked = 0
    for front in fronts + list(seeded_fronts()):
        d = resolve(front)
        unit, bps = words._grid(d)
        assert bps == [tuple(on_grid([f.basepoint], unit)[0])
                       for f in d.faces_list]
        off = 2 * d._scale
        for arc in (arc for arcs in passage_arcs(d) for arc in arcs):
            for side in ("left", "right"):
                got = offset_polyline(on_grid(arc, unit), side, PUSH_OFF,
                                      unit=unit)
                assert all(type(v) is int for p in got for v in p)
                assert got == on_grid(offset_polyline(arc, side, PUSH_OFF),
                                      unit)
                with pytest.raises(ValueError, match="integer grid"):
                    offset_polyline(on_grid(arc, off), side, PUSH_OFF,
                                    unit=off)
                checked += 1
    assert checked > 500


def check_pushouts_against_full_curves(d):
    """Table sums equal the whole 'eta' curve's windings and the unshifted
    passage arcs' crossings, and the whole curve's offset search takes its
    first offset, PUSH_OFF."""
    arcs = {}
    for w in enumerate_orbit_words(d, max_len=4):
        offset, _pts, windings, _linking = full_curve_pushout(
            d, w, ("eta",) * len(w.chords), arcs)
        assert offset == PUSH_OFF
        assert push_out(d, w) == windings == unshifted_windings(d, w)


@pytest.mark.parametrize("name", [
    "trefoil_plus", "trefoil_minus", "unknot_plus", "unknot_minus",
    "stab_plus", "hopf_plus", "hopf_mixed"])
def test_pushout_tables_match_full_curves(name, request):
    check_pushouts_against_full_curves(request.getfixturevalue(name))


@pytest.mark.parametrize("text", [
    "L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:+1}",
    "L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:-1}",
    "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:-1}",
    "L1,L3,X2,X2,R1,R1 / surgery {0:-1, 1:-1}"],
    ids=["T(2,5)+1", "T(2,5)-1", "hopf+-", "hopf--"])
def test_pushout_tables_match_full_curves_on_more_fronts(text):
    check_pushouts_against_full_curves(resolve(parse_front(text)))


def test_windings_do_not_depend_on_the_offset_on_seeded_fronts_and_copy():
    """push_out's windings equal the unshifted passage arcs' crossings
    summed over each word's letters (the fixtures are checked with the
    whole curves)."""
    fronts = [f for f in seeded_fronts() if any(f.surgery.values())]
    copy = k_copy(parse_front(TREFOIL_PLUS), 2)
    for front, max_len in [(f, 3) for f in fronts] + [(copy, 2)]:
        d = resolve(front)
        all_words = enumerate_orbit_words(d, max_len=max_len)
        assert all_words
        for w in all_words:
            assert push_out(d, w) == unshifted_windings(d, w)


@pytest.mark.parametrize("piece", ["arc", "jump"])
def test_a_basepoint_on_a_push_out_piece_is_a_fault(piece):
    """A basepoint moved onto an arc or the jump of the push-out of (r_j):
    push_out raises DiagramError for exactly the words whose whole curve at
    PUSH_OFF touches it, and the others keep the whole curve's windings."""
    d = resolve(parse_front(TREFOIL_PLUS))
    j = d.chords[0].id
    arc = offset_polyline(capping_walk(d, j, j, "eta")[0], "left", PUSH_OFF)
    a, b = arc[:2] if piece == "arc" else (arc[-1], arc[0])
    d.faces_list[0].basepoint = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    all_words = enumerate_orbit_words(d, max_len=4)
    arcs, touched = {}, set()
    for w in all_words:
        offset, _pts, windings, _linking = full_curve_pushout(
            d, w, ("eta",) * len(w.chords), arcs)
        if offset == PUSH_OFF:
            assert push_out(d, w) == windings
            continue
        touched.add(w.chords)
        with pytest.raises(DiagramError, match="meets a face basepoint"):
            push_out(d, w)
    assert (j,) in touched
    assert len(touched) < len(all_words) == 230


def test_offset_polylines_are_per_arc_not_per_word(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return offset_polyline(*args, **kwargs)

    monkeypatch.setattr(words, "offset_polyline", counting)
    counts = {}
    for max_len in (3, 5):
        d = resolve(parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}"))
        del calls[:]
        generators(d, h1_presentation(d), max_len=max_len)
        counts[max_len] = len(calls)
    # every chord of the trefoil lies on the surgered component
    pairs = [(a, b) for a in d.chords for b in d.chords
             if d.composable(a.id, b.id)]
    assert len(pairs) == 25
    assert counts[3] == counts[5] <= len(pairs)
    assert counts[3] <= sum(map(len, d.passages)) == 10


def test_cyclic_words_live_on_the_surgered_sublink(hopf_mixed):
    d = hopf_mixed
    loops0 = [c.id for c in d.chords
              if c.tail_comp == c.tip_comp and d.surgery[c.tail_comp] == 0]
    with pytest.raises(DiagramError, match="unsurgered"):
        CyclicWord(d, [loops0[0]])


def test_a_word_mixing_in_unsurgered_chords_is_refused(hopf_mixed):
    # r1 and r2 run between the two components, r4 is the loop on the
    # surgered component 1; r1 and r2 have an end on component 0
    d = hopf_mixed
    assert d.chord(4).tail_comp == d.chord(4).tip_comp == 1
    assert all(d.composable(a, b) for a, b in ((1, 2), (2, 4), (4, 1)))
    with pytest.raises(DiagramError, match="unsurgered"):
        CyclicWord(d, [1, 2, 4])


FIXTURE_FRONTS = [TREFOIL_PLUS, "L1,L3,X2,X2,X2,R1,R1 / surgery {0:-1}",
                  "L1,R1 / surgery {0:+1}", "L1,R1 / surgery {0:-1}",
                  "L1,L2,R1,R1 / surgery {0:+1} / orientations {0:-}",
                  "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:+1}",
                  "L1,L3,X2,X2,R1,R1 / surgery {0:0, 1:+1}"]
FIXTURE_IDS = ["trefoil+1", "trefoil-1", "unknot+1", "unknot-1", "stab+1",
               "hopf++", "hopf0+"]


@pytest.mark.parametrize("text", FIXTURE_FRONTS + [TREFOIL_2_COPY],
                         ids=FIXTURE_IDS + ["2-copy"])
def test_words_hold_one_letter_per_pair(text):
    d = resolve(parse_front(text))
    ws = enumerate_orbit_words(d, max_len=3)
    assert ws
    for w in ws:
        assert w.letters == tuple(d.letter(a, b) for a, b in w.pairs())


def per_word_values(d, h1, w):
    """Index, reduced class, return map, bad flag and action of w at
    epsilon 1/100, or the message of its embedding's refusal."""
    try:
        action = orbit_action(d, w, F(1, 100))
    except ValueError as exc:
        action = str(exc)
    return (cz_integral(d, w), orbit_class_monomial(d, h1, w).reduced,
            w.sign, w.rows, return_map(d, w).trace(), is_bad(d, w), action)


@pytest.mark.parametrize("text", FIXTURE_FRONTS + [TREFOIL_2_COPY],
                         ids=FIXTURE_IDS + ["2-copy"])
def test_per_word_invariants_fetch_no_letter_of_a_built_word(text,
                                                              monkeypatch):
    # a fresh diagram's memo holds the words' letters but no classes, so
    # every letter the invariants read must come from the words
    d = resolve(parse_front(text))
    h1 = h1_presentation(d)
    ws = enumerate_orbit_words(d, max_len=3)

    def refused(self, j1, j2):
        raise AssertionError(f"letter r{j1}r{j2} fetched again")

    monkeypatch.setattr(ResolvedDiagram, "letter", refused)
    got = {w.chords: per_word_values(d, h1, w) for w in ws}
    monkeypatch.undo()
    d2 = resolve(parse_front(text))
    h2 = h1_presentation(d2)
    assert got == {w.chords: per_word_values(d2, h2, w)
                   for w in enumerate_orbit_words(d2, max_len=3)}


@pytest.mark.parametrize("text", [TREFOIL_PLUS, T25_PLUS, HOPF_PLUS_MINUS],
                         ids=["trefoil+1", "T(2,5)+1", "hopf+-"])
def test_offset_polylines_are_per_passage_interval(text, monkeypatch):
    """Each stretch between consecutive chord passages is offset at most
    once, by PUSH_OFF, however long the words get."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return offset_polyline(*args, **kwargs)

    monkeypatch.setattr(words, "offset_polyline", counting)
    counts, offsets = {}, set()
    for max_len in (3, 5):
        d = resolve(parse_front(text))
        del calls[:]
        generators(d, h1_presentation(d), max_len=max_len)
        counts[max_len] = len(calls)
        offsets |= {args[2] for args in calls}
    passages = sum(map(len, d.passages))
    assert offsets == {PUSH_OFF}
    assert 0 < counts[3] == counts[5] <= passages


def surgered_pair(d, a, b):
    """Whether chords a and b both have both ends on the surgered sublink,
    the pairs that make letters."""
    return all(d.surgery[c.tail_comp] and d.surgery[c.tip_comp]
               for c in (a, b))


def arc_piece(d, j1, j2):
    """(start, end, crossings) of the library's push-out steps along the
    capping arc of r_j1 r_j2 (``words._step`` per passage arc of the
    letter): the first step's start, the last step's end and the steps'
    summed crossings, the arc's share of ``words._letter_crossings``."""
    comp = d.chord(j1).tip_comp
    steps = [words._step(d, comp, k) for k in d.letter(j1, j2).arcs]
    return steps[0][0], steps[-1][1], \
        tuple(map(sum, zip(*(s[2] for s in steps))))


def check_arcs_against_whole_arcs(d):
    """Every capping arc's piece of a pair of surgered chords equals the
    whole arc offset by PUSH_OFF and wound in one pass, its ends times the
    push-out grid's unit, and is a fault where that arc touches a
    basepoint; on every other composable pair the piece is a fault (it has
    no letter).  Returns the pieces, None for the basepoint faults."""
    pieces = {}
    for a in d.chords:
        for b in d.chords:
            if not d.composable(a.id, b.id):
                continue
            if not surgered_pair(d, a, b):
                with pytest.raises(DiagramError, match="unsurgered"):
                    words._letter_crossings(d, a.id, b.id)
                if d.surgery[a.tip_comp] == 0:
                    with pytest.raises(ValueError):
                        whole_arc_piece(d, a.id, b.id, "eta", PUSH_OFF)
                continue
            whole = whole_arc_piece(d, a.id, b.id, "eta", PUSH_OFF)
            if whole[2] is None:
                with pytest.raises(DiagramError,
                                   match="meets a face basepoint"):
                    arc_piece(d, a.id, b.id)
                pieces[a.id, b.id] = None
                continue
            pieces[a.id, b.id] = arc_piece(d, a.id, b.id)
            assert pieces[a.id, b.id] == (
                *on_grid(whole[:2], words._grid(d)[0]), whole[2])
    return pieces


@pytest.mark.parametrize("name", [
    "trefoil_plus", "trefoil_minus", "unknot_plus", "unknot_minus",
    "stab_plus", "hopf_plus", "hopf_mixed"])
def test_arc_pieces_match_whole_arcs(name, request):
    assert check_arcs_against_whole_arcs(request.getfixturevalue(name))


def test_arc_pieces_match_whole_arcs_on_seeded_fronts():
    for front in seeded_fronts():
        check_arcs_against_whole_arcs(resolve(front))


@pytest.mark.parametrize("text", [T25_PLUS, T25_MINUS, TREFOIL_2_COPY],
                         ids=["T(2,5)+1", "T(2,5)-1", "2-copy"])
def test_arc_pieces_match_whole_arcs_on_more_fronts(text):
    d = resolve(parse_front(text))
    assert check_arcs_against_whole_arcs(d)
    assert check_letters_against_walks(d)


def check_letters_against_walks(d):
    """Every composable pair's capping rotation off the front's Maslov
    potential equals the turning of a segment-by-segment walk of its
    capping arc.  On a pair of surgered chords every field of the letter,
    read off the passage arcs, equals what the walk gives: the index, sign
    and h from the walk's turning and length, c from the tip's component,
    the monomial in ints from the chord term (c + sign)/2 at each end of
    r_j1 plus the walk's passes, and the passage arcs from the chord ends
    inside the arc.  Any other pair has no letter.  Returns the number of
    composable pairs checked."""
    count = 0
    for a in d.chords:
        for b in d.chords:
            if not d.composable(a.id, b.id):
                continue
            comp = a.tip_comp
            c = d.surgery[comp]
            _points, turns, length = capping_walk(d, a.id, b.id, "eta")
            rot = rot_number(d, a.id, b.id)
            assert turns % 4 == 2
            assert d.front.capping_rotation(a.id, b.id) == rot
            count += 1
            if not surgered_pair(d, a, b):
                with pytest.raises(DiagramError, match="unsurgered"):
                    d.letter(a.id, b.id)
                continue
            letter = d.letter(a.id, b.id)
            assert letter.index == rot + (c == 1)
            assert letter.sign == (-1) ** (rot % 2)
            assert letter.c == c
            assert type(letter.h) is int
            assert F(letter.h, d.arc_den) == F(1, 2) - length
            vector = arc_pass_counts(d, a.id, b.id, "eta")
            for end in (a.tail_comp, a.tip_comp):
                vector[end] += F(d.surgery[end] + a.sign, 2)
            assert letter.vector == tuple(vector)
            assert all(type(v) is int for v in letter.vector)
            plist = d.passages[comp]
            assert plist[letter.arcs[0]][1:3] == (a.id, "tip")
            assert plist[(letter.arcs[-1] + 1) % len(plist)][1:3] == \
                (b.id, "tail")
            assert [plist[k][1:3] for k in letter.arcs[1:]] == \
                endpoints_between(d, a.id, b.id, "eta")
            assert [(k + 1) % len(plist) for k in letter.arcs[:-1]] == \
                list(letter.arcs[1:])
    return count


@pytest.mark.parametrize("name", [
    "trefoil_plus", "trefoil_minus", "unknot_plus", "unknot_minus",
    "stab_plus", "hopf_plus", "hopf_mixed"])
def test_letters_match_walks(name, request):
    assert check_letters_against_walks(request.getfixturevalue(name))


def test_letters_match_walks_on_seeded_fronts_and_copies():
    for front in list(seeded_fronts()) + [parse_front(TREFOIL_2_COPY),
                                          parse_front(TREFOIL_3_COPY)]:
        assert check_letters_against_walks(resolve(front))


def test_letter_of_a_pair_that_does_not_compose_is_a_fault(hopf_plus):
    """Only library code asks for letters, always of composable pairs."""
    d = hopf_plus
    pairs = [(a.id, b.id) for a in d.chords for b in d.chords
             if not d.composable(a.id, b.id)]
    assert pairs
    for j1, j2 in pairs:
        with pytest.raises(DiagramError):
            d.letter(j1, j2)


def test_arc_on_an_unsurgered_component_is_a_fault():
    """Push-outs follow cyclic words, which stay on the surgered sublink."""
    d = resolve(parse_front("L1,L3,X2,X2,R1,R1 / surgery {0:+1}"))
    pairs = [(a.id, b.id) for a in d.chords for b in d.chords
             if d.composable(a.id, b.id) and d.surgery[a.tip_comp] == 0]
    assert pairs
    for j1, j2 in pairs:
        with pytest.raises(DiagramError):
            words._letter_crossings(d, j1, j2)


@pytest.mark.parametrize("where", ["join", "inside"])
def test_arc_pieces_touch_a_basepoint_where_whole_arcs_do(where):
    """A basepoint moved onto the shifted passage point where two steps
    join, or inside a step: exactly the arcs whose whole offset touches it
    are faults."""
    d = resolve(parse_front(TREFOIL_PLUS))
    step = offset_polyline(passage_arcs(d)[0][0], "left", PUSH_OFF)
    a, b = step[:2]
    d.faces_list[0].basepoint = step[-1] if where == "join" else \
        ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    pieces = check_arcs_against_whole_arcs(d)
    # arcs that run through passage 1, or along passage arc 0
    arcs = {(j1, j2): d.letter(j1, j2).arcs for j1, j2 in pieces}
    assert any(pieces[j1, j2] is None
               for (j1, j2), run in arcs.items()
               if (1 in run[1:] if where == "join" else 0 in run))
    assert any(piece is not None for piece in pieces.values())


@pytest.mark.parametrize("text", [TREFOIL_PLUS, T25_MINUS],
                         ids=["trefoil+1", "T(2,5)-1"])
def test_candidate_pools_equal_the_enumeration_at_each_budget(text,
                                                              monkeypatch):
    """At --max-len 3, each degree-1 generator's pool, read off one table
    per pool length at the largest budget so far, holds the good words of
    the enumeration at its own budget within the degree bound, sorted by
    (action, chords)."""
    pools = []
    pool_words = report._pool_words

    class Stop(Exception):
        pass

    def recording(d, h1, g, epsilon, pool_len, max_degree):
        pools.append((g, pool_len, max_degree is not None, pool_words(
            d, h1, g, epsilon, pool_len, max_degree)[0]))
        raise Stop()    # the pool is all this test needs, not the search

    monkeypatch.setattr(report, "_pool_words", recording)
    d = resolve(parse_front(text))
    h1 = h1_presentation(d)
    eps = F(1, 100)
    for g in generators(d, h1, max_len=3, epsilon=eps):
        if g.good and g.degree == 1:
            with pytest.raises(Stop):
                differential_candidates(g, d, h1, eps, max_pool_len=3)
    assert len(pools) >= 2
    assert len({g.action + 3 * eps * len(g.word) for g, *_ in pools}) >= 2
    for g, pool_len, z_graded, got in pools:
        want = candidate_pool(d, h1, g, eps, z_graded, pool_len)
        assert [r.word.chords for r in got] == \
            [r.word.chords for r in want]


def check_enumeration_against_brute_force(d, max_len):
    """enumerate_orbit_words equals brute_force_orbit_words, in order, under
    a length bound and under action bounds with and without the epsilon
    slack, the action bound set at a word's own action and just under it;
    every word's action, letters and return-map trace equal those of the
    checked constructor's word and the oracle's product.  Returns whether
    the slack let in a word that the bound alone keeps out."""
    eps = F(1, 100)
    by_len = enumerate_orbit_words(d, max_len=max_len)
    assert [w.chords for w in by_len] == \
        brute_force_orbit_words(d, max_len=max_len)
    if not by_len:
        return False
    least = min(d.chord(c).action for c in words.surgered_chords(d))
    top = max(w.action() for w in by_len if w.action() <= 3 * least)
    modes = [(None, top, None), (None, top - F(1, 50), None),
             (None, top - F(1, 50), eps), (max_len - 1, top, eps)]
    found = {}
    for mode in modes:
        got = enumerate_orbit_words(d, *mode)
        assert [w.chords for w in got] == \
            brute_force_orbit_words(d, *mode), mode
        found[mode] = got
        for w in got:
            checked = CyclicWord(d, w.chords)
            assert w.action() == checked.action() == \
                sum(d.chord(c).action for c in w.chords)
            assert w.letters == checked.letters
            trace = return_map(d, w).trace()
            assert trace == return_map(d, checked).trace()
            sign, prod = reference_return_map(d, w.chords)
            assert {k: c for k, c in enumerate(trace) if c} == \
                pscale(padd(prod[0][0], prod[1][1]), sign)
    return len(found[modes[2]]) > len(found[modes[1]])


@pytest.mark.parametrize("text", FIXTURE_FRONTS + [TREFOIL_2_COPY],
                         ids=FIXTURE_IDS + ["2-copy"])
def test_enumeration_matches_brute_force(text):
    d = resolve(parse_front(text))
    if text == TREFOIL_2_COPY:
        # its chord actions have denominators 1, 3, 9 and 27, so its caps
        # are floors over 27
        assert {d.chord(c).action.denominator
                for c in words.surgered_chords(d)} == {1, 3, 9, 27}
    check_enumeration_against_brute_force(d, 3 if text == TREFOIL_2_COPY
                                          else 4)


def test_enumeration_matches_brute_force_on_random_fronts(monkeypatch):
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
    from fronts import random_fronts

    slack_counts = [check_enumeration_against_brute_force(
        resolve(parse_front(text)), 4)
        for text in random_fronts(random.Random(11), 30, 6, 12, 3)]
    assert any(slack_counts)


def test_enumeration_checks_each_pair_once(monkeypatch):
    """The enumerator asks composable of each pair of surgered chords once,
    and builds each letter at most once, however long its words."""
    d = resolve(parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}"))
    calls = 0
    real = ResolvedDiagram.composable

    def counting(self, j1, j2):
        nonlocal calls
        calls += 1
        return real(self, j1, j2)

    monkeypatch.setattr(ResolvedDiagram, "composable", counting)
    ws = enumerate_orbit_words(d, max_len=6)
    n = len(words.surgered_chords(d))
    assert len(ws) > n ** 2
    assert calls <= n ** 2
    assert 0 < len(d.memo[("letters",)]) <= n ** 2


def coefficients(poly):
    """A coefficient tuple, ascending, as a dict-polynomial."""
    return {k: c for k, c in enumerate(poly) if c}


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1))),
                min_size=1, max_size=16))
def test_packed_rows_unpack_to_the_dict_product(steps):
    """Twists by letters of random c and sign, packed at the width of their
    number, unpack to the dict product's entries, det 1 and trace; the
    entries' coefficient L1 norms stay within the 2^n that the width
    assumes."""
    n, width = len(steps), words._width(len(steps))
    sign, rows = 1, (1, 0, 0, 1)
    ref_sign, ref = 1, (({0: 1}, {}), ({}, {0: 1}))
    for c, s in steps:
        sign, rows = words._twist(sign, rows, Letter(0, s, c, F(0), (), ()),
                                  width)
        ref_sign, ref = ref_sign * s, mat_mul(step_matrix(c), ref)
    entries = [ref[0][0], ref[0][1], ref[1][0], ref[1][1]]
    assert all(sum(map(abs, p.values())) <= 2 ** n for p in entries)
    assert sign == ref_sign
    assert [coefficients(words.unpack(x, width)) for x in rows] == entries
    a, b, e, f = rows
    assert words.unpack(a * f - b * e, width) == (1,)
    assert padd(pmul(entries[0], entries[3]),
                pscale(pmul(entries[1], entries[2]), -1)) == {0: 1}
    assert coefficients(words.unpack(sign * (a + f), width)) == \
        pscale(padd(entries[0], entries[3]), sign)


@pytest.mark.parametrize("sign", ["+1", "-1"])
def test_words_of_the_most_letters_match_the_dict_product(sign):
    """On the unknot with +-1 surgery, words of exactly MAX_WORD_LENGTH
    letters are packed at that length's width, whatever the bound, and
    their traces are the dict product's; a kept prefix of one letter more
    raises, under a length or an action bound, and names the bound."""
    d = resolve(parse_front(f"L1,R1 / surgery {{0:{sign}}}"))
    n = words.MAX_WORD_LENGTH
    longest = [w for w in enumerate_orbit_words(d, max_len=n) if len(w) == n]
    assert longest
    for w in longest:
        assert w.width == words._width(n)
        ref_sign, prod = reference_return_map(d, w.chords)
        assert coefficients(return_map(d, w).trace()) == \
            pscale(padd(prod[0][0], prod[1][1]), ref_sign)
    for bounds in ({"max_len": n + 1}, {"max_action": F(10 ** 6)}):
        with pytest.raises(ValueError, match=f"MAX_WORD_LENGTH = {n}"):
            enumerate_orbit_words(d, **bounds)


def test_unpack_reads_balanced_digits():
    width = 5
    for poly in [(0,), (1,), (-1,), (0, 1), (15, -16), (-16, 15, -3),
                 (0, 0, 1), (7, 0, -16)]:
        x = sum(c << width * k for k, c in enumerate(poly))
        assert words.unpack(x, width) == poly


@pytest.mark.parametrize("text", [
    HOPF_PLUS_MINUS, "L1,L2,R1,R1 / surgery {0:+1} / orientations {0:-}"],
    ids=["hopf+-", "stab+1 o-"])
def test_length_twelve_traces_match_the_dict_product(text):
    """Words up to length 12 on two fronts of four chords, whose entries
    reach the largest coefficients of the cheap fronts (L1 norm 233 at
    length 12): their packed rows are the dict product's entries at
    u = 2^W and their unpacked traces its trace."""
    d = resolve(parse_front(text))
    ws = enumerate_orbit_words(d, max_len=12)
    assert len(ws) == 801 and len(ws[-1]) == 12
    largest = 0
    for w in ws:
        trace = return_map(d, w).trace()
        sign, prod = reference_return_map(d, w.chords)
        assert coefficients(trace) == pscale(padd(prod[0][0], prod[1][1]),
                                             sign)
        u = 2 ** w.width
        assert (w.sign, w.rows) == (sign, tuple(
            sum(v * u ** k for k, v in p.items())
            for row in prod for p in row))
        largest = max([largest] + [sum(map(abs, p.values()))
                                   for row in prod for p in row])
    assert largest == 233


def test_checked_and_enumerated_words_differ_in_width_not_trace(
        trefoil_plus):
    """A word built by ``CyclicWord`` packs at its own length's width, the
    enumerator's at its length bound's: below the bound the ints differ,
    and both equal the dict product at their own width, so the traces
    agree."""
    ws = enumerate_orbit_words(trefoil_plus, max_len=5)
    assert len(ws) > 100 and {len(w) for w in ws} == {1, 2, 3, 4, 5}
    for w in ws:
        checked = CyclicWord(trefoil_plus, w.chords)
        assert checked.width == words._width(len(w))
        assert w.width == words._width(5)
        assert (checked.rows != w.rows) == (len(w) < 5)
        assert (checked.sign, checked.rows) == \
            packed_reference(trefoil_plus, checked)
        assert (w.sign, w.rows) == packed_reference(trefoil_plus, w)
        assert return_map(trefoil_plus, checked).trace() == \
            return_map(trefoil_plus, w).trace()


@pytest.mark.parametrize("n", [1, 2, 6, 12, 16])
def test_the_width_tells_a_det_of_one_from_its_aliases(n):
    """Entries of coefficient L1 norm at most 2^n can have a det that is not
    1 and still packs to 1 at a width of 2n: a = d = 2^n, b = u - 1 and
    e = 1 give 4^n + 1 - u.  At ``_width(n)`` the packed det is not 1, the
    return map refuses the rows and its message unpacks the det."""
    def rows(width):
        return 2 ** n, (1 << width) - 1, 1, 2 ** n

    a, b, e, f = rows(2 * n)
    assert a * f - b * e == 1
    width = words._width(n)
    w = words._orbit_word((1,) * n, (), 0, 1, width, 1, rows(width))
    with pytest.raises(DiagramError, match=rf"has det \({4 ** n + 1}, -1\)"):
        return_map(None, w)
