from fractions import Fraction

import pytest

from oracles import (all_orbit_strings, capping_walk, endpoints_between,
                     full_curve_pushout, whole_arc_piece)
from reebchords import report, words
from reebchords.diagram import parse_front, resolve
from reebchords.geometry import offset_polyline
from reebchords.homology import h1_presentation
from reebchords.report import differential_candidates, generators
from reebchords.words import (CyclicWord, OrbitString, Word,
                              enumerate_chord_words, enumerate_orbit_words,
                              primitive_decomposition, push_out)
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
        for rot in w.rotations():
            assert CyclicWord(d, rot) == w


def test_canonical_cyclic_idempotent(trefoil_plus):
    d = trefoil_plus
    w = CyclicWord(d, [3, 1, 2])
    assert CyclicWord(d, w.chords) == w


def test_word_validation(hopf_mixed):
    d = hopf_mixed
    # r1 ends on component 0, r4 starts on component 1
    with pytest.raises(ValueError):
        Word(d, [1, 4])
    with pytest.raises(ValueError):
        Word(d, [])
    # composable but not cyclically closable
    with pytest.raises(ValueError):
        CyclicWord(d, [2, 4])


def test_primitive_decomposition(unknot_minus, trefoil_plus):
    w = CyclicWord(unknot_minus, [1, 1, 1])
    prim, k = primitive_decomposition(w)
    assert prim.chords == (1,) and k == 3
    w2 = CyclicWord(trefoil_plus, [1, 2, 1, 2])
    prim2, k2 = primitive_decomposition(w2)
    assert prim2.chords == (1, 2) and k2 == 2
    w3 = CyclicWord(trefoil_plus, [1, 2])
    assert primitive_decomposition(w3) == (w3, 1)


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
    strings = all_orbit_strings(w)
    assert len(strings) == 4
    with pytest.raises(ValueError):
        OrbitString(w, ["eta"])
    with pytest.raises(ValueError):
        OrbitString(w, ["eta", "left"])


def test_push_out_basic(unknot_minus):
    w = CyclicWord(unknot_minus, [1])
    for s in all_orbit_strings(w):
        po = push_out(unknot_minus, w, s)
        assert po.windings is not None
        assert all(Fraction(v).denominator == 1 for v in po.linking.values())


def check_pushouts_against_full_curves(d):
    """Table sums equal the whole curve's windings, at the same offset."""
    arcs = {}
    for w in enumerate_orbit_words(d, max_len=4):
        for s in all_orbit_strings(w):
            offset, _pts, windings, linking = full_curve_pushout(d, w, s,
                                                                 arcs)
            earlier = F(1, 8)
            while earlier > offset:
                assert push_out(d, w, s, earlier).windings is None
                earlier /= 2
            po = push_out(d, w, s, offset)
            assert po.windings == windings
            assert po.linking == linking


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


@pytest.mark.parametrize("piece", ["arc", "jump"])
def test_pushout_retries_at_a_smaller_offset_per_word(piece):
    """A basepoint moved onto an arc or the jump of the push-out of (r_j) at
    offset 1/8: the words whose pieces touch it, and only they, retry."""
    d = resolve(parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}"))
    j = d.chords[0].id
    arc = offset_polyline(capping_walk(d, j, j, "eta")[0], "left", F(1, 8))
    a, b = arc[:2] if piece == "arc" else (arc[-1], arc[0])
    d.faces_list[0].basepoint = ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    check_pushouts_against_full_curves(d)
    retried = {(w.chords, s.sides) for w in enumerate_orbit_words(d, max_len=4)
               for s in all_orbit_strings(w)
               if push_out(d, w, s).windings is None}
    assert ((j,), ("eta",)) in retried
    assert len(retried) < 3070          # of 3,070 (word, sides) pairs


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
    assert 2 * len(pairs) == 50
    assert counts[3] == counts[5] <= 2 * len(pairs)
    assert counts[3] <= 2 * sum(map(len, d.passages)) == 20


def test_cyclic_words_live_on_the_surgered_sublink(hopf_mixed):
    d = hopf_mixed
    loops0 = [c.id for c in d.chords
              if c.tail_comp == c.tip_comp and d.surgery[c.tail_comp] == 0]
    with pytest.raises(ValueError):
        CyclicWord(d, [loops0[0]])


@pytest.mark.parametrize("text", [TREFOIL_PLUS, T25_PLUS, HOPF_PLUS_MINUS],
                         ids=["trefoil+1", "T(2,5)+1", "hopf+-"])
def test_offset_polylines_are_per_passage_interval(text, monkeypatch):
    """Each stretch between consecutive chord passages is offset at most
    once per direction and offset, however long the words get."""
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
    assert 0 < counts[3] == counts[5] <= 2 * passages * len(offsets)


def check_arcs_against_whole_arcs(d):
    """Every capping arc's piece, at offsets 1/8 and 1/16 and on both
    sides, equals the whole arc offset and wound in one pass, and its
    passages are the chord ends inside it; returns the pieces."""
    pieces = {}
    for a in d.chords:
        for b in d.chords:
            if not d.composable(a.id, b.id):
                continue
            for side in ("eta", "etabar"):
                assert d.capping_path(a.id, b.id, side).interior == \
                    endpoints_between(d, a.id, b.id, side)
                for offset in (F(1, 8), F(1, 16)):
                    args = (d, a.id, b.id, side, offset)
                    if d.surgery[a.tip_comp] == 0:
                        with pytest.raises(ValueError):
                            words._arc(*args)
                        with pytest.raises(ValueError):
                            whole_arc_piece(*args)
                        continue
                    pieces[args[1:]] = words._arc(*args)
                    assert pieces[args[1:]] == whole_arc_piece(*args)
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
    assert check_arcs_against_whole_arcs(resolve(parse_front(text)))


def check_capping_paths_against_walks(d):
    """Every capping path's turning and normalized length, summed over the
    passage arcs it runs, equal those of a segment-by-segment walk; returns
    the number of paths checked."""
    count = 0
    for a in d.chords:
        for b in d.chords:
            if not d.composable(a.id, b.id):
                continue
            for side in ("eta", "etabar"):
                cap = d.capping_path(a.id, b.id, side)
                _points, turns, length = capping_walk(d, a.id, b.id, side)
                assert (cap.turn_eighths, cap.norm_length) == (turns, length)
                count += 1
    return count


@pytest.mark.parametrize("name", [
    "trefoil_plus", "trefoil_minus", "unknot_plus", "unknot_minus",
    "stab_plus", "hopf_plus", "hopf_mixed"])
def test_capping_paths_match_walks(name, request):
    assert check_capping_paths_against_walks(request.getfixturevalue(name))


def test_capping_paths_match_walks_on_seeded_fronts_and_copies():
    for front in list(seeded_fronts()) + [parse_front(TREFOIL_2_COPY),
                                          parse_front(TREFOIL_3_COPY)]:
        assert check_capping_paths_against_walks(resolve(front))


@pytest.mark.parametrize("where", ["join", "inside"])
def test_arc_pieces_touch_a_basepoint_where_whole_arcs_do(where):
    """A basepoint moved onto the shifted passage point where two steps
    join, or inside a step: exactly the arcs whose whole offset touches it
    have no crossings."""
    d = resolve(parse_front(TREFOIL_PLUS))
    step = offset_polyline(d.passage_arcs[0][0], "left", F(1, 8))
    a, b = step[:2]
    d.faces_list[0].basepoint = step[-1] if where == "join" else \
        ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2)
    pieces = check_arcs_against_whole_arcs(d)
    # arcs that run through passage 1, or along passage arc 0, on the
    # side the point was shifted to
    runs = {(j1, j2): d.passage_run(j1, j2, "eta") for j1, j2, side, _ in
            pieces if side == "eta"}
    assert any(pieces[j1, j2, "eta", F(1, 8)].crossings is None
               for (j1, j2), run in runs.items()
               if (1 in run[1:-1] if where == "join" else 0 in run[:-1]))
    assert any(piece.crossings is not None for piece in pieces.values())


@pytest.mark.parametrize("text", [TREFOIL_PLUS, T25_MINUS],
                         ids=["trefoil+1", "T(2,5)-1"])
def test_candidate_pools_equal_the_enumeration_at_each_budget(text,
                                                              monkeypatch):
    """At --max-len 3, each degree-1 generator's pool, read off one
    enumeration per pool length at the largest budget so far, is the
    enumeration at its own budget."""
    pools = []
    pool_words = report._pool_words

    class Stop(Exception):
        pass

    def recording(d, pool_len, budget, epsilon):
        pools.append((pool_len, budget, pool_words(d, pool_len, budget,
                                                   epsilon)))
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
    assert len({budget for _, budget, _ in pools}) >= 2
    for pool_len, budget, got in pools:
        want = enumerate_orbit_words(d, max_len=pool_len, max_action=budget,
                                     epsilon=eps)
        assert [w.chords for w in got] == [w.chords for w in want]
