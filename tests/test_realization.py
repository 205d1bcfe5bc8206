"""Realization robustness over a battery of structured and random fronts."""

import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (all_orbit_strings, all_pairs_double_points,
                     all_segments_basepoint, capping_walk, chord_point,
                     component_lengths, cycle_segments, face_boundary,
                     fd_sizing_rows, fraction_arcs, fraction_components,
                     fraction_measures, front_writhe_and_cusp_counts, k_copy,
                     orbit_class_pushout, passage_arcs, polygon_signed_area,
                     pushout_linking, rot_number, stabilize,
                     trace_faces_by_points, turning_number)
from reebchords import diagram
from reebchords.diagram import (QUADRANT_VECTORS, DiagramError, FrontCode,
                                _sizing_rows, _template, parse_front,
                                resolve)
from reebchords.dynamics import is_bad
from reebchords.geometry import polyline_integral_y_dx
from reebchords.homology import h1_presentation, orbit_class_monomial
from reebchords.indices import cz_integral
from reebchords.report import GeneratorRecord
from reebchords.words import canonical_rotation, enumerate_orbit_words

F = Fraction
ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ["trefoil_plus", "trefoil_minus", "unknot_plus", "unknot_minus",
            "stab_plus", "hopf_plus", "hopf_mixed"]


def random_front(rng, max_events=12):
    events = []
    stack = 0
    while True:
        choices = []
        if len(events) < max_events and stack < 6:
            choices += ["L"] * 3
        if stack >= 2:
            choices += ["X"] * 5 + ["R"] * 2
        if len(events) >= max_events and stack >= 2:
            choices = ["R"]
        if not choices:
            break
        kind = rng.choice(choices)
        if kind == "L":
            pos = rng.randint(1, stack + 1)
            stack += 2
        elif kind == "X":
            pos = rng.randint(1, stack - 1)
        else:
            pos = rng.randint(1, stack - 1)
            stack -= 2
        events.append((kind, pos))
        if stack == 0 and (rng.random() < 0.6 or len(events) >= max_events):
            break
    return events


def check_realization(d):
    for cyc in d.components:
        assert polyline_integral_y_dx(cyc) == 0
    actions = {c.id: c.action for c in d.chords}
    for c in d.chords:
        assert c.action > 0
        assert d.octants[c.tip_comp][c.tip_loc[0]] in (3, 7)
        assert d.octants[c.tail_comp][c.tail_loc[0]] in (1, 5)
    for f in d.faces_list:
        assert sum(s * actions[cid] for cid, _q, s in f.corners) == f.area
        assert f.area > 0
    assert sum(f.area for f in d.faces_list) == d.outer_area
    writhe, linking, down, up = front_writhe_and_cusp_counts(d.front)
    n_right = {i: 0 for i in d.tb}
    for wid in d.front._deaths:
        n_right[d.front.component_of_wire[wid]] += 1
    for i in d.tb:
        assert d.tb[i] == writhe[i] - n_right[i] // 2
        assert 2 * d.rot[i] == down[i] - up[i]
    # a pair of surgered chords has a letter, whose index gives the
    # capping rotation; any other composable pair has none, and its
    # rotation is the walk's on the eta side
    for c1 in d.chords:
        for c2 in d.chords:
            if not d.composable(c1.id, c2.id):
                continue
            rot = rot_number(d, c1.id, c2.id)
            assert d.front.capping_rotation(c1.id, c2.id) == rot
            if all(d.surgery[c.tail_comp] and d.surgery[c.tip_comp]
                   for c in (c1, c2)):
                letter = d.letter(c1.id, c2.id)
                assert letter.index - (letter.c == 1) == rot
            else:
                with pytest.raises(DiagramError, match="unsurgered"):
                    d.letter(c1.id, c2.id)
            turns_eta = 4 * rot + 2
            turns_bar = capping_walk(d, c1.id, c2.id, "etabar")[1]
            assert turns_eta - turns_bar == 8 * d.rot[c1.tip_comp]


def check_classes(d):
    h1 = h1_presentation(d)
    for w in enumerate_orbit_words(d, max_len=2)[:4]:
        target = orbit_class_monomial(d, h1, w)
        for s in all_orbit_strings(w):
            assert orbit_class_pushout(h1, pushout_linking(d, w, s)) == target


def surgered_front(rng):
    """A random valid front with random surgery coefficients, not all 0,
    and random orientations."""
    while True:
        events = random_front(rng)
        try:
            front = FrontCode(events)
        except Exception:
            continue
        surgery = {i: rng.choice([1, -1, 0])
                   for i in range(front.n_components)}
        if all(v == 0 for v in surgery.values()):
            surgery[0] = 1
        orientations = {i: rng.choice([1, -1])
                        for i in range(front.n_components)}
        return FrontCode(events, orientations, surgery)


def seeded_fronts():
    """Ten random fronts with random surgery coefficients and orientations."""
    rng = random.Random(18251)
    for _ in range(10):
        yield surgered_front(rng)


def realization_data(d):
    """tb, rot, H1 and, per orbit word of length <= 2, its CZ index,
    reduced class, bad flag and i-grading, with each face named by its
    corner word: data that must not depend on the realization."""
    h1 = h1_presentation(d)
    names = [min(f.corners[k:] + f.corners[:k] for k in range(len(f.corners)))
             for f in d.faces_list]
    words = {}
    for w in enumerate_orbit_words(d, max_len=2):
        r = GeneratorRecord(d, h1, w)
        words[w.chords] = (r.cz, r.orbit_class.reduced, not r.good, None
                           if r.igrading is None else
                           sorted(zip(names, r.igrading)))
    return d.tb, d.rot, h1.diagonal, words


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_invariants_do_not_depend_on_the_action_margin(seed):
    front = surgered_front(random.Random(seed))
    data = [realization_data(resolve(front, action_margin=F(m)))
            for m in (7, 32, 101)]
    assert data[0] == data[1] == data[2]


def commuting_swaps(front):
    """(front, sigma) for each pair of adjacent crossings at positions at
    least 2 apart: the front with the two events swapped, and the
    transposition of their chords.  Chord ids follow the crossing and
    right-cusp events in order, so the two chords trade ids."""
    chord_of = {}
    for idx, (kind, _pos) in enumerate(front.events):
        if kind != "L":
            chord_of[idx] = len(chord_of) + 1
    for i, ((k1, p1), (k2, p2)) in enumerate(zip(front.events,
                                                 front.events[1:])):
        if k1 == k2 == "X" and abs(p1 - p2) >= 2:
            events = list(front.events)
            events[i], events[i + 1] = events[i + 1], events[i]
            a, b = chord_of[i], chord_of[i + 1]
            yield (FrontCode(events, front.orientations, front.surgery),
                   {a: b, b: a})


def swap_data(d, sigma):
    """tb, rot, linking, H1 diagonal, each chord's (sign, tail, tip) and,
    per orbit word of length <= 2, its CZ index, reduced class and bad
    flag, with chord ids renamed by sigma."""
    h1 = h1_presentation(d)
    chords = {sigma.get(c.id, c.id): (c.sign, c.tail_comp, c.tip_comp)
              for c in d.chords}
    words = {canonical_rotation([sigma.get(c, c) for c in w.chords]):
             (cz_integral(d, w), orbit_class_monomial(d, h1, w).reduced,
              is_bad(d, w))
             for w in enumerate_orbit_words(d, max_len=2)}
    return d.tb, d.rot, d.linking, h1.diagonal, chords, words


def check_commuting_swaps(front):
    """The swap data of every commuting swap of ``front``; returns the
    number of swaps."""
    want = None
    swaps = 0
    for swapped, sigma in commuting_swaps(front):
        if want is None:
            want = swap_data(resolve(front), sigma={})
        assert swap_data(resolve(swapped), sigma) == want, swapped.events
        swaps += 1
    return swaps


def test_invariants_survive_commuting_crossing_swaps(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from fronts import random_fronts

    fronts = [parse_front(text) for text in
              random_fronts(random.Random(5), 60, 6, 14, 3)]
    assert sum(map(check_commuting_swaps, fronts)) == 16
    trefoil = parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    for k in (2, 3):
        assert check_commuting_swaps(k_copy(trefoil, k)) > 0


def past_cusp(first, second):
    """The adjacent events first, second of a crossing and a cusp on
    disjoint strands, moved past each other, or None when they share a
    strand.  The crossing's position shifts by 2 when the cusp's pair of
    strands lies above it."""
    (k1, p1), (k2, p2) = first, second
    if (k1, k2) == ("L", "X"):
        if p1 <= p2 - 2:
            return ("X", p2 - 2), first
        if p1 >= p2 + 2:
            return second, first
    elif (k1, k2) == ("X", "L"):
        if p2 <= p1:
            return second, ("X", p1 + 2)
        if p2 >= p1 + 2:
            return second, first
    elif (k1, k2) == ("R", "X"):
        if p2 + 1 < p1:
            return second, first
        if p2 >= p1:
            return ("X", p2 + 2), first
    elif (k1, k2) == ("X", "R"):
        if p1 + 1 < p2:
            return second, first
        if p1 >= p2 + 2:
            return second, ("X", p1 - 2)
    return None


def cusp_swaps(front):
    """(front, sigma, kinds) for each adjacent crossing and cusp on disjoint
    strands: the front with the two moved past each other, the renaming of
    chord ids, and the two event kinds in their old order.  A left cusp
    makes no chord, so only a right cusp and a crossing trade ids."""
    chord_of = {}
    for idx, (kind, _pos) in enumerate(front.events):
        if kind != "L":
            chord_of[idx] = len(chord_of) + 1
    for i, pair in enumerate(zip(front.events, front.events[1:])):
        moved = past_cusp(*pair)
        if moved is None:
            continue
        events = list(front.events)
        events[i:i + 2] = moved
        sigma = {}
        if i in chord_of and i + 1 in chord_of:
            a, b = chord_of[i], chord_of[i + 1]
            sigma = {a: b, b: a}
        yield (FrontCode(events, front.orientations, front.surgery), sigma,
               pair[0][0] + pair[1][0])


def check_cusp_swaps(front):
    """The swap data of every move of a crossing past a cusp of ``front``;
    returns the kinds of the moves made."""
    want = swap_data(resolve(front), sigma={})
    kinds = Counter()
    for swapped, sigma, kind in cusp_swaps(front):
        assert swap_data(resolve(swapped), sigma) == want, swapped.events
        kinds[kind] += 1
    return kinds


def test_invariants_survive_moving_a_crossing_past_a_distant_cusp(
        monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from fronts import random_fronts

    fronts = [parse_front(text) for text in
              random_fronts(random.Random(5), 60, 6, 14, 3)]
    kinds = sum(map(check_cusp_swaps, fronts), Counter())
    assert kinds == {"XL": 33, "LX": 8, "RX": 28, "XR": 12}
    trefoil = parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    assert check_cusp_swaps(k_copy(trefoil, 2)) == {"XL": 1, "RX": 1}


def triple_point_moves(front):
    """(a, b) for each place in ``front`` with s strands and each p with
    p + 2 <= s: the front with X{p},X{p+1},X{p} inserted there, and with
    X{p+1},X{p},X{p+1}.  Both sides permute the strands alike, so they have
    the same components, possibly not the front's; both keep the front's
    orientations where those components exist, and its surgery
    coefficients, +1 on any component it does not have."""
    strands = 0
    for i, (kind, _pos) in enumerate(front.events):
        for p in range(1, strands - 1):
            sides = []
            for triple in ((p, p + 1, p), (p + 1, p, p + 1)):
                events = front.events[:i] + [("X", q) for q in triple] + \
                    front.events[i:]
                n = FrontCode(events).n_components
                sides.append(FrontCode(
                    events,
                    {c: o for c, o in front.orientations.items() if c < n},
                    {c: front.surgery.get(c, 1) for c in range(n)}))
            yield tuple(sides)
        strands += {"L": 2, "R": -2}.get(kind, 0)


def triple_point_data(front):
    d = resolve(front)
    return d.tb, d.rot, d.linking, h1_presentation(d).diagonal


def test_invariants_survive_the_triple_point_move():
    """Legendrian Reidemeister III, X{p},X{p+1},X{p} <-> X{p+1},X{p},X{p+1},
    inserted at every place of at least p + 2 strands of the trefoil and
    of the seeded fronts, keeps tb, rot, linking and H1's diagonal."""
    fronts = [parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")]
    fronts += list(seeded_fronts())
    moves = 0
    for front in fronts:
        for a, b in triple_point_moves(front):
            assert triple_point_data(a) == triple_point_data(b), a.events
            moves += 1
    assert moves == 210


def torus(n):
    return parse_front("L1,L3," + ",".join(["X2"] * n)
                       + ",R1,R1 / surgery {0:+1}")


def test_seeded_random_fronts():
    for front in seeded_fronts():
        d = resolve(front)
        check_realization(d)
        check_classes(d)


# +1 surgery on these, stabilized, is overtwisted: the positive controls
STABILIZED_BASES = {"trefoil": "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}",
                    "T(2,5)": "L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:+1}",
                    "unknot": "L1,R1 / surgery {0:+1}"}


@pytest.mark.parametrize("name", sorted(STABILIZED_BASES))
def test_each_zigzag_lowers_tb_and_moves_rot_by_one(name):
    """A zigzag on the strand at position 1 lowers rot by 1 and one at
    position 2 raises it; either lowers tb by 1.  Every stabilized front
    is realized, and its tb and rot are the front formulas'."""
    base = parse_front(STABILIZED_BASES[name])
    d0 = resolve(base)
    for position, turn in ((1, -1), (2, 1)):
        for times in (1, 2):
            d = resolve(stabilize(base, position, times))
            check_realization(d)
            assert d.tb == {0: d0.tb[0] - times}
            assert d.rot == {0: d0.rot[0] + turn * times}


def doubled_fd_sizing_rows(front, margin):
    """``fd_sizing_rows`` with every row times 2, as ``_sizing_rows``
    returns them."""
    n, eq, ge = fd_sizing_rows(front, margin)
    return n, *([([2 * v for v in a], 2 * b) for a, b in rows]
                for rows in (eq, ge))


def check_against_oracles(d, margin=Fraction(32)):
    """The one-pass LP rows equal twice the finite-difference rows, and
    the chords read off the template's crossing pairs are exactly the
    all-pairs double points of the solution's segments."""
    assert _sizing_rows(*_template(d.front), margin) == \
        doubled_fd_sizing_rows(d.front, margin)
    check_chords_against_all_pairs(d)


def check_chords_against_all_pairs(d):
    chords = {chord_point(d, c): {(c.tail_comp, c.tail_loc[0]),
                                  (c.tip_comp, c.tip_loc[0])}
              for c in d.chords}
    segments = cycle_segments(d.components)
    assert chords == {p: set(branches) for p, branches in
                      all_pairs_double_points(segments).items()}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_match_oracles(name, request):
    check_against_oracles(request.getfixturevalue(name))


def test_seeded_fronts_match_oracles():
    for front in seeded_fronts():
        check_against_oracles(resolve(front))


@pytest.mark.parametrize("n", [3, 9, 21])
def test_torus_knots_match_oracles(n):
    check_against_oracles(resolve(torus(n)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_fronts_match_oracles(seed):
    # the chords the layout places are all the double points: one per
    # crossing and right-cusp slab and no triple point (``fd_sizing_rows``)
    check_against_oracles(resolve(surgered_front(random.Random(seed))))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_copy_chords_are_the_all_pairs_double_points(k):
    trefoil = parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    check_chords_against_all_pairs(resolve(k_copy(trefoil, k)))


@pytest.mark.parametrize("k", [2, 3])
def test_copy_sizing_rows_match_the_finite_differences(k):
    # the finite-difference rows take about 0.3 s on the 2-copy, 3 s on the
    # 3-copy and 16 s on the 4-copy (one core of a shared x86-64 server), so
    # the 4-copy checks the chords only
    front = k_copy(parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}"), k)
    assert _sizing_rows(*_template(front), Fraction(32)) == \
        doubled_fd_sizing_rows(front, Fraction(32))


def check_basepoints(d):
    """Each face's basepoint is the one the search over every segment and
    every crossing picks, and that is its first try: one unit into the
    wedge of the face's first corner."""
    for f in d.faces_list:
        cid, quad, _sign = f.corners[0]
        (qx, qy), (dx, dy) = (chord_point(d, d.chord(cid)),
                              QUADRANT_VECTORS[quad])
        assert f.basepoint == all_segments_basepoint(d, f) == \
            (qx + dx, qy + dy)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_basepoints_match_the_all_segments_search(name, request):
    check_basepoints(request.getfixturevalue(name))


def test_seeded_torus_and_copy_basepoints_match_the_all_segments_search():
    trefoil = parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    for front in list(seeded_fronts()) + [torus(5), torus(21),
                                          k_copy(trefoil, 2),
                                          k_copy(trefoil, 3)]:
        check_basepoints(resolve(front))


def check_faces(d):
    """The left-turn walk's faces (corners in order, areas, boundaries and
    face order) and outer area are the point tracer's, and each rotation
    number is its component's turning number."""
    faces, outer = trace_faces_by_points(d)
    assert [(f.corners, f.area, face_boundary(d, f))
            for f in d.faces_list] == faces
    assert d.outer_area == outer
    assert d.rot == {i: turning_number(cyc)
                     for i, cyc in enumerate(d.components)}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_faces_match_the_point_tracer(name, request):
    check_faces(request.getfixturevalue(name))


def test_seeded_fronts_and_copies_faces_match_the_point_tracer():
    trefoil = parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    for front in list(seeded_fronts()) + [k_copy(trefoil, 2),
                                          k_copy(trefoil, 3)]:
        check_faces(resolve(front))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_front_faces_match_the_point_tracer(seed):
    check_faces(resolve(surgered_front(random.Random(seed))))


def check_integer_route(d, action_margin=F(32)):
    """The fields that the integer route fills are Fractions and equal the
    Fraction route's: the template evaluated form by form, the components'
    Chebyshev lengths (ints over the scale, read through their view),
    each chord's point, action and
    locations, the passage arcs assembled from those points, each face's
    shoelace area, the faces in order of their least boundary x and then
    y, and the basepoints of the search over every segment.  The faces'
    boundaries are the point tracer's (``check_faces``).  The Fraction
    route solves the sizing LP at d's ``action_margin`` itself."""
    fields = [v for cyc in d.components for p in cyc for v in p]
    fields += component_lengths(d)
    fields += [v for c in d.chords for v in
               chord_point(d, c) + (c.action, c.tail_loc[1], c.tip_loc[1])]
    fields += [v for f in d.faces_list for v in (f.area,) + f.basepoint]
    assert {type(v) for v in fields} == {Fraction}
    assert d.components == fraction_components(d.front, action_margin)
    lengths, chords = fraction_measures(d, action_margin)
    assert all(type(t) is int for t in d.lengths)
    assert component_lengths(d) == lengths
    assert [(chord_point(d, c), c.action, c.tail_loc, c.tip_loc)
            for c in d.chords] == chords
    assert passage_arcs(d) == fraction_arcs(d)
    assert [f.area for f in d.faces_list] == \
        [polygon_signed_area(face_boundary(d, f)) for f in d.faces_list]
    keys = [(min(x for x, _ in b), min(y for _, y in b))
            for b in (face_boundary(d, f) for f in d.faces_list)]
    assert keys == sorted(keys)
    check_basepoints(d)


# the chord actions are the margin plus the sizing rows' slacks over twice
# the margin's denominator: margins with denominators 1 and 2 pin both terms
MARGINS = [F(32), F(7), F(101), F(65, 2)]


@pytest.mark.parametrize("margin", MARGINS, ids=str)
@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_integer_route_matches_the_fraction_route(name, margin,
                                                          request):
    front = request.getfixturevalue(name).front
    check_integer_route(resolve(front, margin), margin)


@pytest.mark.parametrize("margin", MARGINS, ids=str)
def test_benchmark_fronts_and_copies_integer_route_matches_the_fraction_route(
        monkeypatch, margin):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from fronts import random_fronts

    trefoil = parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    for front in [parse_front(text) for text in
                  random_fronts(random.Random(7), 30, 6, 14, 3)] + \
            [k_copy(trefoil, 2), k_copy(trefoil, 3)]:
        check_integer_route(resolve(front, margin), margin)


@pytest.mark.parametrize("margin", MARGINS, ids=str)
def test_seeded_front_integer_route_matches_the_fraction_route(margin):
    for front in seeded_fronts():
        check_integer_route(resolve(front, margin), margin)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(MARGINS))
def test_random_front_integer_route_matches_the_fraction_route(seed, margin):
    check_integer_route(resolve(surgered_front(random.Random(seed)), margin),
                        margin)


@pytest.mark.parametrize("shift", [0, 1])
def test_a_corner_that_does_not_turn_left_is_a_fault(shift):
    # the low strand made parallel to the high one, or along an axis: no
    # face can turn left from one strand onto the other there
    d = resolve(parse_front("L1,L3,X2,X2,X2,R1,R1"))
    c = d.chords[2]
    tip = d.octants[c.tip_comp][c.tip_loc[0]]
    d.octants[c.tail_comp][c.tail_loc[0]] = (tip + shift) % 8
    with pytest.raises(DiagramError, match="does not turn left at r3"):
        d._trace_faces()

def test_resolve_work_counts(monkeypatch):
    # counts, not clock time: one winding test per face in the usual case,
    # and one layout
    counts = Counter()
    for name in ("winding_number", "_build_wires"):
        def counted(*args, _fn=getattr(diagram, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(diagram, name, counted)
    d = resolve(torus(31))
    assert counts["winding_number"] <= 4 * len(d.faces_list)
    assert counts["_build_wires"] == 1


def test_cinquefoil():
    d = resolve(parse_front("L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:+1}"))
    assert len(d.chords) == 7
    assert d.tb == {0: 3} and d.rot == {0: 0}
    check_realization(d)
    assert h1_presentation(d).group_description() == "Z/4"


def test_clamshell_closure_variant():
    # same events as the standard trefoil but with the inner strands closed
    # first: a different knot entirely
    d = resolve(parse_front("L1,L3,X2,X2,X2,R2,R1 / surgery {0:+1}"))
    assert len(d.chords) == 5
    assert d.tb == {0: -5}
    assert all(c.sign == -1 for c in d.chords)
    check_realization(d)


def test_nested_cusp_link():
    d = resolve(parse_front(
        "L1,L2,L2,X3,X2,R3,R2,R1 / surgery {0:+1, 1:-1, 2:0}"))
    assert len(d.components) == 3
    check_realization(d)
    check_classes(d)
