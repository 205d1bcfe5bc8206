"""Realization robustness over a battery of structured and random fronts."""

import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (all_orbit_strings, all_pairs_double_points,
                     all_segments_basepoint, capping_walk, fd_sizing_rows,
                     fraction_components, fraction_measures,
                     front_writhe_and_cusp_counts, k_copy,
                     orbit_class_pushout, polygon_signed_area,
                     pushout_linking, trace_faces_by_points, turning_number)
from reebchords import diagram
from reebchords.diagram import (DiagramError, FrontCode, _sizing_rows,
                                _template, parse_front, resolve)
from reebchords.geometry import polyline_integral_y_dx
from reebchords.homology import h1_presentation, orbit_class_monomial
from reebchords.report import GeneratorRecord
from reebchords.words import enumerate_orbit_words

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
        assert d.segments[c.tip_comp][c.tip_loc[0]].octant in (3, 7)
        assert d.segments[c.tail_comp][c.tail_loc[0]].octant in (1, 5)
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
    for c1 in d.chords:
        for c2 in d.chords:
            if d.composable(c1.id, c2.id):
                letter = d.letter(c1.id, c2.id)
                turns_eta = 4 * (letter.index - (letter.c == 1)) + 2
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
        words[w.chords] = (r.cz, r.orbit_class.reduced, r.bad, None
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


def torus(n):
    return parse_front("L1,L3," + ",".join(["X2"] * n)
                       + ",R1,R1 / surgery {0:+1}")


def test_seeded_random_fronts():
    for front in seeded_fronts():
        d = resolve(front)
        check_realization(d)
        check_classes(d)


def check_against_oracles(d, margin=Fraction(32)):
    """The one-pass LP rows equal the finite-difference rows, and the
    sweep's chords are exactly the all-pairs double points."""
    cycles, slabs = _template(d.front)
    assert _sizing_rows(d.front, cycles, slabs, margin) == \
        fd_sizing_rows(d.front, margin)
    chords = {c.point: {(c.tail_comp, c.tail_loc[0]),
                        (c.tip_comp, c.tip_loc[0])} for c in d.chords}
    assert chords == {p: set(branches) for p, branches in
                      all_pairs_double_points(d.segments).items()}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_match_oracles(name, request):
    check_against_oracles(request.getfixturevalue(name))


def test_seeded_fronts_match_oracles():
    for front in seeded_fronts():
        check_against_oracles(resolve(front))


@pytest.mark.parametrize("n", [3, 9, 21])
def test_torus_knots_match_oracles(n):
    check_against_oracles(resolve(torus(n)))


def check_basepoints(d):
    """Each face's basepoint is the one the search over every segment and
    every crossing picks."""
    assert [f.basepoint for f in d.faces_list] == \
        [all_segments_basepoint(d, f) for f in d.faces_list]


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_basepoints_match_the_all_segments_search(name, request):
    check_basepoints(request.getfixturevalue(name))


def test_seeded_and_torus_basepoints_match_the_all_segments_search():
    for front in list(seeded_fronts()) + [torus(21)]:
        check_basepoints(resolve(front))


def check_faces(d):
    """The left-turn walk's faces (corners in order, areas, boundaries and
    face order) and outer area are the point tracer's, and each rotation
    number is its component's turning number."""
    faces, outer = trace_faces_by_points(d)
    assert [(f.corners, f.area, f.boundary) for f in d.faces_list] == faces
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


def check_integer_route(d):
    """The fields that the integer route fills are Fractions and equal the
    Fraction route's: the template evaluated form by form, the heights and
    Chebyshev lengths at the vertices, each chord's point, action and
    locations, each face's shoelace area, the faces in order of their least
    boundary x and then y, and the basepoints of the search over every
    segment."""
    fields = [v for cyc in d.components for p in cyc for v in p]
    fields += [v for vs in d.z_at_vertex + d.cheb_len for v in vs]
    fields += [v for c in d.chords for v in
               c.point + (c.action, c.tail_loc[1], c.tip_loc[1])]
    fields += [v for f in d.faces_list for v in (f.area,) + f.basepoint]
    assert {type(v) for v in fields} == {Fraction}
    assert d.components == fraction_components(d.front)[0]
    z_at, cheb, chords = fraction_measures(d)
    assert (d.z_at_vertex, d.cheb_len) == (z_at, cheb)
    assert [(c.point, c.action, c.tail_loc, c.tip_loc)
            for c in d.chords] == chords
    assert [f.area for f in d.faces_list] == \
        [polygon_signed_area(f.boundary) for f in d.faces_list]
    keys = [(min(x for x, _ in f.boundary), min(y for _, y in f.boundary))
            for f in d.faces_list]
    assert keys == sorted(keys)
    check_basepoints(d)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_integer_route_matches_the_fraction_route(name, request):
    check_integer_route(request.getfixturevalue(name))


def test_benchmark_fronts_and_copies_integer_route_matches_the_fraction_route(
        monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from fronts import random_fronts

    trefoil = parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}")
    for front in [parse_front(text) for text in
                  random_fronts(random.Random(7), 30, 6, 14, 3)] + \
            [k_copy(trefoil, 2), k_copy(trefoil, 3)]:
        check_integer_route(resolve(front))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_front_integer_route_matches_the_fraction_route(seed):
    check_integer_route(resolve(surgered_front(random.Random(seed))))


@pytest.mark.parametrize("shift", [0, 1])
def test_a_corner_that_does_not_turn_left_is_a_fault(shift):
    # the low strand made parallel to the high one, or along an axis: no
    # face can turn left from one strand onto the other there
    d = resolve(parse_front("L1,L3,X2,X2,X2,R1,R1"))
    c = d.chords[2]
    tip = d.segments[c.tip_comp][c.tip_loc[0]]
    d.segments[c.tail_comp][c.tail_loc[0]].octant = (tip.octant + shift) % 8
    with pytest.raises(DiagramError, match="does not turn left at r3"):
        d._trace_faces()

def test_resolve_work_counts(monkeypatch):
    # counts, not clock time: the sweep, one winding test per face in the
    # usual case, and one symbolic layout
    counts = Counter()
    for name in ("segment_intersection", "winding_number", "_build_wires"):
        def counted(*args, _fn=getattr(diagram, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(diagram, name, counted)
    d = resolve(torus(31))
    n_segments = sum(len(segs) for segs in d.segments)
    assert counts["segment_intersection"] <= 8 * n_segments
    assert counts["winding_number"] <= 4 * len(d.faces_list)
    assert counts["_build_wires"] <= 2


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
