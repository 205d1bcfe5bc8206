"""Realization robustness over a battery of structured and random fronts."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (all_orbit_strings, all_pairs_double_points,
                     all_segments_basepoint, fd_sizing_rows,
                     front_writhe_and_cusp_counts, orbit_class_pushout)
from reebchords import diagram
from reebchords.diagram import (FrontCode, _sizing_rows, _template,
                                parse_front, resolve)
from reebchords.geometry import polyline_integral_y_dx
from reebchords.homology import h1_presentation, orbit_class_monomial
from reebchords.indices import capping_angle
from reebchords.report import GeneratorRecord
from reebchords.words import enumerate_orbit_words, push_out

F = Fraction


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
        assert c.over_dir in (3, 7) and c.under_dir in (1, 5)
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
                t_eta = capping_angle(d, c1.id, c2.id, "eta").t
                t_bar = capping_angle(d, c1.id, c2.id, "etabar").t
                assert t_eta - t_bar == 4 * d.rot[c1.tip_comp]


def check_classes(d):
    h1 = h1_presentation(d)
    for w in enumerate_orbit_words(d, max_len=2)[:4]:
        target = orbit_class_monomial(d, h1, w)
        for s in all_orbit_strings(w):
            assert orbit_class_pushout(h1, push_out(d, w, s)) == target


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


@pytest.mark.parametrize("name", [
    "trefoil_plus", "trefoil_minus", "unknot_plus", "unknot_minus",
    "stab_plus", "hopf_plus", "hopf_mixed"])
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


@pytest.mark.parametrize("name", [
    "trefoil_plus", "trefoil_minus", "unknot_plus", "unknot_minus",
    "stab_plus", "hopf_plus", "hopf_mixed"])
def test_fixture_basepoints_match_the_all_segments_search(name, request):
    check_basepoints(request.getfixturevalue(name))


def test_seeded_and_torus_basepoints_match_the_all_segments_search():
    for front in list(seeded_fronts()) + [torus(21)]:
        check_basepoints(resolve(front))

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
    assert d.n_chords == 7
    assert d.tb == {0: 3} and d.rot == {0: 0}
    check_realization(d)
    assert h1_presentation(d).group_description() == "Z/4"


def test_clamshell_closure_variant():
    # same events as the standard trefoil but with the inner strands closed
    # first: a different knot entirely
    d = resolve(parse_front("L1,L3,X2,X2,X2,R2,R1 / surgery {0:+1}"))
    assert d.n_chords == 5
    assert d.tb == {0: -5}
    assert all(c.sign == -1 for c in d.chords)
    check_realization(d)


def test_nested_cusp_link():
    d = resolve(parse_front(
        "L1,L2,L2,X3,X2,R3,R2,R1 / surgery {0:+1, 1:-1, 2:0}"))
    assert len(d.components) == 3
    check_realization(d)
    check_classes(d)
