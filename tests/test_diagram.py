from fractions import Fraction

import pytest

from oracles import front_writhe_and_cusp_counts, trace_front
from reebchords.diagram import (DiagramError, FrontCode, FrontError,
                               _double_points, parse_front, resolve)
from reebchords.geometry import Segment, winding_number

F = Fraction


# -- parsing ------------------------------------------------------------------

def test_parse_minimal_front():
    front = parse_front("L1,R1 / surgery {0:-1}")
    assert front.n_components == 1
    assert front.n_left_cusps == 1
    assert front.n_right_cusps == 1
    assert front.surgery == {0: -1}


@pytest.mark.parametrize("text,comps,cusps,crossings", [
    ("L1,L3,X2,X2,X2,R2,R1", 1, 4, 3),
    ("L1,L3,X2,X2,X2,R1,R1", 1, 4, 3),
    ("L1,L2,R1,R1", 1, 4, 0),
    ("L1,L3,X2,X2,R1,R1", 2, 4, 2),
])
def test_parse_against_strand_tracing_oracle(text, comps, cusps, crossings):
    front = parse_front(text)
    ref = trace_front(front.events)
    assert front.n_components == ref["components"] == comps
    assert front.n_cusps == ref["left_cusps"] + ref["right_cusps"] == cusps
    assert front.n_crossings == ref["crossings"] == crossings


def test_parse_json_equivalent():
    front = parse_front('{"events": ["L1", "R1"], "surgery": {"0": 1}}')
    assert front.surgery == {0: 1}
    front2 = parse_front({"events": [("L", 1), ("R", 1)],
                          "orientations": {0: "-"} if False else {0: -1}})
    assert front2.orientations == {0: -1}


@pytest.mark.parametrize("text", [
    "",
    "Q1,R1",
    "L1,R2",          # right cusp position out of range
    "L1",             # strand left open
    "X1,R1",          # crossing before any strands
    "L1,R1 / surgery {3:-1}",
    "L1,R1 / surgery {0:5}",
    "L1,R1 / orientations {0:2}",
    "L1,R1 / bogus {0:1}",
])
def test_parse_errors(text):
    with pytest.raises(FrontError):
        parse_front(text)


# -- resolution ---------------------------------------------------------------

@pytest.mark.parametrize("text,n_chords", [
    ("L1,R1", 1),
    ("L1,L3,X2,X2,X2,R1,R1", 5),
    ("L1,L3,X2,X2,X2,R2,R1", 5),
    ("L1,L2,R1,R1", 2),
    ("L1,L3,X2,X2,R1,R1", 4),
])
def test_chord_counts(text, n_chords):
    front = parse_front(text)
    d = resolve(front)
    assert d.n_chords == n_chords
    assert d.n_chords == front.n_crossings + front.n_right_cusps


ALL_DIAGRAM_FIXTURES = ["unknot_plus", "trefoil_plus", "trefoil_minus",
                        "stab_plus", "hopf_plus", "hopf_mixed"]


@pytest.fixture(params=ALL_DIAGRAM_FIXTURES)
def any_diagram(request):
    return request.getfixturevalue(request.param)


def test_closure_integral_vanishes(any_diagram):
    for cyc in any_diagram.components:
        total = F(0)
        n = len(cyc)
        for i in range(n):
            a, b = cyc[i], cyc[(i + 1) % n]
            total += (a[1] + b[1]) * (b[0] - a[0]) / 2
        assert total == 0


def test_good_position_tangents(any_diagram):
    for c in any_diagram.chords:
        assert c.over_dir in (3, 7)
        assert c.under_dir in (1, 5)
        assert c.action > 0


def test_actions_from_independent_height_integration(any_diagram):
    d = any_diagram
    for c in d.chords:
        # integrate y dx to the two branch passages independently
        def height(comp, seg_idx, point):
            cyc = d.components[comp]
            total = F(0)
            for i in range(seg_idx):
                a, b = cyc[i], cyc[(i + 1) % len(cyc)]
                total += (a[1] + b[1]) * (b[0] - a[0]) / 2
            a = cyc[seg_idx]
            total += (a[1] + point[1]) * (point[0] - a[0]) / 2
            return total + d.z_shifts[comp]

        hi = height(c.tip_comp, self_seg(d, c, "tip"), c.point)
        lo = height(c.tail_comp, self_seg(d, c, "tail"), c.point)
        assert hi - lo == c.action


def self_seg(d, c, which):
    comp = c.tip_comp if which == "tip" else c.tail_comp
    target_oct = (3, 7) if which == "tip" else (1, 5)
    for si, s in enumerate(d.segments[comp]):
        if s.octant in target_oct and s.contains(c.point, closed=False):
            return si
    raise AssertionError("branch segment not found")


def test_classical_invariants_against_front_oracle(any_diagram):
    d = any_diagram
    tb, rot, lk = d.tb, d.rot, d.linking
    writhe, linking, down, up = front_writhe_and_cusp_counts(d.front)
    n_right = {i: 0 for i in tb}
    for wid, (ev, _p) in d.front._deaths.items():
        comp = d.front.component_of_wire[wid]
        n_right[comp] += 1
    for i in tb:
        # each right cusp is shared by two wire-ends of the same component
        assert tb[i] == writhe[i] - n_right[i] // 2
        assert 2 * rot[i] == down[i] - up[i]
    for i in tb:
        for j in tb:
            if i != j:
                assert 2 * lk[i][j] == linking.get(frozenset((i, j)), 0)
            assert lk[i][j] == lk[j][i]


def test_examples_tb_rot(trefoil_plus, unknot_plus, stab_plus):
    assert trefoil_plus.tb == {0: 1} and trefoil_plus.rot == {0: 0}
    assert unknot_plus.tb == {0: -1} and unknot_plus.rot == {0: 0}
    assert stab_plus.tb == {0: -2} and stab_plus.rot == {0: 1}


def test_face_count_examples(trefoil_plus, unknot_plus, stab_plus):
    assert len(unknot_plus.faces_list) == 2
    assert len(trefoil_plus.faces_list) == 6
    assert len(stab_plus.faces_list) == 3


def test_stokes_identity_per_face(any_diagram):
    d = any_diagram
    for f in d.faces_list:
        total = sum(sign * d.chord(cid).action for cid, _q, sign in f.corners)
        assert total == f.area


def test_total_area_identity(any_diagram):
    d = any_diagram
    assert sum(f.area for f in d.faces_list) == d.outer_area


def test_basepoints_interior(any_diagram):
    d = any_diagram
    for f in d.faces_list:
        assert winding_number(f.boundary, f.basepoint) == 1


def test_unknot_lobe_areas_match_action(unknot_plus):
    a1, a2 = [f.area for f in unknot_plus.faces_list]
    act = unknot_plus.chord(1).action
    assert a1 == a2 == act


def test_capping_paths_partition(trefoil_plus):
    d = trefoil_plus
    for j in range(1, 6):
        for k in range(1, 6):
            eta = d.capping_path(j, k, "eta")
            bar = d.capping_path(j, k, "etabar")
            assert 0 < eta.norm_length <= 1
            assert eta.norm_length + bar.norm_length == 1


@pytest.mark.parametrize("events", [
    [("L", 1.7), ("R", True)],
    [("L", 1), ("R", True)],
    [("L", "1"), ("R", 1)],
])
def test_front_code_rejects_positions_that_are_not_ints(events):
    with pytest.raises(FrontError):
        FrontCode(events)


@pytest.mark.parametrize("surgery", [{0: 1, "0": -1}, {0: 1.0}, {0: "1.0"},
                                     {False: 1}, {"0.0": 1}, {" 0": 1}])
def test_front_code_rejects_loose_or_repeated_coefficients(surgery):
    # keys are component ids, checked as strictly as the values
    with pytest.raises(FrontError):
        FrontCode([("L", 1), ("R", 1)], surgery=surgery)


def test_front_code_keeps_exact_coefficient_forms():
    front = FrontCode(["L1", ("R", 1)], {"0": "-"}, {0: "+1"})
    assert front.events == [("L", 1), ("R", 1)]
    assert (front.orientations, front.surgery) == ({0: -1}, {0: 1})


# -- the integer sweep's fault paths ------------------------------------------
# Each segment is its own component, so no pair counts as adjacent, and
# every coordinate has denominator 3, so the sweep scales by 3.

def thirds(*pts):
    return [[Segment((F(a, 3), F(b, 3)), (F(c, 3), F(d, 3)))]
            for a, b, c, d in pts]


def test_sweep_finds_a_crossing_at_thirds():
    [(p, over, under)] = _double_points(thirds((0, 0, 2, 2), (0, 2, 2, 0)))
    assert p == (F(1, 3), F(1, 3)) and (over, under) == ((1, 0), (0, 0))


@pytest.mark.parametrize("pts, message", [
    # the slope -1 segment starts on the slope +1 one
    ([(0, 0, 2, 2), (1, 1, 2, 0)], "non-transverse contact"),
    ([(0, 0, 2, 2), (0, 2, 2, 0), (0, 1, 2, 1)], "triple point"),
    ([(0, 1, 2, 1), (1, 0, 1, 2)], "violates good position"),
])
def test_sweep_raises_on_bad_contacts(pts, message):
    with pytest.raises(DiagramError, match=message):
        _double_points(thirds(*pts))


def test_sweep_sends_parallel_pairs_to_segment_intersection():
    with pytest.raises(ValueError, match="collinear overlap"):
        _double_points(thirds((0, 0, 2, 2), (1, 1, 3, 3)))
    assert _double_points(thirds((0, 0, 2, 2), (0, 1, 2, 3))) == []
