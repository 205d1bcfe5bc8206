from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (Segment, all_pairs_double_points, capping_walk,
                     chord_point, cycle_segments, event_slabs, face_boundary,
                     front_writhe_and_cusp_counts, height_shifts,
                     point_segment_distance_sq, template_at, trace_front)
from reebchords.diagram import (DiagramError, FrontCode, FrontError,
                               ResolvedDiagram, _integer_boxes, _template,
                               parse_front, resolve)
from reebchords.geometry import OCTANT_VECTORS, winding_number

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
    # component ids that pass a digits-after-minus test, not integers
    "L1,R1 / surgery {--0:+1}",
    "L1,R1 / surgery {\u00b2:+1}",
    "L1,R1 / orientations {--0:-}",
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
    assert len(d.chords) == n_chords
    assert len(d.chords) == front.n_crossings + front.n_right_cusps


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
    d = any_diagram
    for c in d.chords:
        assert d.octants[c.tip_comp][c.tip_loc[0]] in (3, 7)
        assert d.octants[c.tail_comp][c.tail_loc[0]] in (1, 5)
        assert c.action > 0


def test_actions_from_independent_height_integration(any_diagram):
    d = any_diagram
    shifts = height_shifts(d.front)
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
            return total + shifts[comp]

        hi = height(c.tip_comp, self_seg(d, c, "tip"), chord_point(d, c))
        lo = height(c.tail_comp, self_seg(d, c, "tail"), chord_point(d, c))
        assert hi - lo == c.action


def self_seg(d, c, which):
    comp = c.tip_comp if which == "tip" else c.tail_comp
    target_oct = (3, 7) if which == "tip" else (1, 5)
    for si, s in enumerate(cycle_segments(d.components)[comp]):
        if s.octant in target_oct and \
                s.contains(chord_point(d, c), closed=False):
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
        assert winding_number(face_boundary(d, f), f.basepoint) == 1


def test_unknot_lobe_areas_match_action(unknot_plus):
    a1, a2 = [f.area for f in unknot_plus.faces_list]
    act = unknot_plus.chord(1).action
    assert a1 == a2 == act


def test_capping_paths_partition(trefoil_plus):
    d = trefoil_plus
    for j in range(1, 6):
        for k in range(1, 6):
            eta_length = F(1, 2) - F(d.letter(j, k).h, d.arc_den)
            bar_length = capping_walk(d, j, k, "etabar")[2]
            assert 0 < eta_length <= 1
            assert eta_length + bar_length == 1


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


# -- the template's crossings -------------------------------------------------

@pytest.mark.parametrize("text", ["L1,R1", "L1,L3,X2,X2,X2,R1,R1",
                                  "L1,L3,X2,X2,X2,R2,R1", "L1,L2,R1,R1",
                                  "L1,L3,X2,X2,R1,R1"])
def test_layout_crossings_are_the_all_pairs_double_points(text):
    # the crossings the layout records are every double point of the
    # template, at zero sizes and at positive ones, each over (slope -1) and
    # under (slope +1) branch the segment the all-pairs scan finds there
    front = parse_front(text)
    cycles, order, crossings = _template(front)
    assert len(crossings) == front.n_crossings + front.n_right_cusps
    segments = cycle_segments([[(c, y) for c, y, _ in cyc] for cyc in cycles])
    assert {p: {over, under} for p, over, under in crossings} == \
        {p: set(b) for p, b in all_pairs_double_points(segments).items()}
    for p, over, under in crossings:
        for (ci, si), slope in ((over, -1), (under, 1)):
            s = segments[ci][si]
            assert s.b[1] - s.a[1] == slope * (s.b[0] - s.a[0]) != 0
            assert s.contains(p, closed=False)
    comps, _ = template_at(front, [3 + v for v in range(len(order))])
    hits = all_pairs_double_points(cycle_segments(comps))
    assert sorted(sorted(b) for b in hits.values()) == \
        sorted(sorted((over, under)) for _, over, under in crossings)


# -- the template's fault paths -----------------------------------------------

@pytest.mark.parametrize("event", [0, 2, 5])
def test_a_diagonal_stretched_by_a_size_is_a_fault(monkeypatch, event):
    # the far end of the first diagonal laid out in a left cusp, a crossing
    # or a right cusp moved past one more size: the segment would tilt as
    # that size grows
    from reebchords import diagram

    original = diagram._build_wires

    def moved(front):
        wires, crossings, order = original(front)
        (lo, k), (hi, _) = event_slabs(front)[event]
        for w in wires.values():
            pts = w.points
            for i, (a, b) in enumerate(zip(pts, pts[1:])):
                if lo <= a[0] <= hi and a[2] == b[2] == k and \
                        0 != abs(b[1] - a[1]) == abs(b[0] - a[0]):
                    pts[i + 1] = (b[0], b[1], k + 1)
                    return wires, crossings, order
        raise AssertionError(f"no diagonal in event {event}")

    monkeypatch.setattr(diagram, "_build_wires", moved)
    with pytest.raises(DiagramError, match="not stretched along the sizes"):
        resolve(parse_front("L1,L3,X2,X2,X2,R1,R1"))


@pytest.mark.parametrize("fault, message", [
    ("far end", "are not adjacent on one component"),
    ("crossing", "is not a vertex"),
])
def test_a_misrecorded_crossing_is_a_fault(monkeypatch, tmp_path, capsys,
                                           fault, message):
    # the first crossing's under branch recorded as running to the far end
    # of its over branch, which is no neighbour of its own first end, or to
    # the double point itself, which is no vertex
    from reebchords import cli, diagram

    original = diagram._build_wires

    def misrecorded(front):
        wires, crossings, order = original(front)
        p, over, (u, _) = crossings[0]
        crossings[0] = (p, over, (u, over[1] if fault == "far end" else p))
        return wires, crossings, order

    monkeypatch.setattr(diagram, "_build_wires", misrecorded)
    text = "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}"
    with pytest.raises(DiagramError, match=message):
        resolve(parse_front(text))
    path = tmp_path / "front.txt"
    path.write_text(text)
    assert cli.main(["invariants", "--input", str(path)]) == 3
    assert message in capsys.readouterr().err


def test_a_template_vertex_met_twice_is_a_fault(monkeypatch):
    # a component assembled twice puts each of its vertices at one (c, y)
    # on two cycles
    from reebchords import diagram

    original = diagram._assemble_components
    monkeypatch.setattr(diagram, "_assemble_components",
                        lambda front, wires: 2 * original(front, wires))
    with pytest.raises(DiagramError, match="two template vertices at"):
        _template(parse_front("L1,L3,X2,X2,X2,R1,R1"))


@pytest.mark.parametrize("swap", ["branches", "under strands"])
def test_a_crossing_pair_whose_segments_do_not_meet_is_a_fault(
        trefoil_plus, swap):
    # the slope +1 branch given as the over one, or the under branches of
    # two crossings in disjoint event slabs exchanged
    d = trefoil_plus
    pairs = [((c.tip_comp, c.tip_loc[0]), (c.tail_comp, c.tail_loc[0]))
             for c in d.chords]
    if swap == "branches":
        pairs[0] = pairs[0][::-1]
    else:
        pairs[0], pairs[1] = ((pairs[0][0], pairs[1][1]),
                              (pairs[1][0], pairs[0][1]))
    with pytest.raises(DiagramError, match="is not inside segment"):
        ResolvedDiagram(d.front, d._ints, d._scale, pairs, d.actions,
                        d.action_den)


# -- the basepoint test's integer distance check ------------------------------
# Segments a -> a + n * (octant vector) on the integer grid of the boxes, a
# test point and a clearance over 2 (the half grid, where the library's
# points lie) so that distances tie with the clearance, and a square ring
# that winds once around every test point.  The library's clearance is the
# scale S over 2S; here it runs over every S from 1 to 6.

SQUARE_RING = [(-64, -64), (64, -64), (64, 64), (-64, 64)]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                          st.integers(0, 7), st.integers(1, 4)),
                min_size=1, max_size=4),
       st.integers(-16, 16), st.integers(-16, 16), st.integers(1, 6))
# within the clearance of a segment's second half only
@example([(0, 0, 0, 4)], 5, 1, 2)
def test_basepoint_clearance_is_the_distance_to_every_segment(
        ends, px, py, clear):
    # each segment a closed polyline a -> b -> a of its own
    polys = [[(x, y), (x + n * dx, y + n * dy)]
             for x, y, o, n in ends for dx, dy in [OCTANT_VECTORS[o]]]
    boxes = _integer_boxes(polys)
    clear_of_all = all(
        point_segment_distance_sq((F(px, 2), F(py, 2)), Segment(a, b))
        > F(clear, 2) ** 2 for a, b in polys)
    assert ResolvedDiagram._good_basepoint(
        (px, py), SQUARE_RING, ([box[0] for box in boxes], boxes), clear) == \
        clear_of_all
