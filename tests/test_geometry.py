import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (Segment, point_segment_distance_sq, polygon_signed_area,
                     segment_intersection, turning_number)
from reebchords.geometry import (direction_octant, merge_collinear,
                                 offset_polyline, polyline_integral_y_dx,
                                 winding_number)

F = Fraction

SQUARE = [(F(0), F(0)), (F(4), F(0)), (F(4), F(4)), (F(0), F(4))]


def angle_winding(points, p):
    total = 0.0
    n = len(points)
    for i in range(n):
        a = points[i]
        b = points[(i + 1) % n]
        a1 = math.atan2(float(a[1] - p[1]), float(a[0] - p[0]))
        a2 = math.atan2(float(b[1] - p[1]), float(b[0] - p[0]))
        d = a2 - a1
        while d > math.pi:
            d -= 2 * math.pi
        while d < -math.pi:
            d += 2 * math.pi
        total += d
    return round(total / (2 * math.pi))


def test_winding_number_matches_angle_sum():
    pts = [(F(0), F(0)), (F(6), F(0)), (F(6), F(2)), (F(2), F(2)),
           (F(2), F(4)), (F(6), F(4)), (F(6), F(6)), (F(0), F(6))]
    probes = [(F(1), F(1)), (F(1), F(3)), (F(1), F(5)), (F(5), F(1)),
              (F(5), F(5)), (F(7), F(3)), (F(3), F(3))]
    for p in probes:
        assert winding_number(pts, p) == angle_winding(pts, p)
    rev = pts[::-1]
    for p in probes:
        assert winding_number(rev, p) == -winding_number(pts, p)


def test_winding_number_rejects_points_on_curve():
    with pytest.raises(ValueError):
        winding_number(SQUARE, (F(2), F(0)))


def test_turning_number():
    assert turning_number(SQUARE) == 1
    assert turning_number(SQUARE[::-1]) == -1
    octagon = [(F(2), F(0)), (F(4), F(0)), (F(6), F(2)), (F(6), F(4)),
               (F(4), F(6)), (F(2), F(6)), (F(0), F(4)), (F(0), F(2))]
    assert turning_number(octagon) == 1


def test_direction_octant_rejects_bad_slope():
    with pytest.raises(ValueError):
        direction_octant((F(0), F(0)), (F(2), F(1)))


def test_segment_intersection():
    s1 = Segment((F(0), F(0)), (F(4), F(4)))
    s2 = Segment((F(0), F(4)), (F(4), F(0)))
    assert segment_intersection(s1, s2) == (F(2), F(2))
    s3 = Segment((F(10), F(0)), (F(12), F(0)))
    assert segment_intersection(s1, s3) is None
    with pytest.raises(ValueError):
        segment_intersection(s1, Segment((F(2), F(2)), (F(6), F(6))))


def test_integral_and_area():
    assert polygon_signed_area(SQUARE) == 16
    assert polyline_integral_y_dx(SQUARE) == -16
    assert polyline_integral_y_dx(SQUARE[::-1]) == 16


def test_integral_is_exact_on_integer_points():
    value = polyline_integral_y_dx([(0, 0), (3, 0), (3, 1)])
    assert type(value) is Fraction and value == Fraction(-3, 2)


def test_offset_polyline_sides():
    path = [(F(0), F(0)), (F(4), F(0)), (F(8), F(4))]
    left = offset_polyline(path, "left", F(1, 2))
    right = offset_polyline(path, "right", F(1, 2))
    assert left[0][1] > 0 > right[0][1]
    # the diagonal leg uses the half-scaled rational normal
    assert left[-1] == (F(8) - F(1, 4), F(4) + F(1, 4))


def test_offset_polyline_on_ints_stays_on_the_grid():
    # the same path as ints over 16: amount 1/8 is 2 there, its half 1
    path = [(0, 0), (64, 0), (128, 64)]
    got = offset_polyline(path, "left", F(1, 2), unit=16)
    assert all(type(v) is int for p in got for v in p)
    want = offset_polyline([(F(x, 16), F(y, 16)) for x, y in path], "left",
                           F(1, 2))
    assert got == [(x * 16, y * 16) for x, y in want]
    # 1/8 is 1/2 over 4, and its diagonal half is 1/2 over 8
    with pytest.raises(ValueError, match="integer grid"):
        offset_polyline([(0, 0), (16, 0)], "left", F(1, 8), unit=4)
    with pytest.raises(ValueError, match="integer grid"):
        offset_polyline([(0, 0), (16, 16)], "left", F(1, 8), unit=8)


def open_winding(points, p):
    """winding_number of the open polyline, None where p is on it."""
    try:
        return winding_number(points, p, closed=False)
    except ValueError:
        return None


SMALL_POINTS = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(max_examples=500, deadline=None)
@given(st.lists(SMALL_POINTS, min_size=2, max_size=6), SMALL_POINTS,
       st.integers(0, 5))
@example([(0, 0), (1, 1), (2, 0)], (1, 1), 1)   # a peak: only the repeat
def test_a_repeated_vertex_leaves_an_open_winding_unchanged(points, p, i):
    """A zero-length edge crosses no ray: repeating vertex i changes the
    open winding around p only by raising, and only where p is that
    vertex (the half-open rule can miss p at a peak of the polyline)."""
    i %= len(points)
    repeated = points[:i + 1] + points[i:]
    want = None if p == points[i] else open_winding(points, p)
    assert open_winding(repeated, p) == want


@settings(max_examples=500, deadline=None)
@given(st.lists(SMALL_POINTS, min_size=2, max_size=6), st.integers(0, 5),
       st.booleans())
@example([(0, 0), (2, 2), (4, 0), (2, -2)], 1, True)    # a diamond's peak
@example([(0, 0), (2, 2), (4, 0), (2, -2)], 1, False)
@example([(0, 0), (1, 1), (2, 0)], 1, True)              # a peak
@example([(0, 0), (1, 1), (2, 0)], 1, False)
@example([(0, 0), (1, 1)], 1, False)                     # an upper end
def test_every_vertex_of_a_polyline_is_on_the_curve(points, i, closed):
    """winding_number raises at every vertex, closed and open, also where
    the half-open rule skips both edges: a peak or an upper end."""
    with pytest.raises(ValueError, match="lies on the curve"):
        winding_number(points, points[i % len(points)], closed=closed)


def test_merge_collinear():
    pts = [(F(0), F(0)), (F(2), F(0)), (F(4), F(0)), (F(4), F(4)),
           (F(0), F(4))]
    assert merge_collinear(pts) == [(F(0), F(0)), (F(4), F(0)),
                                    (F(4), F(4)), (F(0), F(4))]
    with pytest.raises(ValueError):
        merge_collinear([(F(0), F(0)), (F(4), F(0)), (F(2), F(0)),
                         (F(2), F(4))])


def test_point_segment_distance():
    s = Segment((F(0), F(0)), (F(4), F(0)))
    assert point_segment_distance_sq((F(2), F(3)), s) == 9
    assert point_segment_distance_sq((F(-3), F(4)), s) == 25
