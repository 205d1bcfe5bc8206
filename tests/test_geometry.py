import math
from fractions import Fraction

import pytest

from oracles import (point_segment_distance_sq, polygon_signed_area,
                     turning_number)
from reebchords.geometry import (Segment, direction_octant, merge_collinear,
                                 offset_polyline, polyline_integral_y_dx,
                                 segment_intersection, winding_number)

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


def test_offset_polyline_sides():
    path = [(F(0), F(0)), (F(4), F(0)), (F(8), F(4))]
    left = offset_polyline(path, "left", F(1, 2))
    right = offset_polyline(path, "right", F(1, 2))
    assert left[0][1] > 0 > right[0][1]
    # the diagonal leg uses the half-scaled rational normal
    assert left[-1] == (F(8) - F(1, 4), F(4) + F(1, 4))


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
