"""Exact rational planar geometry for polyline diagrams.

Everything here works over ``fractions.Fraction``: points are pairs of
rationals, directions are restricted to the eight compass octants (multiples
of 45 degrees), and all predicates (intersection, winding, area, distance
comparison) are computed exactly.  Floating point never enters.
"""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Point = Tuple[Fraction, Fraction]

# Octant k corresponds to the direction k * 45 degrees.
OCTANT_VECTORS = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1),
)


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def cross(a, b) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def dot(a, b) -> Fraction:
    return a[0] * b[0] + a[1] * b[1]


def direction_octant(a: Point, b: Point) -> int:
    """Octant of the segment a -> b; raises if not a multiple of 45 degrees."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    if dx == 0 and dy == 0:
        raise ValueError("zero-length segment")
    if dx != 0 and dy != 0 and abs(dx) != abs(dy):
        raise ValueError(f"segment {a}->{b} is not at a multiple of 45 degrees")
    sx = (dx > 0) - (dx < 0)
    sy = (dy > 0) - (dy < 0)
    return OCTANT_VECTORS.index((sx, sy))


def turn_octants(o_in: int, o_out: int) -> int:
    """Signed turn from octant o_in to o_out in eighth-turns, in (-4, 4].

    A value of +-4 would be a reversal; callers treat that as a geometry bug.
    """
    d = (o_out - o_in) % 8
    if d > 4:
        d -= 8
    return d


class Segment(object):
    """Closed segment with endpoints on the rational grid."""

    def __init__(self, a: Point, b: Point):
        self.a = a
        self.b = b
        self.octant = direction_octant(a, b)

    def __repr__(self):
        return f"Segment({self.a} -> {self.b})"

    def direction(self) -> Tuple[int, int]:
        return OCTANT_VECTORS[self.octant]

    def line_side(self, p: Point) -> Fraction:
        return cross(sub(self.b, self.a), sub(p, self.a))

    def param_of(self, p: Point) -> Fraction:
        """Parameter t in [0, 1] of a point assumed to lie on the segment."""
        d = sub(self.b, self.a)
        if d[0] != 0:
            return (p[0] - self.a[0]) / d[0]
        return (p[1] - self.a[1]) / d[1]

    def point_at(self, t: Fraction) -> Point:
        return (self.a[0] + t * (self.b[0] - self.a[0]),
                self.a[1] + t * (self.b[1] - self.a[1]))

    def contains(self, p: Point, closed: bool = True) -> bool:
        if self.line_side(p) != 0:
            return False
        t = self.param_of(p)
        if closed:
            return 0 <= t <= 1
        return 0 < t < 1


def segment_intersection(s1: Segment, s2: Segment) -> Optional[Point]:
    """Transverse intersection point of two segments, or None.

    Collinear overlap raises: the diagram builder must never produce it.
    """
    d1 = sub(s1.b, s1.a)
    d2 = sub(s2.b, s2.a)
    denom = cross(d1, d2)
    if denom == 0:
        if s1.line_side(s2.a) == 0 and (
                s1.contains(s2.a) or s1.contains(s2.b)
                or s2.contains(s1.a) or s2.contains(s1.b)):
            raise ValueError(f"collinear overlap between {s1} and {s2}")
        return None
    w = sub(s2.a, s1.a)
    t = cross(w, d2) / denom
    u = cross(w, d1) / denom
    if 0 <= t <= 1 and 0 <= u <= 1:
        return s1.point_at(t)
    return None


def polyline_integral_y_dx(points: Sequence[Point]) -> Fraction:
    """Exact integral of y dx around the closed polyline (trapezoid rule)."""
    total = Fraction(0)
    n = len(points)
    for i in range(n):
        a = points[i]
        b = points[(i + 1) % n]
        total += (a[1] + b[1]) * (b[0] - a[0]) / 2
    return total


def polygon_signed_area(points: Sequence[Point]) -> Fraction:
    total = Fraction(0)
    n = len(points)
    for i in range(n):
        a = points[i]
        b = points[(i + 1) % n]
        total += cross(a, b)
    return total / 2


def winding_number(points: Sequence[Point], p: Point,
                   closed: bool = True) -> int:
    """Winding of the closed polyline around p (p must avoid the curve).

    Counts signed crossings of the leftward horizontal ray from p with the
    half-open convention on y so vertices are never double counted.  The
    count is a sum over edges, so with ``closed=False`` it is an open
    piece's share of the winding of any closed curve the piece is part of.
    It never divides, so it is exact on integer coordinates too.
    """
    n = len(points)
    w = 0
    for i in range(n if closed else n - 1):
        a = points[i]
        b = points[(i + 1) % n]
        if a[1] == b[1]:
            if a[1] == p[1] and min(a[0], b[0]) <= p[0] <= max(a[0], b[0]):
                raise ValueError("winding test point lies on the curve")
            continue
        # crossing of the leftward horizontal ray, half-open in y; a curve
        # winding counterclockwise around p crosses that ray moving downward
        if a[1] < b[1]:
            hit = a[1] <= p[1] < b[1]
            sign = -1
        else:
            hit = b[1] <= p[1] < a[1]
            sign = 1
        if not hit:
            continue
        if a[0] < p[0] and b[0] < p[0]:     # wholly left of p: crosses
            w += sign
            continue
        if a[0] > p[0] and b[0] > p[0]:
            continue
        # (x of the edge at height p[1]) - p[0], times the edge's dy
        side = (a[0] - p[0]) * (b[1] - a[1]) + (p[1] - a[1]) * (b[0] - a[0])
        if side == 0:
            raise ValueError("winding test point lies on the curve")
        if (side < 0) == (sign < 0):
            w += sign
    return w


def point_segment_distance_sq(p: Point, s: Segment) -> Fraction:
    d = sub(s.b, s.a)
    w = sub(p, s.a)
    dd = dot(d, d)
    t = dot(w, d) / dd
    if t < 0:
        t = Fraction(0)
    elif t > 1:
        t = Fraction(1)
    q = s.point_at(t)
    return dot(sub(p, q), sub(p, q))


def merge_collinear(points: Sequence[Point]) -> List[Point]:
    """Drop interior vertices of a closed polyline where no turn happens."""
    pts = [p for i, p in enumerate(points) if p != points[(i + 1) % len(points)]]
    out: List[Point] = []
    n = len(pts)
    for i in range(n):
        prev = pts[(i - 1) % n]
        cur = pts[i]
        nxt = pts[(i + 1) % n]
        if cross(sub(cur, prev), sub(nxt, cur)) != 0:
            out.append(cur)
        elif dot(sub(cur, prev), sub(nxt, cur)) < 0:
            raise ValueError(f"polyline reverses direction at {cur}")
    if len(out) < 3:
        raise ValueError("degenerate polyline")
    return out


def turning_number(points: Sequence[Point]) -> Fraction:
    """Degree of the Gauss map of a closed polyline, via exact eighth-turns."""
    n = len(points)
    octs = [direction_octant(points[i], points[(i + 1) % n]) for i in range(n)]
    total = 0
    for i in range(n):
        t = turn_octants(octs[i], octs[(i + 1) % n])
        if abs(t) == 4:
            raise ValueError(f"U-turn at vertex {points[(i + 1) % n]}")
        total += t
    if total % 8 != 0:
        raise ValueError("turning total not a multiple of 2 pi")
    return Fraction(total, 8)


def offset_polyline(points: Sequence[Point], side: str,
                    amount: Fraction) -> List[Point]:
    """Push an open polyline off to one side using rational per-octant normals.

    ``side`` is 'left' or 'right' relative to the direction of travel.  The
    normal for a diagonal octant is scaled by 1/2 so every displacement has
    infinity-norm <= amount; this keeps coordinates rational while staying
    inside the safety tube used for push-out curves.
    """
    if side not in ("left", "right"):
        raise ValueError(f"bad side {side!r}")
    segs = [Segment(a, b) for a, b in zip(points, points[1:]) if a != b]
    shifted = []
    for s in segs:
        dx, dy = s.direction()
        nx, ny = (-dy, dx) if side == "left" else (dy, -dx)
        scale = amount if dx == 0 or dy == 0 else amount / 2
        off = (nx * scale, ny * scale)
        shifted.append(((s.a[0] + off[0], s.a[1] + off[1]),
                        (s.b[0] + off[0], s.b[1] + off[1])))
    out: List[Point] = [shifted[0][0]]
    for (a1, b1), (a2, b2) in zip(shifted, shifted[1:]):
        d1 = sub(b1, a1)
        d2 = sub(b2, a2)
        denom = cross(d1, d2)
        if denom == 0:
            out.append(b1)
            continue
        t = cross(sub(a2, a1), d2) / denom
        out.append((a1[0] + t * d1[0], a1[1] + t * d1[1]))
    out.append(shifted[-1][1])
    return out
