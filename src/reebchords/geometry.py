"""Exact rational planar geometry for polyline diagrams.

Points are pairs of rationals (``fractions.Fraction``) or of integers
over one common denominator, a segment a -> b is its pair of ends,
directions are restricted to the eight compass octants (multiples of 45
degrees), and every predicate is computed exactly.  Octants, cross and dot
products, winding numbers and the collinear merge never divide, so on
integer points they stay in integers; ``diagram`` runs its hot loops that
way.  ``offset_polyline`` divides only exactly: given the denominator as
``unit`` it stays in ints and refuses a result off that grid, which is how
``words`` offsets its push-out pieces.  Floating point never enters.
"""

from fractions import Fraction
from typing import List, Sequence, Tuple

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


def polyline_integral_y_dx(points: Sequence[Point]) -> Fraction:
    """Exact integral of y dx around the closed polyline (trapezoid rule),
    halved once through ``Fraction``, so integer points stay exact."""
    twice = sum((points[i - 1][1] + p[1]) * (p[0] - points[i - 1][0])
                for i, p in enumerate(points))
    return Fraction(twice, 2)


def winding_number(points: Sequence[Point], p: Point,
                   closed: bool = True) -> int:
    """Winding of the closed polyline around p; p on it is a ValueError.

    Counts signed crossings of the leftward horizontal ray from p, half-open
    in y so no vertex counts twice; a vertex p, where both edges of a peak
    miss, is refused first.  The count is a sum over edges, so with
    ``closed=False`` it is an open piece's share of the winding of any
    closed curve the piece is part of.  It never divides: exact on ints too.
    """
    if p in points:
        raise ValueError("winding test point lies on the curve")
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


def _div(a, b):
    """a / b: ``Fraction`` division, or on two ints a quotient that must
    leave no remainder, so integer coordinates stay integers."""
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        if r:
            raise ValueError(f"{a}/{b} leaves the integer grid")
        return q
    return a / b


def offset_polyline(points: Sequence[Point], side: str,
                    amount: Fraction, unit: int = 1) -> List[Point]:
    """Push an open polyline off to one side using rational per-octant normals.

    ``side`` is 'left' or 'right' relative to the direction of travel.  The
    normal for a diagonal octant is scaled by 1/2 so every displacement has
    infinity-norm <= amount; this keeps coordinates rational while staying
    inside the safety tube used for push-out curves.  With ``unit`` > 1 the
    points are ints over ``unit`` and ``amount`` stays in plane units: the
    offset runs in ints, and an offset or a corner off that grid raises
    ValueError.
    """
    if side not in ("left", "right"):
        raise ValueError(f"bad side {side!r}")
    if unit != 1:
        amount = _div(amount.numerator * unit, amount.denominator)
    shifted = []
    for a, b in zip(points, points[1:]):
        if a == b:
            continue
        dx, dy = OCTANT_VECTORS[direction_octant(a, b)]
        nx, ny = (-dy, dx) if side == "left" else (dy, -dx)
        scale = amount if dx == 0 or dy == 0 else _div(amount, 2)
        off = (nx * scale, ny * scale)
        shifted.append(((a[0] + off[0], a[1] + off[1]),
                        (b[0] + off[0], b[1] + off[1])))
    out: List[Point] = [shifted[0][0]]
    for (a1, b1), (a2, b2) in zip(shifted, shifted[1:]):
        d1 = sub(b1, a1)
        d2 = sub(b2, a2)
        denom = cross(d1, d2)
        if denom == 0:
            out.append(b1)
            continue
        # the corner a1 + t d1 with t = num / denom
        num = cross(sub(a2, a1), d2)
        out.append((a1[0] + _div(num * d1[0], denom),
                    a1[1] + _div(num * d1[1], denom)))
    out.append(shifted[-1][1])
    return out
