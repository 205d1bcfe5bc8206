"""Front diagrams and their exact planar resolutions.

A front is an event sequence (left cusps, right cusps, crossings at 1-based
strand positions counted from the top).  ``resolve`` realizes it as oriented
closed polylines on the rational grid with every segment at a multiple of 45
degrees, one double point per crossing and per right cusp, and the height
function z recovered exactly as the line integral of y dx.  All downstream
data (crossing signs, actions, faces, areas, capping paths) is exact.

Template conventions:

* strand at stack position p runs at level y = -4p between events;
* a crossing realizes the descending strand with slope -1 (the strand that
  ends up on top) and the ascending strand with slope +1;
* a right cusp realizes the felled pair as a loop with a single double point
  whose horizontal stretch is a free rational parameter, solved per component
  so that the closed line integral of y dx vanishes identically.

The template is laid out once, with every x-coordinate an exact affine form
in the loop stretches and event spacings; the sizing LP's rows are read off
that layout and the diagram is the same layout evaluated at the LP's
solution.  One x-sorted sweep in integers (the coordinates over their least
common denominator) finds the double points, and each face's basepoint sits
a small exact step inside one of its corner wedges, tested against the
integer boxes of the segments that can come near it.
"""

import json
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from .geometry import (
    OCTANT_VECTORS,
    Point,
    Segment,
    cross,
    merge_collinear,
    point_segment_distance_sq,
    polygon_signed_area,
    segment_intersection,
    sub,
    turn_octants,
    turning_number,
    winding_number,
)


class FrontError(ValueError):
    """Invalid input diagram (bad syntax, impossible event sequence...)."""


class DiagramError(RuntimeError):
    """Internal consistency failure of the planar realization."""


EVENT_RE = re.compile(r"^([LRX])(\d+)$")


def _integer(val, what):
    """A string of an optional sign and decimal digits, or an int that is
    not a bool."""
    if isinstance(val, str) and re.fullmatch(r"[+-]?[0-9]+", val) or \
            isinstance(val, int) and not isinstance(val, bool):
        return int(val)
    raise FrontError(f"bad {what} {val!r}")


def _unique_keys(pairs):
    """A JSON object; the same key twice is an input error."""
    if len(dict(pairs)) != len(pairs):
        raise FrontError(f"repeated key in JSON object {pairs!r}")
    return dict(pairs)


class FrontCode(object):
    """Validated event-sequence encoding of a Legendrian front.

    The constructor simulates the strand stack, traces the closed components
    and records which component each cusp and crossing touches.  Components
    are numbered 0-based in order of their first left cusp.
    """

    def __init__(self, events, orientations=None, surgery=None):
        self.events: List[Tuple[str, int]] = [_event(e) for e in events]
        self._simulate()
        n = self.n_components
        self.orientations = {i: 1 for i in range(n)}
        self.surgery = {i: 0 for i in range(n)}
        for table, given, what, allowed, words in (
                (self.orientations, orientations, "orientation", (1, -1),
                 "+1 or -1"),
                (self.surgery, surgery, "surgery coefficient", (1, -1, 0),
                 "+1, -1 or 0")):
            seen = set()
            for key, val in (given or {}).items():
                comp = _integer(key, "component id")
                if comp not in table:
                    raise FrontError(f"{what} for unknown component {comp}")
                if comp in seen:
                    raise FrontError(f"{what} for component {comp} given twice")
                seen.add(comp)
                val = (1 if val == "+" else -1) if val in ("+", "-") \
                    else _integer(val, f"{what} value")
                if val not in allowed:
                    raise FrontError(f"{what} must be {words}, got {val!r}")
                table[comp] = val

    def _simulate(self):
        stack: List[int] = []           # wire ids by position, top first
        births: Dict[int, Tuple[int, int, str]] = {}   # wid -> (event, sibling, role)
        deaths: Dict[int, Tuple[int, int]] = {}        # wid -> (event, partner)
        death_pairs: Dict[int, Tuple[int, int]] = {}   # event -> (upper, lower)
        next_wid = 0
        names = {"L": "left cusp", "X": "crossing", "R": "right cusp"}
        for idx, (kind, pos) in enumerate(self.events):
            # a left cusp opens below the last strand at most, the others
            # act on the strands at pos and pos + 1
            if not 1 <= pos <= len(stack) + (1 if kind == "L" else -1):
                raise FrontError(f"event {idx}: {names[kind]} at position "
                                 f"{pos} with {len(stack)} strands")
            if kind == "L":
                u, dn = next_wid, next_wid + 1
                next_wid += 2
                births[u] = (idx, dn, "u")
                births[dn] = (idx, u, "d")
                stack[pos - 1:pos - 1] = [u, dn]
            elif kind == "X":
                stack[pos - 1], stack[pos] = stack[pos], stack[pos - 1]
            else:  # R
                w1, w2 = stack[pos - 1], stack[pos]
                deaths[w1] = (idx, w2)
                deaths[w2] = (idx, w1)
                death_pairs[idx] = (w1, w2)
                del stack[pos - 1:pos + 1]
        if stack:
            raise FrontError(f"{len(stack)} strands still open after all events")
        self._births = births
        self._deaths = deaths
        self._death_pairs = death_pairs
        # trace components: alternate death-joins and birth-joins, so each
        # cycle's even entries run from birth to death and its odd entries
        # from death to birth
        comp_of_wire: Dict[int, int] = {}
        comps: List[List[int]] = []
        for start in sorted(births):
            if start in comp_of_wire:
                continue
            cid = len(comps)
            cycle = []
            wid = start
            while wid not in comp_of_wire:
                comp_of_wire[wid] = cid
                cycle.append(wid)
                partner = deaths[wid][1]
                comp_of_wire[partner] = cid
                cycle.append(partner)
                wid = births[partner][1]
            comps.append(cycle)
        self.n_components = len(comps)
        self.wire_cycles = comps
        self.component_of_wire = comp_of_wire
        self.n_left_cusps, self.n_crossings, self.n_right_cusps = (
            sum(1 for k, _ in self.events if k == kind) for kind in "LXR")
        self.n_cusps = self.n_left_cusps + self.n_right_cusps

    def summary(self):
        return {
            "components": self.n_components,
            "cusps": self.n_cusps,
            "left_cusps": self.n_left_cusps,
            "right_cusps": self.n_right_cusps,
            "crossings": self.n_crossings,
            "surgery": dict(self.surgery),
            "orientations": dict(self.orientations),
        }


def _parse_assoc(body: str, what: str) -> Dict[int, str]:
    """``{comp: value, ...}`` with the values left raw for ``FrontCode``."""
    body = body.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise FrontError(f"bad {what} block: {body!r}")
    out: Dict[int, str] = {}
    inner = body[1:-1].strip()
    if not inner:
        return out
    for item in inner.split(","):
        if ":" not in item:
            raise FrontError(f"bad {what} entry {item!r}")
        key, val = item.split(":", 1)
        key = key.strip()
        if not key.lstrip("-").isdigit():
            raise FrontError(f"bad component id {key!r}")
        if int(key) in out:
            raise FrontError(f"component {key} given twice in {what} block")
        out[int(key)] = val.strip()
    return out


def _event(tok) -> Tuple[str, int]:
    """One event from a token ``L<i>``, ``R<i>`` or ``X<i>``, or from a pair
    ``[kind, position]`` with an integer position."""
    if isinstance(tok, str):
        m = EVENT_RE.match(tok.strip())
        if m:
            return m.group(1), int(m.group(2))
    elif isinstance(tok, (list, tuple)) and len(tok) == 2 \
            and tok[0] in ("L", "R", "X") and isinstance(tok[1], int) \
            and not isinstance(tok[1], bool):
        return tok[0], tok[1]
    raise FrontError(f"bad event token {tok!r}")


def parse_front(text) -> FrontCode:
    """Parse a front from grammar text or its JSON-style equivalent.

    Text form: ``L1,L3,X2,X2,X2,R2,R1 / surgery {0:+1} / orientations {0:+}``.
    A dict (or JSON object string) with keys ``events``, ``orientations``,
    ``surgery`` is accepted as the structured equivalent.
    """
    if isinstance(text, dict):
        data = text
    else:
        text = text.strip()
        if text.startswith("{"):
            try:
                data = json.loads(text, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as exc:
                raise FrontError(f"bad JSON front: {exc}")
        else:
            data = None
    if data is not None:
        events = data.get("events")
        if not isinstance(events, (list, tuple)) or not events:
            raise FrontError("events must be a non-empty list")
        for key in ("orientations", "surgery"):
            if not isinstance(data.get(key, {}), dict):
                raise FrontError(f"{key} must be an object")
        return FrontCode(events, data.get("orientations"),
                         data.get("surgery"))

    parts = [p.strip() for p in text.split("/")]
    if not parts or not parts[0]:
        raise FrontError("empty event list")
    events = [_event(tok) for tok in parts[0].split(",")]
    orientations = None
    surgery = None
    for part in parts[1:]:
        if not part:
            continue
        if part.startswith("surgery"):
            surgery = _parse_assoc(part[len("surgery"):], "surgery")
        elif part.startswith("orientations"):
            orientations = _parse_assoc(part[len("orientations"):], "orientations")
        else:
            raise FrontError(f"unknown section {part!r}")
    return FrontCode(events, orientations, surgery)


# ---------------------------------------------------------------------------
# geometric realization


class _Affine(object):
    """Exact affine form ``const + sum(coef[k] * theta[k])`` in the template
    sizes theta, with the arithmetic the layout needs: sums, differences
    and rational multiples."""

    __slots__ = ("const", "coef")

    def __init__(self, const, coef=None):
        self.const = const
        self.coef = coef or {}          # variable index -> nonzero rational

    def __add__(self, other):
        if not isinstance(other, _Affine):
            return _Affine(self.const + other, self.coef)
        coef = dict(self.coef)
        for k, v in other.coef.items():
            v += coef.get(k, 0)
            if v:
                coef[k] = v
            else:
                del coef[k]
        return _Affine(self.const + other.const, coef)

    __radd__ = __add__

    def __mul__(self, c):
        if not c:
            return _Affine(self.const * c)
        return _Affine(self.const * c,
                       {k: v * c for k, v in self.coef.items()})

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (1 / Fraction(c))

    def __sub__(self, other):
        return self + other * -1

    def __eq__(self, other):
        return (isinstance(other, _Affine) and self.const == other.const
                and self.coef == other.coef)

    def at(self, theta) -> Fraction:
        return self.const + sum(v * theta[k] for k, v in self.coef.items()
                                if theta[k])


class _Wire(object):
    def __init__(self, wid):
        self.wid = wid
        self.points: List[Point] = []
        self.level = None

    def extend_to(self, x):
        self.points.append((x, self.level))

    def append(self, x, y):
        self.level = Fraction(y)
        self.points.append((x, self.level))


def _build_wires(front: FrontCode, stretches, spacings):
    """Lay out all wires; returns (wires, slab x-range per event).

    ``stretches`` widens the loop of each right-cusp event and ``spacings``
    adds horizontal room after each event.  Every x-coordinate is an
    ``_Affine`` form in them: constant for rational sizes, symbolic for
    symbolic ones.  Strand levels never depend on the sizes, so every
    closure integral and crossing z-gap is affine in them.
    """
    wires: Dict[int, _Wire] = {}
    stack: List[_Wire] = []
    slabs = []
    x = _Affine(Fraction(0))
    next_wid = 0
    for idx, (kind, pos) in enumerate(front.events):
        sx = x
        for w in stack:
            w.extend_to(sx)
        if kind == "L":
            width = Fraction(16)
            for p in range(pos - 1, len(stack)):
                w = stack[p]
                w.append(sx + 8, w.level - 8)
                w.extend_to(sx + 16)
            lu = -4 * pos
            u = _Wire(next_wid)
            dn = _Wire(next_wid + 1)
            next_wid += 2
            cusp = (sx + 10, Fraction(lu - 2))
            u.points.append(cusp)
            u.append(sx + 12, lu)
            u.extend_to(sx + 16)
            dn.points.append(cusp)
            dn.append(sx + 12, lu - 4)
            dn.extend_to(sx + 16)
            wires[u.wid] = u
            wires[dn.wid] = dn
            stack[pos - 1:pos - 1] = [u, dn]
        elif kind == "X":
            width = Fraction(8)
            w1, w2 = stack[pos - 1], stack[pos]
            a = w1.level
            w1.append(sx + 2, a)
            w1.append(sx + 6, a - 4)
            w1.extend_to(sx + 8)
            w2.append(sx + 2, a - 4)
            w2.append(sx + 6, a)
            w2.extend_to(sx + 8)
            stack[pos - 1], stack[pos] = w2, w1
        else:  # R
            wst = stretches[idx]
            width = 20 + wst
            w1, w2 = stack[pos - 1], stack[pos]
            a = w1.level
            w1.append(sx + 6, a)
            w1.append(sx + 9, a - 3)
            w1.append(sx + 9 + wst, a - 3)
            w1.append(sx + 10 + wst, a - 2)
            w1.append(sx + 10 + wst, a)
            w1.append(sx + 10, a)
            w1.append(sx + 6, a - 4)
            w1.append(sx, a - 4)
            for p in range(pos + 1, len(stack)):
                w = stack[p]
                w.extend_to(sx + 12 + wst)
                w.append(sx + 20 + wst, w.level + 8)
            del stack[pos - 1:pos + 1]
        slabs.append((sx, sx + width))
        x = sx + width + 4 + spacings[idx]
    return wires, slabs


def _assemble_components(front: FrontCode, wires) -> List[List[Point]]:
    """Closed point cycles of the components, joined from their wires."""
    cycles: List[List[Point]] = []
    for cycle in front.wire_cycles:
        pts: List[Point] = []
        for k, wid in enumerate(cycle):
            chunk = wires[wid].points[::-1] if k % 2 else wires[wid].points
            pts.extend(chunk[1:] if pts and pts[-1] == chunk[0] else chunk)
        if pts[0] == pts[-1]:
            pts.pop()
        cycles.append(pts)
    return cycles


def _template(front: FrontCode):
    """The template laid out once with symbolic sizes: (cycles, slabs).

    The sizes theta are one loop stretch per right cusp (``2 + theta``),
    then one spacing per event.  Each cycle is a component's merged,
    oriented polyline with x-coordinates as ``_Affine`` forms in theta.
    The template has the same combinatorics at every theta >= 0, so which
    vertices the collinear merge keeps is decided at theta = 0.
    """
    r_events = [i for i, (k, _) in enumerate(front.events) if k == "R"]
    stretches = {ev: 2 + _Affine(Fraction(0), {i: 1})
                 for i, ev in enumerate(r_events)}
    spacings = {ev: _Affine(Fraction(0), {len(r_events) + ev: 1})
                for ev in range(len(front.events))}
    wires, slabs = _build_wires(front, stretches, spacings)
    cycles = []
    for i, cyc in enumerate(_assemble_components(front, wires)):
        # merge_collinear reads only the first two coordinates, so the
        # form rides along as a third
        merged = merge_collinear([(x.const, y, x) for x, y in cyc])
        cyc = [(x, y) for _, y, x in merged]
        # default traversal: the lower branch of the component's first
        # left cusp runs eastward (the assembly walk is the opposite)
        if front.orientations.get(i, 1) == 1:
            cyc = cyc[::-1]
        cycles.append(cyc)
    return cycles, slabs


def _evaluate(cycles, slabs, theta):
    """The template's cycles and slabs at the concrete sizes theta."""
    return ([[(x.at(theta), y) for x, y in cyc] for cyc in cycles],
            [(a.at(theta), b.at(theta)) for a, b in slabs])


def _segments(cycle) -> List[Segment]:
    return [Segment(cycle[i], cycle[(i + 1) % len(cycle)])
            for i in range(len(cycle))]


def _heights(cycle):
    """Height z = integral of y dx at each vertex of a closed polyline from
    z = 0 at vertex 0, then once more after the closing segment."""
    zs = [Fraction(0)]
    for i, a in enumerate(cycle):
        b = cycle[(i + 1) % len(cycle)]
        zs.append(zs[-1] + (a[1] + b[1]) * (b[0] - a[0]) / 2)
    return zs


def _height_at(z_start, s: Segment, p: Point):
    """Height at p on segment s, given the height z_start at s.a."""
    return z_start + (s.a[1] + p[1]) * (p[0] - s.a[0]) / 2


def _integer_boxes(segments: List[List[Segment]]):
    """(scale, boxes): the segments' coordinates as integers over their
    least common denominator, and one box (x_lo, x_hi, y_lo, y_hi, comp,
    index, ax, ay, dx, dy) per segment a -> a + d, sorted by x_lo."""
    scale = lcm(*{v.denominator for segs in segments for s in segs
                  for v in s.a + s.b})
    boxes = []
    for ci, segs in enumerate(segments):
        for si, s in enumerate(segs):
            ax, ay, bx, by = (v.numerator * (scale // v.denominator)
                              for v in s.a + s.b)
            boxes.append((min(ax, bx), max(ax, bx), min(ay, by), max(ay, by),
                          ci, si, ax, ay, bx - ax, by - ay))
    boxes.sort(key=lambda box: box[0])
    return scale, boxes


def _double_points(segments: List[List[Segment]]):
    """Double points of closed polylines, one segment list per component.

    An x-sorted interval sweep tests each segment only against the segments
    whose x-range overlaps its own, about segments x strands pairs.
    Returns [(point, over, under)]: the (component, segment index) of the
    slope -1 branch and of the slope +1 branch.  Raises DiagramError on a
    non-transverse contact, a triple point or a crossing out of good
    position.
    """
    scale, boxes = _integer_boxes(segments)
    hits: Dict[Point, List[Tuple[int, int]]] = {}
    active = []
    for box in boxes:
        x_lo, _, y_lo, y_hi, ci, si, ax, ay, dx, dy = box
        n = len(segments[ci])
        active = [b for b in active if b[1] >= x_lo]
        for _, _, by_lo, by_hi, cj, sj, tx, ty, ex, ey in active:
            if ci == cj and (si - sj) % n in (1, n - 1):
                continue
            if by_hi < y_lo or y_hi < by_lo:
                continue
            # as segment_intersection(t, s), which takes the parallel pairs
            den = ex * dy - ey * dx
            if den == 0:
                segment_intersection(segments[cj][sj], segments[ci][si])
                continue
            tn = (ax - tx) * dy - (ay - ty) * dx
            un = (ax - tx) * ey - (ay - ty) * ex
            if den < 0:
                den, tn, un = -den, -tn, -un
            if not (0 <= tn <= den and 0 <= un <= den):
                continue
            p = (Fraction(tx * den + tn * ex, scale * den),
                 Fraction(ty * den + tn * ey, scale * den))
            for c, k in ((cj, tn), (ci, un)):
                if not 0 < k < den:
                    raise DiagramError(
                        f"non-transverse contact at {p} on component {c}")
            hits.setdefault(p, []).extend([(cj, sj), (ci, si)])
        active.append(box)
    found = []
    for p, branches in hits.items():
        if len(branches) != 2:
            raise DiagramError(f"triple point at {p}")
        (c1, s1), (c2, s2) = branches
        o1 = segments[c1][s1].octant
        o2 = segments[c2][s2].octant
        up = {1, 5}      # slope +1 travel octants
        down = {3, 7}    # slope -1
        if o1 in down and o2 in up:
            found.append((p, (c1, s1), (c2, s2)))
        elif o2 in down and o1 in up:
            found.append((p, (c2, s2), (c1, s1)))
        else:
            raise DiagramError(
                f"crossing at {p} violates good position "
                f"(octants {o1}, {o2})")
    return found


def _crossings_by_event(front: FrontCode, segments, slabs):
    """{event index: (point, over, under)}: exactly one double point inside
    the slab of each crossing and right-cusp event, and no other."""
    found = {}
    for p, over, under in _double_points(segments):
        ev = next((idx for idx, (sx, ex) in enumerate(slabs)
                   if sx < p[0] < ex), None)
        if ev is None:
            raise DiagramError(f"crossing at {p} outside every event slab")
        if ev in found:
            raise DiagramError(f"two crossings inside event slab {ev}")
        found[ev] = (p, over, under)
    expected = [i for i, (k, _) in enumerate(front.events) if k in ("X", "R")]
    if sorted(found) != expected:
        raise DiagramError(
            f"chord/event mismatch: {sorted(found)} vs {expected}")
    return found


class ChordRecord(object):
    """A double point of the resolved diagram (one Reeb chord)."""

    def __init__(self, cid, point, sign, tail_comp, tip_comp, action,
                 tail_loc, tip_loc, over_dir, under_dir, event_index):
        self.id = cid
        self.point = point
        self.sign = sign
        self.tail_comp = tail_comp      # l^-: component of the low strand
        self.tip_comp = tip_comp        # l^+: component of the high strand
        self.action = action
        self.tail_loc = tail_loc        # (segment index, parameter) on tail_comp
        self.tip_loc = tip_loc
        self.over_dir = over_dir        # travel octant of the high strand
        self.under_dir = under_dir
        self.event_index = event_index

    def __repr__(self):
        return f"r{self.id}"


class Face(object):
    """Bounded complementary region with its corner data."""

    def __init__(self, fid, corners, area, boundary, basepoint=None):
        self.id = fid
        self.corners = corners          # [(chord id, quadrant, sign)] ccw
        self.area = area
        self.boundary = boundary        # ccw point cycle
        self.basepoint = basepoint

    def corner_chords(self):
        return [c for c, _, _ in self.corners]

    def all_positive(self):
        return all(s == 1 for _, _, s in self.corners)

    def __repr__(self):
        return f"Face({self.id}, corners={self.corners})"


QUADRANT_NAMES = {(1, 0): "E", (0, 1): "N", (-1, 0): "W", (0, -1): "S"}
QUADRANT_VECTORS = {name: vec for vec, name in QUADRANT_NAMES.items()}


def _unit(v):
    """Componentwise sign of a vector, e.g. (1, -1) for (3, -3)."""
    return ((v[0] > 0) - (v[0] < 0), (v[1] > 0) - (v[1] < 0))


class ResolvedDiagram(object):
    """Exact polyline realization of a front with all derived chord data.

    A passage is one chord end on a component: ``passages[ci]`` lists those
    of component ci as (parameter, chord id, 'tail'|'tip', point) in
    parameter order, and ``passage_arcs[ci][k]`` walks from passage k to the
    next, cyclically, turning by ``passage_turns[ci][k]`` pi/4 units.  Faces
    are traced on them, capping paths are runs of them, and push-outs offset
    them."""

    def __init__(self, front: FrontCode, components: List[List[Point]],
                 slabs, z_shifts: Optional[List[Fraction]] = None):
        self.front = front
        self.surgery = dict(front.surgery)
        self.components = components
        self._slabs = slabs
        # the height function of each component is defined up to a constant;
        # these are the constants the template solver chose
        self.z_shifts = z_shifts or [Fraction(0)] * len(components)
        # tables that later layers derive from this diagram, built on first
        # use; keys are tuples led by the table's name
        self.memo: Dict[tuple, object] = {}
        self._analyze()

    # -- construction ------------------------------------------------------

    def _analyze(self):
        self._component_segments()
        self._find_chords()
        self._classical()
        self._build_faces()
        self._pick_basepoints()

    def _component_segments(self):
        self.segments: List[List[Segment]] = []
        self.z_at_vertex: List[List[Fraction]] = []
        self.cheb_len: List[List[Fraction]] = []   # cumulative per vertex
        for i, cyc in enumerate(self.components):
            segs = _segments(cyc)
            self.segments.append(segs)
            zs = _heights(cyc)
            if zs[-1] != 0:
                raise DiagramError(
                    f"component {i} closure defect: integral y dx = {zs[-1]}")
            cl = [Fraction(0)]
            for s in segs:
                cl.append(cl[-1] + max(abs(s.b[0] - s.a[0]),
                                       abs(s.b[1] - s.a[1])))
            self.z_at_vertex.append(zs[:-1])
            self.cheb_len.append(cl)

    def _z_at(self, comp, seg_idx, point) -> Fraction:
        return self.z_shifts[comp] + _height_at(
            self.z_at_vertex[comp][seg_idx], self.segments[comp][seg_idx],
            point)

    def _param_at(self, comp, seg_idx, point) -> Fraction:
        s = self.segments[comp][seg_idx]
        t = s.param_of(point)
        step = max(abs(s.b[0] - s.a[0]), abs(s.b[1] - s.a[1]))
        return self.cheb_len[comp][seg_idx] + t * step

    def _find_chords(self):
        chords = []
        found = _crossings_by_event(self.front, self.segments, self._slabs)
        for ev, (p, over, under) in sorted(found.items()):
            action = self._z_at(*over, p) - self._z_at(*under, p)
            if action <= 0:
                raise DiagramError(
                    f"over/under assignment inconsistent with z at {p} "
                    f"(action {action})")
            over_dir = self.segments[over[0]][over[1]].octant
            under_dir = self.segments[under[0]][under[1]].octant
            sign = 1 if cross(OCTANT_VECTORS[over_dir],
                              OCTANT_VECTORS[under_dir]) > 0 else -1
            chords.append(ChordRecord(
                len(chords) + 1, p, sign,
                tail_comp=under[0], tip_comp=over[0], action=action,
                tail_loc=(under[1], self._param_at(under[0], under[1], p)),
                tip_loc=(over[1], self._param_at(over[0], over[1], p)),
                over_dir=over_dir, under_dir=under_dir, event_index=ev))
        self.chords = chords

    def _classical(self):
        n = len(self.components)
        self.tb = {i: 0 for i in range(n)}
        self.linking = [[0] * n for _ in range(n)]
        for c in self.chords:
            if c.tail_comp == c.tip_comp:
                self.tb[c.tail_comp] += c.sign
            else:
                self.linking[c.tail_comp][c.tip_comp] += c.sign
                self.linking[c.tip_comp][c.tail_comp] += c.sign
        for i in range(n):
            for j in range(n):
                if i != j:
                    if self.linking[i][j] % 2 != 0:
                        raise DiagramError("odd crossing count between components")
                    self.linking[i][j] //= 2
        self.rot = {}
        for i, cyc in enumerate(self.components):
            self.rot[i] = int(turning_number(cyc))

    # -- faces ---------------------------------------------------------------

    def _build_faces(self):
        # split each component cycle at its chord passages into arcs
        self.passages = [[] for _ in self.components]
        for c in self.chords:
            for role, ci, (_, par) in (("tail", c.tail_comp, c.tail_loc),
                                       ("tip", c.tip_comp, c.tip_loc)):
                self.passages[ci].append((par, c.id, role, c.point))
        self.passage_arcs: List[List[List[Point]]] = []
        self.passage_turns: List[List[int]] = []
        for ci, plist in enumerate(self.passages):
            plist.sort(key=lambda item: item[0])
            total = self.cheb_len[ci][-1]
            self.passage_arcs.append([])
            self.passage_turns.append([])
            for k, (par, _, _, p) in enumerate(plist):
                next_par, _, _, q = plist[(k + 1) % len(plist)]
                pts, turns = self._walk(
                    ci, par, (next_par - par) % total or total, p, q)
                self.passage_arcs[ci].append(pts)
                self.passage_turns[ci].append(turns)
        self._trace_faces([a for arcs in self.passage_arcs for a in arcs])

    def _seg_of_param(self, comp, par):
        cl = self.cheb_len[comp]
        return bisect_right(cl, par % cl[-1]) - 1

    def _trace_faces(self, arcs):
        # arcs are point lists; half edges: (arc index, +1/-1)
        departs: Dict[Point, List[Tuple[int, Tuple[int, int]]]] = {}

        half_edges = []
        for ai, pts in enumerate(arcs):
            half_edges.append((ai, 1))
            half_edges.append((ai, -1))
            d_fwd = sub(pts[1], pts[0])
            d_bwd = sub(pts[-2], pts[-1])
            departs.setdefault(pts[0], []).append((len(half_edges) - 2, d_fwd))
            departs.setdefault(pts[-1], []).append((len(half_edges) - 1, d_bwd))

        def he_points(he):
            ai, d = half_edges[he]
            pts = arcs[ai]
            return pts if d == 1 else pts[::-1]

        next_he = {}
        for he in range(len(half_edges)):
            pts = he_points(he)
            node = pts[-1]
            back = OCTANT_VECTORS.index(_unit(sub(pts[-2], pts[-1])))
            best = None
            for cand, vec in departs[node]:
                o = OCTANT_VECTORS.index(_unit(vec))
                delta = (back - o) % 8     # clockwise distance from back
                if delta == 0:
                    continue
                if best is None or delta < best[0]:
                    best = (delta, cand)
            if best is None:
                raise DiagramError(f"dead end in arrangement at {node}")
            next_he[he] = best[1]

        visited = set()
        faces = []
        outer_count = 0
        self.outer_area = Fraction(0)
        for he0 in range(len(half_edges)):
            if he0 in visited:
                continue
            cycle = []
            he = he0
            while he not in visited:
                visited.add(he)
                cycle.append(he)
                he = next_he[he]
            if he != he0:
                raise DiagramError("face tracing did not close up")
            boundary: List[Point] = []
            corners = []
            for k, h in enumerate(cycle):
                pts = he_points(h)
                boundary.extend(pts[:-1])
                nxt = he_points(cycle[(k + 1) % len(cycle)])
                node = pts[-1]
                cid = self._chord_at(node)
                d_in = sub(pts[-1], pts[-2])
                d_out = sub(nxt[1], nxt[0])
                corners.append((cid, node, d_in, d_out))
            area = polygon_signed_area(boundary)
            if area < 0:
                outer_count += 1
                self.outer_area -= area
                continue
            if area == 0:
                raise DiagramError("degenerate face of zero area")
            corner_data = []
            for cid, node, d_in, d_out in corners:
                sign = self._corner_sign(d_in, d_out)
                quad = self._quadrant(d_in, d_out)
                corner_data.append((cid, quad, sign))
            faces.append(Face(None, corner_data, area, boundary))
        faces.sort(key=lambda f: (min(p[0] for p in f.boundary),
                                  min(p[1] for p in f.boundary)))
        for i, f in enumerate(faces):
            f.id = i + 1
        self.faces_list = faces
        self._outer_count = outer_count

    def _chord_at(self, node: Point) -> int:
        for c in self.chords:
            if c.point == node:
                return c.id
        raise DiagramError(f"no chord at node {node}")

    def _corner_sign(self, d_in, d_out):
        # the high strand runs along the slope -1 line
        in_over = _unit(d_in) in ((-1, 1), (1, -1))
        out_over = _unit(d_out) in ((-1, 1), (1, -1))
        if in_over == out_over:
            raise DiagramError("face corner does not switch strands")
        # positive when ccw traversal jumps from the low strand to the high one
        return 1 if (not in_over and out_over) else -1

    def _quadrant(self, d_in, d_out):
        # wedge between the two boundary rays: reverse of incoming, outgoing
        r1 = _unit((-d_in[0], -d_in[1]))
        r2 = _unit(d_out)
        name = QUADRANT_NAMES.get(_unit((r1[0] + r2[0], r1[1] + r2[1])))
        if name is None:
            raise DiagramError("face corner rays do not span a quadrant")
        return name

    def _pick_basepoints(self):
        # boxes by left x: a test reads only those that start left of its reach
        scale, boxes = _integer_boxes(self.segments)
        index = (scale, [box[0] for box in boxes], boxes)
        for f in self.faces_list:
            f.basepoint = self._basepoint_for(f, index)

    def _basepoint_for(self, face, index):
        # every corner's wedge opens along the axis its quadrant names; step
        # into it from the double point, by a shorter offset each round
        offset = Fraction(1)
        while offset >= Fraction(1, 256):
            for cid, quad, _sign in face.corners:
                q = self.chords[cid - 1].point
                dx, dy = QUADRANT_VECTORS[quad]
                p = (q[0] + offset * dx, q[1] + offset * dy)
                if self._good_basepoint(p, face, index, offset / 2):
                    return p
            offset /= 2
        raise DiagramError(f"no basepoint found for face {face.id}")

    def _good_basepoint(self, p, face, index, clear):
        # a crossing lies on a segment: clearing the segments clears it too
        try:
            if winding_number(face.boundary, p) != 1:
                return False
        except ValueError:
            return False
        scale, lefts, boxes = index
        # integer box tests against the ceilings of x - clear, floors of x + clear
        lo_x, lo_y = (-((clear - v) * scale // 1) for v in p)
        hi_x, hi_y = ((v + clear) * scale // 1 for v in p)
        return not any(
            box[1] >= lo_x and box[2] <= hi_y and box[3] >= lo_y and
            point_segment_distance_sq(p, self.segments[box[4]][box[5]])
            <= clear * clear for box in boxes[:bisect_right(lefts, hi_x)])

    # -- public helpers ------------------------------------------------------

    @property
    def n_chords(self):
        return len(self.chords)

    def chord(self, cid: int) -> ChordRecord:
        return self.chords[cid - 1]

    def composable(self, j1: int, j2: int) -> bool:
        return self.chord(j1).tip_comp == self.chord(j2).tail_comp

    def capping_path(self, j1: int, j2: int, side: str = "eta"):
        """Capping arc from the tip of r_j1 to the tail of r_j2.

        side 'eta' follows the component orientation, 'etabar' opposes it.
        Returns a CappingPath with exact turning data and the chord endpoints
        met along the interior, read off the passage arcs it runs over.
        Results are memoized per diagram.
        """
        if side not in ("eta", "etabar"):
            raise ValueError(f"bad capping side {side!r}")
        key = ("capping", j1, j2, side)
        if key in self.memo:
            return self.memo[key]
        c1, c2 = self.chord(j1), self.chord(j2)
        comp = c1.tip_comp
        if c2.tail_comp != comp:
            raise ValueError(f"chords r{j1}, r{j2} are not composable")
        run = self.passage_run(j1, j2, side)
        # passage arc k runs forward from passage k to k + 1; walking
        # against the component turns each corner the other way
        if side == "eta":
            turns = sum(self.passage_turns[comp][k] for k in run[:-1])
            length = c2.tail_loc[1] - c1.tip_loc[1]
        else:
            turns = -sum(self.passage_turns[comp][k] for k in run[1:])
            length = c1.tip_loc[1] - c2.tail_loc[1]
        total = self.cheb_len[comp][-1]
        interior = [self.passages[comp][k][1:3] for k in run[1:-1]]
        self.memo[key] = cap = CappingPath(j1, j2, side, comp, turns,
                                           length % total / total, interior)
        return cap

    def _walk(self, comp, start, length, a, b):
        """Sub-polyline from point a, at parameter start, forward through
        Chebyshev length > 0 to point b, with its total turning in pi/4
        units."""
        cl = self.cheb_len[comp]
        total = cl[-1]
        segs = self.segments[comp]
        par = start % total
        # the end parameter, shifted by total at each wrap, so that each
        # vertex costs one comparison with cl and no arithmetic
        stop = par + length
        pts = [a]
        turns = 0
        si = self._seg_of_param(comp, par)
        prev_oct = segs[si].octant
        while cl[si + 1] < stop:
            si += 1
            if si == len(segs):
                si, stop = 0, stop - total
            t = turn_octants(prev_oct, segs[si].octant)
            if abs(t) == 4:
                raise DiagramError("capping path reverses direction")
            turns += t
            prev_oct = segs[si].octant
            if segs[si].a != pts[-1]:
                pts.append(segs[si].a)
        if b != pts[-1]:
            pts.append(b)
        return pts, turns

    def passage_run(self, j1: int, j2: int, side: str) -> List[int]:
        """Indices of the passages from r_j1's tip to r_j2's tail, both
        included, in the travel order of capping side ``side``."""
        c1, c2 = self.chord(j1), self.chord(j2)
        plist = self.passages[c1.tip_comp]
        k1, k2 = (bisect_left(plist, (par,))
                  for par in (c1.tip_loc[1], c2.tail_loc[1]))
        step = 1 if side == "eta" else -1
        count = step * (k2 - k1) % len(plist)
        return [(k1 + step * i) % len(plist) for i in range(count + 1)]


class CappingPath(object):
    """Oriented arc between chord endpoints with exact rotation data."""

    def __init__(self, j1, j2, side, comp, turn_eighths, norm_length,
                 interior):
        self.j1 = j1
        self.j2 = j2
        self.side = side
        self.component = comp
        self.turn_eighths = turn_eighths     # total turning in pi/4 units
        self.norm_length = norm_length       # in (0, 1], component scaled to 1
        self.interior = interior             # [(chord id, 'tail'|'tip')]

    @property
    def theta_half_pi(self) -> int:
        """Rotation angle in units of pi/2 (odd by good position)."""
        if self.turn_eighths % 2 != 0:
            raise DiagramError("capping angle not a multiple of pi/2")
        return self.turn_eighths // 2


def _sizing_rows(front: FrontCode, cycles, slabs, action_margin):
    """The template LP as (number of variables, eq rows, ge rows).

    The variables are the template sizes theta, then a height shift
    s+ - s- per component after the first.  Every closure integral must
    vanish and every crossing must keep a z-gap (high strand minus low
    strand) of at least ``action_margin``.  Both are affine in theta and
    are read off the symbolic template in one pass; the double points are
    found on its theta = 0 instance.
    """
    n_comp = front.n_components
    n_geom = len(front.events) + sum(1 for k, _ in front.events if k == "R")
    n_shift = 2 * (n_comp - 1)
    base, base_slabs = _evaluate(cycles, slabs, [Fraction(0)] * n_geom)
    segments = [_segments(cyc) for cyc in base]
    heights = [_heights(cyc) for cyc in cycles]

    def row(form):
        return [form.coef.get(k, Fraction(0)) for k in range(n_geom)]

    eq = [(row(zs[-1]) + [Fraction(0)] * n_shift, -zs[-1].const)
          for zs in heights]
    ge = []
    found = _crossings_by_event(front, segments, base_slabs)
    for _ev, (p, over, under) in sorted(found.items()):
        gap = (_height_at(heights[over[0]][over[1]],
                          segments[over[0]][over[1]], p)
               - _height_at(heights[under[0]][under[1]],
                            segments[under[0]][under[1]], p))
        shift = [Fraction(0)] * n_shift
        for comp, sgn in ((over[0], 1), (under[0], -1)):
            if comp > 0:
                shift[2 * (comp - 1)] += sgn
                shift[2 * (comp - 1) + 1] -= sgn
        ge.append((row(gap) + shift, action_margin - gap.const))
    return n_geom + n_shift, eq, ge


def resolve(front: FrontCode, action_margin: Fraction = Fraction(32)
            ) -> ResolvedDiagram:
    """Realize a front as an exact Lagrangian-projection polyline diagram.

    Template sizes (right-cusp loop widths, inter-event spacings, and the
    per-component height constants) are the unknowns of a small exact linear
    program: the closed integral of y dx must vanish on every component
    while every crossing keeps a z-gap of at least ``action_margin`` between
    its high and low strands.  The template is laid out once with symbolic
    sizes, the LP rows are read off it, and the diagram is that layout at
    the LP's solution.  A ValueError of a geometry helper on the way is an
    internal fault and is raised as DiagramError.
    """
    from .lp import solve_lp

    try:
        cycles, slabs = _template(front)
        n_var, eq, ge = _sizing_rows(front, cycles, slabs, action_margin)
        theta = solve_lp(n_var, eq, ge, minimize=[Fraction(1)] * n_var)
        if theta is None:
            raise DiagramError(
                "no template sizing realizes this front in good position")
        comps, slabs = _evaluate(cycles, slabs, theta)
        n_geom = n_var - 2 * (front.n_components - 1)
        shifts = [Fraction(0)] + [theta[k] - theta[k + 1]
                                  for k in range(n_geom, n_var, 2)]
        return ResolvedDiagram(front, comps, slabs, shifts)
    except FrontError:
        raise
    except ValueError as exc:
        raise DiagramError(f"realization fault: {exc}") from exc
