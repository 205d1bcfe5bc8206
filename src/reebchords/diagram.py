"""Front diagrams and their exact planar resolutions.

A front is an event sequence (left cusps, right cusps, crossings at 1-based
strand positions counted from the top).  ``resolve`` realizes it as oriented
closed polylines on the rational grid with every segment at a multiple of 45
degrees, one double point per crossing and per right cusp, and the height
function z recovered exactly as the line integral of y dx.  All downstream
data (crossing signs, actions, faces, areas, capping arcs) is exact.

Template conventions:

* strand at stack position p runs at level y = -4p between events;
* a crossing realizes the descending strand with slope -1 (the strand that
  ends up on top) and the ascending strand with slope +1;
* a right cusp realizes the felled pair as a loop with a single double point
  whose horizontal stretch is a free rational parameter, solved per component
  so that the closed line integral of y dx vanishes identically.

The template is laid out once in integers, every x-coordinate an affine
form in the loop stretches and event spacings; the sizing LP's rows are
read off it (twice each integral, halved once) and the diagram is that
layout at the LP's solution.  ``ResolvedDiagram`` scales the diagram by one
integer, the least common denominator of its coordinates, and runs the
double-point sweep, heights, lengths, face areas and basepoint tests on that
copy; its public fields stay ``Fraction``s.  Every double point crosses two
diagonals, so the faces are the cycles of passage arcs that turn left at
every chord; corner signs, quadrants and rotation numbers are read off the
passage records.  A face's basepoint is a small step into a corner wedge.
"""

import json
import re
from bisect import bisect_right
from fractions import Fraction
from math import lcm
from typing import Dict, List, NamedTuple, Optional, Tuple

from .geometry import (
    OCTANT_VECTORS,
    Point,
    Segment,
    cross,
    merge_collinear,
    segment_intersection,
    turn_octants,
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
    ``surgery`` and no others is accepted as the structured equivalent; a
    repeated key or text section is an error.
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
        for key in data:
            if key not in ("events", "orientations", "surgery"):
                raise FrontError(f"unknown front key {key!r}")
        for key in ("orientations", "surgery"):
            if not isinstance(data.get(key, {}), dict):
                raise FrontError(f"{key} must be an object")
        return FrontCode(events, data.get("orientations"),
                         data.get("surgery"))

    parts = [p.strip() for p in text.split("/")]
    if not parts or not parts[0]:
        raise FrontError("empty event list")
    events = [_event(tok) for tok in parts[0].split(",")]
    sections: Dict[str, Dict[int, str]] = {}
    for part in filter(None, parts[1:]):
        name = next((name for name in ("surgery", "orientations")
                     if part.startswith(name)), None)
        if name is None:
            raise FrontError(f"unknown section {part!r}")
        if name in sections:
            raise FrontError(f"{name} section given twice")
        sections[name] = _parse_assoc(part[len(name):], name)
    return FrontCode(events, sections.get("orientations"),
                     sections.get("surgery"))


# ---------------------------------------------------------------------------
# geometric realization


class _Affine(object):
    """Exact affine form ``const + sum(coef[k] * theta[k])`` in the template
    sizes theta, with the arithmetic the layout needs: sums, differences
    and multiples, all in integers on the template's integer forms."""

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

    def __sub__(self, other):
        return self + other * -1

    def __eq__(self, other):
        return (isinstance(other, _Affine) and self.const == other.const
                and self.coef == other.coef)


class _Wire(object):
    def __init__(self, wid):
        self.wid = wid
        self.points: List[Point] = []
        self.level = None

    def extend_to(self, x):
        self.points.append((x, self.level))

    def append(self, x, y):
        self.level = y
        self.points.append((x, y))


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
    x = _Affine(0)
    next_wid = 0
    for idx, (kind, pos) in enumerate(front.events):
        sx = x
        for w in stack:
            w.extend_to(sx)
        if kind == "L":
            width = 16
            for p in range(pos - 1, len(stack)):
                w = stack[p]
                w.append(sx + 8, w.level - 8)
                w.extend_to(sx + 16)
            lu = -4 * pos
            u = _Wire(next_wid)
            dn = _Wire(next_wid + 1)
            next_wid += 2
            cusp = (sx + 10, lu - 2)
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
            width = 8
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
    vertices the collinear merge keeps is decided at theta = 0, in integers.
    """
    r_events = [i for i, (k, _) in enumerate(front.events) if k == "R"]
    stretches = {ev: 2 + _Affine(0, {i: 1}) for i, ev in enumerate(r_events)}
    spacings = {ev: _Affine(0, {len(r_events) + ev: 1})
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
    """The template's cycles and slabs at the concrete sizes theta: an x is
    (const * den + sum(coef * n)) / den, with n = theta * den in integers."""
    den = lcm(*(t.denominator for t in theta))
    nums = [t.numerator * (den // t.denominator) for t in theta]

    def at(form):
        return Fraction(form.const * den + sum(c * nums[k] for k, c in
                                               form.coef.items()), den)

    return ([[(at(x), Fraction(y)) for x, y in cyc] for cyc in cycles],
            [(at(a), at(b)) for a, b in slabs])


def _on_grid(points, unit):
    """Points whose denominators divide ``unit``, times unit, in integers."""
    return [(x.numerator * (unit // x.denominator),
             y.numerator * (unit // y.denominator)) for x, y in points]


def _segments(cycle, ints) -> List[Segment]:
    """Segments of a closed polyline, with the octants of its integer copy."""
    segs = [Segment(a, b) for a, b in zip(ints, ints[1:] + ints[:1])]
    for s, a, b in zip(segs, cycle, cycle[1:] + cycle[:1]):
        s.a, s.b = a, b
    return segs


def _double_heights(cycle):
    """Twice the height z = integral of y dx at each vertex of a closed
    polyline from 0 at vertex 0, then once more after the closing segment:
    integers (or integer forms) on integer coordinates (or forms)."""
    zs = [0]
    for i, a in enumerate(cycle):
        b = cycle[(i + 1) % len(cycle)]
        zs.append(zs[-1] + (a[1] + b[1]) * (b[0] - a[0]))
    return zs


def _integer_boxes(segments: List[List[Segment]]):
    """(scale, boxes): the segments' coordinates as integers over their
    least common denominator, and one box (x_lo, x_hi, y_lo, y_hi, comp,
    index, ax, ay, dx, dy) per segment a -> a + d, sorted by x_lo."""
    scale = lcm(*{v.denominator for segs in segments for s in segs
                  for v in s.a + s.b})
    boxes = [(min(ax, bx), max(ax, bx), min(ay, by), max(ay, by),
              ci, si, ax, ay, bx - ax, by - ay)
             for ci, segs in enumerate(segments) for si, s in enumerate(segs)
             for (ax, ay), (bx, by) in [_on_grid((s.a, s.b), scale)]]
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
        o1, o2 = (segments[c][s].octant for c, s in branches)
        # travel octants 1 and 5 have slope +1, octants 3 and 7 slope -1
        if {o1 % 4, o2 % 4} != {1, 3}:
            raise DiagramError(
                f"crossing at {p} violates good position "
                f"(octants {o1}, {o2})")
        found.append((p,) + tuple(branches if o1 % 4 == 3 else branches[::-1]))
    return found


def _crossings_by_event(front: FrontCode, segments, slabs):
    """{event index: (point, over, under)}: exactly one double point inside
    the slab of each crossing and right-cusp event, and no other."""
    found = {}
    # the slabs are disjoint and in x order
    starts = [sx for sx, _ in slabs]
    for p, over, under in _double_points(segments):
        ev = bisect_right(starts, p[0]) - 1
        if ev < 0 or not slabs[ev][0] < p[0] < slabs[ev][1]:
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
                 tail_loc, tip_loc):
        self.id = cid
        self.point = point
        self.sign = sign
        self.tail_comp = tail_comp      # l^-: component of the low strand
        self.tip_comp = tip_comp        # l^+: component of the high strand
        self.action = action
        self.tail_loc = tail_loc        # (segment index, parameter) on tail_comp
        self.tip_loc = tip_loc

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


class ResolvedDiagram(object):
    """Exact polyline realization of a front with all derived chord data.

    A passage is one chord end on a component: ``passages[ci]`` lists those
    of component ci as (parameter, chord id, 'tail'|'tip', point) in
    parameter order, and ``passage_arcs[ci][k]`` walks from passage k to the
    next, cyclically, turning by ``passage_turns[ci][k]`` pi/4 units; the
    rotation number ``rot[ci]`` is the sum of those turns over 8.  Capping
    arcs are runs of passage arcs, and push-outs offset them.

    A face is the cycle of half-edges (component, arc k, +1 forward or -1
    backward) that turns left at every chord.  A half-edge arrives at a
    chord end in the travel octant o of the segment there (plus 4 when
    backward) and the next one leaves on the chord's other strand in octant
    o + 2: forward along its arc if that strand's octant is o + 2, backward
    if it is o + 6.  The corner's sign is +1 exactly when the arrival is at
    the chord's tail, and its quadrant is the axis octant o + 3.

    The hot loops run on one integer copy of the components, scaled by
    ``_scale``, the least common denominator of their coordinates.  The
    public fields (components, heights, lengths, chord points, actions and
    locations, areas, basepoints) stay ``Fraction``s."""

    def __init__(self, front: FrontCode, components: List[List[Point]],
                 slabs, z_shifts: Optional[List[Fraction]] = None):
        self.front = front
        self.surgery = dict(front.surgery)
        self.components = components
        self._slabs = slabs
        # the height function of each component is defined up to a constant;
        # these are the constants the template solver chose
        self.z_shifts = z_shifts or [Fraction(0)] * len(components)
        self._scale = lcm(*{v.denominator for cyc in components
                            for p in cyc for v in p})
        self._ints = [_on_grid(cyc, self._scale) for cyc in components]
        # tables that later layers derive from this diagram, built on first
        # use; keys are tuples led by the table's name
        self.memo: Dict[tuple, object] = {}
        self._analyze()

    # -- construction ------------------------------------------------------

    def _analyze(self):
        self._find_chords(*self._component_segments())
        self._classical()
        self._build_faces()
        self._pick_basepoints()

    def _component_segments(self):
        # per vertex, twice the height times _scale^2 and the Chebyshev
        # length times _scale, in integers; the chord data read them
        unit = 2 * self._scale ** 2
        self.segments = list(map(_segments, self.components, self._ints))
        self.z_at_vertex: List[List[Fraction]] = []
        self.cheb_len: List[List[Fraction]] = []   # cumulative per vertex
        heights, lengths = [], []
        for i, (cyc, ints) in enumerate(zip(self.components, self._ints)):
            zs = _double_heights(ints)
            if zs[-1]:
                raise DiagramError(f"component {i} closure defect: integral "
                                   f"y dx = {Fraction(zs[-1], unit)}")
            cl = [0]
            for (ax, ay), (bx, by) in zip(ints, ints[1:] + ints[:1]):
                cl.append(cl[-1] + max(abs(bx - ax), abs(by - ay)))
            heights.append(zs)
            lengths.append(cl)
            self.z_at_vertex.append([Fraction(z, unit) for z in zs[:-1]])
            self.cheb_len.append([Fraction(c, self._scale) for c in cl])
        return heights, lengths

    def _find_chords(self, heights, lengths):
        # octant lines through grid points meet on the half grid: chord ends
        # are integers over h = 2 * _scale, heights over 2 h^2, lengths over h
        h = 2 * self._scale
        chords = []
        found = _crossings_by_event(self.front, self.segments, self._slabs)
        for _ev, (p, over, under) in sorted(found.items()):
            [(qx, qy)] = _on_grid([p], h)
            ends = []
            for ci, si in (over, under):
                ax, ay = (2 * v for v in self._ints[ci][si])
                ends.append((4 * heights[ci][si] + (ay + qy) * (qx - ax),
                             Fraction(2 * lengths[ci][si] +
                                      max(abs(qx - ax), abs(qy - ay)), h)))
            (z_hi, t_hi), (z_lo, t_lo) = ends
            action = Fraction(z_hi - z_lo, 2 * h * h) + \
                self.z_shifts[over[0]] - self.z_shifts[under[0]]
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
                tail_loc=(under[1], t_lo), tip_loc=(over[1], t_hi)))
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

    # -- faces ---------------------------------------------------------------

    def _build_faces(self):
        # split each component cycle at its chord passages into arcs; the
        # parameters order passages only on a shared segment
        self.passages = [[] for _ in self.components]
        seg = {}
        for c in self.chords:
            for role, ci, (si, par) in (("tail", c.tail_comp, c.tail_loc),
                                        ("tip", c.tip_comp, c.tip_loc)):
                self.passages[ci].append((par, c.id, role, c.point))
                seg[c.id, role] = si
        self._passage_of: Dict[Tuple[int, str], Tuple[int, int]] = {}
        self.passage_arcs: List[List[List[Point]]] = []
        self.passage_turns: List[List[int]] = []
        self.rot = {}
        for ci, plist in enumerate(self.passages):
            plist.sort(key=lambda item: (seg[item[1], item[2]], item[0]))
            n = len(self.segments[ci])
            self.passage_arcs.append([])
            self.passage_turns.append([])
            for k, (_, cid, role, p) in enumerate(plist):
                self._passage_of[cid, role] = (ci, k)
                _, next_cid, next_role, q = plist[(k + 1) % len(plist)]
                # the vertices passed: a component's right-cusp loops put its
                # passages on two segments at least, so none wraps on one
                si = seg[cid, role]
                count = (seg[next_cid, next_role] - si) % n
                pts, turns = self._walk(ci, si, count, p, q)
                self.passage_arcs[ci].append(pts)
                self.passage_turns[ci].append(turns)
            # the arcs cover the component, so their turns are its turning
            turns = sum(self.passage_turns[ci])
            if turns % 8:
                raise DiagramError(f"component {ci} turns by {turns} pi/4, "
                                   f"not a multiple of 2 pi")
            self.rot[ci] = turns // 8
        self._trace_faces()

    def _trace_faces(self):
        # the left-turn rule of the class docstring; octant of each chord end
        passages = self.passages
        octant = {}
        for c in self.chords:
            for role, ci, loc in (("tail", c.tail_comp, c.tail_loc),
                                  ("tip", c.tip_comp, c.tip_loc)):
                octant[c.id, role] = self.segments[ci][loc[0]].octant
        turn = {}       # half-edge -> (next half-edge, corner at its end)
        for ci, plist in enumerate(passages):
            n = len(plist)
            for k in range(n):
                for d in (1, -1):
                    _, cid, role, _ = plist[(k + 1) % n if d == 1 else k]
                    o = (octant[cid, role] + (0 if d == 1 else 4)) % 8
                    other = "tip" if role == "tail" else "tail"
                    cj, kj = self._passage_of[cid, other]
                    s = (octant[cid, other] - o) % 8
                    if o % 2 == 0 or s not in (2, 6):
                        raise DiagramError(
                            f"face walk does not turn left at r{cid}")
                    nxt = (cj, kj, 1) if s == 2 else \
                        (cj, (kj - 1) % len(passages[cj]), -1)
                    quad = QUADRANT_NAMES[OCTANT_VECTORS[(o + 3) % 8]]
                    turn[ci, k, d] = (nxt, (cid, quad,
                                            1 if role == "tail" else -1))

        visited = set()
        faces = []
        h = 2 * self._scale
        self.outer_area = Fraction(0)
        for he0 in turn:
            if he0 in visited:
                continue
            boundary: List[Point] = []
            corners = []
            he = he0
            while he not in visited:
                visited.add(he)
                ci, k, d = he
                pts = self.passage_arcs[ci][k]
                boundary.extend(pts[:-1] if d == 1 else pts[:0:-1])
                he, corner = turn[he]
                corners.append(corner)
            if he != he0:
                raise DiagramError("face tracing did not close up")
            # the shoelace sum and the least coordinates over h = 2 * _scale
            ring = _on_grid(boundary, h)
            area = Fraction(sum(cross(a, b) for a, b in
                                zip(ring, ring[1:] + ring[:1])), 2 * h * h)
            if area < 0:
                self.outer_area -= area
                continue
            if area == 0:
                raise DiagramError("degenerate face of zero area")
            faces.append((min(x for x, _ in ring), min(y for _, y in ring),
                          Face(None, corners, area, boundary)))
        faces.sort(key=lambda item: item[:2])
        self.faces_list = [f for _, _, f in faces]
        for i, f in enumerate(self.faces_list):
            f.id = i + 1

    def _pick_basepoints(self):
        # boxes by left x: a test reads only those that start left of its reach
        _, boxes = _integer_boxes(self.segments)
        index = ([box[0] for box in boxes], boxes)
        for f in self.faces_list:
            f.basepoint = self._basepoint_for(f, index)

    def _basepoint_for(self, face, index):
        # every corner's wedge opens along the axis its quadrant names; step
        # into it from the double point by 1, 1/2, ..., 1/256.  The tests
        # run over m = 1024 * _scale, where each step and its half are
        # integers, and so is every chord point (it lies on the half grid)
        m = 1024 * self._scale
        ring = _on_grid(face.boundary, m)
        for k in range(9):
            for cid, quad, _sign in face.corners:
                [(qx, qy)] = _on_grid([self.chords[cid - 1].point], m)
                dx, dy = QUADRANT_VECTORS[quad]
                p = (qx + (m >> k) * dx, qy + (m >> k) * dy)
                if self._good_basepoint(p, ring, index, m >> k + 1):
                    return Fraction(p[0], m), Fraction(p[1], m)
        raise DiagramError(f"no basepoint found for face {face.id}")

    @staticmethod
    def _good_basepoint(p, ring, index, clear):
        # p and clear are over 1024 * _scale, the boxes over _scale, so the
        # box reach is p -+ clear shifted right by 10 bits (ceiling, floor).
        # A segment a -> a + d comes within clear of p at an end, or between
        # them where |w x d|^2 <= clear^2 |d|^2 (w = p - a).  A crossing lies
        # on a segment: clearing the segments clears it too
        (px, py), (lefts, boxes), cc = p, index, clear * clear
        lo_x, lo_y = (-((clear - v) >> 10) for v in p)
        hi_x, hi_y = ((v + clear) >> 10 for v in p)
        for _, x_hi, y_lo, y_hi, _, _, ax, ay, dx, dy in \
                boxes[:bisect_right(lefts, hi_x)]:
            if x_hi < lo_x or y_lo > hi_y or y_hi < lo_y:
                continue
            wx, wy = px - (ax << 10), py - (ay << 10)
            ex, ey = wx - (dx << 10), wy - (dy << 10)
            wd, dd = wx * dx + wy * dy, dx * dx + dy * dy
            if wx * wx + wy * wy <= cc or ex * ex + ey * ey <= cc or \
                    0 < wd < dd << 10 and (wx * dy - wy * dx) ** 2 <= cc * dd:
                return False
        try:
            return winding_number(ring, p) == 1
        except ValueError:
            return False

    # -- public helpers ------------------------------------------------------

    def chord(self, cid: int) -> ChordRecord:
        return self.chords[cid - 1]

    def composable(self, j1: int, j2: int) -> bool:
        return self.chord(j1).tip_comp == self.chord(j2).tail_comp

    def letter(self, j1: int, j2: int) -> "Letter":
        """The letter r_j1 -> r_j2, measured on its capping arc from the tip
        of r_j1 to the tail of r_j2 along the component's orientation.  Each
        letter is built on first use; the letters share one memo key."""
        letters = self.memo.setdefault(("letters",), {})
        if (j1, j2) in letters:
            return letters[j1, j2]
        c1, c2 = self.chord(j1), self.chord(j2)
        comp = c1.tip_comp
        if c2.tail_comp != comp:
            raise DiagramError(f"chords r{j1}, r{j2} are not composable")
        plist = self.passages[comp]
        k1 = self._passage_of[j1, "tip"][1]
        k2 = self._passage_of[j2, "tail"][1]
        # passage arc k runs forward from passage k to k + 1
        arcs = tuple((k1 + i) % len(plist)
                     for i in range((k2 - k1) % len(plist)))
        turns = sum(self.passage_turns[comp][k] for k in arcs)
        if turns % 4 != 2:
            raise DiagramError(f"capping angle of r{j1}r{j2} is {turns} "
                               f"pi/4, not an odd multiple of pi/2")
        rot = turns // 4
        vector = [Fraction(0)] * len(self.components)
        for end in (c1.tail_comp, comp):
            vector[end] += Fraction(self.surgery[end] + c1.sign, 2)
        for k in arcs[1:]:
            ch = self.chord(plist[k][1])
            vector[ch.tip_comp if plist[k][2] == "tail"
                   else ch.tail_comp] += ch.sign
        total = self.cheb_len[comp][-1]
        length = (c2.tail_loc[1] - c1.tip_loc[1]) % total
        c = self.surgery[comp]
        letters[j1, j2] = Letter(rot + (c == 1), -1 if rot % 2 else 1, c,
                                 Fraction(1, 2) - length / total,
                                 tuple(vector), arcs)
        return letters[j1, j2]

    def _walk(self, comp, si, count, a, b):
        """Sub-polyline from point a on segment si forward over the next
        ``count`` vertices to point b, with its total turning in pi/4
        units.  Chord points lie inside their segments, never on a vertex."""
        cyc = self.components[comp]
        segs = self.segments[comp]
        pts = [a]
        turns = 0
        prev_oct = segs[si].octant
        for _ in range(count):
            si = (si + 1) % len(segs)
            t = turn_octants(prev_oct, segs[si].octant)
            if abs(t) == 4:
                raise DiagramError("capping path reverses direction")
            turns += t
            prev_oct = segs[si].octant
            pts.append(cyc[si])
        pts.append(b)
        return pts, turns


class Letter(NamedTuple):
    """What the letter r_j1 -> r_j2 of a cyclic word contributes to its
    orbit, from the capping arc's rotation number rot and length.

    ``index`` is rot + [c = +1], the letter's Conley-Zehnder term;
    ``sign`` is (-1)^rot, its return-map sign; ``c`` is the coefficient of
    the component holding r_j1's tip; ``h`` is 1/2 minus the arc's length
    over its component's.  ``vector`` is the letter's crossing monomial per
    component: at each end of r_j1, (coefficient + sign)/2 of the end's
    component, plus the arc's signed passes (passing chord r's tail counts
    r's sign against its tip's component, and the reverse).  ``arcs`` are
    the passage arcs the capping arc runs over, in order."""
    index: int
    sign: int
    c: int
    h: Fraction
    vector: Tuple[Fraction, ...]
    arcs: Tuple[int, ...]


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
    base = [[(x.const, y) for x, y in cyc] for cyc in cycles]
    segments = [_segments(cyc, cyc) for cyc in base]
    # twice the heights, as integer forms: halved once, in the rows
    heights = [_double_heights(cyc) for cyc in cycles]

    def row(form):
        return [Fraction(form.coef.get(k, 0), 2) for k in range(n_geom)]

    eq = [(row(zs[-1]) + [Fraction(0)] * n_shift, Fraction(-zs[-1].const, 2))
          for zs in heights]
    ge = []
    found = _crossings_by_event(front, segments,
                                [(a.const, b.const) for a, b in slabs])
    for _ev, (p, over, under) in sorted(found.items()):
        gap, shift = _Affine(0), [Fraction(0)] * n_shift
        for (ci, si), sgn in ((over, 1), (under, -1)):
            a = base[ci][si]
            gap = gap + sgn * (heights[ci][si]
                               + (a[1] + p[1]) * (p[0] - a[0]))
            if ci > 0:
                shift[2 * (ci - 1)] += sgn
                shift[2 * (ci - 1) + 1] -= sgn
        ge.append((row(gap) + shift, action_margin - Fraction(gap.const, 2)))
    return n_geom + n_shift, eq, ge


def resolve(front: FrontCode, action_margin: Fraction = Fraction(32)
            ) -> ResolvedDiagram:
    """Realize a front as an exact Lagrangian-projection polyline diagram.

    Template sizes (right-cusp loop widths, inter-event spacings, and the
    per-component height constants) are the unknowns of a small exact linear
    program: the closed integral of y dx must vanish on every component
    while every crossing keeps a z-gap of at least ``action_margin`` between
    its high and low strands.  The LP rows are read off the template, laid
    out once in integers, and the diagram is that layout at the LP's
    solution, in ``Fraction``s over the solution's common denominator; the
    diagram's integer scale lives in the ``ResolvedDiagram``.  A ValueError
    of a geometry helper on the way is an internal fault, a DiagramError.
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
