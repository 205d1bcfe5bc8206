"""Front diagrams and their exact planar resolutions.

A front is an event sequence (left cusps, right cusps, crossings at 1-based
strand positions counted from the top).  ``resolve`` realizes it as oriented
closed polylines on the rational grid with every segment at a multiple of 45
degrees and one double point per crossing and per right cusp.  Each chord's
action, the jump of the height z = integral of y dx between its strands,
is read off the sizing LP's row for it at the LP's vertex.  All downstream
data (crossing signs, actions, faces, areas, capping arcs) is exact.

Template conventions:

* strand at stack position p runs at level y = -4p between events;
* a crossing realizes the descending strand with slope -1 (the strand that
  ends up on top) and the ascending strand with slope +1;
* a right cusp realizes the felled pair as a loop with a single double point
  whose horizontal stretch is a free rational parameter, solved per component
  so that the closed line integral of y dx vanishes identically.

The template is laid out once in integers: a vertex is (c, y, k), at x = c
plus the first k sizes (loop stretches and event spacings) in event order.
The layout is the one place that double points come from: it places each
one inside its event, on two diagonals whose segments hold at every size.
The sizing LP's rows are read off it by difference arrays over the sizes
(each row doubled, so in ints) and the diagram is that layout at the
LP's solution, vertices and double points alike, in ints over one
integer, the least common denominator of those sizes; the chord actions
are the margin plus the slacks of the LP's z-gap rows there.
``ResolvedDiagram`` computes on that one integer grid the octants,
lengths, passage arcs, face rings and basepoint tests; its printed fields
are ``Fraction``s.  Every double point crosses two diagonals, so the
faces are the cycles of passage arcs that turn left at every chord;
corner signs and quadrants are read off the passage records, rotation
numbers off the front's Maslov potential, face areas off the chord
actions (Stokes).  A face's basepoint is one unit into its first
corner's wedge; one within 1/2 of a segment is a fault.
"""

import json
import re
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm
from typing import Dict, List, NamedTuple, Tuple

from .geometry import (
    OCTANT_VECTORS,
    Point,
    cross,
    direction_octant,
    merge_collinear,
    winding_number,
)
from .lp import _integers, solve_lp


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
    are numbered 0-based in order of their first left cusp.  It gives each
    wire a Maslov potential, with upper = lower + 1 at every cusp, cut once
    per component; ``rot[ci]`` is o * T / 2 for the component's orientation
    o and the potential's change T around it.
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
        self.rot = {ci: gain * self.orientations[ci] // 2
                    for ci, gain in enumerate(self._mu_gain)}

    def capping_rotation(self, j1: int, j2: int) -> int:
        """Rotation number of the capping arc from r_j1's tip to r_j2's tail,
        from the Maslov potential alone (chords count from 1 in X/R event
        order): mu(tip wire) - mu(tail wire), plus o * T if the arc crosses
        its cycle's cut, for the component's orientation o and mu's gain T
        around the cycle.  A chord end's place is (entry, event), the event
        negated on odd entries, which run from death to birth; the arc runs
        down the places for o = +1 and up them for o = -1."""
        tip, _, e1 = self._chords[j1 - 1]
        _, tail, e2 = self._chords[j2 - 1]
        (k1, mu1), (k2, mu2) = self._wire[tip], self._wire[tail]
        ci = self.component_of_wire[tip]
        o = self.orientations[ci]
        wrap = ((k2, (-1) ** k2 * e2) > (k1, (-1) ** k1 * e1)) == (o == 1)
        return mu1 - mu2 + (o * self._mu_gain[ci] if wrap else 0)

    def _simulate(self):
        stack: List[int] = []           # wire ids by position, top first
        births: Dict[int, int] = {}                    # wid -> sibling
        deaths: Dict[int, Tuple[int, int]] = {}        # wid -> (event, partner)
        tops = set()                    # the upper strand of each right cusp
        # per chord, in X/R event order, (tip wire, tail wire, event): the
        # strands at pos and pos + 1 just before the event
        self._chords: List[Tuple[int, int, int]] = []
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
                births[u] = dn
                births[dn] = u
                stack[pos - 1:pos - 1] = [u, dn]
                continue
            w1, w2 = stack[pos - 1], stack[pos]
            self._chords.append((w1, w2, idx))
            if kind == "X":
                stack[pos - 1], stack[pos] = w2, w1
            else:  # R
                deaths[w1] = (idx, w2)
                deaths[w2] = (idx, w1)
                tops.add(w1)
                del stack[pos - 1:pos + 1]
        if stack:
            raise FrontError(f"{len(stack)} strands still open after all events")
        self._deaths = deaths
        # trace components: alternate death-joins and birth-joins, so each
        # cycle's even entries run from birth to death and its odd entries
        # from death to birth.  The Maslov potential mu is 0 on each cycle's
        # first wire, and at each join rises by 1 onto the cusp's upper
        # strand (at a left cusp, the even id) and falls by 1 onto its lower
        # one; _mu_gain[ci] is its change around the whole cycle
        comp_of_wire: Dict[int, int] = {}
        comps: List[List[int]] = []
        self._wire: Dict[int, Tuple[int, int]] = {}     # wid -> (entry, mu)
        self._mu_gain: List[int] = []
        for start in sorted(births):
            if start in comp_of_wire:
                continue
            cid = len(comps)
            cycle = []
            wid, mu = start, 0
            while wid not in comp_of_wire:
                comp_of_wire[wid] = cid
                self._wire[wid] = (len(cycle), mu)
                cycle.append(wid)
                partner = deaths[wid][1]
                mu += 1 if partner in tops else -1
                comp_of_wire[partner] = cid
                self._wire[partner] = (len(cycle), mu)
                cycle.append(partner)
                wid = births[partner]
                mu += 1 if wid % 2 == 0 else -1
            comps.append(cycle)
            self._mu_gain.append(mu)
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
        cid = _integer(key.strip(), "component id")
        if cid in out:
            raise FrontError(f"component {cid} given twice in {what} block")
        out[cid] = val.strip()
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


class _Wire(object):
    def __init__(self, wid):
        self.wid = wid
        self.points: List[Tuple[int, int, int]] = []
        self.level = None

    def extend_to(self, c, k):
        self.points.append((c, self.level, k))

    def append(self, c, y, k):
        self.level = y
        self.points.append((c, y, k))


def _build_wires(front: FrontCode):
    """Lay out all wires; returns (wires, crossings, order).

    The template sizes theta are one loop stretch per right cusp (the loop
    is ``2 + theta`` wide), then one spacing per event, the room after it.
    ``order`` lists their indices in event order: a right cusp's stretch,
    then each event's spacing.  A vertex is (c, y, k) in integers, at x =
    c + theta[order[0]] + ... + theta[order[k - 1]]: the sizes laid out so
    far.  Strand levels never depend on the sizes, so every closure
    integral and crossing z-gap is affine in them.  The layout places every
    double point itself: ``crossings`` holds, per crossing and right-cusp
    event in event order, its point (c, y) and the (c, y) ends of the slope
    -1 (over) and the slope +1 (under) diagonal through it, all at one k.
    """
    wires: Dict[int, _Wire] = {}
    stack: List[_Wire] = []
    crossings = []
    order: List[int] = []
    c, k = 0, 0
    next_wid = n_stretches = 0
    for idx, (kind, pos) in enumerate(front.events):
        for w in stack:
            w.extend_to(c, k)
        end = k
        if kind == "L":
            width = 16
            for p in range(pos - 1, len(stack)):
                w = stack[p]
                w.append(c + 8, w.level - 8, k)
                w.extend_to(c + 16, k)
            lu = -4 * pos
            u = _Wire(next_wid)
            dn = _Wire(next_wid + 1)
            next_wid += 2
            cusp = (c + 10, lu - 2, k)
            u.points.append(cusp)
            u.append(c + 12, lu, k)
            u.extend_to(c + 16, k)
            dn.points.append(cusp)
            dn.append(c + 12, lu - 4, k)
            dn.extend_to(c + 16, k)
            wires[u.wid] = u
            wires[dn.wid] = dn
            stack[pos - 1:pos - 1] = [u, dn]
        elif kind == "X":
            width = 8
            w1, w2 = stack[pos - 1], stack[pos]
            a = w1.level
            w1.append(c + 2, a, k)
            w1.append(c + 6, a - 4, k)
            w1.extend_to(c + 8, k)
            w2.append(c + 2, a - 4, k)
            w2.append(c + 6, a, k)
            w2.extend_to(c + 8, k)
            crossings.append(((c + 4, a - 2), ((c + 2, a), (c + 6, a - 4)),
                              ((c + 2, a - 4), (c + 6, a))))
            stack[pos - 1], stack[pos] = w2, w1
        else:  # R, its loop stretched from x = c + 11 on
            order.append(n_stretches)
            n_stretches += 1
            end = k + 1
            width = 22
            w1, w2 = stack[pos - 1], stack[pos]
            a = w1.level
            w1.append(c + 6, a, k)
            w1.append(c + 9, a - 3, k)
            w1.append(c + 11, a - 3, end)
            w1.append(c + 12, a - 2, end)
            w1.append(c + 12, a, end)
            w1.append(c + 10, a, k)
            w1.append(c + 6, a - 4, k)
            w1.append(c, a - 4, k)
            crossings.append(((c + 8, a - 2), ((c + 6, a), (c + 9, a - 3)),
                              ((c + 10, a), (c + 6, a - 4))))
            for p in range(pos + 1, len(stack)):
                w = stack[p]
                w.extend_to(c + 14, end)
                w.append(c + 22, w.level + 8, end)
            del stack[pos - 1:pos + 1]
        order.append(front.n_right_cusps + idx)
        c, k = c + width + 4, end + 1
    return wires, crossings, order


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
    """The template laid out once: (cycles, order, crossings).

    Each cycle is a component's merged, oriented polyline of integer
    vertices (c, y, k), x = c plus the first k sizes of ``order`` (see
    ``_build_wires``).  A segment whose ends have different k must be
    horizontal and run the way the sizes grow, else DiagramError: a size
    only stretches horizontal segments.  Events take disjoint x-ranges and
    strand levels are fixed, so the template has the same vertices,
    octants and crossing pairs at every theta >= 0, and the merge, on
    (c, y), is decided at theta = 0, in integers.  ``crossings`` holds, per
    crossing and right-cusp event in event order, the double point that
    the layout placed and the (component, segment index) of its slope -1
    and slope +1 branch: the segment between the diagonal's two (c, y)
    ends.  Two vertices at one (c, y), an end that is no vertex or ends
    that are not adjacent on one cycle are a DiagramError.
    """
    wires, laid, order = _build_wires(front)
    cycles = []
    vertex = {}
    for i, cyc in enumerate(_assemble_components(front, wires)):
        for (ca, ya, ka), (cb, yb, kb) in zip(cyc, cyc[1:] + cyc[:1]):
            if ka != kb and (ya != yb or (cb - ca) * (kb - ka) <= 0):
                raise DiagramError(
                    f"segment {(ca, ya)}->{(cb, yb)} of component {i} is "
                    f"not stretched along the sizes between them")
        # merge_collinear reads only the first two coordinates, so k rides
        # along as a third
        cyc = merge_collinear(cyc)
        # default traversal: the lower branch of the component's first
        # left cusp runs eastward (the assembly walk is the opposite)
        if front.orientations.get(i, 1) == 1:
            cyc = cyc[::-1]
        for si, (c, y, _) in enumerate(cyc):
            if vertex.setdefault((c, y), (i, si)) != (i, si):
                raise DiagramError(f"two template vertices at {(c, y)}")
        cycles.append(cyc)

    def segment(p, ends):
        if not all(e in vertex for e in ends):
            raise DiagramError(f"a diagonal end at {p} is not a vertex")
        (ci, si), (cj, sj) = (vertex[e] for e in ends)
        step = (sj - si) % len(cycles[ci])
        if ci != cj or step not in (1, len(cycles[ci]) - 1):
            raise DiagramError(f"diagonal ends {ends} at {p} are not "
                               f"adjacent on one component")
        return ci, si if step == 1 else sj

    return cycles, order, [(p, segment(p, over), segment(p, under))
                           for p, over, under in laid]


def _evaluate(cycles, order, theta, crossings):
    """(ints, den, crossings): the template's cycles and crossings at the
    sizes theta, ints over den, theta's least common denominator.  With n =
    theta * den, a vertex is (c * den + the sum of n over order[:k], y *
    den): one prefix sum.  A crossing's point (c, y) is one too, at the k
    of its slope -1 branch's segment start, which its diagonal's ends
    share."""
    sizes, den = _integers([theta[v] for v in order])
    prefix = [0, *accumulate(sizes)]
    return [[(c * den + prefix[k], y * den) for c, y, k in cyc]
            for cyc in cycles], den, [
        ((c * den + prefix[cycles[ci][si][2]], y * den), (ci, si), under)
        for (c, y), (ci, si), under in crossings]


def _on_grid(points, unit):
    """Points whose denominators divide ``unit``, times unit, in integers."""
    return [(x.numerator * (unit // x.denominator),
             y.numerator * (unit // y.denominator)) for x, y in points]


def _view(points, unit):
    """Int points over ``unit`` as ``Fraction`` pairs."""
    return [(Fraction(x, unit), Fraction(y, unit)) for x, y in points]


def _octants(poly):
    """Travel octant of each segment of a closed polyline."""
    return [direction_octant(a, b) for a, b in zip(poly, poly[1:] + poly[:1])]


def _integer_boxes(polys):
    """One box (x_lo, x_hi, y_lo, y_hi, comp, index, ax, ay, dx, dy) per
    segment a -> a + d of closed integer polylines, sorted by x_lo."""
    boxes = [(min(ax, bx), max(ax, bx), min(ay, by), max(ay, by),
              ci, si, ax, ay, bx - ax, by - ay)
             for ci, poly in enumerate(polys)
             for si, ((ax, ay), (bx, by)) in enumerate(
                 zip(poly, poly[1:] + poly[:1]))]
    boxes.sort(key=lambda box: box[0])
    return boxes


class ChordRecord(object):
    """A double point of the resolved diagram (one Reeb chord).

    ``_q`` is the point as ints over the diagram's scale.  The action
    and the locations (segment index, Chebyshev length from the component's
    vertex 0) are ``Fraction``s."""

    def __init__(self, cid, q, sign, tail_comp, tip_comp, action,
                 tail_loc, tip_loc):
        self.id = cid
        self._q = q
        self.sign = sign
        self.tail_comp = tail_comp      # l^-: component of the low strand
        self.tip_comp = tip_comp        # l^+: component of the high strand
        self.action = action
        self.tail_loc = tail_loc        # (segment index, parameter) on tail_comp
        self.tip_loc = tip_loc

    def __repr__(self):
        return f"r{self.id}"


class Face(object):
    """Bounded complementary region with its corner data.

    ``_ring`` is its ccw boundary cycle as ints over the diagram's scale.
    The area and the basepoint are ``Fraction``s."""

    def __init__(self, fid, corners, area, ring, basepoint=None):
        self.id = fid
        self.corners = corners          # [(chord id, quadrant, sign)] ccw
        self.area = area
        self._ring = ring
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
    of component ci as (parameter, chord id, 'tail'|'tip', point, segment
    index) in parameter order, the parameter its Chebyshev length from
    vertex 0, and ``_arcs[ci][k]``, passage arc k, is the run of vertices
    from passage k to the next, cyclically, between their chord points.
    Capping arcs are runs of passage arcs, and push-outs offset them.  The
    rotation numbers ``rot`` are the front's (``FrontCode.rot``).

    A face is the cycle of half-edges (component, arc k, +1 forward or -1
    backward) that turns left at every chord.  A half-edge arrives at a
    chord end in the travel octant o of the segment there (plus 4 when
    backward) and the next one leaves on the chord's other strand in octant
    o + 2: forward along its arc if that strand's octant is o + 2, backward
    if it is o + 6.  The corner's sign is +1 exactly when the arrival is at
    the chord's tail, and its quadrant is the axis octant o + 3.  A face's
    area is the sum of its corner signs times the chord actions, the
    z-jumps of the y dx integral (Stokes), negative on an outer boundary.

    The point tables are ints over ``scale``, one per concept: ``_ints``,
    the components' vertices, and the chord points (``ChordRecord._q``),
    which ``resolve`` takes from the template (``_evaluate``); the
    passages' parameters and points, the passage arcs and the face rings
    (``Face._ring``).  ``octants[ci][si]`` is the travel octant of segment
    si of component ci.  The measures are ints over one denominator each,
    which later layers read as they are: ``lengths``, the components'
    Chebyshev lengths, over ``scale``; each letter's h over ``arc_den``,
    the lcm of twice those lengths; and ``actions``, the chord actions in
    chord order, over ``action_den``, which ``resolve`` reads off the
    sizing LP (``_actions``), for the face areas, the word enumerator and
    the candidate pool.  The printed fields (chord actions and locations,
    areas, basepoints) are ``Fraction``s.
    ``components``, the vertices as ``Fraction``s, is a view of ``_ints``
    built on first read and then cached; no command reads it.

    ``crossings`` lists per chord, in event order, its point and the
    (component, segment index) of its slope -1 and its slope +1 branch.
    ``resolve`` passes the points and pairs that its template's layout
    placed, which hold at every size; a point that is not strictly inside
    both segments is a DiagramError."""

    def __init__(self, front: FrontCode, ints: List[List[Tuple[int, int]]],
                 scale: int, crossings, actions: List[int], action_den: int):
        self.front, self._ints, self._scale = front, ints, scale
        self.surgery = dict(front.surgery)
        self._crossings = crossings
        self.actions, self.action_den = actions, action_den
        # tables that later layers derive from this diagram, built on first
        # use; keys are tuples led by the table's name
        self.memo: Dict[tuple, object] = {}
        self._analyze()

    @cached_property
    def components(self) -> List[List[Point]]:
        return [_view(cyc, self._scale) for cyc in self._ints]

    # -- construction ------------------------------------------------------

    def _analyze(self):
        self._find_chords()
        self._classical()
        self._build_faces()
        self._pick_basepoints()

    def _find_chords(self):
        # the Chebyshev length from vertex 0 at each vertex, over _scale;
        # a chord end's passage parameter adds the length from its segment
        # start to the chord point
        s = self._scale
        self.octants = list(map(_octants, self._ints))
        lengths = [[0, *accumulate(max(abs(bx - ax), abs(by - ay))
                                   for (ax, ay), (bx, by)
                                   in zip(ints, ints[1:] + ints[:1]))]
                   for ints in self._ints]
        self.lengths = [cl[-1] for cl in lengths]
        self.arc_den = lcm(*(2 * t for t in self.lengths))
        self.chords = []
        self.passages = [[] for _ in self._ints]
        for (q, over, under), act in zip(self._crossings, self.actions):
            qx, qy = q
            ends = []
            for ci, si in (over, under):
                ints = self._ints[ci]
                (ax, ay), (bx, by) = ints[si], ints[(si + 1) % len(ints)]
                # strictly inside the segment: on its line, between its ends
                if (qx - ax) * (qy - by) != (qy - ay) * (qx - bx) or \
                        (qx - ax) * (qx - bx) + (qy - ay) * (qy - by) >= 0:
                    raise DiagramError(f"chord point {_view([q], s)[0]} is "
                                       f"not inside segment {si} of "
                                       f"component {ci}")
                ends.append(lengths[ci][si] +
                            max(abs(qx - ax), abs(qy - ay)))
            t_hi, t_lo = ends
            over_dir = self.octants[over[0]][over[1]]
            under_dir = self.octants[under[0]][under[1]]
            sign = 1 if cross(OCTANT_VECTORS[over_dir],
                              OCTANT_VECTORS[under_dir]) > 0 else -1
            cid = len(self.chords) + 1
            self.chords.append(ChordRecord(
                cid, q, sign, tail_comp=under[0], tip_comp=over[0],
                action=Fraction(act, self.action_den),
                tail_loc=(under[1], Fraction(t_lo, s)),
                tip_loc=(over[1], Fraction(t_hi, s))))
            for role, (ci, si), t in (("tail", under, t_lo),
                                      ("tip", over, t_hi)):
                self.passages[ci].append((t, cid, role, q, si))

    def _classical(self):
        n = len(self._ints)
        self.tb = {i: 0 for i in range(n)}
        self.rot = dict(self.front.rot)
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
        # split each component cycle at its chord passages into arcs; a
        # parameter is a length from vertex 0, so it orders the passages
        # along the cycle
        self._passage_of: Dict[Tuple[int, str], Tuple[int, int]] = {}
        self._arcs: List[List[List[Tuple[int, int]]]] = []
        for ci, plist in enumerate(self.passages):
            plist.sort()
            cyc = self._ints[ci]
            n = len(cyc)
            arcs = []
            for k, (_, cid, role, p, si) in enumerate(plist):
                self._passage_of[cid, role] = (ci, k)
                *_, q, sj = plist[(k + 1) % len(plist)]
                # the vertices passed: a component's right-cusp loops put its
                # passages on two segments at least, so none wraps on one
                vertices = range(1, (sj - si) % n + 1)
                arcs.append([p] + [cyc[(si + i) % n] for i in vertices] + [q])
            self._arcs.append(arcs)
        self._trace_faces()

    def _trace_faces(self):
        # the left-turn rule of the class docstring; a chord end's octant
        # is that of its passage's segment
        passages, octants = self.passages, self.octants
        turn = {}       # half-edge -> (next half-edge, corner at its end)
        for ci, plist in enumerate(passages):
            n = len(plist)
            for k in range(n):
                for d in (1, -1):
                    _, cid, role, _, si = plist[(k + 1) % n if d == 1 else k]
                    o = (octants[ci][si] + (0 if d == 1 else 4)) % 8
                    other = "tip" if role == "tail" else "tail"
                    cj, kj = self._passage_of[cid, other]
                    s = (octants[cj][passages[cj][kj][4]] - o) % 8
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
        outer = 0
        # Stokes areas (class docstring) from the actions, ints over den
        acts, den = self.actions, self.action_den
        for he0 in turn:
            if he0 in visited:
                continue
            ring: List[Tuple[int, int]] = []
            corners = []
            he = he0
            while he not in visited:
                visited.add(he)
                ci, k, d = he
                pts = self._arcs[ci][k]
                ring.extend(pts[:-1] if d == 1 else pts[:0:-1])
                he, corner = turn[he]
                corners.append(corner)
            if he != he0:
                raise DiagramError("face tracing did not close up")
            area = sum(s * acts[cid - 1] for cid, _q, s in corners)
            if area < 0:
                outer -= area
                continue
            if area == 0:
                raise DiagramError("degenerate face of zero area")
            faces.append((min(x for x, _ in ring), min(y for _, y in ring),
                          Face(None, corners, Fraction(area, den), ring)))
        self.outer_area = Fraction(outer, den)
        faces.sort(key=lambda item: item[:2])
        self.faces_list = [f for _, _, f in faces]
        for i, f in enumerate(self.faces_list):
            f.id = i + 1

    def _pick_basepoints(self):
        # boxes by left x: a test reads only those that start left of its reach
        boxes = _integer_boxes(self._ints)
        index = ([box[0] for box in boxes], boxes)
        for f in self.faces_list:
            f.basepoint = self._basepoint_for(f, index)

    def _basepoint_for(self, face, index):
        # one unit into the first corner's wedge (along its quadrant's axis)
        # clears every segment by more than 1/2: the double point crosses two
        # diagonals, and events lie on integer units with slabs 4 apart and
        # sizes stretching only horizontals, so no other segment is within a
        # unit
        s = self._scale
        cid, quad, _sign = face.corners[0]
        qx, qy = self.chords[cid - 1]._q
        dx, dy = QUADRANT_VECTORS[quad]
        p = (qx + s * dx, qy + s * dy)
        if not self._good_basepoint(p, face._ring, index, s):
            raise DiagramError(f"no basepoint found for face {face.id}")
        return Fraction(p[0], s), Fraction(p[1], s)

    @staticmethod
    def _good_basepoint(p, ring, index, scale):
        # p, the ring and the boxes are ints over scale S, so the clearance
        # 1/2 is S/2 and a box within it of p is within S // 2 in ints.  A
        # segment a -> a + d comes within 1/2 of p at a (its end a + d
        # starts the next segment), where 4|w|^2 <= S^2 (w = p - a), or
        # between its ends, where 4(w x d)^2 <= S^2 |d|^2.  A crossing
        # lies on a segment: clearing the segments clears it too
        (px, py), (lefts, boxes) = p, index
        reach, ss = scale // 2, scale * scale
        for _, x_hi, y_lo, y_hi, _, _, ax, ay, dx, dy in \
                boxes[:bisect_right(lefts, px + reach)]:
            if x_hi < px - reach or y_lo > py + reach or y_hi < py - reach:
                continue
            wx, wy = px - ax, py - ay
            wd, dd = wx * dx + wy * dy, dx * dx + dy * dy
            if 4 * (wx * wx + wy * wy) <= ss or \
                    0 < wd < dd and 4 * (wx * dy - wy * dx) ** 2 <= ss * dd:
                return False
        return winding_number(ring, p) == 1

    # -- public helpers ------------------------------------------------------

    def chord(self, cid: int) -> ChordRecord:
        return self.chords[cid - 1]

    def composable(self, j1: int, j2: int) -> bool:
        return self.chord(j1).tip_comp == self.chord(j2).tail_comp

    def letter(self, j1: int, j2: int) -> "Letter":
        """The letter r_j1 -> r_j2, measured on its capping arc from the tip
        of r_j1 to the tail of r_j2 along the component's orientation.  Each
        letter is built on first use; the letters share one memo key.  Only
        chords of the surgered sublink make letters; any other is a fault."""
        letters = self.memo.setdefault(("letters",), {})
        if (j1, j2) in letters:
            return letters[j1, j2]
        c1, c2 = self.chord(j1), self.chord(j2)
        comp = c1.tip_comp
        if c2.tail_comp != comp:
            raise DiagramError(f"chords r{j1}, r{j2} are not composable")
        if not all(self.surgery[c.tail_comp] and self.surgery[c.tip_comp]
                   for c in (c1, c2)):
            raise DiagramError(f"letter r{j1}r{j2} touches an unsurgered "
                               f"component")
        plist = self.passages[comp]
        k1 = self._passage_of[j1, "tip"][1]
        k2 = self._passage_of[j2, "tail"][1]
        # passage arc k runs forward from passage k to k + 1
        arcs = tuple((k1 + i) % len(plist)
                     for i in range((k2 - k1) % len(plist)))
        rot = self.front.capping_rotation(j1, j2)
        vector = [0] * len(self._ints)
        for end in (c1.tail_comp, comp):
            vector[end] += (self.surgery[end] + c1.sign) // 2
        for k in arcs[1:]:
            ch = self.chord(plist[k][1])
            vector[ch.tip_comp if plist[k][2] == "tail"
                   else ch.tail_comp] += ch.sign
        # the arc's length L from the passage parameters over the
        # component's length T, both over _scale: h = (T - 2L)/(2T)
        total = self.lengths[comp]
        length = (plist[k2][0] - plist[k1][0]) % total
        c = self.surgery[comp]
        assert abs(c) == 1      # words._width bounds twists by |c| <= 1
        letters[j1, j2] = Letter(rot + (c == 1), -1 if rot % 2 else 1, c,
                                 (total - 2 * length) * (self.arc_den //
                                                         (2 * total)),
                                 tuple(vector), arcs)
        return letters[j1, j2]


class Letter(NamedTuple):
    """What the letter r_j1 -> r_j2 of a cyclic word contributes to its
    orbit, from the capping arc's rotation number rot and length.  Letters
    exist only on the surgered sublink: both chords have both ends on
    components of coefficient +-1.  rot is mu(r_j1's tip wire) - mu(r_j2's
    tail wire), plus o * T across the cut (``FrontCode.capping_rotation``);
    the length is the realization's.

    ``index`` is rot + [c = +1], the letter's Conley-Zehnder term;
    ``sign`` is (-1)^rot, its return-map sign; ``c`` is the coefficient of
    the component holding r_j1's tip; ``h``, an int over the diagram's
    ``arc_den``, is 1/2 minus the arc's length over its component's.  The
    letter before it in a word ends at r_j1's tail, so its ``c`` is the
    coefficient there.  ``vector`` is the letter's crossing monomial per
    component, in ints: at each end of r_j1, (coefficient + sign)/2 of the
    end's component, an integer as both are +-1, plus the arc's signed
    passes (passing chord r's tail counts r's sign against its tip's
    component, and the reverse).  ``arcs`` are the passage arcs the capping
    arc runs over, in order."""
    index: int
    sign: int
    c: int
    h: int
    vector: Tuple[int, ...]
    arcs: Tuple[int, ...]


def _sizing_rows(cycles, order, crossings, action_margin):
    """The template LP (number of variables, eq rows, ge rows) in ints:
    every row doubled, a ge row also times the margin's denominator.

    The variables are the template sizes theta, then a height shift
    s+ - s- per component after the first.  Every closure integral must
    vanish and every crossing must keep a z-gap (high strand minus low
    strand) of at least ``action_margin``.  Both are affine in theta and
    are read off the template in one pass, at the crossings that
    ``_template`` found.  Twice a height is an integer constant and a
    difference array over ``order``: a segment from k to k' adds y + y'
    on [k, k'), and one prefix sum turns the array into coefficients.  A
    crossing's branches run along diagonals laid out at one k, so from a
    vertex to the chord point adds a constant.  Scaling a row by a
    positive factor moves no pivot of ``solve_lp``'s rule.
    """
    n_geom, n_shift = len(order), 2 * (len(cycles) - 1)
    num, den = action_margin.numerator, action_margin.denominator
    wanted = {end for _, over, under in crossings for end in (over, under)}
    # twice the height at each chord end's segment start, and after each
    # component's closing segment
    heights = {}
    closures = []
    for ci, cyc in enumerate(cycles):
        const, diff = 0, [0] * (n_geom + 1)
        for si, ((ca, ya, ka), (cb, yb, kb)) in enumerate(
                zip(cyc, cyc[1:] + cyc[:1])):
            if (ci, si) in wanted:
                heights[ci, si] = (const, list(diff))
            const += (ya + yb) * (cb - ca)
            diff[ka] += ya + yb
            diff[kb] -= ya + yb
        closures.append((const, diff))

    def row(diff):
        coef = [0] * n_geom
        for v, acc in zip(order, accumulate(diff)):
            coef[v] = acc
        return coef

    eq = [(row(diff) + [0] * n_shift, -const) for const, diff in closures]
    ge = []
    for p, over, under in crossings:
        (z_hi, d_hi), (z_lo, d_lo) = heights[over], heights[under]
        (c_hi, y_hi, _), (c_lo, y_lo, _) = (cycles[ci][si] for ci, si
                                            in (over, under))
        gap = z_hi + (y_hi + p[1]) * (p[0] - c_hi) \
            - z_lo - (y_lo + p[1]) * (p[0] - c_lo)
        shift = [0] * n_shift
        for ci, sgn in ((over[0], 2 * den), (under[0], -2 * den)):
            if ci > 0:
                shift[2 * (ci - 1)] += sgn
                shift[2 * (ci - 1) + 1] -= sgn
        ge.append((row([den * (a - b) for a, b in zip(d_hi, d_lo)]) + shift,
                   2 * num - den * gap))
    return n_geom + n_shift, eq, ge


def _actions(eq, ge, theta, action_margin):
    """(actions, den): each crossing's action, its z-gap, as an int over den,
    read off its ge row at the LP's solution theta.  A ge row a.x >= b of
    ``_sizing_rows`` is 2 * margin.denominator times gap >= margin, so the
    gap is margin + (a.theta - b) / (2 * margin.denominator).  Every row is
    evaluated in ints over theta's common denominator D, at theta's nonzero
    entries, and den is 2 * margin.denominator * D.  A theta that misses an
    eq row or leaves a ge row a negative slack is a solver fault, a
    DiagramError."""
    nums, d = _integers(theta)
    nonzero = [(j, v) for j, v in enumerate(nums) if v]
    closures, slacks = ([sum(a[j] * v for j, v in nonzero) - b * d
                         for a, b in rows] for rows in (eq, ge))
    if any(closures) or min(slacks) < 0:
        raise DiagramError("the sizing LP's solution breaks a closure or "
                           "z-gap row")
    return ([s + 2 * action_margin.numerator * d for s in slacks],
            2 * action_margin.denominator * d)


def resolve(front: FrontCode, action_margin: Fraction = Fraction(32)
            ) -> ResolvedDiagram:
    """Realize a front as an exact Lagrangian-projection polyline diagram.

    Template sizes (right-cusp loop widths, inter-event spacings, and the
    per-component height constants) are the unknowns of a small exact linear
    program: the closed integral of y dx must vanish on every component
    while every crossing keeps a z-gap of at least ``action_margin`` between
    its high and low strands.  The LP rows are read off the template, laid
    out once in integers, and the diagram is that layout at the LP's
    solution, in ints over the least common denominator of its sizes,
    which the ``ResolvedDiagram`` keeps as its integer scale.  The chord
    actions are the z-gap rows' values there (``_actions``), after a check
    that the solution meets every row.  A ValueError of a geometry helper
    on the way is an internal fault, a DiagramError.
    """
    try:
        cycles, order, crossings = _template(front)
        n_var, eq, ge = _sizing_rows(cycles, order, crossings, action_margin)
        theta = solve_lp(n_var, eq, ge, minimize=[1] * n_var)
        if theta is None:
            raise DiagramError(
                "no template sizing realizes this front in good position")
        return ResolvedDiagram(front,
                               *_evaluate(cycles, order, theta, crossings),
                               *_actions(eq, ge, theta, action_margin))
    except FrontError:
        raise
    except ValueError as exc:
        raise DiagramError(f"realization fault: {exc}") from exc
