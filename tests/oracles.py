"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own code paths: polynomial
arithmetic on dicts, convex polygon clipping for the trimmed affine flow,
strand-stack simulation for front combinatorics, brute-force quiver counts
and orbit words, and the elementary-divisor formulas and a Gauss-Jordan
solve for small integer matrices.  Second routes through library results
that only the tests need live here too: return-map traces evaluated at
an epsilon, the reference return map at an epsilon and at the u = 2^W at
which the library packs its rows, the embedding's points read off its
homogeneous integer points, the intersection grading of a collection of orbits (the library grades one
orbit at a time), each orbit's fiber counts in ``Fraction``s by a
Gauss-Jordan solve (the library keeps them as ints over H1's exponent),
the twist's height profile, capping paths walked segment by
segment on either side, whose turning is the second route for letter
indices and rotation numbers (the library reads those off the front's
Maslov potential, and rides only the side along the component's
orientation), push-out pieces of whole capping arcs, whole
push-out curves for every side choice with their linking numbers, orbit
classes and intersection gradings, faces traced as a planar graph keyed by
points, the turning number of a closed polyline, the closed-curve index
formula that decides the exhaustive search's degree test, the candidate
search's integer program in integer rows with its branch and bound in
``Fraction``s, the dual simplex's pivot with dense row updates, which the
library's sparse updates must match tableau for tableau, the k-copy of a
front, which no CLI command builds, and the realization's evaluation,
heights, lengths, chord ends, face areas and basepoint distances in
``Fraction``s, where the library runs them in integers over one common
denominator.  The ``Fraction`` views of the library's int tables (chord
points, face boundaries, passage arcs, component lengths) are built here
too, as no command
reads them, with the passage arcs also assembled the way the library did
from ``Fraction`` points.  The double points of the
realization are found here by intersecting every pair of ``Segment``s, where
the library takes each crossing pair from its template's layout and reads
the chord point off it.
"""

import itertools
import weakref
from fractions import Fraction
from math import gcd, lcm


# -- tiny polynomial/matrix arithmetic (dict-based, unlike the library) ------

def padd(p, q):
    out = dict(p)
    for k, v in q.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def pmul(p, q):
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            k = i + j
            out[k] = out.get(k, 0) + a * b
    return {k: v for k, v in out.items() if v != 0}


def pscale(p, c):
    return {k: c * v for k, v in p.items() if c * v != 0}


def mat_mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((padd(pmul(a, e), pmul(b, g)), padd(pmul(a, f), pmul(b, h))),
            (padd(pmul(c, e), pmul(d, g)), padd(pmul(c, f), pmul(d, h))))


def step_matrix(c):
    """J0 * [[1, -c u], [0, 1]] over the dict-polynomial ring."""
    j0 = (({}, {0: -1}), ({0: 1}, {}))
    shear = (({0: 1}, {1: -c}), ({}, {0: 1}))
    return mat_mul(j0, shear)


def reference_return_map(d, word):
    """Independent product for the linearized return map of a cyclic word."""
    n = len(word)
    prod = (({0: 1}, {}), ({}, {0: 1}))
    sign = 1
    for k in range(n):
        j1, j2 = word[k], word[(k + 1) % n]
        c = d.surgery[d.chord(j1).tip_comp]
        prod = mat_mul(step_matrix(c), prod)
        if rot_number(d, j1, j2) % 2:
            sign = -sign
    return sign, prod


def peval(p, u):
    return sum(Fraction(v) * u ** k for k, v in p.items())


def poly_eval(p, u):
    """A library polynomial (coefficient tuple, ascending) at u, by Horner."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * u + c
    return acc


def trace_at(rm, epsilon):
    """Trace of a library ``ReturnMapPoly`` at this epsilon."""
    return poly_eval(rm.trace(), 1 / Fraction(epsilon))


def packed_reference(d, w):
    """Sign and entries (a, b, c, d) of the reference product of the cyclic
    word w's return map, each entry's polynomial evaluated at u = 2^W for
    w's packing width W: the library's ``w.sign`` and ``w.rows``, which
    hold the polynomials so, must equal these."""
    sign, prod = reference_return_map(d, w.chords)
    u = 2 ** w.width
    return sign, tuple(sum(v * u ** k for k, v in p.items())
                       for row in prod for p in row)


def matrix_at(d, w, epsilon):
    """Entries (a, b, c, d) of the reference return map of the cyclic word
    w at this epsilon, its sign applied."""
    sign, prod = reference_return_map(d, w.chords)
    u = 1 / Fraction(epsilon)
    return tuple(sign * peval(p, u) for row in prod for p in row)


# -- the affine orbit model composed in Fraction arithmetic -------------------

def step_maps(d, w, epsilon):
    """Affine maps (A_k, b_k) of the model flow, one per letter of w.

    Offsets use the capping-arc length normalized by the component's total
    length, so the model is the unit-circumference one and stays rational.
    Rotation numbers and lengths come from walking each capping arc.
    """
    epsilon = Fraction(epsilon)
    maps = []
    for j1, j2 in w.pairs():
        _points, turns, length = capping_walk(d, j1, j2, "eta")
        c = d.surgery[d.chord(j1).tip_comp]
        rot_sign = -1 if (turns // 4) % 2 == 1 else 1
        # (p, q) -> sign * (-q, p + 1/2 - dist - (c/eps) q)
        mat = (Fraction(0), Fraction(-rot_sign),
               Fraction(rot_sign), -rot_sign * Fraction(c) / epsilon)
        off = (Fraction(0), rot_sign * (Fraction(1, 2) - length))
        maps.append((mat, off))
    return maps


def fraction_composite(steps):
    """(A, b) of the composite of affine maps (A_k, b_k), in Fractions."""
    A = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    b = (Fraction(0), Fraction(0))
    for mat, off in steps:
        a2, b2, c2, d2 = mat
        a1, b1, c1, d1 = A
        A = (a2 * a1 + b2 * c1, a2 * b1 + b2 * d1,
             c2 * a1 + d2 * c1, c2 * b1 + d2 * d1)
        b = (a2 * b[0] + b2 * b[1] + off[0], c2 * b[0] + d2 * b[1] + off[1])
    return A, b


def fraction_embedding(d, w, epsilon):
    """Points [(P_k, Q_k)] of the orbit of w, in Fractions.

    Solves the 2x2 fixed point of ``fraction_composite`` by elimination,
    walks the points and checks closure and the handle, raising the
    library's exception classes with its messages."""
    from reebchords.diagram import DiagramError

    epsilon = Fraction(epsilon)
    steps = step_maps(d, w, epsilon)
    A, b = fraction_composite(steps)
    ia, ib, ic, id_ = 1 - A[0], -A[1], -A[2], 1 - A[3]
    det = ia * id_ - ib * ic
    if det == 0:
        raise ValueError(f"I - A singular for {w} at epsilon {epsilon}")

    def apply(k, u):
        (a, bb, c, dd), off = steps[k]
        return (a * u[0] + bb * u[1] + off[0], c * u[0] + dd * u[1] + off[1])

    u1 = ((id_ * b[0] - ib * b[1]) / det, (-ic * b[0] + ia * b[1]) / det)
    pts = [u1]
    for k in range(len(steps) - 1):
        pts.append(apply(k, pts[-1]))
    if apply(len(steps) - 1, pts[-1]) != u1:
        raise DiagramError(f"fixed point of {w} does not close up")
    for p, _q in pts:
        if abs(p) >= epsilon:
            raise ValueError(
                f"orbit of {w} escapes the handle at epsilon {epsilon}: "
                f"|P| = {abs(p)}")
    return pts


def embedding_points(hpoints):
    """[(P_k, Q_k)] of ``embed_orbit``'s homogeneous integer points."""
    return [(Fraction(x, z), Fraction(y, z)) for x, y, z in hpoints]


def apply_all(steps, u):
    """The affine maps ``steps`` of ``step_maps``, in order, applied to the
    point u."""
    for (a, b, c, dd), (o0, o1) in steps:
        u = (a * u[0] + b * u[1] + o0, c * u[0] + dd * u[1] + o1)
    return u


def twist_height(epsilon, p):
    """Height profile of the piecewise-linear twist in its affine zone; its
    value -epsilon/8 at p = 0 is the action formula's one model constant."""
    return -Fraction(epsilon) / 8 + p * p / (2 * Fraction(epsilon))


def fraction_orbit_action(d, w, epsilon, pts):
    """Sum of action - P Q + c twist_height(P) over the letters."""
    total = Fraction(0)
    for k, j in enumerate(w.chords):
        ch = d.chord(j)
        p, q = pts[k]
        total += ch.action - p * q + \
            d.surgery[ch.tail_comp] * twist_height(epsilon, p)
    return total


# -- convex polygon clipping for the trimmed affine dynamics -----------------

def clip_halfplane(poly, a, b, c):
    """Vertices of poly cut to the side a*x + b*y <= c."""
    out = []
    n = len(poly)
    for i in range(n):
        p = poly[i]
        q = poly[(i + 1) % n]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp <= 0:
            out.append(p)
        if (fp < 0 < fq) or (fq < 0 < fp):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    dedup = []
    for p in out:
        if not dedup or dedup[-1] != p:
            dedup.append(p)
    if len(dedup) > 1 and dedup[0] == dedup[-1]:
        dedup.pop()
    return dedup


def _iterate_trim(steps, w, rounds):
    poly = [(-w, -w), (w, -w), (w, w), (-w, w)]
    for _ in range(rounds):
        for mat, off in steps:
            a, b, c, d = mat
            poly = [(a * x + b * y + off[0], c * x + d * y + off[1])
                    for x, y in poly]
            for ha, hb, hc in ((1, 0, w), (-1, 0, w), (0, 1, w), (0, -1, w)):
                poly = clip_halfplane(poly, ha, hb, hc)
                if len(poly) < 1:
                    return []
    return poly


def _invert_steps(steps):
    out = []
    for (a, b, c, d), (e, f) in reversed(steps):
        det = a * d - b * c
        ia, ib, ic, id_ = d / det, -b / det, -c / det, a / det
        out.append(((ia, ib, ic, id_),
                    (-(ia * e + ib * f), -(ic * e + id_ * f))))
    return out


def convex_intersection(p1, p2):
    poly = p1
    n = len(p2)
    for i in range(n):
        a = p2[i]
        b = p2[(i + 1) % n]
        ha = b[1] - a[1]
        hb = -(b[0] - a[0])
        hc = ha * a[0] + hb * a[1]
        poly = clip_halfplane(poly, ha, hb, hc)
        if not poly:
            return []
    return poly


def trimmed_flow_polygon(steps, eps, rounds=60):
    """Trap the model flow in the handle window, forward and backward.

    Forward trimming contracts onto the unstable segment and backward
    trimming onto the stable one; their intersection shrinks to the unique
    periodic point.  Returns that convex polygon (possibly empty).
    """
    w = Fraction(eps)
    fwd = _iterate_trim(steps, w, rounds)
    if not fwd:
        return []
    bwd = _iterate_trim(_invert_steps(steps), w, rounds)
    if not bwd:
        return []
    if len(fwd) < 3:
        return fwd
    if len(bwd) < 3:
        return bwd
    return convex_intersection(fwd, bwd)


def poly_diameter_sq(poly):
    best = Fraction(0)
    for i in range(len(poly)):
        for j in range(i + 1, len(poly)):
            dx = poly[i][0] - poly[j][0]
            dy = poly[i][1] - poly[j][1]
            best = max(best, dx * dx + dy * dy)
    return best


def point_in_convex(poly, p):
    n = len(poly)
    for i in range(n):
        a = poly[i]
        b = poly[(i + 1) % n]
        crossv = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
        if crossv < 0:
            return False
    return True


# -- front combinatorics oracle ----------------------------------------------

def trace_front(events):
    """Strand-stack simulation returning basic front statistics."""
    stack = []
    nxt = 0
    pairs = []
    joins = []
    crossings = 0
    for kind, pos in events:
        if kind == "L":
            a, b = nxt, nxt + 1
            nxt += 2
            stack[pos - 1:pos - 1] = [a, b]
            pairs.append((a, b))
        elif kind == "X":
            stack[pos - 1], stack[pos] = stack[pos], stack[pos - 1]
            crossings += 1
        else:
            joins.append((stack[pos - 1], stack[pos]))
            del stack[pos - 1:pos + 1]
    assert not stack
    parent = list(range(nxt))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs + joins:
        parent[find(a)] = find(b)
    comps = len({find(i) for i in range(nxt)})
    return {"components": comps, "crossings": crossings,
            "left_cusps": len(pairs), "right_cusps": len(joins)}


def front_writhe_and_cusp_counts(front):
    """(front writhe, linking, down cusps, up cusps), by walking the wires.

    The walk reproduces the resolved diagram's traversal purely
    combinatorially: crossings count +1 when their two strands travel the
    same x-direction, and a cusp counts as a down cusp when the traversal
    passes from its upper strand to its lower one.  The wires are numbered
    by a strand-stack simulation, in the order of their left cusps, as
    ``component_of_wire`` numbers them.
    """
    births, deaths, death_pairs = {}, {}, {}
    stack, nxt = [], 0
    for idx, (kind, pos) in enumerate(front.events):
        if kind == "L":
            births[nxt], births[nxt + 1] = (idx, nxt + 1, "u"), (idx, nxt, "d")
            stack[pos - 1:pos - 1] = [nxt, nxt + 1]
            nxt += 2
        elif kind == "X":
            stack[pos - 1], stack[pos] = stack[pos], stack[pos - 1]
        else:
            upper, lower = stack[pos - 1:pos + 1]
            deaths[upper], deaths[lower] = (idx, lower), (idx, upper)
            death_pairs[idx] = (upper, lower)
            del stack[pos - 1:pos + 1]
    comp_of = front.component_of_wire
    n = front.n_components
    direction = {}
    seen = set()
    down = {i: 0 for i in range(n)}
    up = {i: 0 for i in range(n)}
    for start in sorted(births):
        if start in seen:
            continue
        comp = comp_of[start]
        flip = front.orientations.get(comp, 1) == 1   # default reverses walk
        wid = start
        forward = True
        while True:
            seen.add(wid)
            travels_east = forward != flip
            direction[wid] = 1 if travels_east else -1
            if forward:
                ev, partner = deaths[wid]
                upper, _lower = death_pairs[ev]
                entering = partner if flip else wid
                if entering == upper:
                    down[comp] += 1
                else:
                    up[comp] += 1
                wid = partner
            else:
                _ev, sib, role = births[wid]
                entering_role = (
                    births[sib][2] if flip else role)
                if entering_role == "u":
                    down[comp] += 1
                else:
                    up[comp] += 1
                wid = sib
            forward = not forward
            if wid == start and forward:
                break
    stack_ids = []
    next_wid = 0
    writhe = {i: 0 for i in range(n)}
    linking = {}
    for kind, pos in front.events:
        if kind == "L":
            stack_ids[pos - 1:pos - 1] = [next_wid, next_wid + 1]
            next_wid += 2
        elif kind == "X":
            a, b = stack_ids[pos - 1], stack_ids[pos]
            ca, cb = comp_of[a], comp_of[b]
            sign = 1 if direction[a] == direction[b] else -1
            if ca == cb:
                writhe[ca] += sign
            else:
                key = frozenset((ca, cb))
                linking[key] = linking.get(key, 0) + sign
            stack_ids[pos - 1], stack_ids[pos] = b, a
        else:
            del stack_ids[pos - 1:pos + 1]
    return writhe, linking, down, up


def k_copy(front, k):
    """The FrontCode of k Reeb push-offs of every component of ``front``.

    Each strand at position p becomes k strands from b = (p - 1) k + 1 on.
    A left cusp becomes k nested cusps, whose crossings at b - 1 + q for q
    in 2j, 2j - 1, ..., j + 1 (j = 1 ... k - 1) sort them into an upper and
    a lower half; a right cusp takes the same block turned by a half turn
    (positions q -> 2k - q, in reverse order), then k cusps; a crossing
    becomes the k^2 crossings at b + k - 1 + j - i (j, i = 0 ... k - 1)
    that swap two blocks of k.  Copy j of component c is component
    c k + j, with c's coefficient and orientation."""
    from reebchords.diagram import FrontCode

    sort = [q for j in range(1, k) for q in range(2 * j, j, -1)]
    events = []
    for kind, p in front.events:
        b = (p - 1) * k + 1
        if kind == "L":
            events += [f"L{b}"] * k + [f"X{b - 1 + q}" for q in sort]
        elif kind == "R":
            events += [f"X{b - 1 + 2 * k - q}" for q in reversed(sort)]
            events += [f"R{b}"] * k
        else:
            events += [f"X{b + k - 1 + j - i}"
                       for j in range(k) for i in range(k)]
    return FrontCode(events,
                     {c * k + j: v for c, v in front.orientations.items()
                      for j in range(k)},
                     {c * k + j: v for c, v in front.surgery.items()
                      for j in range(k)})


def stabilize(front, position, times):
    """The FrontCode of ``front``, whose first event is L1, with ``times``
    zigzags on the strand at ``position`` (1 or 2) right after it: each
    is L(position + 1),R(position), a cusp opened just below the strand
    whose upper branch the strand then joins, so the strand runs on as
    the cusp's lower branch.  Position 1 gives ``L2,R1``.  Coefficients
    and orientations are kept."""
    from reebchords.diagram import FrontCode

    assert front.events[0] == ("L", 1) and position in (1, 2)
    zigzag = [("L", position + 1), ("R", position)]
    return FrontCode(front.events[:1] + zigzag * times + front.events[1:],
                     front.orientations, front.surgery)


def front_text(front):
    """The grammar text of a FrontCode: events, an orientations block when
    some component is reversed, and every surgery coefficient."""
    events = ",".join(f"{kind}{p}" for kind, p in front.events)
    n = front.n_components
    parts = [events]
    if any(v < 0 for v in front.orientations.values()):
        parts.append("orientations {" + ", ".join(
            f"{i}:{'+' if front.orientations[i] > 0 else '-'}"
            for i in range(n)) + "}")
    parts.append("surgery {" + ", ".join(
        f"{i}:{front.surgery[i]:+d}" if front.surgery[i] else f"{i}:0"
        for i in range(n)) + "}")
    return " / ".join(parts)


# -- the chord quiver by brute force -------------------------------------------

def count_cycles(d, length):
    """Cyclic words of composable chords of exactly this length, up to
    rotation, over every letter sequence."""
    seen = set()
    for seq in itertools.product([c.id for c in d.chords], repeat=length):
        if all(d.composable(seq[k - 1], seq[k]) for k in range(length)):
            seen.add(min(seq[k:] + seq[:k] for k in range(length)))
    return len(seen)


def brute_force_orbit_words(d, max_len=None, max_action=None, epsilon=None):
    """The chord tuples of the orbit words within the bounds, by length and
    then lexicographically, over every sequence of surgered chords: a word
    is cyclically composable, its own least rotation, and its ``Fraction``
    action is at most max_action + 3 eps per letter.  Without max_len the
    lengths stop where n letters cost more than the bound at length n."""
    chords = [c for c in d.chords
              if d.surgery[c.tail_comp] and d.surgery[c.tip_comp]]
    slack = 3 * epsilon if epsilon is not None else Fraction(0)
    least = min((c.action for c in chords), default=None)
    out, n = [], 1
    while (max_len is None or n <= max_len) and least is not None and \
            (max_action is None or n * least <= max_action + slack * n):
        for seq in itertools.product(chords, repeat=n):
            ids = tuple(c.id for c in seq)
            if any(seq[k - 1].tip_comp != seq[k].tail_comp
                   for k in range(n)) or \
                    any(ids[k:] + ids[:k] < ids for k in range(1, n)):
                continue
            if max_action is None or \
                    sum(c.action for c in seq) <= max_action + slack * n:
                out.append(ids)
        n += 1
    return out


def edges_from(d, vertex):
    """(chord, tip component) of each chord leaving the component."""
    return [(c.id, c.tip_comp) for c in d.chords if c.tail_comp == vertex]


def count_paths(d, start, end, length):
    """Chord paths of exactly this length from component start to end."""
    ends = [start]
    for _ in range(length):
        ends = [b for a in ends for _e, b in edges_from(d, a)]
    return ends.count(end)


# -- elementary divisors and solves of small integer matrices -----------------

def divisors_2x2(m):
    (a, b), (c, d) = m
    entries = [a, b, c, d]
    if all(v == 0 for v in entries):
        return (0, 0)
    g = 0
    for v in entries:
        g = gcd(g, abs(v))
    det = a * d - b * c
    if det == 0:
        return (g, 0)
    return (g, abs(det) // g)


def gauss_jordan_solve(mat, rhs):
    """x with mat x = rhs by Gauss-Jordan elimination over the rationals;
    AssertionError when mat is singular."""
    n = len(mat)
    a = [[Fraction(v) for v in row] + [Fraction(rhs[i])]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        assert piv is not None, "singular matrix"
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                for cc in range(col, n + 1):
                    a[r][cc] -= f * a[col][cc]
    return [a[i][n] / a[i][i] for i in range(n)]


# -- template realization by brute force --------------------------------------

class Segment(object):
    """Closed segment with endpoints on the rational grid."""

    def __init__(self, a, b):
        from reebchords.geometry import direction_octant

        self.a = a
        self.b = b
        self.octant = direction_octant(a, b)

    def __repr__(self):
        return f"Segment({self.a} -> {self.b})"

    def line_side(self, p):
        return cross(sub(self.b, self.a), sub(p, self.a))

    def param_of(self, p):
        """Parameter t in [0, 1] of a point assumed to lie on the segment."""
        d = sub(self.b, self.a)
        if d[0] != 0:
            return Fraction(p[0] - self.a[0], d[0])
        return Fraction(p[1] - self.a[1], d[1])

    def point_at(self, t):
        return (self.a[0] + t * (self.b[0] - self.a[0]),
                self.a[1] + t * (self.b[1] - self.a[1]))

    def contains(self, p, closed=True):
        if self.line_side(p) != 0:
            return False
        t = self.param_of(p)
        if closed:
            return 0 <= t <= 1
        return 0 < t < 1


def sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def segment_intersection(s1, s2):
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
    t = Fraction(cross(w, d2), denom)
    u = Fraction(cross(w, d1), denom)
    if 0 <= t <= 1 and 0 <= u <= 1:
        return s1.point_at(t)
    return None


def cycle_segments(cycles):
    """One ``Segment`` list per closed point cycle."""
    return [[Segment(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]
            for cyc in cycles]


_WALK_TABLES = weakref.WeakKeyDictionary()


def walk_tables(d):
    """(segments, lengths) of a diagram's components: ``cycle_segments`` and
    each cycle's Chebyshev length, summed over its segments.  The capping
    walks read them once per letter, so they are built once per diagram,
    in a table that holds the diagram weakly and ends with it."""
    if d not in _WALK_TABLES:
        segments = cycle_segments(d.components)
        _WALK_TABLES[d] = segments, [
            sum(max(abs(s.b[0] - s.a[0]), abs(s.b[1] - s.a[1])) for s in segs)
            for segs in segments]
    return _WALK_TABLES[d]


def boxes_overlap(s1, s2):
    return not (max(s1.a[0], s1.b[0]) < min(s2.a[0], s2.b[0])
                or max(s2.a[0], s2.b[0]) < min(s1.a[0], s1.b[0])
                or max(s1.a[1], s1.b[1]) < min(s2.a[1], s2.b[1])
                or max(s2.a[1], s2.b[1]) < min(s1.a[1], s1.b[1]))


def all_pairs_double_points(segments):
    """{point: [(comp, seg), (comp, seg)]} over closed polylines, one segment
    list per component, by testing every pair of non-adjacent segments."""
    flat = [(ci, si, s) for ci, segs in enumerate(segments)
            for si, s in enumerate(segs)]
    hits = {}
    for a, (ci1, si1, s1) in enumerate(flat):
        for ci2, si2, s2 in flat[a + 1:]:
            n = len(segments[ci1])
            if ci1 == ci2 and (si1 - si2) % n in (1, n - 1):
                continue
            if not boxes_overlap(s1, s2):
                continue
            p = segment_intersection(s1, s2)
            if p is not None:
                hits.setdefault(p, []).extend([(ci1, si1), (ci2, si2)])
    return hits


def crossing_z_gaps(components, slabs):
    """{event: (z-gap, high comp, low comp)} of concrete oriented cycles.

    The gap is z of the slope -1 branch minus z of the other one, with each
    component's z starting at 0 on its first vertex.  Twice each height is
    summed first and halved once, as a ``Fraction``."""
    segments = cycle_segments(components)
    zlists = []
    for segs in segments:
        zs = [0]
        for s in segs:
            zs.append(zs[-1] + (s.a[1] + s.b[1]) * (s.b[0] - s.a[0]))
        zlists.append(zs)
    gaps = {}
    for p, branches in all_pairs_double_points(segments).items():
        assert len(branches) == 2, f"triple point at {p}"

        def z_at(ci, si):
            s = segments[ci][si]
            return Fraction(zlists[ci][si]
                            + (s.a[1] + p[1]) * (p[0] - s.a[0]), 2)

        over, under = sorted(
            branches, key=lambda b: segments[b[0]][b[1]].octant not in (3, 7))
        ev = next(i for i, (sx, ex) in enumerate(slabs) if sx < p[0] < ex)
        assert ev not in gaps, f"two crossings inside event slab {ev}"
        gaps[ev] = (z_at(*over) - z_at(*under), over[0], under[0])
    return gaps


def event_slabs(front):
    """Each event's x-range in the template as two (c, k) pairs: an event
    at c is 16 wide for a left cusp, 8 for a crossing and 22 for a right
    cusp, whose loop stretch is one more size inside it, and the next event
    starts 4 further on, after one more size."""
    slabs, c, k = [], 0, 0
    for kind, _ in front.events:
        width, end = {"L": 16, "X": 8, "R": 22}[kind], k + (kind == "R")
        slabs.append(((c, k), (c + width, end)))
        c, k = c + width + 4, end + 1
    return slabs


def template_at(front, theta):
    """(components, slabs) of a front's template at the sizes theta: a
    vertex (c, y, k) of the layout is at x = c plus the running sum of
    theta over the first k entries of its size order, and each component
    is merged at theta on its own and oriented.  Integer sizes give
    integer coordinates, ``Fraction`` sizes ``Fraction``s."""
    from reebchords.diagram import _assemble_components, _build_wires
    from reebchords.geometry import merge_collinear

    wires, _, order = _build_wires(front)
    slabs = event_slabs(front)
    sums = list(itertools.accumulate((theta[v] for v in order), initial=0))
    comps = []
    for i, cyc in enumerate(_assemble_components(front, wires)):
        cyc = merge_collinear([(c + sums[k], y) for c, y, k in cyc])
        if front.orientations.get(i, 1) == 1:
            cyc = cyc[::-1]
        comps.append(cyc)
    return comps, [(a + sums[ka], b + sums[kb])
                   for (a, ka), (b, kb) in slabs]


def fd_sizing_rows(front, action_margin):
    """The template LP (number of variables, eq rows, ge rows) by finite
    differences.

    The template is evaluated in integers at theta = 0 and at every unit
    vector, each instance merged on its own; each measures its closure
    integrals and, by an all-pairs scan, its crossing z-gaps, dividing
    only through ``Fraction``.
    """
    x_events = [i for i, (k, _) in enumerate(front.events)
                if k in ("X", "R")]
    n_comp = front.n_components
    n_geom = front.n_right_cusps + len(front.events)
    n_shift = 2 * (n_comp - 1)

    def measure(theta):
        comps, slabs = template_at(front, theta)
        gaps = crossing_z_gaps(comps, slabs)
        assert sorted(gaps) == x_events
        closures = [Fraction(sum((a[1] + b[1]) * (b[0] - a[0]) for a, b in
                                 zip(c, c[1:] + c[:1])), 2) for c in comps]
        return closures, [gaps[ev] for ev in x_events]

    zero = [0] * n_geom
    base_close, base_gaps = measure(zero)
    cols = []
    for k in range(n_geom):
        unit = list(zero)
        unit[k] = 1
        close, gaps = measure(unit)
        cols.append([v - b for v, b in zip(close, base_close)]
                    + [g - b for (g, _, _), (b, _, _) in zip(gaps, base_gaps)])
    eq = [([cols[k][c] for k in range(n_geom)] + [Fraction(0)] * n_shift,
           -base_close[c]) for c in range(n_comp)]
    ge = []
    for j, (gap, hi, lo) in enumerate(base_gaps):
        shift = [Fraction(0)] * n_shift
        for comp, sgn in ((hi, 1), (lo, -1)):
            if comp > 0:
                shift[2 * (comp - 1)] += sgn
                shift[2 * (comp - 1) + 1] -= sgn
        ge.append(([cols[k][n_comp + j] for k in range(n_geom)] + shift,
                   action_margin - gap))
    return n_geom + n_shift, eq, ge


# -- the realization in Fractions --------------------------------------------

def sizing_solution(front, action_margin=Fraction(32)):
    """The sizing LP's solution theta for a front: the sizes in ``order``'s
    indices, then s+ and s- per component after the first."""
    from reebchords.diagram import _sizing_rows, _template
    from reebchords.lp import solve_lp

    n, eq, ge = _sizing_rows(*_template(front), action_margin)
    return solve_lp(n, eq, ge, [Fraction(1)] * n)


def fraction_components(front, action_margin=Fraction(32)):
    """The components of a front's template at its sizing LP's solution,
    evaluated and merged in Fractions by ``template_at``."""
    theta = sizing_solution(front, action_margin)
    return [[(Fraction(x), Fraction(y)) for x, y in cyc]
            for cyc in template_at(front, theta)[0]]


def height_shifts(front, action_margin=Fraction(32)):
    """Each component's height constant at the sizing LP's solution: 0 on
    component 0 and s+ - s- on each other, the LP's last columns."""
    theta = sizing_solution(front, action_margin)
    return [Fraction(0)] + [theta[k] - theta[k + 1] for k in
                            range(len(theta) - 2 * (front.n_components - 1),
                                  len(theta), 2)]


def component_lengths(d):
    """Each component's Chebyshev length in Fractions, from its int over
    the diagram's scale."""
    return [Fraction(t, d._scale) for t in d.lengths]


def chord_point(d, c):
    """A chord's double point in Fractions, from its ints over the
    diagram's scale."""
    return tuple(Fraction(v, d._scale) for v in c._q)


def face_boundary(d, f):
    """A face's ccw boundary cycle in Fractions, from its ring of ints over
    the diagram's scale."""
    return [tuple(Fraction(v, d._scale) for v in p) for p in f._ring]


def passage_arcs(d):
    """passage_arcs(d)[ci][k]: passage arc k of component ci in Fractions,
    from the diagram's arcs of ints over its scale."""
    s = d._scale
    return [[[tuple(Fraction(v, s) for v in p) for p in arc] for arc in arcs]
            for arcs in d._arcs]


def fraction_arcs(d):
    """The passage arcs assembled from Fraction points: each component's
    chord ends sorted by segment and then parameter, and from each, its
    chord point, the vertices up to the next end's segment and that end's
    chord point."""
    ends = [[] for _ in d.components]
    for c in d.chords:
        for ci, (si, t) in ((c.tail_comp, c.tail_loc),
                            (c.tip_comp, c.tip_loc)):
            ends[ci].append((si, t, chord_point(d, c)))
    arcs = []
    for cyc, plist in zip(d.components, ends):
        plist.sort(key=lambda end: end[:2])
        n = len(cyc)
        arcs.append([[p] + [cyc[(si + i) % n]
                            for i in range(1, (sj - si) % n + 1)] + [q]
                     for (si, _, p), (sj, _, q)
                     in zip(plist, plist[1:] + plist[:1])])
    return arcs


def polygon_signed_area(points):
    """Shoelace area of a closed polyline, counterclockwise positive."""
    n = len(points)
    return sum(points[i][0] * points[(i + 1) % n][1]
               - points[(i + 1) % n][0] * points[i][1]
               for i in range(n)) / 2


def point_segment_distance_sq(p, s):
    """Squared distance from p to the segment s, by projecting p onto its
    line and clamping the parameter to [0, 1]."""
    dx, dy = s.b[0] - s.a[0], s.b[1] - s.a[1]
    wx, wy = p[0] - s.a[0], p[1] - s.a[1]
    t = min(max((wx * dx + wy * dy) / (dx * dx + dy * dy), 0), 1)
    qx, qy = s.a[0] + t * dx - p[0], s.a[1] + t * dy - p[1]
    return qx * qx + qy * qy


def fraction_measures(d, action_margin=Fraction(32)):
    """(lengths, chords) of a resolved diagram, measured in Fractions on its
    components: each component's Chebyshev length, and per double point of
    the all-pairs scan, in x order, (point, action, tail_loc, tip_loc) with
    the slope -1 branch high, from heights by the trapezoid rule from 0 at
    vertex 0 plus the component's constant (``height_shifts`` at the
    diagram's ``action_margin``) and cumulative Chebyshev lengths."""
    shifts = height_shifts(d.front, action_margin)
    z_at, cheb = [], []
    segments = cycle_segments(d.components)
    for segs in segments:
        zs, cl = [Fraction(0)], [Fraction(0)]
        for s in segs:
            zs.append(zs[-1] + (s.a[1] + s.b[1]) * (s.b[0] - s.a[0]) / 2)
            cl.append(cl[-1] + max(abs(s.b[0] - s.a[0]),
                                   abs(s.b[1] - s.a[1])))
        z_at.append(zs[:-1])
        cheb.append(cl)

    def height_and_param(ci, si, p):
        s = segments[ci][si]
        z = shifts[ci] + z_at[ci][si] + \
            (s.a[1] + p[1]) * (p[0] - s.a[0]) / 2
        step = max(abs(s.b[0] - s.a[0]), abs(s.b[1] - s.a[1]))
        return z, cheb[ci][si] + s.param_of(p) * step

    chords = []
    for p, branches in sorted(all_pairs_double_points(segments).items()):
        over, under = sorted(
            branches, key=lambda b: segments[b[0]][b[1]].octant not in (3, 7))
        (z_hi, t_hi), (z_lo, t_lo) = (height_and_param(*over, p),
                                      height_and_param(*under, p))
        chords.append((p, z_hi - z_lo, (under[1], t_lo), (over[1], t_hi)))
    return [cl[-1] for cl in cheb], chords


def all_segments_basepoint(d, face):
    """The basepoint of a face by the search that tests every segment and
    every crossing: step into each corner's wedge from its double point by
    1, 1/2, ..., 1/256, and take the first point inside the face whose
    distance to every segment and crossing exceeds half the step."""
    from reebchords.diagram import QUADRANT_VECTORS
    from reebchords.geometry import winding_number

    all_segs = [s for segs in cycle_segments(d.components) for s in segs]
    crossings = [chord_point(d, c) for c in d.chords]
    boundary = face_boundary(d, face)

    def good(p, clear):
        clear_sq = clear * clear
        try:
            if winding_number(boundary, p) != 1:
                return False
        except ValueError:
            return False
        for q in crossings:
            dq = sub(p, q)
            if dq[0] * dq[0] + dq[1] * dq[1] <= clear_sq:
                return False
        return all(point_segment_distance_sq(p, s) > clear_sq
                   for s in all_segs)

    offset = Fraction(1)
    while offset >= Fraction(1, 256):
        for cid, quad, _sign in face.corners:
            q = chord_point(d, d.chord(cid))
            dx, dy = QUADRANT_VECTORS[quad]
            p = (q[0] + offset * dx, q[1] + offset * dy)
            if good(p, offset / 2):
                return p
        offset /= 2
    return None


# -- faces and turning from the points ----------------------------------------

OCTANTS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1),
           (1, -1))
AXIS_NAMES = {(1, 0): "E", (0, 1): "N", (-1, 0): "W", (0, -1): "S"}


def _unit(v):
    """Componentwise sign of a vector, e.g. (1, -1) for (3, -3)."""
    return ((v[0] > 0) - (v[0] < 0), (v[1] > 0) - (v[1] < 0))


def _octant(a, b):
    return OCTANTS.index(_unit((b[0] - a[0], b[1] - a[1])))


def turn_octants(o_in, o_out):
    """Signed turn from octant o_in to o_out in eighth-turns, in (-4, 4];
    4 is a reversal."""
    d = (o_out - o_in) % 8
    return d - 8 if d > 4 else d


def turning_number(points):
    """Degree of the Gauss map of a closed polyline: its octant changes at
    every vertex summed in eighth-turns, over 8.  ValueError on a U-turn or
    a total that is not a whole number of turns."""
    n = len(points)
    octs = [_octant(points[i], points[(i + 1) % n]) for i in range(n)]
    total = 0
    for i in range(n):
        t = (octs[(i + 1) % n] - octs[i]) % 8
        if t == 4:
            raise ValueError(f"U-turn at vertex {points[(i + 1) % n]}")
        total += t - 8 if t > 4 else t
    if total % 8 != 0:
        raise ValueError("turning total not a multiple of 2 pi")
    return Fraction(total, 8)


def trace_faces_by_points(d):
    """(faces, outer area) of a diagram by tracing its passage arcs, as
    ``fraction_arcs`` assembles them, as a planar graph keyed by points.
    At every node a half-edge continues with the departing half-edge
    nearest clockwise from its way back; each
    corner's chord is the one at the node, its sign is +1 when the walk
    jumps from the slope +1 strand to the slope -1 one, and its quadrant is
    the axis between the way back and the way out.  The faces are the
    cycles of positive area as (corners, area, boundary), sorted by the
    least x and then least y of the boundary; the outer area is minus the
    sum of the negative ones."""
    arcs = [a for arcs in fraction_arcs(d) for a in arcs]
    chord_at = {chord_point(d, c): c.id for c in d.chords}
    halves = [(ai, step) for ai in range(len(arcs)) for step in (1, -1)]
    points = [arcs[ai][::step] for ai, step in halves]
    departs = {}
    for he, pts in enumerate(points):
        departs.setdefault(pts[0], []).append((he, _octant(pts[0], pts[1])))
    following = {}
    for he, pts in enumerate(points):
        back = _octant(pts[-1], pts[-2])
        turns = [((back - o) % 8, cand) for cand, o in departs[pts[-1]]
                 if o != back]
        if not turns:
            raise ValueError(f"dead end at {pts[-1]}")
        following[he] = min(turns)[1]
    seen = set()
    faces = []
    outer = Fraction(0)
    for start in range(len(halves)):
        if start in seen:
            continue
        boundary, corners = [], []
        he = start
        while he not in seen:
            seen.add(he)
            pts, nxt = points[he], points[following[he]]
            boundary.extend(pts[:-1])
            d_in = _unit((pts[-1][0] - pts[-2][0], pts[-1][1] - pts[-2][1]))
            d_out = _unit((nxt[1][0] - nxt[0][0], nxt[1][1] - nxt[0][1]))
            in_high = d_in[0] == -d_in[1]
            if in_high == (d_out[0] == -d_out[1]):
                raise ValueError("corner does not switch strands")
            quad = AXIS_NAMES[_unit((d_out[0] - d_in[0],
                                     d_out[1] - d_in[1]))]
            corners.append((chord_at[pts[-1]], quad, -1 if in_high else 1))
            he = following[he]
        assert he == start, "face walk does not close up"
        n = len(boundary)
        area = sum(boundary[i][0] * boundary[(i + 1) % n][1]
                   - boundary[(i + 1) % n][0] * boundary[i][1]
                   for i in range(n)) / 2
        if area < 0:
            outer -= area
        else:
            faces.append((corners, area, boundary))
    faces.sort(key=lambda f: (min(p[0] for p in f[2]),
                              min(p[1] for p in f[2])))
    return faces, outer


# -- capping paths and push-outs as whole curves -----------------------------

def all_orbit_strings(word):
    """Every side choice of a cyclic word, one 'eta' or 'etabar' per letter,
    the first letter's side changing fastest.  The library rides 'eta'
    only, the capping arc that follows the component's orientation."""
    return [sides[::-1] for sides in
            itertools.product(("eta", "etabar"), repeat=len(word.chords))]


def capping_walk(d, j1, j2, side):
    """(points, turn_eighths, norm_length) of capping arc (j1, j2, side),
    walked segment by segment from r_j1's tip to r_j2's tail: forward along
    the component for eta, backward for etabar.  The points are the two
    chord points and every vertex between; the turning sums the octant
    changes at those vertices, in pi/4 units; the length is the Chebyshev
    length walked over the component's.  The library reads the rotation
    off the front's Maslov potential (``FrontCode.capping_rotation``) and
    sums the length over the passage arcs it runs."""
    c1, c2 = d.chord(j1), d.chord(j2)
    segments, lengths = walk_tables(d)
    segs = segments[c1.tip_comp]
    (s1, t1), (s2, t2) = c1.tip_loc, c2.tail_loc
    step = 1 if side == "eta" else -1
    count = step * (s2 - s1) % len(segs)
    if count == 0 and step * (t2 - t1) < 0:
        count = len(segs)           # round the whole component
    seg_ids = [(s1 + step * k) % len(segs) for k in range(count + 1)]
    octants = [(segs[k].octant + (0 if step == 1 else 4)) % 8
               for k in seg_ids]
    turns = sum(turn_octants(a, b) for a, b in zip(octants, octants[1:]))
    points = [chord_point(d, c1)]
    for k in seg_ids[1:]:
        vertex = segs[k].a if step == 1 else segs[k].b
        if vertex != points[-1]:
            points.append(vertex)
    if chord_point(d, c2) != points[-1]:
        points.append(chord_point(d, c2))

    walked = sum(max(abs(b[0] - a[0]), abs(b[1] - a[1]))
                 for a, b in zip(points, points[1:]))
    return points, turns, walked / lengths[c1.tip_comp]


_ROT_NUMBERS = weakref.WeakKeyDictionary()


def rot_number(d, j1, j2):
    """floor(theta / pi) of the eta capping arc of r_j1 r_j2, from the
    turning of its walk (theta = turns * pi/4).  The reference return maps
    read one per letter of every word they multiply, so each is walked once
    per diagram, in a table that holds the diagram weakly."""
    table = _ROT_NUMBERS.setdefault(d, {})
    if (j1, j2) not in table:
        table[j1, j2] = capping_walk(d, j1, j2, "eta")[1] // 4
    return table[j1, j2]


def endpoints_between(d, j1, j2, side):
    """The chord ends met strictly inside capping arc (j1, j2, side), in
    travel order, as (chord id, 'tail'|'tip'): every chord end of the
    component placed by its parameter offset from r_j1's tip."""
    comp = d.chord(j1).tip_comp
    total = walk_tables(d)[1][comp]
    start, end = d.chord(j1).tip_loc[1], d.chord(j2).tail_loc[1]
    if side == "eta":
        length = (end - start) % total or total
    else:
        length = -((start - end) % total) or -total
    out = []
    for c in d.chords:
        for role, ccomp, loc in (("tail", c.tail_comp, c.tail_loc),
                                 ("tip", c.tip_comp, c.tip_loc)):
            if ccomp != comp:
                continue
            if length > 0:
                off = (loc[1] - start) % total
            else:
                off = -((start - loc[1]) % total)
            if 0 < off < length or length < off < 0:
                out.append((c.id, role, off))
    out.sort(key=lambda e: abs(e[2]))
    return [(cid, role) for cid, role, _ in out]


def arc_pass_counts(d, j1, j2, side):
    """Signed crossing counts per component of the pushed-off capping arc,
    read off ``endpoints_between``."""
    counts = [0] * len(d.components)
    ride_sign = 1 if side == "eta" else -1
    for cid, role in endpoints_between(d, j1, j2, side):
        ch = d.chord(cid)
        comp = ch.tip_comp if role == "tail" else ch.tail_comp
        counts[comp] += ride_sign * ch.sign
    return counts


def whole_arc_piece(d, j1, j2, side, offset):
    """(start, end, crossings) of the push-out piece along capping arc
    (j1, j2, side), built in one pass: the whole capping path offset and
    wound around each face basepoint (crossings None when it touches one).
    The library sums the same crossings over passage intervals."""
    from reebchords.geometry import offset_polyline, winding_number

    coeff = d.surgery[d.chord(j1).tip_comp]
    if coeff == 0:
        raise ValueError(f"capping path of r{j1}r{j2} rides an "
                         f"unsurgered component")
    ride_side = "left" if coeff == 1 else "right"
    arc = offset_polyline(capping_walk(d, j1, j2, side)[0], ride_side,
                          offset)
    points = [arc[0]] + [q for p, q in zip(arc, arc[1:]) if q != p]
    try:
        crossings = tuple(winding_number(points, f.basepoint, closed=False)
                          for f in d.faces_list)
    except ValueError:
        crossings = None
    return points[0], points[-1], crossings


def unshifted_windings(d, w):
    """Windings of the orbit of w around the face basepoints, read off the
    unshifted passage arcs: the ray crossings of each letter's passage arcs
    as open pieces, summed.  The arcs of a cyclic word close up at its chord
    points, so no offset and no jump enters."""
    from reebchords.geometry import winding_number

    totals = [0] * len(d.faces_list)
    views = passage_arcs(d)
    for j1, j2 in w.pairs():
        arcs = views[d.chord(j1).tip_comp]
        for k in d.letter(j1, j2).arcs:
            for i, f in enumerate(d.faces_list):
                totals[i] += winding_number(arcs[k], f.basepoint,
                                            closed=False)
    return tuple(totals)


def pushout_linking(d, w, sides):
    """{component: linking number} of the push-out of w along ``sides``:
    half the arc passes past chord endpoints plus the local terms at each
    chord of the word, where a ride on the 'etabar' side reaches the chord
    across the other strand and trades one crossing with each component."""
    n = len(w.chords)
    counts = {i: 0 for i in d.surgery}
    for k, (j1, j2) in enumerate(w.pairs()):
        for i, v in enumerate(arc_pass_counts(d, j1, j2, sides[k])):
            counts[i] += v
    for k, j in enumerate(w.chords):
        ch = d.chord(j)
        c_tail, c_tip = d.surgery[ch.tail_comp], d.surgery[ch.tip_comp]
        counts[ch.tail_comp] += (c_tail + ch.sign) // 2
        counts[ch.tip_comp] += (c_tip + ch.sign) // 2
        if sides[(k - 1) % n] == "etabar":      # ride into the tail
            counts[ch.tail_comp] -= c_tail
            counts[ch.tip_comp] -= ch.sign
        if sides[k] == "etabar":                # ride out of the tip
            counts[ch.tip_comp] -= c_tip
            counts[ch.tail_comp] -= ch.sign
    return {i: Fraction(t, 2) for i, t in counts.items()}


def full_curve_pushout(d, w, sides, arcs):
    """(offset, points, windings, linking) of a push-out built word by word
    along the capping sides ``sides``, one per letter.

    The curve is the whole closed polyline of offset capping arcs at the
    first offset in 1/8, 1/16, ... (8 tries) where it avoids every face
    basepoint, wound around each basepoint in one piece.  The linking is
    ``pushout_linking``.  ``arcs`` is a dict the caller keeps per diagram;
    it holds each offset capping arc once computed."""
    from reebchords.geometry import offset_polyline, winding_number

    offset = Fraction(1, 8)
    for _attempt in range(8):
        pts = []
        for k, (j1, j2) in enumerate(w.pairs()):
            key = (j1, j2, sides[k], offset)
            if key not in arcs:
                ride = "left" if d.surgery[d.chord(j1).tip_comp] == 1 \
                    else "right"
                arcs[key] = offset_polyline(
                    capping_walk(d, j1, j2, sides[k])[0], ride, offset)
            for p in arcs[key]:
                if not pts or pts[-1] != p:
                    pts.append(p)
        if pts[0] == pts[-1]:
            pts.pop()
        # winding_number never divides, so it is exact on the curve scaled
        # to integer coordinates, where it runs far faster than on fractions
        bps = [f.basepoint for f in d.faces_list]
        scale = lcm(*(x.denominator for q in pts + bps for x in q))

        def scaled(q):
            return tuple(x.numerator * (scale // x.denominator) for x in q)

        curve = [scaled(q) for q in pts]
        try:
            windings = tuple(winding_number(curve, scaled(bp)) for bp in bps)
            break
        except ValueError:
            offset /= 2
    else:
        raise AssertionError(f"push-out of {w} keeps hitting a basepoint")
    return offset, pts, windings, pushout_linking(d, w, sides)


def orbit_class_pushout(h1, linking):
    """Homology class of a pushed-out orbit from its linking numbers."""
    from reebchords.homology import OrbitClass

    vec = []
    for i in h1.surgered:
        assert Fraction(linking[i]).denominator == 1, \
            "half-integral linking number in push-out"
        vec.append(int(linking[i]))
    return OrbitClass(h1, vec)


def class_lift(h1, vector):
    """U v of a meridian vector v, summed row by row from the presentation's
    U: what ``OrbitClass.lift`` keeps."""
    return tuple(sum(u * v for u, v in zip(row, vector)) for row in h1.u)


def reduce_class(h1, vector):
    """The cokernel normal form of a meridian vector: its ``class_lift``,
    each coordinate mod its elementary divisor when that is nonzero."""
    return tuple(s % m if m else s
                 for s, m in zip(class_lift(h1, vector), h1.diagonal))


def fibers_over_exponent(d, h1, w):
    """The library's ``effective_fiber_vector`` of w as the fiber counts it
    stands for: ``Fraction``s over ``h1.exponent``."""
    from reebchords.quiver import effective_fiber_vector

    return [Fraction(v, h1.exponent)
            for v in effective_fiber_vector(d, h1, w)]


_COMPONENT_WINDINGS = weakref.WeakKeyDictionary()


def fraction_fiber_vector(d, h1, w):
    """Per-orbit fiber counts in ``Fraction``s by the rational route: the
    push-out's windings plus sum_j x_j times component j's winding at each
    face basepoint, x solving matrix^T x = -(the orbit's class vector) by
    Gauss-Jordan elimination.  The library keeps them as ints over
    ``h1.exponent`` and solves through the Smith form.  The components'
    windings are wound once per diagram, held weakly as in
    ``walk_tables``."""
    from reebchords.homology import orbit_class_monomial
    from reebchords.words import push_out

    n = len(h1.surgered)
    transpose = [[h1.matrix[j][i] for j in range(n)] for i in range(n)]
    x = gauss_jordan_solve(transpose, [
        -v for v in orbit_class_monomial(d, h1, w).vector])
    return [wind + sum((xj * comp[j] for xj, j in zip(x, h1.surgered)),
                       Fraction(0))
            for wind, comp in zip(push_out(d, w), component_windings(d))]


def component_windings(d):
    """windings[k][j]: the winding of component j around face k's
    basepoint, from the ``Fraction`` components, wound once per diagram
    and held weakly as in ``walk_tables``."""
    from reebchords.geometry import winding_number

    if d not in _COMPONENT_WINDINGS:
        _COMPONENT_WINDINGS[d] = [[winding_number(cyc, f.basepoint)
                                   for cyc in d.components]
                                  for f in d.faces_list]
    return _COMPONENT_WINDINGS[d]


def letter_cap_row(d, h1, letter):
    """One letter's row of the meridian-cap correction over the faces,
    times ``h1.exponent``: sum_j solve(-vector)_j * (component j's
    windings), where vector is the letter's crossing monomial.  ``solve``
    is linear and a word's monomials sum to twice its class vector, so a
    word's rows sum to twice its correction.  The library solves once per
    surgered component instead, into ``quiver._cap_table``."""
    sol = h1.solve([-letter.vector[i] for i in h1.surgered])
    return tuple(sum(x * comp[j] for x, j in zip(sol, h1.surgered))
                 for comp in component_windings(d))


def collection_i_grading(d, h1, words):
    """Intersection grading of a null-homologous collection of orbits, the
    sum of their ``effective_fiber_vector``s; the library grades one orbit
    at a time.  The summed class vector must reduce to zero under
    ``reduce_class`` and the sum must be integral, else DiagramError."""
    from reebchords.diagram import DiagramError
    from reebchords.homology import orbit_class_monomial

    if not h1.finite:
        raise DiagramError("intersection grading needs finite first homology")
    cls = [0] * len(h1.surgered)
    totals = [Fraction(0)] * len(d.faces_list)
    for w in words:
        cls = [a + b for a, b in
               zip(cls, orbit_class_monomial(d, h1, w).vector)]
        totals = [a + b for a, b in
                  zip(totals, fibers_over_exponent(d, h1, w))]
    if any(reduce_class(h1, cls)):
        raise DiagramError("collection is not null-homologous")
    if any(v.denominator != 1 for v in totals):
        raise DiagramError("fractional fiber count on a null-homologous "
                           "collection")
    return tuple(int(v) for v in totals)


def pushout_grading(d, collection, arcs):
    """Intersection grading of a null-homologous collection [(word, sides)]
    read off whole push-out curves, for any capping sides.

    Per face: the curves' windings around its basepoint, plus sum_j x_j
    times component j's winding there, where x solves M x = -(the curves'
    total linking) by Gauss-Jordan elimination and M is the surgery
    relation matrix (tb + c on the diagonal, linking numbers off it) over
    the surgered components.  ``arcs`` is as for ``full_curve_pushout``."""
    from reebchords.geometry import winding_number

    surgered = [i for i in sorted(d.surgery) if d.surgery[i] != 0]
    mat = [[d.tb[i] + d.surgery[i] if i == j else d.linking[i][j]
            for j in surgered] for i in surgered]
    windings = [0] * len(d.faces_list)
    linking = [Fraction(0)] * len(surgered)
    for w, sides in collection:
        _offset, _pts, wind, link = full_curve_pushout(d, w, sides, arcs)
        windings = [a + b for a, b in zip(windings, wind)]
        linking = [t + link[i] for t, i in zip(linking, surgered)]
    x = gauss_jordan_solve(mat, [-v for v in linking])
    out = []
    for k, f in enumerate(d.faces_list):
        total = windings[k] + sum(
            (xj * winding_number(d.components[j], f.basepoint)
             for xj, j in zip(x, surgered)), Fraction(0))
        assert total.denominator == 1, "fractional fiber count"
        out.append(int(total))
    return tuple(out)


# -- differential candidates by exhaustive search -----------------------------

def candidate_pool(d, h1, g, epsilon, z_graded, max_len):
    """Good generators of length at most ``max_len`` under g's action
    budget, of degree at most g's minus one when ``z_graded``, sorted by
    (action, word) as the search visits them."""
    from reebchords.report import GeneratorRecord
    from reebchords.words import enumerate_orbit_words

    budget = g.action + 3 * Fraction(epsilon) * len(g.word.chords)
    pool = [GeneratorRecord(d, h1, w) for w in
            enumerate_orbit_words(d, max_len=max_len, max_action=budget,
                                  epsilon=epsilon)]
    return sorted((r for r in pool if r.good
                   and (not z_graded or r.degree <= g.degree - 1)),
                  key=lambda r: (r.action, r.word.chords))


def index_closed(positive, negative, chi):
    """Expected dimension of a curve with Euler characteristic chi and
    punctures at the orbits of the records ``positive`` and ``negative``,
    none of it meeting the surgery push-offs: the CZ sums' difference
    minus chi."""
    return sum(r.cz for r in positive) - sum(r.cz for r in negative) - chi


def brute_force_candidates(d, h1, g, epsilon, z_graded, max_len):
    """[(factor words, trail)] of g's differential candidates, in order.

    Visits every multiset of good generators of length at most ``max_len``
    under g's action budget in the library's order (pool sorted by action,
    factors in non-decreasing pool position, depth first), and recomputes
    each filter from scratch at every node: index, summed homology class,
    odd squares and the i-grading difference.  A product of m factors is a
    genus-0 curve with one positive and m negative punctures, so chi is
    1 - m; it must have index 1 (odd index when not ``z_graded``).  The
    only pruning is the plainly sound one: with no negative degrees in the
    pool, a product whose degree is already above the target is not
    extended."""
    slack = 3 * Fraction(epsilon)
    budget = g.action + slack * len(g.word.chords)
    target = g.degree - 1
    pool = candidate_pool(d, h1, g, epsilon, z_graded, max_len)
    use_igrading = h1.finite and g.orbit_class.is_zero()
    found = []

    def visit(start, chosen, left):
        degree = sum(r.degree for r in chosen)
        cls = [0] * len(h1.surgered)
        for r in chosen:
            cls = [a + b for a, b in zip(cls, r.orbit_class.vector)]
        odd = [r.word.chords for r in chosen if r.degree % 2 != 0]
        trail = {"degree": degree, "class": g.orbit_class.reduced,
                 "action": sum((r.action for r in chosen), Fraction(0))}
        delta = []
        if use_igrading:
            delta = list(g.igrading)
            for r in chosen:
                delta = [a - b for a, b in
                         zip(delta, fibers_over_exponent(d, h1, r.word))]
            trail["delta_i"] = tuple(delta)
        index = index_closed([g], chosen, 1 - len(chosen))
        if ((index == 1) if z_graded else index % 2 == 1) \
                and reduce_class(h1, cls) == g.orbit_class.reduced \
                and len(odd) == len(set(odd)) \
                and all(v >= 0 and v.denominator == 1 for v in delta):
            found.append((tuple(r.word.chords for r in chosen), trail))
        if z_graded and degree > target and \
                all(r.degree >= 0 for r in pool):
            return
        for i in range(start, len(pool)):
            cost = pool[i].action - slack * len(pool[i].word.chords)
            if cost < left:
                visit(i, chosen + [pool[i]], left - cost)

    visit(0, [], budget)
    return found


def search_lp(d, h1, pool, g, epsilon, z_graded):
    """(A, b), rows of integers, of the LP relaxation of g's search over
    ``pool``: A x <= b over real multiplicities x >= 0 says that the
    product's fiber count at each face is at most g's, that its cost
    stays under the budget, that it has a factor, and (when
    ``z_graded``) that its degree is g's minus one.  Costs are multiples
    of 1/D, D the least common denominator of theirs and the budget's, so
    "under the budget" is "at most the budget less 1/D".  Each row is
    scaled by a positive integer."""
    slack = 3 * Fraction(epsilon)
    budget = g.action + slack * len(g.word.chords)
    costs = [r.action - slack * len(r.word.chords) for r in pool]
    den = lcm(budget.denominator, *(c.denominator for c in costs))
    fibers = [fibers_over_exponent(d, h1, r.word) for r in pool]
    rows = [([f[c] for f in fibers], g.igrading[c])
            for c in range(len(g.igrading))]
    rows += [(costs, budget - Fraction(1, den)),
             ([-1] * len(pool), -1)]
    if z_graded:
        degrees = [r.degree for r in pool]
        rows += [(degrees, g.degree - 1),
                 ([-v for v in degrees], 1 - g.degree)]
    out_a, out_b = [], []
    for a, b in rows:
        scale = lcm(*(Fraction(v).denominator for v in list(a) + [b]))
        out_a.append([int(v * scale) for v in a])
        out_b.append(int(b * scale))
    return out_a, out_b


def search_program(d, h1, pool, g, epsilon, z_graded):
    """(A, b, odd) of g's integer program over ``pool``: the rows of
    ``search_lp`` plus its lattice and parity equations, each as a pair of
    rows of A x <= b, over x >= 0 and one helper column per equation.

    For each elementary divisor d_i != 1 of h1 the product's class has
    coordinate i (U v).x divisible by d_i, v the class vectors: the row is
    (U v).x - d_i y_i = 0.  In parity mode deg.x - 2 p = g's degree minus
    one.  A helper h of a row a.x - d h = r is at least
    floor((sum of the negative a_j times m_j, less r) / d), with m_j the
    most copies of word j that the budget allows, and is replaced by h
    less that bound when it is negative.  ``odd`` lists the pool positions
    of odd-degree words, which a product takes at most once."""
    slack = 3 * Fraction(epsilon)
    budget = g.action + slack * len(g.word.chords)
    costs = [r.action - slack * len(r.word.chords) for r in pool]
    den = lcm(budget.denominator, *(c.denominator for c in costs))
    most = [int((budget - Fraction(1, den)) // c) for c in costs]
    a, b = search_lp(d, h1, pool, g, epsilon, z_graded)
    equations = [([sum(x * y for x, y in zip(row, r.orbit_class.vector))
                   for r in pool], div, 0)
                 for row, div in zip(h1.u, h1.diagonal) if div != 1]
    degrees = [r.degree for r in pool]
    if not z_graded:
        equations.append((degrees, 2, g.degree - 1))
    helpers = len(equations)
    a = [row + [0] * helpers for row in a]
    for k, (coeffs, div, rhs) in enumerate(equations):
        low = min(0, (sum(c * m for c, m in zip(coeffs, most) if c < 0)
                      - rhs) // div)
        row = coeffs + [-div if j == k else 0 for j in range(helpers)]
        a += [row, [-v for v in row]]
        b += [rhs + div * low, -rhs - div * low]
    return a, b, [j for j, v in enumerate(degrees) if v % 2 != 0]


def branch_and_bound(a, b, odd, lps):
    """Depth-first branch and bound for an integer point of A x <= b,
    x >= 0, with x_j <= 1 for j in ``odd``: a generator that solves one LP
    with ``fraction_solve_lp`` per step and yields None until it yields the
    point, or False when there is none.  Each LP's rows and solution (None
    when infeasible) are appended to ``lps`` as (A, b, x).  A solution with some x_j > 1, j odd,
    gets the one child x_j <= 1; else the first fractional x_j = v gets the
    children x_j >= floor(v) + 1, searched first, and x_j <= floor(v)."""
    cols = len(a[0])
    unit = [[int(i == j) for i in range(cols)] for j in range(cols)]
    stack = [(a, b)]
    while stack:
        rows, rhs = stack.pop()
        x = fraction_solve_lp(cols, [], [([-v for v in row], -v) for row, v
                                         in zip(rows, rhs)], [0] * cols)
        lps.append((rows, rhs, x))
        if x is not None:
            over = [j for j in odd if x[j] > 1]
            fractional = [j for j, v in enumerate(x) if v.denominator != 1]
            if over:
                j = over[0]
                stack.append((rows + [unit[j]], rhs + [1]))
            elif not fractional:
                yield x
                return
            else:
                j = fractional[0]
                f = x[j].numerator // x[j].denominator
                stack.append((rows + [unit[j]], rhs + [f]))
                stack.append((rows + [[-v for v in unit[j]]], rhs + [-f - 1]))
        yield None if stack else False


def pruned_search(d, h1, g, epsilon, z_graded, max_len):
    """(nodes, cuts, lps) of g's candidate search under the library's prunes.

    Walks the tree of ``brute_force_candidates``, but does not enter a
    child under which no survivor can lie, and counts the children cut for
    each reason: "odd" (a second copy of an odd-degree word), "degree" (the
    target degree is out of reach) and "igrading" (some face's fiber count
    stays above the target's).  With m the least cost among the factors
    that may still follow the child, at most k = ceil(rest / m) - 1 of them
    fit the budget ``rest`` left after it, so its subtree adds between k
    times the least and k times the greatest of their degrees (each capped
    at 0), and at least k times their least fiber count at each face
    (capped at 0).  Sums are recomputed in fractions at every child.
    ``nodes`` counts the products the library examines, in its order: the
    root, every product entered and every child cut by degree or
    i-grading (a repeated odd word is never examined there).

    Under the i-grading filter, once the walk has examined r (p + r)
    products, it runs ``branch_and_bound`` on ``search_program`` for at most
    MAX_NODES // r (p + r) LPs.  Here p is the pool's size and r counts the
    rows of the library's LP: one per distinct face row (the fiber counts
    of the pool's words at a face, with its target), one per elementary
    divisor != 1 of h1, the degree row, the budget row and the row of at
    least one factor.  When it proves there is no integer point the walk
    stops there, with one "lp" cut.  ``lps`` are the LPs it solved, as
    ``branch_and_bound`` records them."""
    from reebchords.report import MAX_NODES

    slack = 3 * Fraction(epsilon)
    budget = g.action + slack * len(g.word.chords)
    target = g.degree - 1
    pool = candidate_pool(d, h1, g, epsilon, z_graded, max_len)
    use_igrading = h1.finite and g.orbit_class.is_zero()
    costs = [r.action - slack * len(r.word.chords) for r in pool]
    fibers = [fibers_over_exponent(d, h1, r.word) for r in pool] \
        if use_igrading else []
    lp_at = None
    lps = []
    if use_igrading and pool:
        faces = {(tuple(f[c] for f in fibers), t)
                 for c, t in enumerate(g.igrading)}
        rows = len(faces) + sum(v != 1 for v in h1.diagonal) + 3
        lp_at = rows * (len(pool) + rows)
    cuts = {"odd": 0, "degree": 0, "igrading": 0, "lp": 0}
    nodes = 1

    def visit(start, chosen, left):
        """False once the branch and bound has ended the walk."""
        nonlocal nodes
        for i in range(start, len(pool)):
            r = pool[i]
            if costs[i] >= left:
                continue
            if chosen and chosen[-1] is r and r.degree % 2 != 0:
                cuts["odd"] += 1
                continue
            if nodes == lp_at:
                steps = branch_and_bound(
                    *search_program(d, h1, pool, g, epsilon, z_graded), lps)
                if False in itertools.islice(steps, MAX_NODES // lp_at):
                    cuts["lp"] += 1
                    return False
            nodes += 1
            rest = left - costs[i]
            later = range(i + r.degree % 2, len(pool))
            k = 0
            if later:
                k = -(-rest // min(costs[j] for j in later)) - 1
            degree = sum(x.degree for x in chosen) + r.degree
            degrees = [pool[j].degree for j in later] + [0]
            if z_graded and not (k * min(degrees) <= target - degree
                                 <= k * max(degrees)):
                cuts["degree"] += 1
                continue
            picked = chosen + [r]
            if use_igrading:
                sums = [sum(fibers[pool.index(x)][c] for x in picked)
                        for c in range(len(g.igrading))]
                if any(s + k * min([fibers[j][c] for j in later] + [0])
                       > g.igrading[c] for c, s in enumerate(sums)):
                    cuts["igrading"] += 1
                    continue
            if not visit(i, picked, rest):
                return False
        return True

    visit(0, [], budget)
    return nodes, cuts, lps


# -- the simplex in Fraction arithmetic ---------------------------------------
# The library's fraction-free simplex must make the same pivots and return
# the same vertex as this one, a tableau of Fractions with Bland's rule.

def _fraction_pivot(tab, basis, row, col):
    piv = tab[row][col]
    # tableaux are mostly zeros (slack and artificial columns): skip them
    tab[row] = [v / piv if v else v for v in tab[row]]
    for r in range(len(tab)):
        if r != row and tab[r][col] != 0:
            factor = tab[r][col]
            tab[r] = [a - factor * b if b else a
                      for a, b in zip(tab[r], tab[row])]
    basis[row] = col


def _fraction_simplex(tab, basis, n_cols):
    """Minimize the objective in the last tableau row; returns False if unbounded."""
    while True:
        obj = tab[-1]
        col = None
        for j in range(n_cols):
            if obj[j] < 0:
                col = j
                break
        if col is None:
            return True
        row = None
        best = None
        for r in range(len(tab) - 1):
            if tab[r][col] > 0:
                ratio = tab[r][-1] / tab[r][col]
                if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[row]):
                    best = ratio
                    row = r
        if row is None:
            return False
        _fraction_pivot(tab, basis, row, col)


# -- the dense row update ----------------------------------------------------
# The fraction-free pivot with every row scaled by the pivot row's
# denominator and updated at every column, then divided by its gcd.  The
# library's pivot, which touches only the pivot row's nonzero columns and
# scales by what the row's entry does not cancel, must leave this tableau.

def canonical(row, den):
    """A row of ints over a positive denominator, divided by their gcd."""
    g = gcd(den, *row)
    return [v // g for v in row], den // g


def dense_minus(row, den, prow, pden, col):
    """row - row[col] * prow, for a pivot row with prow[col] == pden."""
    f = row[col]
    return canonical([a * pden - f * b for a, b in zip(row, prow)],
                     den * pden)


def dense_pivot(tab, dens, basis, row, col):
    piv = tab[row][col]
    prow = tab[row] if piv > 0 else [-v for v in tab[row]]
    prow, pden = canonical(prow, abs(piv))
    tab[row], dens[row] = prow, pden
    for r in range(len(tab)):
        if r != row and tab[r][col]:
            tab[r], dens[r] = dense_minus(tab[r], dens[r], prow, pden, col)
    basis[row] = col


def fraction_solve_lp(n, eq, ge, minimize):
    """Minimize the linear objective ``minimize`` over x >= 0 with eq rows
    a.x == b and ge rows a.x >= b; None when infeasible."""
    rows = []
    for a, b in eq:
        rows.append(([Fraction(v) for v in a], Fraction(b), "eq"))
    for a, b in ge:
        rows.append(([Fraction(v) for v in a], Fraction(b), "ge"))
    m = len(rows)
    n_slack = sum(1 for r in rows if r[2] == "ge")
    total = n + n_slack + m          # structural + slack + artificial
    tab = []
    basis = []
    si = 0
    for i, (a, b, kind) in enumerate(rows):
        coeffs = list(a) + [Fraction(0)] * (n_slack + m) + [Fraction(0)]
        if kind == "ge":
            coeffs[n + si] = Fraction(-1)
            si += 1
        if b < 0:
            coeffs = [-v for v in coeffs]
            b = -b
        coeffs[n + n_slack + i] = Fraction(1)
        coeffs[-1] = b
        tab.append(coeffs)
        basis.append(n + n_slack + i)
    # phase 1 objective: sum of artificials
    obj = [Fraction(0)] * (total + 1)
    for i in range(m):
        obj = [o - v for o, v in zip(obj, tab[i])]
    tab.append(obj)
    if not _fraction_simplex(tab, basis, n + n_slack):
        return None
    if tab[-1][-1] != 0:
        return None
    # drive leftover artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n + n_slack:
            for j in range(n + n_slack):
                if tab[r][j] != 0:
                    _fraction_pivot(tab, basis, r, j)
                    break
    tab.pop()
    obj = [Fraction(v) for v in minimize] + \
        [Fraction(0)] * (n_slack + m) + [Fraction(0)]
    # express objective in terms of the current basis
    for r in range(m):
        if basis[r] < n and obj[basis[r]] != 0:
            factor = obj[basis[r]]
            obj = [a - factor * b for a, b in zip(obj, tab[r])]
    tab.append(obj)
    if not _fraction_simplex(tab, basis, n + n_slack):
        raise ValueError("unbounded objective")
    tab.pop()
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tab[r][-1]
    return x


def certified(row):
    """Whether a good degree-1 ``chain`` row certifies that its generator is
    killed: its candidate list is complete (not truncated) and is the
    constant term alone, with exactly one witness face."""
    return "truncated" not in row and [
        (c["monomial"], len(c["faces"])) for c in row["candidates"]] == \
        [("1", 1)]
