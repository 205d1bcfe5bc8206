"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own code paths: polynomial
arithmetic on dicts, convex polygon clipping for the trimmed affine flow,
strand-stack simulation for front combinatorics, brute-force quiver counts,
and the elementary-divisor formulas and a Gauss-Jordan solve for small
integer matrices.  Second routes through library results that only the
tests need live here too: return maps and embedding steps evaluated at an
epsilon, the twist's height profile, orbit classes read off push-out
linking numbers, capping paths walked segment by segment, push-out pieces
of whole capping arcs, the closed-curve index formula that decides the
exhaustive search's degree test, the candidate search's LP in integer rows,
and the k-copy of a front, which no CLI command builds.
"""

import itertools
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
    from reebchords.indices import rot_number

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


def matrix_at(rm, epsilon):
    """Entries (a, b, c, d) of a library ``ReturnMapPoly`` at this epsilon."""
    u = 1 / Fraction(epsilon)
    return tuple(rm.sign * poly_eval(p, u) for p in rm.entries)


# -- the affine orbit model composed in Fraction arithmetic -------------------

def step_maps(d, w, epsilon):
    """Affine maps (A_k, b_k) of the model flow, one per letter of w.

    Offsets use the capping-arc length normalized by the component's total
    length, so the model is the unit-circumference one and stays rational.
    """
    epsilon = Fraction(epsilon)
    maps = []
    for j1, j2 in w.pairs():
        cap = d.capping_path(j1, j2, "eta")
        c = d.surgery[d.chord(j1).tip_comp]
        rot_sign = -1 if (cap.theta_half_pi // 2) % 2 == 1 else 1
        # (p, q) -> sign * (-q, p + 1/2 - dist - (c/eps) q)
        mat = (Fraction(0), Fraction(-rot_sign),
               Fraction(rot_sign), -rot_sign * Fraction(c) / epsilon)
        off = (Fraction(0), rot_sign * (Fraction(1, 2) - cap.norm_length))
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
        raise DiagramError(f"I - A singular for {w} at epsilon {epsilon}")

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


def apply_step(emb, k, u):
    """Letter k's integer step of a library ``EmbeddingSolution`` applied
    to the Fraction point u."""
    r, m, t = emb.steps[k]
    return (Fraction(-r, emb.scale) * u[1],
            (r * u[0] + m * u[1] + t) / Fraction(emb.scale))


def apply_all(emb, u):
    for k in range(len(emb.steps)):
        u = apply_step(emb, k, u)
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
    passes from its upper strand to its lower one.
    """
    births = front._births
    deaths = front._deaths
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
                upper, _lower = front._death_pairs[ev]
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

def boxes_overlap(s1, s2):
    return not (max(s1.a[0], s1.b[0]) < min(s2.a[0], s2.b[0])
                or max(s2.a[0], s2.b[0]) < min(s1.a[0], s1.b[0])
                or max(s1.a[1], s1.b[1]) < min(s2.a[1], s2.b[1])
                or max(s2.a[1], s2.b[1]) < min(s1.a[1], s1.b[1]))


def all_pairs_double_points(segments):
    """{point: [(comp, seg), (comp, seg)]} over closed polylines, one segment
    list per component, by testing every pair of non-adjacent segments."""
    from reebchords.geometry import segment_intersection

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
    component's z starting at 0 on its first vertex."""
    from reebchords.geometry import Segment

    segments = [[Segment(cyc[i], cyc[(i + 1) % len(cyc)])
                 for i in range(len(cyc))] for cyc in components]
    zlists = []
    for segs in segments:
        zs = [Fraction(0)]
        for s in segs:
            zs.append(zs[-1] + (s.a[1] + s.b[1]) * (s.b[0] - s.a[0]) / 2)
        zlists.append(zs)
    gaps = {}
    for p, branches in all_pairs_double_points(segments).items():
        assert len(branches) == 2, f"triple point at {p}"

        def z_at(ci, si):
            s = segments[ci][si]
            return zlists[ci][si] + (s.a[1] + p[1]) * (p[0] - s.a[0]) / 2

        over, under = sorted(
            branches, key=lambda b: segments[b[0]][b[1]].octant not in (3, 7))
        ev = next(i for i, (sx, ex) in enumerate(slabs) if sx < p[0] < ex)
        assert ev not in gaps, f"two crossings inside event slab {ev}"
        gaps[ev] = (z_at(*over) - z_at(*under), over[0], under[0])
    return gaps


def fd_sizing_rows(front, action_margin):
    """The template LP (number of variables, eq rows, ge rows) by finite
    differences.

    The template is rebuilt with rational sizes at theta = 0 and at every
    unit vector; each rebuild measures its closure integrals and, by an
    all-pairs scan, its crossing z-gaps.  Rational sizes make every
    x-coordinate a constant form.
    """
    from reebchords.diagram import _assemble_components, _build_wires
    from reebchords.geometry import merge_collinear, polyline_integral_y_dx

    r_events = [i for i, (k, _) in enumerate(front.events) if k == "R"]
    x_events = [i for i, (k, _) in enumerate(front.events)
                if k in ("X", "R")]
    n_comp = front.n_components
    n_geom = len(r_events) + len(front.events)
    n_shift = 2 * (n_comp - 1)

    def measure(theta):
        stretches = {ev: 2 + theta[i] for i, ev in enumerate(r_events)}
        spacings = {ev: theta[len(r_events) + ev]
                    for ev in range(len(front.events))}
        wires, slabs = _build_wires(front, stretches, spacings)
        comps = []
        for i, cyc in enumerate(_assemble_components(front, wires)):
            assert all(not x.coef for x, _ in cyc)
            cyc = merge_collinear([(x.const, y) for x, y in cyc])
            if front.orientations.get(i, 1) == 1:
                cyc = cyc[::-1]
            comps.append(cyc)
        gaps = crossing_z_gaps(comps, [(a.const, b.const) for a, b in slabs])
        assert sorted(gaps) == x_events
        return ([polyline_integral_y_dx(c) for c in comps],
                [gaps[ev] for ev in x_events])

    zero = [Fraction(0)] * n_geom
    base_close, base_gaps = measure(zero)
    cols = []
    for k in range(n_geom):
        unit = list(zero)
        unit[k] = Fraction(1)
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


def all_segments_basepoint(d, face):
    """The basepoint of a face by the search that tests every segment and
    every crossing: step into each corner's wedge from its double point by
    1, 1/2, ..., 1/256, and take the first point inside the face whose
    distance to every segment and crossing exceeds half the step."""
    from reebchords.diagram import QUADRANT_VECTORS
    from reebchords.geometry import (point_segment_distance_sq, sub,
                                     winding_number)

    all_segs = [s for segs in d.segments for s in segs]
    crossings = [c.point for c in d.chords]

    def good(p, clear):
        clear_sq = clear * clear
        try:
            if winding_number(face.boundary, p) != 1:
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
            q = d.chord(cid).point
            dx, dy = QUADRANT_VECTORS[quad]
            p = (q[0] + offset * dx, q[1] + offset * dy)
            if good(p, offset / 2):
                return p
        offset /= 2
    return None

# -- capping paths and push-outs as whole curves -----------------------------

def all_orbit_strings(word):
    """Every side choice of a cyclic word, the first letter's side changing
    fastest."""
    from reebchords.words import OrbitString

    return [OrbitString(word, sides[::-1]) for sides in
            itertools.product(("eta", "etabar"), repeat=len(word.chords))]


def capping_walk(d, j1, j2, side):
    """(points, turn_eighths, norm_length) of capping arc (j1, j2, side),
    walked segment by segment from r_j1's tip to r_j2's tail: forward along
    the component for eta, backward for etabar.  The points are the two
    chord points and every vertex between; the turning sums the octant
    changes at those vertices, in pi/4 units; the length is the Chebyshev
    length walked over the component's.  The library sums the same data
    over the passage arcs it runs."""
    from reebchords.geometry import turn_octants

    c1, c2 = d.chord(j1), d.chord(j2)
    segs = d.segments[c1.tip_comp]
    (s1, t1), (s2, t2) = c1.tip_loc, c2.tail_loc
    step = 1 if side == "eta" else -1
    count = step * (s2 - s1) % len(segs)
    if count == 0 and step * (t2 - t1) < 0:
        count = len(segs)           # round the whole component
    seg_ids = [(s1 + step * k) % len(segs) for k in range(count + 1)]
    octants = [(segs[k].octant + (0 if step == 1 else 4)) % 8
               for k in seg_ids]
    turns = sum(turn_octants(a, b) for a, b in zip(octants, octants[1:]))
    points = [c1.point]
    for k in seg_ids[1:]:
        vertex = segs[k].a if step == 1 else segs[k].b
        if vertex != points[-1]:
            points.append(vertex)
    if c2.point != points[-1]:
        points.append(c2.point)

    def cheb(a, b):
        return max(abs(b[0] - a[0]), abs(b[1] - a[1]))

    walked = sum(cheb(a, b) for a, b in zip(points, points[1:]))
    total = sum(cheb(s.a, s.b) for s in segs)
    return points, turns, walked / total


def endpoints_between(d, j1, j2, side):
    """The chord ends met strictly inside capping arc (j1, j2, side), in
    travel order, as (chord id, 'tail'|'tip'): every chord end of the
    component placed by its parameter offset from r_j1's tip."""
    comp = d.chord(j1).tip_comp
    total = d.cheb_len[comp][-1]
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
    """(start, end, crossings, counts) of the push-out piece along capping
    arc (j1, j2, side), built in one pass: the whole capping path offset
    and wound around each face basepoint (crossings None when it touches
    one).  The library sums the same crossings over passage intervals."""
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
    return (points[0], points[-1], crossings,
            arc_pass_counts(d, j1, j2, side))


def full_curve_pushout(d, w, s, arcs):
    """(offset, points, windings, linking) of a push-out built word by word.

    The curve is the whole closed polyline of offset capping arcs at the
    first offset in 1/8, 1/16, ... (8 tries) where it avoids every face
    basepoint, wound around each basepoint in one piece.  Linking counts
    sum the arc passes past chord endpoints and the local terms at each
    chord of the word.  ``arcs`` is a dict the caller keeps per diagram; it
    holds each offset capping arc once computed."""
    from reebchords.geometry import offset_polyline, winding_number

    n = len(w.chords)
    offset = Fraction(1, 8)
    for _attempt in range(8):
        pts = []
        for k, (j1, j2) in enumerate(w.pairs()):
            key = (j1, j2, s.sides[k], offset)
            if key not in arcs:
                ride = "left" if d.surgery[d.chord(j1).tip_comp] == 1 \
                    else "right"
                arcs[key] = offset_polyline(
                    capping_walk(d, j1, j2, s.sides[k])[0], ride, offset)
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
    counts = {i: 0 for i in d.surgery}
    for k, (j1, j2) in enumerate(w.pairs()):
        for i, v in enumerate(arc_pass_counts(d, j1, j2, s.sides[k])):
            counts[i] += v
    for k, j in enumerate(w.chords):
        ch = d.chord(j)
        c_tail, c_tip = d.surgery[ch.tail_comp], d.surgery[ch.tip_comp]
        counts[ch.tail_comp] += (c_tail + ch.sign) // 2
        counts[ch.tip_comp] += (c_tip + ch.sign) // 2
        if s.sides[(k - 1) % n] == "etabar":
            counts[ch.tail_comp] -= c_tail
            counts[ch.tip_comp] -= ch.sign
        if s.sides[k] == "etabar":
            counts[ch.tip_comp] -= c_tip
            counts[ch.tail_comp] -= ch.sign
    linking = {i: Fraction(t, 2) for i, t in counts.items()}
    return offset, pts, windings, linking


def orbit_class_pushout(h1, p):
    """Homology class of a pushed-out orbit from its linking numbers."""
    from reebchords.homology import OrbitClass

    vec = []
    for i in h1.surgered:
        assert Fraction(p.linking[i]).denominator == 1, \
            "half-integral linking number in push-out"
        vec.append(int(p.linking[i]))
    return OrbitClass(h1, vec)


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
    from reebchords.homology import OrbitClass
    from reebchords.quiver import effective_fiber_vector

    slack = 3 * Fraction(epsilon)
    budget = g.action + slack * len(g.word.chords)
    target = g.degree - 1
    pool = candidate_pool(d, h1, g, epsilon, z_graded, max_len)
    use_igrading = h1.finite and g.orbit_class.is_zero()
    found = []

    def visit(start, chosen, left):
        degree = sum(r.degree for r in chosen)
        cls = OrbitClass(h1, [0] * len(h1.surgered))
        for r in chosen:
            cls = cls + r.orbit_class
        odd = [r.word.chords for r in chosen if r.degree % 2 != 0]
        trail = {"degree": degree, "class": g.orbit_class.reduced,
                 "action": sum((r.action for r in chosen), Fraction(0))}
        delta = []
        if use_igrading:
            delta = list(g.igrading)
            for r in chosen:
                delta = [a - b for a, b in
                         zip(delta, effective_fiber_vector(d, h1, r.word))]
            trail["delta_i"] = tuple(delta)
        index = index_closed([g], chosen, 1 - len(chosen))
        if ((index == 1) if z_graded else index % 2 == 1) \
                and cls == g.orbit_class and len(odd) == len(set(odd)) \
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
    from reebchords.quiver import effective_fiber_vector

    slack = 3 * Fraction(epsilon)
    budget = g.action + slack * len(g.word.chords)
    costs = [r.action - slack * len(r.word.chords) for r in pool]
    den = lcm(budget.denominator, *(c.denominator for c in costs))
    fibers = [effective_fiber_vector(d, h1, r.word) for r in pool]
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


def pruned_search(d, h1, g, epsilon, z_graded, max_len):
    """(nodes, cuts) of g's candidate search under the library's prunes.

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

    Under the i-grading filter the walk also stops, with one "lp" cut,
    where the library solves its LP: when it has examined r (p + r)
    products, r = faces + 2 (+ 1 when ``z_graded``) the rows and p the
    pool's size, and ``search_lp`` is infeasible under this module's
    ``fraction_solve_lp``."""
    from reebchords.quiver import effective_fiber_vector

    slack = 3 * Fraction(epsilon)
    budget = g.action + slack * len(g.word.chords)
    target = g.degree - 1
    pool = candidate_pool(d, h1, g, epsilon, z_graded, max_len)
    use_igrading = h1.finite and g.orbit_class.is_zero()
    costs = [r.action - slack * len(r.word.chords) for r in pool]
    fibers = [effective_fiber_vector(d, h1, r.word) for r in pool] \
        if use_igrading else []
    lp_at = None
    if use_igrading and pool:
        rows = len(g.igrading) + 2 + z_graded
        lp_at = rows * (len(pool) + rows)
    cuts = {"odd": 0, "degree": 0, "igrading": 0, "lp": 0}
    nodes = 1

    def infeasible():
        a, b = search_lp(d, h1, pool, g, epsilon, z_graded)
        ge = [([-v for v in row], -v) for row, v in zip(a, b)]
        return fraction_solve_lp(len(pool), [], ge, [0] * len(pool)) is None

    def visit(start, chosen, left):
        """False once the LP stop has ended the walk."""
        nonlocal nodes
        for i in range(start, len(pool)):
            r = pool[i]
            if costs[i] >= left:
                continue
            if chosen and chosen[-1] is r and r.degree % 2 != 0:
                cuts["odd"] += 1
                continue
            if nodes == lp_at and infeasible():
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
            if use_igrading:
                picked = [pool.index(x) for x in chosen] + [i]
                if any(sum(fibers[j][c] for j in picked)
                       + k * min([fibers[j][c] for j in later] + [0])
                       > g.igrading[c]
                       for c in range(len(g.igrading))):
                    cuts["igrading"] += 1
                    continue
            if not visit(i, chosen + [r], rest):
                return False
        return True

    visit(0, [], budget)
    return nodes, cuts


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
