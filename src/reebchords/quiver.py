"""The chord quiver, intersection gradings, and bubbling faces.

The quiver has one vertex per link component and one directed edge per
chord; its cycles index closed-orbit words.
The intersection grading assigns to each null-homologous orbit collection
an integer per bounded face, computed from push-out winding numbers plus a
meridian-disk correction solved through the Smith form of the surgery
relation matrix.  The winding numbers are the push-out's sums of per-piece
tables (see ``words``); no curve is wound here except each component, once
per diagram.
"""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .diagram import DiagramError, Face, ResolvedDiagram
from .geometry import winding_number
from .homology import H1Presentation, orbit_class_monomial
from .words import (CyclicWord, OrbitString, canonical_rotation,
                    push_out)


class Quiver(object):
    """Directed graph with a vertex per component and an edge per chord."""

    def __init__(self, d: ResolvedDiagram):
        if not d.chords:
            raise ValueError("empty diagram has no quiver")
        self.vertices = list(range(len(d.components)))
        self.edges = [(c.id, c.tail_comp, c.tip_comp) for c in d.chords]

    def loops_at(self, vertex: int) -> List[int]:
        return [e for e, a, b in self.edges if a == b == vertex]

    def collapsed_h1_rank(self) -> int:
        """First Betti number of the one-vertex collapse: one per edge."""
        return len(self.edges)


def _component_windings(d: ResolvedDiagram) -> List[List[int]]:
    """windings[i][k]: winding of component i around basepoint k."""
    key = ("component_windings",)
    if key not in d.memo:
        d.memo[key] = [[winding_number(cyc, f.basepoint)
                        for f in d.faces_list] for cyc in d.components]
    return d.memo[key]


def effective_fiber_vector(d: ResolvedDiagram, h1: H1Presentation,
                           w: CyclicWord, s: Optional[OrbitString] = None
                           ) -> Tuple[Fraction, ...]:
    """Per-orbit rational fiber-count vector; sums to the grading of unions.

    The push-out's winding numbers plus the (here possibly fractional)
    meridian-cap correction solved against the relation matrix; the total
    over a null-homologous collection is integral and is its grading.
    Memoized per diagram.
    """
    key = ("fiber", w.chords, s.sides if s is not None else None)
    if key in d.memo:
        return d.memo[key]
    # a degenerate tangency with a basepoint fiber regenerates the push-out
    # at a smaller offset
    offset = Fraction(1, 8)
    for _attempt in range(8):
        curve = push_out(d, w, s, offset=offset)
        if curve.windings is not None:
            break
        offset /= 2
    else:
        raise DiagramError("push-out keeps hitting a basepoint fiber")
    sol = h1.solve([-curve.linking[i] for i in h1.surgered])
    comp_w = _component_windings(d)
    vec = []
    for k in range(len(d.faces_list)):
        total = Fraction(curve.windings[k])
        # each cap through handle j trades a meridian for a framed push-off,
        # whose spanning surface meets the fiber in the component's winding
        for idx, j in enumerate(h1.surgered):
            total += sol[idx] * comp_w[j][k]
        vec.append(total)
    d.memo[key] = tuple(vec)
    return d.memo[key]


def i_grading(d: ResolvedDiagram, h1: H1Presentation,
              collection: Sequence[Tuple[CyclicWord, Optional[OrbitString]]]
              ) -> Tuple[int, ...]:
    """Intersection grading of a null-homologous collection of orbits.

    Each entry counts intersections of a spanning surface with the vertical
    fiber over a face basepoint: the push-out's winding number plus the
    contribution of the meridian disks needed to cap its linking with the
    surgered components, one int per face in ``faces_list`` order.  The
    result does not depend on the capping-side choices.
    """
    if not h1.finite:
        raise ValueError("intersection grading needs finite first homology")
    total_class = None
    n_faces = len(d.faces_list)
    totals = [Fraction(0)] * n_faces
    for w, s in collection:
        cls = orbit_class_monomial(d, h1, w)
        total_class = cls if total_class is None else total_class + cls
        vec = effective_fiber_vector(d, h1, w, s)
        totals = [a + b for a, b in zip(totals, vec)]
    if total_class is not None and not total_class.is_zero():
        raise DiagramError("collection is not null-homologous; no "
                           "spanning surface exists")
    if any(v.denominator != 1 for v in totals):
        raise DiagramError("fractional fiber count on a null-homologous "
                           "collection")
    return tuple(int(v) for v in totals)


def bubbling_faces(d: ResolvedDiagram) -> List[Tuple[Face, Tuple[int, ...]]]:
    """Faces whose corners are all positive, with their ccw corner words.

    After +1 surgery on the components meeting such a face, a family of
    holomorphic planes of algebraic count +-1 bounds the orbit named by the
    corner word; faces touching components of other coefficients are
    skipped.
    """
    out = []
    for f in d.faces_list:
        if not f.all_positive():
            continue
        comps = set()
        for cid in f.corner_chords():
            ch = d.chord(cid)
            comps.add(ch.tail_comp)
            comps.add(ch.tip_comp)
        if any(d.surgery[i] != 1 for i in comps):
            continue
        word = canonical_rotation([cid for cid, _, _ in f.corners])
        out.append((f, word))
    return out
