"""Intersection gradings and bubbling faces.

The chord quiver (a vertex per link component, an edge per chord, whose
cycles index closed-orbit words) is the diagram's chords themselves: the
``quiver`` command lists it from ``ResolvedDiagram.chords``.
The intersection grading assigns to each null-homologous orbit an integer
per bounded face: the push-out's winding numbers (sums of per-letter rows
at the one offset ``words.PUSH_OFF``, never retried) plus a meridian-disk
correction for its linking vector, which is the orbit's class vector,
solved through the Smith form of the surgery relation matrix.  The solve
is linear, so the correction is sum_i v_i times that of the unit meridian
e_i: one cap table per diagram, one solve per surgered component, and
nothing is halved.  Fiber vectors are ints over one denominator,
``H1Presentation.exponent``: a collection's grading is the sum of its
orbits' fiber vectors, divided by it once.  No curve is wound here except
each surgered component, once per diagram, on the push-outs' integer
grid.
"""

from typing import List, Tuple

from .diagram import DiagramError, Face, ResolvedDiagram
from .geometry import winding_number
from .homology import H1Presentation, orbit_class_monomial
from .words import CyclicWord, _grid, canonical_rotation, push_out


def _cap_table(d: ResolvedDiagram, h1: H1Presentation
               ) -> List[Tuple[int, ...]]:
    """The meridian-cap correction of each unit meridian, one row over the
    faces per surgered component i and times ``h1.exponent``:
    sum_j solve(-e_i)_j * (component j's windings), one solve per
    surgered component.  Each cap through handle j trades a meridian for
    a framed push-off, whose spanning surface meets the fiber in the
    component's winding.  Each surgered component is wound once, on the
    push-outs' grid.  Built once per diagram."""
    key = ("cap_table",)
    if key not in d.memo:
        n = len(h1.surgered)
        sols = [h1.solve([-int(i == j) for j in range(n)]) for i in range(n)]
        unit, bps = _grid(d)
        m = unit // d._scale
        try:
            comp_w = [[winding_number(ring, bp) for bp in bps]
                      for ring in ([(x * m, y * m) for x, y in d._ints[j]]
                                   for j in h1.surgered)]
        except ValueError as exc:
            raise DiagramError(f"component winding: {exc}") from exc
        d.memo[key] = [tuple(sum(x * w[k] for x, w in zip(sol, comp_w))
                             for k in range(len(bps)))
                       for sol in sols]
    return d.memo[key]


def effective_fiber_vector(d: ResolvedDiagram, h1: H1Presentation,
                           w: CyclicWord) -> Tuple[int, ...]:
    """Per-orbit fiber-count vector times ``h1.exponent``, in ints; sums to
    the exponent times the grading of unions.

    The push-out's winding numbers times the exponent, plus the
    (possibly fractional) meridian-cap correction for minus the orbit's
    class vector v, solved against the relation matrix and scaled by the
    exponent: sum_i v_i times the cap table's row i, since the solve is
    linear.  v is ``orbit_class_monomial``'s, whose letter-sum parity
    check is this sum's only precondition.  The total over a
    null-homologous collection is divisible by the exponent, and the
    quotient is its grading.  Memoized per diagram.
    """
    key = ("fiber", w.chords)
    if key in d.memo:
        return d.memo[key]
    fiber = [h1.exponent * x for x in push_out(d, w)]
    for c, row in zip(orbit_class_monomial(d, h1, w).vector,
                      _cap_table(d, h1)):
        if c:
            fiber = [x + c * r for x, r in zip(fiber, row)]
    d.memo[key] = tuple(fiber)
    return d.memo[key]


def i_grading(d: ResolvedDiagram, h1: H1Presentation,
              w: CyclicWord) -> Tuple[int, ...]:
    """Intersection grading of a null-homologous orbit.

    Each entry counts intersections of a spanning surface with the vertical
    fiber over a face basepoint: the push-out's winding number plus the
    contribution of the meridian disks needed to cap its linking with the
    surgered components, one int per face in ``faces_list`` order.  Callers
    check finiteness and the class first, so a failed check is a fault.
    """
    if not h1.finite:
        raise DiagramError("intersection grading needs finite first homology")
    if not orbit_class_monomial(d, h1, w).is_zero():
        raise DiagramError(f"{w} is not null-homologous; no spanning "
                           "surface exists")
    vec = effective_fiber_vector(d, h1, w)
    if any(v % h1.exponent for v in vec):
        raise DiagramError(f"fractional fiber count on null-homologous {w}")
    return tuple(v // h1.exponent for v in vec)


def bubbling_faces(d: ResolvedDiagram) -> List[Tuple[Face, Tuple[int, ...]]]:
    """Faces whose corners are all positive, with their ccw corner words.

    After +1 surgery on the components meeting such a face, a family of
    holomorphic planes of algebraic count +-1 bounds the orbit named by the
    corner word; faces touching components of other coefficients are
    skipped.  The faces are walked once per diagram; later calls return
    the memoized list, which callers must not change.
    """
    key = ("bubbling_faces",)
    if key not in d.memo:
        d.memo[key] = [
            (f, canonical_rotation([cid for cid, _, _ in f.corners]))
            for f in d.faces_list if f.all_positive() and all(
                d.surgery[ch.tail_comp] == d.surgery[ch.tip_comp] == 1
                for ch in map(d.chord, f.corner_chords()))]
    return d.memo[key]
