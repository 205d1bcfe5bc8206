"""Integral Conley-Zehnder indices, Maslov indices, and index formulas.

Rotation data of capping arcs is measured exactly on the polyline (total
turning in quarter-pi units); every other quantity here is closed-form
integer arithmetic on top of that.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .diagram import DiagramError, ResolvedDiagram
from .words import CyclicWord, Word


class CappingAngle(object):
    """Rotation angle of the capping arc of a composable pair of chords."""

    def __init__(self, j1: int, j2: int, side: str, half_pi_units: int):
        if half_pi_units % 2 == 0:
            raise DiagramError(
                f"rotation angle of r{j1}r{j2} is even in half-pi units")
        self.pair = (j1, j2)
        self.side = side
        self.t = half_pi_units          # theta = t * pi/2, odd
        self.rot = half_pi_units // 2   # floor(theta / pi)

    def __repr__(self):
        return f"CappingAngle(r{self.pair[0]}r{self.pair[1]}, " \
               f"{self.side}, t={self.t})"


def capping_angle(d: ResolvedDiagram, j1: int, j2: int,
                  side: str = "eta") -> CappingAngle:
    """Exact rotation angle of the chosen capping arc, in half-pi units."""
    cap = d.capping_path(j1, j2, side)
    return CappingAngle(j1, j2, side, cap.theta_half_pi)


def rot_number(d: ResolvedDiagram, j1: int, j2: int) -> int:
    return capping_angle(d, j1, j2, "eta").rot


def letter_index(d: ResolvedDiagram, j1: int, j2: int) -> int:
    """The index term rot + [c = +1] of the letter r_j1 -> r_j2, memoized.

    rot is the rotation number of the capping arc and c the coefficient of
    the component holding r_j1's tip.
    """
    key = ("letter_index", j1, j2)
    if key not in d.memo:
        d.memo[key] = rot_number(d, j1, j2) + \
            (d.surgery[d.chord(j1).tip_comp] == 1)
    return d.memo[key]


def cz_integral(d: ResolvedDiagram, w: CyclicWord) -> int:
    """Conley-Zehnder index of the orbit of w in the diagram framing."""
    return sum(letter_index(d, j1, j2) for j1, j2 in w.pairs())


def chord_grading(d: ResolvedDiagram, w: Word) -> int:
    """The open-word analogue of the index sum, over consecutive pairs only."""
    return sum(letter_index(d, j1, j2)
               for j1, j2 in zip(w.chords, w.chords[1:]))


def meridian_twist(cz: int, n: int, k: int = 1) -> int:
    """Index after twisting the framing by n meridians on a k-fold cover."""
    return cz - 2 * n * k


class BrokenClosedString(object):
    """Chords of the zero-coefficient sublink joined by arcs with known winding.

    Each item is (word, a, t): the chord's word (tuple of chord ids, or an
    empty tuple for no chord data checks), the asymptotic indicator a = +-1,
    and the rotation angle of the arc *following* the chord in half-pi units.
    """

    def __init__(self, d: ResolvedDiagram, items: Sequence[Tuple]):
        if not items:
            raise ValueError("empty broken closed string")
        self.diagram = d
        self.items = []
        for word, a, t in items:
            if a not in (1, -1):
                raise ValueError(f"bad asymptotic indicator {a!r}")
            w = Word(d, word) if not isinstance(word, Word) else word
            self.items.append((w, a, int(t)))
        self._check_closure()

    def _check_closure(self):
        d = self.diagram
        lambda0 = {i for i, v in d.surgery.items() if v == 0}
        ends = []
        for w, a, _t in self.items:
            start_comp = d.chord(w.chords[0]).tail_comp
            end_comp = d.chord(w.chords[-1]).tip_comp
            if start_comp not in lambda0 or end_comp not in lambda0:
                raise ValueError(f"{w} is not a word with boundary on the "
                                 f"zero-coefficient sublink")
            if a == 1:
                ends.append((start_comp, end_comp))
            else:
                ends.append((end_comp, start_comp))
        n = len(ends)
        for k in range(n):
            if ends[k][1] != ends[(k + 1) % n][0]:
                raise ValueError("arcs of the broken closed string do not "
                                 "connect into a closed loop")


def maslov_bcs(d: ResolvedDiagram, b: BrokenClosedString) -> int:
    """Maslov index of a broken closed string in the diagram framing."""
    twice = 0
    for w, a, t in b.items:
        twice += t - 1 + 2 * a * chord_grading(d, w)
    if twice % 2 != 0:
        raise ValueError("Maslov sum is not an integer; check arc angles")
    return twice // 2


def _cz_sum(d, words: Iterable[CyclicWord]) -> int:
    return sum(cz_integral(d, w) for w in words)


def _pushoff_term(d: ResolvedDiagram,
                  pushoff_intersections: Optional[Dict[int, int]]) -> int:
    total = 0
    for i, hits in (pushoff_intersections or {}).items():
        total += d.surgery[i] * d.rot[i] * hits
    return total


def index_closed(d: ResolvedDiagram,
                 positive: Sequence[CyclicWord],
                 negative: Sequence[CyclicWord],
                 chi: int,
                 pushoff_intersections: Optional[Dict[int, int]] = None
                 ) -> int:
    """Expected dimension for a closed domain with punctures at orbits."""
    return (_cz_sum(d, positive) - _cz_sum(d, negative) - chi
            - 2 * _pushoff_term(d, pushoff_intersections))


def index_disk(d: ResolvedDiagram, b: BrokenClosedString, m: int,
               pushoff_intersections: Optional[Dict[int, int]] = None
               ) -> int:
    """Expected dimension for a disk with m boundary punctures along b."""
    return (maslov_bcs(d, b) + m - 1
            - 2 * _pushoff_term(d, pushoff_intersections))


def index_general(d: ResolvedDiagram,
                  positive: Sequence[CyclicWord],
                  negative: Sequence[CyclicWord],
                  boundary_strings: Sequence[BrokenClosedString],
                  chi_compact: int,
                  n_interior_punctures: int,
                  n_boundary_punctures: int,
                  pushoff_intersections: Optional[Dict[int, int]] = None
                  ) -> int:
    """Index for arbitrary topological type with interior and boundary data."""
    maslov_total = sum(maslov_bcs(d, b) for b in boundary_strings)
    return (_cz_sum(d, positive) - _cz_sum(d, negative) + maslov_total
            - chi_compact + n_interior_punctures + n_boundary_punctures
            - 2 * _pushoff_term(d, pushoff_intersections))


def c1_class(d: ResolvedDiagram) -> List[int]:
    """Poincare dual of c1 as a meridian vector (surgered components only)."""
    return [d.rot[i] if d.surgery[i] != 0 else 0
            for i in range(len(d.components))]


def canonical_grading_valid(d: ResolvedDiagram, h1_finite: bool,
                            class_is_zero: bool) -> bool:
    """Whether the integer degree grading CZ - 1 is canonically defined."""
    if any(v != 0 for v in c1_class(d)):
        return False
    return class_is_zero or h1_finite
