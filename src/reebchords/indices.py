"""Integral Conley-Zehnder indices and the first Chern class.

Rotation data of capping arcs is measured exactly on the polyline (total
turning in quarter-pi units); every other quantity here is closed-form
integer arithmetic on top of that.
"""

from typing import List

from .diagram import DiagramError, ResolvedDiagram
from .words import CyclicWord


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
