"""Integral Conley-Zehnder indices and the first Chern class.

The rotation angle of each capping arc, the one that follows its
component's orientation, is measured exactly on the polyline (total turning
in quarter-pi units); every other quantity here is closed-form integer
arithmetic on top of that.
"""

from typing import List

from .diagram import DiagramError, ResolvedDiagram
from .words import CyclicWord


def letter_index(d: ResolvedDiagram, j1: int, j2: int) -> int:
    """The index term rot + [c = +1] of the letter r_j1 -> r_j2, memoized.

    rot = floor(theta / pi) is the rotation number of the capping arc, whose
    angle theta is an odd multiple of pi/2, and c the coefficient of the
    component holding r_j1's tip.
    """
    key = ("letter_index", j1, j2)
    if key not in d.memo:
        t = d.capping_path(j1, j2).theta_half_pi
        if t % 2 == 0:
            raise DiagramError(
                f"rotation angle of r{j1}r{j2} is even in half-pi units")
        d.memo[key] = t // 2 + (d.surgery[d.chord(j1).tip_comp] == 1)
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
