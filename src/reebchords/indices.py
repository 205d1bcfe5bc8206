"""Integral Conley-Zehnder indices and the first Chern class.

An orbit's index is the sum of its letters' index terms rot + [c = +1],
with rot read off the front's Maslov potential and kept in the word's
letters; every other quantity here is closed-form integer arithmetic.
"""

from typing import List

from .diagram import ResolvedDiagram
from .words import CyclicWord


def cz_integral(d: ResolvedDiagram, w: CyclicWord) -> int:
    """Conley-Zehnder index of the orbit of w in the diagram framing."""
    return sum(letter.index for letter in w.letters)


def c1_class(d: ResolvedDiagram) -> List[int]:
    """Poincare dual of c1 as a meridian vector (surgered components only)."""
    return [d.rot[i] if d.surgery[i] != 0 else 0
            for i in range(d.front.n_components)]


def canonical_grading_valid(d: ResolvedDiagram, h1_finite: bool,
                            class_is_zero: bool) -> bool:
    """Whether the integer degree grading CZ - 1 is canonically defined."""
    if any(v != 0 for v in c1_class(d)):
        return False
    return class_is_zero or h1_finite
