"""Linearized return maps and exact orbit data for the perturbed Reeb flow.

The return map of the orbit named by a cyclic word is a product of one
integer-polynomial matrix per letter in the variable u = 1/epsilon, carrying
a global sign, the product of the letters' signs (-1)^rot.  The word
carries both, folded along its prefixes (``words._twist``), each entry as
its value at u = 2^W, one int; every other letter datum is read off the
word's letters, each h an int over the diagram's one ``arc_den``, so the
orbit model keeps no table of its own.  Everything here is exact:
polynomials over the integers, affine fixed points and actions over
integers with a common denominator, divided once at the end, and the
piecewise-linear twist profile.
"""

from fractions import Fraction
from typing import List, Tuple

from .diagram import DiagramError, ResolvedDiagram
from .indices import cz_integral
from .words import CyclicWord, unpack


class ReturnMapPoly(object):
    """The checked return map of a word, sign * rows(1/epsilon) at epsilon.

    Its det is the polynomial 1 exactly when a d - b e == 1 on the packed
    rows: ``words._width`` keeps every coefficient of a d - b e - 1 in digit
    range, so it is the zero polynomial when its value at u = 2^W is 0.  Its
    trace, unpacked once, has the word's length as degree and a leading
    coefficient of +-1.
    """

    def __init__(self, word: CyclicWord):
        a, b, e, f = word.rows
        if a * f - b * e != 1:
            raise DiagramError(f"return map of {word} has det "
                               f"{unpack(a * f - b * e, word.width)}")
        tr = unpack(word.sign * (a + f), word.width)
        n = len(word.chords)
        if len(tr) != n + 1 or abs(tr[n]) != 1:
            raise DiagramError(
                f"trace of {word} has bad leading coefficient: {tr}")
        self._trace = tr

    def trace(self) -> Tuple[int, ...]:
        """Trace of sign * rows in u = 1/epsilon, coefficients ascending."""
        return self._trace


def return_map(d: ResolvedDiagram, w: CyclicWord) -> ReturnMapPoly:
    """Exact linearized return map of the orbit named by w.

    Per letter the map contributes J0 * [[1, -c u], [0, 1]], with c the
    coefficient of the component holding the chord's tip, composed in word
    order, and the capping arcs' rotations feed the sign: the word's
    ``sign`` and ``rows``.
    """
    return ReturnMapPoly(w)


def hyperbolic_type(cz_parity: int, trace: tuple) -> Tuple[str, Fraction]:
    """('positive'|'negative', eps_w) classification of an orbit from its
    CZ parity and its return map's trace.

    For every rational 0 < epsilon < eps_w the return map has |trace| > 2,
    via a conservative bound from the trace coefficients.
    """
    kind = "positive" if cz_parity == 0 else "negative"
    lower = sum(abs(c) for c in trace[:-1])
    return kind, Fraction(1, 2 + lower)


def is_bad(d: ResolvedDiagram, w: CyclicWord) -> bool:
    """True for even covers of negative hyperbolic orbits.

    ``hyperbolic_type`` reads the kind off the CZ parity alone, and the
    index sums over letters, so w = v^k has cz(w) = k cz(v): w is bad
    exactly when k is even and cz(w) / k is odd.
    """
    k = w.multiplicity()
    return k % 2 == 0 and cz_integral(d, w) // k % 2 == 1


def embed_orbit(d: ResolvedDiagram, w: CyclicWord,
                epsilon: Fraction) -> List[Tuple[int, int, int]]:
    """The orbit of w as the fixed point of its composed affine map: its
    points (P_k, Q_k), one per letter, as homogeneous integer triples
    (x, y, z) standing for (x/z, y/z).

    Letter k maps (P, Q) to s (-Q, P + h - (c/eps) Q), with s, c and h
    read off the word's letters: the unit-circumference model.  Every h
    is an int over the diagram's H = ``arc_den``, so at eps = p/q the
    letter maps (x, y, z), standing for (x/z, y/z), to (-s p y, s (p x -
    c q y) + s p h z/H, p z), in ints formed from the letter alone.
    Cramer's rule puts the fixed point over det H, so point k is over
    det H p^k; nothing is reduced.  A singular I - A and a point outside
    the handle (|P| >= eps) depend on epsilon and raise ValueError; a
    fixed point that does not close up is an internal fault, a
    DiagramError.
    """
    e_num, e_den = epsilon.numerator, epsilon.denominator
    big = d.arc_den
    steps = [(lt.sign * e_num, -lt.sign * lt.c * e_den,
              lt.sign * e_num * lt.h) for lt in w.letters]
    # composite [[a, b, e], [c, dd, f], [0, 0, z]] of the maps on (x, y, z/H)
    a, b, c, dd, e, f, z = 1, 0, 0, 1, 0, 0, 1
    for r, m, t in steps:
        a, b, c, dd = -r * c, -r * dd, r * a + m * c, r * b + m * dd
        e, f = -r * f, r * e + m * f + t * z
        z *= e_num
    det = (z - a) * (z - dd) - b * c
    if det == 0:
        raise ValueError(f"I - A singular for {w} at epsilon {epsilon}")
    pt = ((z - dd) * e + b * f, c * e + (z - a) * f, det)
    hpoints = []
    for r, m, t in steps:
        x, y, u = pt
        hpoints.append((x, y, u * big))
        pt = (-r * y, r * x + m * y + t * u, e_num * u)
    x0, y0, _z0 = hpoints[0]
    if pt[0] * det != x0 * pt[2] or pt[1] * det != y0 * pt[2]:
        raise DiagramError(f"fixed point of {w} does not close up")
    for x, _y, zz in hpoints:
        if abs(x) * e_den >= e_num * abs(zz):
            raise ValueError(
                f"orbit of {w} escapes the handle at epsilon {epsilon}: "
                f"|P| = {Fraction(abs(x), abs(zz))}")
    return hpoints


def orbit_action(d: ResolvedDiagram, w: CyclicWord,
                 epsilon: Fraction) -> Fraction:
    """Exact action of the orbit of w under the piecewise-linear model.

    The sum over letters of action(r_k) - P_k Q_k + c_k h(P_k), with c_k
    the coefficient at the chord's tail, the previous letter's c, and
    h(p) = -eps/8 + p^2 / (2 eps) the twist's height profile.  At eps =
    p/q point k has z_k = z_0 p^k, so every P_k Q_k and P_k^2 is a
    numerator over z_(n-1)^2 once scaled by p^(2(n-1-k)); with the
    numerator and denominator of ``w.action()`` one Fraction is built, at
    the end.
    """
    e_num, e_den = epsilon.numerator, epsilon.denominator
    hpoints = embed_orbit(d, w, epsilon)
    p2 = e_num ** 2
    twist = 0          # sum of c_k, the coefficients of the -eps/8 terms
    quad = 0           # sum of c_k q x^2 - 2 p x y, scaled as above
    for lt, (x, y, _z) in zip(w.letters[-1:] + w.letters[:-1], hpoints):
        twist += lt.c
        quad = quad * p2 + lt.c * e_den * x * x - 2 * e_num * x * y
    z2 = hpoints[-1][2] ** 2
    num = 4 * e_den * quad - e_num * e_num * twist * z2
    den = 8 * e_den * e_num * z2
    total = w.action()      # the chord actions' Fraction sum
    return type(total)(total.numerator * den + num * total.denominator,
                       total.denominator * den)
