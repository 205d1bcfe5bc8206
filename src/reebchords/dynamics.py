"""Linearized return maps and exact orbit data for the perturbed Reeb flow.

The return map of the orbit named by a cyclic word is a product of one
integer-polynomial matrix per letter in the variable u = 1/epsilon, carrying
a global sign determined by the capping-path rotation numbers.  Everything
here is exact: polynomials over the integers, affine fixed points and
actions over integers with a common denominator, divided once at the end,
and the piecewise-linear twist profile for actions.
"""

from fractions import Fraction
from math import lcm
from typing import List, Tuple

from .diagram import DiagramError, ResolvedDiagram
from .indices import cz_integral
from .words import CyclicWord, primitive_decomposition

Poly = Tuple[int, ...]       # coefficients, ascending degree


def poly_add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    return tuple(a + b for a, b in zip(p, q)) + p[len(q):]


def poly_mul(p: Poly, q: Poly) -> Poly:
    if len(p) == 1:
        a = p[0]
        return poly_trim(tuple(a * b for b in q))
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(tuple(out))


def poly_trim(p: Poly) -> Poly:
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


Mat = Tuple[Poly, Poly, Poly, Poly]    # entries a, b, c, d row-major


def mat_mul(m1: Mat, m2: Mat) -> Mat:
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (poly_add(poly_mul(a1, a2), poly_mul(b1, c2)),
            poly_add(poly_mul(a1, b2), poly_mul(b1, d2)),
            poly_add(poly_mul(c1, a2), poly_mul(d1, c2)),
            poly_add(poly_mul(c1, b2), poly_mul(d1, d2)))


def mat_det(m: Mat) -> Poly:
    a, b, c, d = m
    return poly_trim(poly_add(poly_mul(a, d),
                              tuple(-v for v in poly_mul(b, c))))


class ReturnMapPoly(object):
    """Sign and 2x2 integer-polynomial matrix of the linearized return map.

    The actual return map at a given epsilon is sign * entries(1/epsilon).
    """

    def __init__(self, sign: int, entries: Mat, word: CyclicWord):
        self.sign = sign
        self.entries = entries
        self.word = word
        det = mat_det(entries)
        if det != (1,):
            raise DiagramError(f"return map of {word} has det {det}")
        tr = self.trace()
        n = len(word.chords)
        if len(tr) != n + 1 or abs(tr[n]) != 1:
            raise DiagramError(
                f"trace of {word} has bad leading coefficient: {tr}")

    def trace(self) -> Poly:
        """Trace of sign * entries as a polynomial in u = 1/epsilon."""
        raw = poly_add(self.entries[0], self.entries[3])
        return poly_trim(tuple(self.sign * c for c in raw))


J0 = ((0,), (-1,), (1,), (0,))
# J0 * [[1, -c u], [0, 1]], the step matrix of a letter with coefficient c
_STEP = {c: mat_mul(J0, ((1,), (0, -c), (0,), (1,))) for c in (-1, 0, 1)}


def _letter(d: ResolvedDiagram, j1: int, j2: int) -> Tuple[int, int, Fraction]:
    """(sign, c, h) of the letter r_j1 -> r_j2, memoized per diagram.

    sign is -1 when the capping arc's rotation number is odd, c is the
    coefficient of the component holding r_j1's tip, and h is 1/2 minus the
    capping arc's length normalized by its component's total length.
    """
    key = ("letter", j1, j2)
    if key not in d.memo:
        cap = d.capping_path(j1, j2, "eta")
        sign = -1 if (cap.theta_half_pi // 2) % 2 == 1 else 1
        d.memo[key] = (sign, d.surgery[d.chord(j1).tip_comp],
                       Fraction(1, 2) - cap.norm_length)
    return d.memo[key]


def return_map(d: ResolvedDiagram, w: CyclicWord) -> ReturnMapPoly:
    """Exact linearized return map of the orbit named by w.

    Per letter the map contributes J0 * [[1, -c u], [0, 1]] with c the
    coefficient of the component holding the chord's tip, composed in word
    order; the rotation numbers of the capping arcs only feed the sign.
    """
    sign = 1
    prod = ((1,), (0,), (0,), (1,))
    for j1, j2 in w.pairs():
        s, c, _h = _letter(d, j1, j2)
        prod = mat_mul(_STEP[c], prod)
        sign *= s
    return ReturnMapPoly(sign, prod, w)


def cz_mod2(d: ResolvedDiagram, w: CyclicWord) -> int:
    """Parity of the Conley-Zehnder index of the orbit of w."""
    return cz_integral(d, w) % 2


def hyperbolic_type(d: ResolvedDiagram, w: CyclicWord
                    ) -> Tuple[str, Fraction]:
    """('positive'|'negative', eps_w) classification of the orbit of w.

    For every rational 0 < epsilon < eps_w the return map has |trace| > 2,
    via a conservative bound from the trace coefficients.
    """
    return hyperbolic_from_trace(cz_mod2(d, w), return_map(d, w).trace())


def hyperbolic_from_trace(cz_parity: int, trace: Poly
                          ) -> Tuple[str, Fraction]:
    """``hyperbolic_type`` from the CZ parity and the return map's trace."""
    kind = "positive" if cz_parity == 0 else "negative"
    lower = sum(abs(c) for c in trace[:-1])
    eps_w = min(Fraction(1, 2), Fraction(1, 2 + lower))
    return kind, eps_w


def is_bad(d: ResolvedDiagram, w: CyclicWord) -> bool:
    """True for even covers of negative hyperbolic orbits.

    ``hyperbolic_type`` reads the kind off the CZ parity alone, so the
    primitive word's parity decides without building its return map.
    """
    prim, mult = primitive_decomposition(w)
    if mult % 2 != 0:
        return False
    return cz_mod2(d, prim) == 1


class EmbeddingSolution(object):
    """Exact fixed-point data of the affine model of an orbit.

    ``hpoints`` are the points as homogeneous integer triples (x, y, z),
    standing for (x/z, y/z); ``steps`` are the letters' affine maps as
    integer triples (r, m, t) taking (x, y, z) to
    (-r y, r x + m y + t z, scale z).
    """

    def __init__(self, word, epsilon, hpoints, steps, scale):
        self.word = word
        self.epsilon = epsilon
        self.hpoints = hpoints
        self.steps = steps
        self.scale = scale

    @property
    def points(self) -> List[Tuple[Fraction, Fraction]]:
        """[(P_k, Q_k)] per letter."""
        return [(Fraction(x, z), Fraction(y, z)) for x, y, z in self.hpoints]


def embed_orbit(d: ResolvedDiagram, w: CyclicWord,
                epsilon: Fraction) -> EmbeddingSolution:
    """Solve the orbit of w as the fixed point of its composed affine map.

    Letter k maps (p, q) to s (-q, p + h - (c/eps) q), with (s, c, h) from
    ``_letter``, so the model is the unit-circumference one.  Over a common
    denominator g of 1/eps and every h the letters are homogeneous integer
    maps; the fixed point of their composite comes from Cramer's rule and
    the points are walked as integer triples, so nothing is reduced.
    """
    epsilon = Fraction(epsilon)
    e_num, e_den = epsilon.numerator, epsilon.denominator
    letters = [_letter(d, j1, j2) for j1, j2 in w.pairs()]
    g = lcm(e_num, *(h.denominator for _s, _c, h in letters))
    steps = [(s * g, -s * c * e_den * (g // e_num),
              s * h.numerator * (g // h.denominator))
             for s, c, h in letters]
    # composite [[a, b, e], [c, dd, f], [0, 0, z]] of the homogeneous maps
    a, b, c, dd, e, f, z = 1, 0, 0, 1, 0, 0, 1
    for r, m, t in steps:
        a, b, c, dd = -r * c, -r * dd, r * a + m * c, r * b + m * dd
        e, f = -r * f, r * e + m * f + t * z
        z *= g
    det = (z - a) * (z - dd) - b * c
    if det == 0:
        raise DiagramError(f"I - A singular for {w} at epsilon {epsilon}")
    pt = ((z - dd) * e + b * f, c * e + (z - a) * f, det)
    hpoints = []
    for r, m, t in steps:
        hpoints.append(pt)
        x, y, zz = pt
        pt = (-r * y, r * x + m * y + t * zz, g * zz)
    x0, y0, z0 = hpoints[0]
    if pt[0] * z0 != x0 * pt[2] or pt[1] * z0 != y0 * pt[2]:
        raise DiagramError(f"fixed point of {w} does not close up")
    for x, _y, zz in hpoints:
        if abs(x) * e_den >= e_num * abs(zz):
            raise ValueError(
                f"orbit of {w} escapes the handle at epsilon {epsilon}: "
                f"|P| = {Fraction(abs(x), abs(zz))}")
    return EmbeddingSolution(w, epsilon, hpoints, steps, g)


def orbit_action(d: ResolvedDiagram, w: CyclicWord,
                 epsilon: Fraction) -> Fraction:
    """Exact action of the orbit of w under the piecewise-linear model.

    The sum over letters of action(r_k) - P_k Q_k + c_k h(P_k), with c_k
    the coefficient at the chord's tail and h(p) = -eps/8 + p^2 / (2 eps)
    the twist's height profile.  All but the chord actions are summed over
    one integer denominator: point k has z_k = z_0 g^k, so every P_k Q_k
    and P_k^2 is a numerator over z_(n-1)^2 once scaled by g^(2(n-1-k)).
    """
    epsilon = Fraction(epsilon)
    e_num, e_den = epsilon.numerator, epsilon.denominator
    emb = embed_orbit(d, w, epsilon)
    g2 = emb.scale ** 2
    twist = 0          # sum of c_k, the coefficients of the -eps/8 terms
    quad = 0           # sum of c_k e_den x^2 - 2 e_num x y, scaled as above
    for j, (x, y, _z) in zip(w.chords, emb.hpoints):
        c_exit = d.surgery[d.chord(j).tail_comp]
        twist += c_exit
        quad = quad * g2 + c_exit * e_den * x * x - 2 * e_num * x * y
    z2 = emb.hpoints[-1][2] ** 2
    return w.action() + Fraction(
        4 * e_den * quad - e_num * e_num * twist * z2, 8 * e_den * e_num * z2)
