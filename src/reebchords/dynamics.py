"""Linearized return maps and exact orbit data for the perturbed Reeb flow.

The return map of the orbit named by a cyclic word is a product of one
integer-polynomial matrix per letter in the variable u = 1/epsilon, carrying
a global sign determined by the capping-path rotation numbers.  Everything
here is exact: polynomials over the integers, affine fixed points over the
rationals, and the piecewise-linear twist profile for actions.
"""

from fractions import Fraction
from typing import Tuple

from .diagram import DiagramError, ResolvedDiagram
from .words import CyclicWord, primitive_decomposition

Poly = Tuple[int, ...]       # coefficients, ascending degree


def poly_add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return tuple((p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                 for i in range(n))


def poly_mul(p: Poly, q: Poly) -> Poly:
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


def poly_eval(p: Poly, u: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * u + c
    return acc


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

    def trace_at(self, epsilon: Fraction) -> Fraction:
        return poly_eval(self.trace(), 1 / Fraction(epsilon))

    def matrix_at(self, epsilon: Fraction) -> Tuple[Fraction, ...]:
        u = 1 / Fraction(epsilon)
        return tuple(self.sign * poly_eval(p, u) for p in self.entries)


J0 = ((0,), (-1,), (1,), (0,))


def _rot(d: ResolvedDiagram, j1: int, j2: int) -> int:
    return d.capping_path(j1, j2, "eta").theta_half_pi // 2


def return_map(d: ResolvedDiagram, w: CyclicWord) -> ReturnMapPoly:
    """Exact linearized return map of the orbit named by w.

    Per letter the map contributes J0 * [[1, -c u], [0, 1]] with c the
    coefficient of the component holding the chord's tip, composed in word
    order; the rotation numbers of the capping arcs only feed the sign.
    """
    sign = 1
    prod = ((1,), (0,), (0,), (1,))
    for j1, j2 in w.pairs():
        c = d.surgery[d.chord(j1).tip_comp]
        step = mat_mul(J0, ((1,), (0, -c), (0,), (1,)))
        prod = mat_mul(step, prod)
        if _rot(d, j1, j2) % 2 == 1:
            sign = -sign
    return ReturnMapPoly(sign, prod, w)


def cz_mod2(d: ResolvedDiagram, w: CyclicWord) -> int:
    """Parity of the Conley-Zehnder index of the orbit of w."""
    total = 0
    for j1, j2 in w.pairs():
        total += _rot(d, j1, j2)
        if d.surgery[d.chord(j1).tip_comp] == 1:
            total += 1
    return total % 2


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
    """True for even covers of negative hyperbolic orbits."""
    prim, mult = primitive_decomposition(w)
    if mult % 2 != 0:
        return False
    return hyperbolic_type(d, prim)[0] == "negative"


class EmbeddingSolution(object):
    """Exact fixed-point data of the affine model of an orbit."""

    def __init__(self, word, epsilon, points, steps):
        self.word = word
        self.epsilon = epsilon
        self.points = points          # [(P_k, Q_k)] per letter
        self.steps = steps            # [(A_k 2x2, b_k)] affine maps

    def apply_step(self, k: int, u: Tuple[Fraction, Fraction]):
        (a, b, c, dd), off = self.steps[k]
        return (a * u[0] + b * u[1] + off[0], c * u[0] + dd * u[1] + off[1])

    def apply_all(self, u: Tuple[Fraction, Fraction]):
        for k in range(len(self.steps)):
            u = self.apply_step(k, u)
        return u


def step_maps(d: ResolvedDiagram, w: CyclicWord, epsilon: Fraction):
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


def embed_orbit(d: ResolvedDiagram, w: CyclicWord,
                epsilon: Fraction) -> EmbeddingSolution:
    """Solve the orbit of w as the fixed point of its composed affine map."""
    epsilon = Fraction(epsilon)
    steps = step_maps(d, w, epsilon)
    A = (Fraction(1), Fraction(0), Fraction(0), Fraction(1))
    b = (Fraction(0), Fraction(0))
    for mat, off in steps:
        a2, b2, c2, d2 = mat
        a1, b1, c1, d1 = A
        A = (a2 * a1 + b2 * c1, a2 * b1 + b2 * d1,
             c2 * a1 + d2 * c1, c2 * b1 + d2 * d1)
        b = (a2 * b[0] + b2 * b[1] + off[0], c2 * b[0] + d2 * b[1] + off[1])
    ia, ib, ic, id_ = 1 - A[0], -A[1], -A[2], 1 - A[3]
    det = ia * id_ - ib * ic
    if det == 0:
        raise DiagramError(f"I - A singular for {w} at epsilon {epsilon}")
    u1 = ((id_ * b[0] - ib * b[1]) / det, (-ic * b[0] + ia * b[1]) / det)
    pts = [u1]
    sol = EmbeddingSolution(w, epsilon, pts, steps)
    for k in range(len(steps) - 1):
        pts.append(sol.apply_step(k, pts[-1]))
    if sol.apply_all(u1) != u1:
        raise DiagramError(f"fixed point of {w} does not close up")
    for p, _q in pts:
        if abs(p) >= epsilon:
            raise ValueError(
                f"orbit of {w} escapes the handle at epsilon {epsilon}: "
                f"|P| = {abs(p)}")
    return sol


def twist_height(epsilon: Fraction, p: Fraction) -> Fraction:
    """Height profile of the piecewise-linear twist in its affine zone.

    The value at p = 0 is -epsilon/8; this single constant is the only
    model-dependent quantity in the action formula.
    """
    return -Fraction(epsilon) / 8 + p * p / (2 * Fraction(epsilon))


def orbit_action(d: ResolvedDiagram, w: CyclicWord,
                 epsilon: Fraction) -> Fraction:
    """Exact action of the orbit of w under the piecewise-linear model."""
    epsilon = Fraction(epsilon)
    emb = embed_orbit(d, w, epsilon)
    total = Fraction(0)
    for k, j in enumerate(w.chords):
        ch = d.chord(j)
        p, q = emb.points[k]
        c_exit = d.surgery[ch.tail_comp]
        total += ch.action - p * q + c_exit * twist_height(epsilon, p)
    return total
