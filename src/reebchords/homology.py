"""First homology of the surgered manifold and homology classes of orbits.

The presentation matrix has the framing coefficients tb + c on the diagonal
and linking numbers off it, over the surgered components.  Orbit classes
come from the crossing-monomial formula, summed over the letters' monomial
vectors (``ResolvedDiagram.letter``), and are reduced to a normal form in
the cokernel via Smith normal form with unimodular transforms.
"""

from fractions import Fraction
from typing import List, Sequence, Tuple

from .diagram import DiagramError, ResolvedDiagram
from .words import CyclicWord


def smith_normal_form(m: Sequence[Sequence[int]]):
    """(D, U, V) with U m V = D diagonal, U and V unimodular."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(map(int, r)) for r in m]
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def row_op(i, j, k):         # row_i += k * row_j
        for t in range(cols):
            a[i][t] += k * a[j][t]
        for t in range(rows):
            u[i][t] += k * u[j][t]

    def col_op(i, j, k):         # col_i += k * col_j
        for t in range(rows):
            a[t][i] += k * a[t][j]
        for t in range(cols):
            v[t][i] += k * v[t][j]

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i, j):
        for t in range(rows):
            a[t][i], a[t][j] = a[t][j], a[t][i]
        for t in range(cols):
            v[t][i], v[t][j] = v[t][j], v[t][i]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    for k in range(min(rows, cols)):
        while True:
            piv = None
            for i in range(k, rows):
                for j in range(k, cols):
                    if a[i][j] != 0 and (piv is None or
                                         abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                break
            row_swap(k, piv[0])
            col_swap(k, piv[1])
            if any(a[i][k] % a[k][k] for i in range(k + 1, rows)) or \
               any(a[k][j] % a[k][k] for j in range(k + 1, cols)):
                for i in range(k + 1, rows):
                    if a[i][k] % a[k][k]:
                        row_op(i, k, -(a[i][k] // a[k][k]))
                for j in range(k + 1, cols):
                    if a[k][j] % a[k][k]:
                        col_op(j, k, -(a[k][j] // a[k][k]))
                continue        # a smaller pivot now exists
            for i in range(k + 1, rows):
                if a[i][k]:
                    row_op(i, k, -(a[i][k] // a[k][k]))
            for j in range(k + 1, cols):
                if a[k][j]:
                    col_op(j, k, -(a[k][j] // a[k][k]))
            bad = None
            for i in range(k + 1, rows):
                for j in range(k + 1, cols):
                    if a[i][j] % a[k][k]:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(k, bad, 1)   # drag a non-divisible entry into row k
        if k < min(rows, cols) and a[k][k] < 0:
            row_negate(k)
    return a, u, v


class H1Presentation(object):
    """Meridian presentation of the first homology after surgery."""

    def __init__(self, d: ResolvedDiagram):
        self.diagram = d
        self.surgered = [i for i in range(len(d.components))
                         if d.surgery[i] != 0]
        n = len(self.surgered)
        self.matrix = [[0] * n for _ in range(n)]
        for a, i in enumerate(self.surgered):
            for b, j in enumerate(self.surgered):
                if i == j:
                    self.matrix[a][b] = d.tb[i] + d.surgery[i]
                else:
                    self.matrix[a][b] = d.linking[i][j]
        self.snf, self.u, self.v = smith_normal_form(self.matrix)
        # a square integer matrix is unimodular when its Smith form is I
        if any(row[k] != 1 for t in (self.u, self.v)
               for k, row in enumerate(smith_normal_form(t)[0])):
            raise DiagramError("SNF transforms are not unimodular")
        self.diagonal = [self.snf[k][k] for k in range(n)]
        for x, y in zip(self.diagonal, self.diagonal[1:]):
            if (x == 0 and y != 0) or (x != 0 and y % x != 0):
                raise DiagramError(f"SNF divisibility fails: {self.diagonal}")
        self.torsion = [x for x in self.diagonal if x not in (0, 1)]
        self.free_rank = sum(1 for x in self.diagonal if x == 0)
        self.finite = self.free_rank == 0

    def reduce(self, vector: Sequence) -> Tuple[int, ...]:
        """Normal form of a meridian vector in the cokernel coordinates."""
        n = len(self.surgered)
        if len(vector) != n:
            raise DiagramError("vector length does not match presentation")
        coords = []
        for i in range(n):
            s = sum(self.u[i][j] * vector[j] for j in range(n))
            dgl = self.diagonal[i]
            coords.append(int(s) % dgl if dgl != 0 else int(s))
        return tuple(coords)

    def solve(self, rhs: Sequence[Fraction]) -> List[Fraction]:
        """The rational x with matrix^T x = rhs, as U^T D^-1 V^T rhs.

        Raises DiagramError when an elementary divisor is zero.
        """
        if not self.finite:
            raise DiagramError("singular relation matrix in grading solve")
        n = len(self.surgered)
        y = [Fraction(sum(self.v[j][i] * rhs[j] for j in range(n)),
                      self.diagonal[i]) for i in range(n)]
        return [sum(self.u[j][i] * y[j] for j in range(n)) for i in range(n)]

    def group_description(self) -> str:
        parts = [f"Z/{x}" for x in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def h1_presentation(d: ResolvedDiagram) -> H1Presentation:
    return H1Presentation(d)


class OrbitClass(object):
    """Meridian vector of an orbit with its cokernel normal form."""

    __slots__ = ("vector", "reduced", "h1")

    def __init__(self, h1: H1Presentation, vector: Sequence[int]):
        self.vector = tuple(int(v) for v in vector)
        self.reduced = h1.reduce(self.vector)
        self.h1 = h1

    def __eq__(self, other):
        return isinstance(other, OrbitClass) and self.reduced == other.reduced

    def __hash__(self):
        return hash(self.reduced)

    def __add__(self, other):
        return OrbitClass(self.h1, [a + b for a, b in
                                    zip(self.vector, other.vector)])

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.reduced)

    def __repr__(self):
        return f"OrbitClass{self.vector}"


def orbit_class_monomial(d: ResolvedDiagram, h1: H1Presentation,
                         w: CyclicWord) -> OrbitClass:
    """Homology class of the orbit of w: half the sum of its letters'
    crossing monomials, per component, which is also the linking vector of
    its pushed-out orbit.  Memoized per diagram.
    """
    key = ("class", w.chords)
    if key in d.memo:
        return d.memo[key]
    half = [sum(counts) / 2 for counts in
            zip(*(d.letter(j1, j2).vector for j1, j2 in w.pairs()))]
    if any(v.denominator != 1 for v in half):
        raise DiagramError(f"non-integral class for {w}: {half}")
    # meridians of unsurgered components still bound their disks, so
    # their coefficients are null-homologous and drop out
    d.memo[key] = OrbitClass(h1, [int(half[i]) for i in h1.surgered])
    return d.memo[key]

