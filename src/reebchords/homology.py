"""First homology of the surgered manifold and homology classes of orbits.

The presentation matrix has the framing coefficients tb + c on the diagonal
and linking numbers off it, over the surgered components.  Orbit classes
come from the crossing-monomial formula, half the sum of the int monomial
vectors read off the word's letters, and are reduced to a normal form in
the cokernel via Smith normal form with unimodular transforms, which a
fraction-free determinant checks.
Everything here is in ints: ``H1Presentation.solve`` returns its rational
solutions times ``exponent``, the last elementary divisor.  An
``OrbitClass`` is one orbit's meridian vector, its lift U v and its normal
form, with no sum: a collection's class is the sum of its vectors,
reduced again, which the candidate search keeps as running sums of the
lifts.  A diagram has few distinct class vectors, so it builds one
``OrbitClass`` per vector, shared by every word with it and never written.
"""

from typing import List, Sequence, Tuple

from .diagram import DiagramError, ResolvedDiagram
from .words import CyclicWord


def smith_normal_form(m: Sequence[Sequence[int]]):
    """(D, U, V) with U m V = D diagonal, U and V unimodular, read off one
    table t = [[m | I], [I | 0]]: an operation on a row of m carries U
    along that row, one on a column of m carries V down that column.  U
    fixes the class coordinates that ``chain`` and ``homology`` print, so
    the operation order is fixed: the least |entry| is the pivot, the
    first in row-major order on ties; the remainders are cleared, then
    the pivot's row gains a row holding an entry the pivot does not divide.
    """
    rows, cols = len(m), len(m[0]) if m else 0
    t = [[*map(int, r), *(int(i == j) for j in range(rows))]
         for i, r in enumerate(m)]
    t += [[int(i == j) for j in range(cols)] + [0] * rows
          for i in range(cols)]

    def row_op(i, j, k):         # row_i += k * row_j; k = -2 negates
        t[i] = [x + k * y for x, y in zip(t[i], t[j])]

    def col_op(i, j, k):         # col_i += k * col_j
        for r in t:
            r[i] += k * r[j]

    def col_swap(i, j):
        for r in t:
            r[i], r[j] = r[j], r[i]

    for k in range(min(rows, cols)):
        while True:
            piv = min(((abs(t[i][j]), i, j) for i in range(k, rows)
                       for j in range(k, cols) if t[i][j]), default=None)
            if piv is None:
                break
            t[k], t[piv[1]] = t[piv[1]], t[k]
            col_swap(k, piv[2])
            p = t[k][k]
            rem = any(t[i][k] % p for i in range(k + 1, rows)) or \
                any(t[k][j] % p for j in range(k + 1, cols))
            for i in range(k + 1, rows):
                if t[i][k] % p if rem else t[i][k]:
                    row_op(i, k, -(t[i][k] // p))
            for j in range(k + 1, cols):
                if t[k][j] % p if rem else t[k][j]:
                    col_op(j, k, -(t[k][j] // p))
            if rem:
                continue        # a remainder is a smaller pivot
            bad = next((i for i in range(k + 1, rows)
                        if any(t[i][j] % p for j in range(k + 1, cols))), None)
            if bad is None:
                break
            row_op(k, bad, 1)
        if t[k][k] < 0:
            row_op(k, k, -2)
    return ([r[:cols] for r in t[:rows]], [r[cols:] for r in t[:rows]],
            [r[:cols] for r in t[rows:]])


def _det(m: Sequence[Sequence[int]]) -> int:
    """The determinant of a square int matrix, by fraction-free (Bareiss)
    elimination: every division in it is exact."""
    a, sign, last = [list(r) for r in m], 1, 1
    for k in range(len(a)):
        j = next((i for i in range(k, len(a)) if a[i][k]), None)
        if j is None:
            return 0
        a[k], a[j], sign = a[j], a[k], sign if j == k else -sign
        a[k + 1:] = [[(x * a[k][k] - r[k] * y) // last
                      for x, y in zip(r, a[k])] for r in a[k + 1:]]
        last = a[k][k]
    return sign * last


class H1Presentation(object):
    """Meridian presentation of the first homology after surgery."""

    def __init__(self, d: ResolvedDiagram):
        self.surgered = [i for i in range(d.front.n_components)
                         if d.surgery[i] != 0]
        self.matrix = [[d.tb[i] + d.surgery[i] if i == j else d.linking[i][j]
                        for j in self.surgered] for i in self.surgered]
        self.snf, self.u, self.v = smith_normal_form(self.matrix)
        if any(abs(_det(t)) != 1 for t in (self.u, self.v)):
            raise DiagramError("SNF transforms are not unimodular")
        self.diagonal = [row[k] for k, row in enumerate(self.snf)]
        for x, y in zip(self.diagonal, self.diagonal[1:]):
            if (x == 0 and y != 0) or (x != 0 and y % x != 0):
                raise DiagramError(f"SNF divisibility fails: {self.diagonal}")
        self.torsion = [x for x in self.diagonal if x not in (0, 1)]
        self.free_rank = sum(1 for x in self.diagonal if x == 0)
        self.finite = self.free_rank == 0
        # the last elementary divisor, a multiple of all the others
        self.exponent = self.diagonal[-1] if self.diagonal else 1

    def lift(self, vector: Sequence) -> Tuple[int, ...]:
        """U v: a meridian vector v in the cokernel coordinates, before
        ``OrbitClass`` takes each coordinate mod its elementary divisor."""
        if len(vector) != len(self.surgered):
            raise DiagramError("vector length does not match presentation")
        return tuple(sum(u * v for u, v in zip(row, vector)) for row in self.u)

    def solve(self, rhs: Sequence[int]) -> List[int]:
        """exponent * x in ints, for the rational x with matrix^T x = rhs
        and rhs integral: U^T (exponent D^-1) V^T rhs, where each d_i
        divides the exponent.

        Raises DiagramError when an elementary divisor is zero.
        """
        if not self.finite:
            raise DiagramError("singular relation matrix in grading solve")
        n = len(self.surgered)
        y = [self.exponent // self.diagonal[i] *
             sum(self.v[j][i] * rhs[j] for j in range(n)) for i in range(n)]
        return [sum(self.u[j][i] * y[j] for j in range(n)) for i in range(n)]

    def group_description(self) -> str:
        parts = [f"Z/{x}" for x in self.torsion] + ["Z"] * self.free_rank
        return " + ".join(parts) if parts else "0"


def h1_presentation(d: ResolvedDiagram) -> H1Presentation:
    return H1Presentation(d)


class OrbitClass(object):
    """Meridian vector of an orbit with its cokernel coordinates: ``lift``,
    U v, and the normal form ``reduced``, each coordinate of the lift mod
    its elementary divisor when that is nonzero.  The candidate search's
    class rows read the lift.  ``orbit_class_monomial`` builds one per
    distinct vector per diagram and hands it to every word with that
    vector, so no caller writes to one."""

    __slots__ = ("vector", "lift", "reduced")

    def __init__(self, h1: H1Presentation, vector: Sequence[int]):
        self.vector = tuple(vector)
        self.lift = h1.lift(self.vector)
        self.reduced = tuple(s % dgl if dgl else s
                             for s, dgl in zip(self.lift, h1.diagonal))

    def __eq__(self, other):
        return isinstance(other, OrbitClass) and self.reduced == other.reduced

    def __hash__(self):
        return hash(self.reduced)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.reduced)

    def __repr__(self):
        return f"OrbitClass{self.vector}"


def orbit_class_monomial(d: ResolvedDiagram, h1: H1Presentation,
                         w: CyclicWord) -> OrbitClass:
    """Homology class of the orbit of w: half the sum of its letters'
    crossing monomials, per component, which is also the linking vector of
    its pushed-out orbit.  Memoized per word, and every word with the same
    vector gets the same ``OrbitClass``, built once per diagram.
    """
    key = ("class", w.chords)
    if key in d.memo:
        return d.memo[key]
    sums = [sum(counts) for counts in
            zip(*(letter.vector for letter in w.letters))]
    if any(v % 2 for v in sums):
        raise DiagramError(f"non-integral class for {w}: {sums} / 2")
    # meridians of unsurgered components still bound their disks, so
    # their coefficients are null-homologous and drop out
    vector = tuple(sums[i] // 2 for i in h1.surgered)
    shared = ("class_of", vector)
    if shared not in d.memo:
        d.memo[shared] = OrbitClass(h1, vector)
    d.memo[key] = d.memo[shared]
    return d.memo[key]

