"""Tiny exact-rational linear programming: one dual simplex under Bland's
rule, with one start.

``solve_lp`` sizes the diagram builder's templates: closure integrals must
vanish exactly while every crossing keeps a positive z-gap, and its vertex
fixes the realization.  Its costs are >= 0, so the slack basis is dual
feasible and there is no phase 1.  The builder's rows are doubled into
ints, which moves no pivot; a front of n events gives about n variables
and n rows, and the pivots skip the tableau's many zeros.
``feasible_vertex`` decides the candidate search's branch and bound on a
zero objective, for which every basis is dual feasible.  A child starts
from its parent's final tableau with the one new bound row added.

Every row enters as -a.x + s = -b with its slack s basic, an eq row as the
two rows a.x >= b and -a.x >= -b, so every tableau's slack columns hold
B^-1, and a row that proves an LP infeasible holds its Farkas vector.

The tableau is fraction-free: each row is integers over one positive
denominator, reduced by the row's gcd after each update, and ratios are
compared by cross-multiplying.  Only the solution becomes ``Fraction``s.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple


def _integers(values):
    """Rationals (ints or Fractions) as (integers, positive denominator)."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _reduced(row, den):
    g = gcd(den, *row)
    if g > 1:
        return [v // g for v in row], den // g
    return row, den


def _minus(row, den, prow, pden, col):
    """row - row[col] * prow, for a pivot row with prow[col] == pden."""
    f = row[col]
    return _reduced([a * pden - f * b if b else a * pden
                     for a, b in zip(row, prow)], den * pden)


def _pivot(tab, dens, basis, row, col):
    piv = tab[row][col]
    prow = tab[row] if piv > 0 else [-v for v in tab[row]]
    prow, pden = _reduced(prow, abs(piv))
    tab[row], dens[row] = prow, pden
    for r in range(len(tab)):
        if r != row and tab[r][col]:
            tab[r], dens[r] = _minus(tab[r], dens[r], prow, pden, col)
    basis[row] = col


def solve_lp(n: int,
             eq: Sequence[Tuple[Sequence[Fraction], Fraction]],
             ge: Sequence[Tuple[Sequence[Fraction], Fraction]],
             minimize: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """Minimize ``minimize``, every cost >= 0, over x >= 0 with eq rows
    a.x == b and ge rows a.x >= b; None when infeasible.

    The ge rows enter, then each eq row as its pair, and the costs go in
    the last row.  Costs >= 0 make the slack basis dual feasible, and with
    x >= 0 they bound the objective below, so the dual simplex ends at an
    optimum or proves the rows infeasible.  Under Bland's rule the row
    order picks among optimal vertices: eq pairs first moves a corpus
    front's realization and slows the larger k-copies' sizing."""
    rows = [_integers([*a, b]) for a, b in ge] + _pairs(eq)
    tab, dens, basis = [], [], []
    _enter(tab, dens, basis, n, rows)
    cost, den = _integers([*minimize, *[0] * (len(rows) + 1)])
    tab.append(cost)
    dens.append(den)
    return _dual_simplex(tab, dens, basis, n)


def _dual_simplex(tab, dens, basis, n):
    """Pivot until every right-hand side is >= 0, under Bland's rule, and
    return the basic solution's first n coordinates as Fractions.  The
    negative row with the least basic index leaves, and the column with the
    least ratio c_j / -a_j over that row's negative entries a_j enters,
    the least column on ties.  The costs c are the tableau's row past the
    basis rows, if it has one, else zero: then every ratio ties, and the
    least column with a negative entry enters.  None when the leaving row
    has no negative entry: it proves the LP infeasible."""
    while True:
        rows = [(j, r) for r, j in enumerate(basis) if tab[r][-1] < 0]
        if not rows:
            x = [Fraction(0)] * n
            for r, j in enumerate(basis):
                if j < n:
                    x[j] = Fraction(tab[r][-1], dens[r])
            return x
        row = min(rows)[1]
        lead = tab[row]
        col = next((j for j, v in enumerate(lead[:-1]) if v < 0), None)
        if col is None:
            return None
        if len(tab) > len(basis):
            cost = tab[-1]
            # c_j / -a_j < c_col / -a_col, cross-multiplied: the row's and
            # the cost row's denominators cancel
            for j in range(col + 1, len(lead) - 1):
                if lead[j] < 0 and cost[j] * lead[col] > cost[col] * lead[j]:
                    col = j
        _pivot(tab, dens, basis, row, col)


def _pairs(eq):
    """Each eq row a.x == b as the two ge rows a.x >= b and -a.x >= -b, as
    ints over one denominator."""
    rows = []
    for a, b in eq:
        row, den = _integers([*a, b])
        rows += [(row, den), ([-v for v in row], den)]
    return rows


def _enter(tab, dens, basis, n, rows):
    """Widen the tableau by a slack column per row, then append each row (a
    and b as ints over one denominator) as -a.x + s = -b over the basis,
    its slack s basic in column n + len(basis), basic columns eliminated."""
    slacks = len(basis) + len(rows)
    tab[:] = [row[:-1] + [0] * len(rows) + row[-1:] for row in tab]
    for row, den in rows:
        new = [-v for v in row[:-1]] + [0] * slacks + [-row[-1]]
        new[n + len(basis)] = den
        for r, j in enumerate(basis):
            if new[j]:
                new, den = _minus(new, den, tab[r], dens[r], j)
        tab.append(new)
        dens.append(den)
        basis.append(n + len(basis))


def feasible_vertex(n: int,
                    eq: Sequence[Tuple[Sequence[Fraction], Fraction]],
                    ge: Sequence[Tuple[Sequence[Fraction], Fraction]],
                    parent=None):
    """A point of x >= 0 with eq rows a.x == b and ge rows a.x >= b, as
    (x, tableau) with x n Fractions, or None when there is none: the dual
    simplex on a zero objective.

    The root (no ``parent``) enters the eq pairs, then the ge rows: under
    Bland's rule the eq rows then leave first, which takes fewer pivots on
    the search's LPs than ge rows first.  ``parent`` is the tableau
    returned for the same rows less the last ge row: a copy of it takes
    only that row.  Whether there is a point depends on the rows alone;
    which vertex is returned depends on the start."""
    if parent is None:
        tab, dens, basis, rows, new = [], [], [], _pairs(eq), ge
    else:
        tab, dens, basis = (list(part) for part in parent)
        rows, new = [], ge[-1:]
    _enter(tab, dens, basis, n, rows + [_integers([*a, b]) for a, b in new])
    x = _dual_simplex(tab, dens, basis, n)
    return None if x is None else (x, (tab, dens, basis))
