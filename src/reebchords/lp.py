"""Tiny exact-rational linear programming (simplex with Bland's rule).

Two users share one tableau and its pivots.  ``solve_lp``, the two-phase
primal, sizes the diagram builder's templates: closure integrals must
vanish exactly while every crossing keeps a positive z-gap, and its vertex
fixes the realization.  The builder reads all rows off one symbolic
layout; a front of n events gives about n variables and n rows, and the
pivots skip the tableau's many zeros.  ``feasible_vertex``, a dual simplex,
decides the candidate search's branch and bound: its objective is zero, so
every basis is dual feasible and it needs no phase 1.  A root starts from
the slack basis; a child starts from its parent's final tableau with the
one new bound row added.

The tableau is fraction-free: each row is integers over one positive
denominator, reduced by the row's gcd after each update, and ratios are
compared by cross-multiplying.  Only the solution becomes ``Fraction``s.
The artificial columns are never read, so they are not stored.
"""

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .diagram import DiagramError


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


def _vertex(tab, dens, basis, n):
    """The basic solution's first n coordinates, as Fractions."""
    x = [Fraction(0)] * n
    for r, j in enumerate(basis):
        if j < n:
            x[j] = Fraction(tab[r][-1], dens[r])
    return x


def _simplex(tab, dens, basis, n_cols):
    """Minimize the objective in the last tableau row; returns False if unbounded."""
    while True:
        obj = tab[-1]
        col = next((j for j in range(n_cols) if obj[j] < 0), None)
        if col is None:
            return True
        row = None
        for r in range(len(tab) - 1):
            c = tab[r][col]
            # the least ratio rhs / c, cross-multiplied (a row's denominator
            # cancels from its own ratio), then the least basis index
            if c > 0 and (row is None or (tab[r][-1] * tab[row][col], basis[r])
                          < (tab[row][-1] * c, basis[row])):
                row = r
        if row is None:
            return False
        _pivot(tab, dens, basis, row, col)


def solve_lp(n: int,
             eq: Sequence[Tuple[Sequence[Fraction], Fraction]],
             ge: Sequence[Tuple[Sequence[Fraction], Fraction]],
             minimize: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """Minimize ``minimize`` over x >= 0 with eq rows a.x == b and ge rows
    a.x >= b; None when infeasible, DiagramError (a fault) when unbounded."""
    n_slack = len(ge)
    m = len(eq) + n_slack
    n_cols = n + n_slack
    tab, dens = [], []
    for i, (a, b) in enumerate(list(eq) + list(ge)):
        row, den = _integers(list(a) + [0] * n_slack + [b])
        if i >= len(eq):
            row[n + i - len(eq)] = -den
        tab.append(row if row[-1] >= 0 else [-v for v in row])
        dens.append(den)
    basis = list(range(n_cols, n_cols + m))    # the artificials
    # phase 1 objective: sum of artificials
    ks = [lcm(*dens) // den for den in dens]
    obj, oden = _reduced([-sum(k * row[j] for k, row in zip(ks, tab))
                          for j in range(n_cols + 1)], lcm(*dens))
    tab.append(obj)
    dens.append(oden)
    if not _simplex(tab, dens, basis, n_cols):
        return None
    if tab[-1][-1] != 0:
        return None
    # drive leftover artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n_cols:
            for j in range(n_cols):
                if tab[r][j] != 0:
                    _pivot(tab, dens, basis, r, j)
                    break
    obj, oden = _integers(list(minimize) + [0] * (n_slack + 1))
    # express objective in terms of the current basis
    for r in range(m):
        if basis[r] < n and obj[basis[r]] != 0:
            obj, oden = _minus(obj, oden, tab[r], dens[r], basis[r])
    tab[-1], dens[-1] = obj, oden
    if not _simplex(tab, dens, basis, n_cols):
        raise DiagramError("unbounded objective")
    return _vertex(tab, dens, basis, n)


def _dual_simplex(tab, dens, basis):
    """Pivot until every right-hand side is >= 0, under Bland's rule: the
    negative row with the least basic index leaves, and the least column
    with a negative entry there enters (with a zero objective, every one
    ties in the ratio test).  False when that row has no negative entry:
    it proves the LP infeasible."""
    while True:
        rows = [(j, r) for r, j in enumerate(basis) if tab[r][-1] < 0]
        if not rows:
            return True
        row = min(rows)[1]
        col = next((j for j, v in enumerate(tab[row][:-1]) if v < 0), None)
        if col is None:
            return False
        _pivot(tab, dens, basis, row, col)


def _in_basis(tab, dens, basis, values):
    """A new row of rationals as ints over a denominator, with every basic
    column eliminated."""
    row, den = _integers(values)
    for r, j in enumerate(basis):
        if row[j]:
            row, den = _minus(row, den, tab[r], dens[r], j)
    return row, den


def feasible_vertex(n: int,
                    eq: Sequence[Tuple[Sequence[Fraction], Fraction]],
                    ge: Sequence[Tuple[Sequence[Fraction], Fraction]],
                    parent=None):
    """A point of x >= 0 with eq rows a.x == b and ge rows a.x >= b, as
    (x, tableau) with x n Fractions, or None when there is none: the dual
    simplex on a zero objective.

    The root (no ``parent``) pivots each eq row in on its least nonzero
    column; one that reduces to 0 = 0 is dropped, and 0 = b != 0 means
    infeasible.  Each ge row -a.x + s = -b then enters with its slack s
    basic.  ``parent`` is the tableau returned for the same rows less the
    last ge row: a copy of it, widened by one slack column, takes only
    that row.  Whether there is a point depends on the rows alone; which
    vertex is returned depends on the start."""
    pad = [0] * len(ge)
    if parent is None:
        tab, dens, basis, first = [], [], [], 0
        for a, b in eq:
            row, den = _in_basis(tab, dens, basis, [*a, *pad, b])
            col = next((j for j in range(n) if row[j]), None)
            if col is None and row[-1]:
                return None
            if col is not None:
                tab.append(row)
                dens.append(den)
                basis.append(col)
                _pivot(tab, dens, basis, len(tab) - 1, col)
    else:
        tab = [row[:-1] + [0, row[-1]] for row in parent[0]]
        dens, basis, first = list(parent[1]), list(parent[2]), len(ge) - 1
    for i in range(first, len(ge)):
        a, b = ge[i]
        values = [-v for v in a] + pad + [-b]
        values[n + i] = 1
        row, den = _in_basis(tab, dens, basis, values)
        tab.append(row)
        dens.append(den)
        basis.append(n + i)
    if not _dual_simplex(tab, dens, basis):
        return None
    return _vertex(tab, dens, basis, n), (tab, dens, basis)
