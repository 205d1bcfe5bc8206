"""Tiny exact-rational linear programming (simplex with Bland's rule).

Used by the diagram builder to size its templates: closure integrals must
vanish exactly while every crossing keeps a positive z-gap.  The builder
reads all rows off one symbolic layout; a front of n events gives about n
variables and n rows, and the pivots skip the tableau's many zeros.

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
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = Fraction(tab[r][-1], dens[r])
    return x
