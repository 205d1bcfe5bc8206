"""Tiny exact-rational linear programming (simplex with Bland's rule).

Used by the diagram builder to size its templates: closure integrals must
vanish exactly while every crossing keeps a positive z-gap.  The builder
reads all rows off one symbolic layout; a front of n events gives about n
variables and n rows, and the pivots skip the tableau's many zeros.
"""

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple


def _pivot(tab, basis, row, col):
    piv = tab[row][col]
    # tableaux are mostly zeros (slack and artificial columns): skip them
    tab[row] = [v / piv if v else v for v in tab[row]]
    for r in range(len(tab)):
        if r != row and tab[r][col] != 0:
            factor = tab[r][col]
            tab[r] = [a - factor * b if b else a
                      for a, b in zip(tab[r], tab[row])]
    basis[row] = col


def _simplex(tab, basis, n_cols):
    """Minimize the objective in the last tableau row; returns False if unbounded."""
    while True:
        obj = tab[-1]
        col = None
        for j in range(n_cols):
            if obj[j] < 0:
                col = j
                break
        if col is None:
            return True
        row = None
        best = None
        for r in range(len(tab) - 1):
            if tab[r][col] > 0:
                ratio = tab[r][-1] / tab[r][col]
                if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[row]):
                    best = ratio
                    row = r
        if row is None:
            return False
        _pivot(tab, basis, row, col)


def solve_lp(n: int,
             eq: Sequence[Tuple[Sequence[Fraction], Fraction]],
             ge: Sequence[Tuple[Sequence[Fraction], Fraction]],
             minimize: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """Minimize the linear objective ``minimize`` over x >= 0 with eq rows
    a.x == b and ge rows a.x >= b; None when infeasible."""
    rows = []
    for a, b in eq:
        rows.append(([Fraction(v) for v in a], Fraction(b), "eq"))
    for a, b in ge:
        rows.append(([Fraction(v) for v in a], Fraction(b), "ge"))
    m = len(rows)
    n_slack = sum(1 for r in rows if r[2] == "ge")
    total = n + n_slack + m          # structural + slack + artificial
    tab = []
    basis = []
    si = 0
    for i, (a, b, kind) in enumerate(rows):
        coeffs = list(a) + [Fraction(0)] * (n_slack + m) + [Fraction(0)]
        if kind == "ge":
            coeffs[n + si] = Fraction(-1)
            si += 1
        if b < 0:
            coeffs = [-v for v in coeffs]
            b = -b
        coeffs[n + n_slack + i] = Fraction(1)
        coeffs[-1] = b
        tab.append(coeffs)
        basis.append(n + n_slack + i)
    # phase 1 objective: sum of artificials
    obj = [Fraction(0)] * (total + 1)
    for i in range(m):
        obj = [o - v for o, v in zip(obj, tab[i])]
    tab.append(obj)
    if not _simplex(tab, basis, n + n_slack):
        return None
    if tab[-1][-1] != 0:
        return None
    # drive leftover artificials out of the basis where possible
    for r in range(m):
        if basis[r] >= n + n_slack:
            for j in range(n + n_slack):
                if tab[r][j] != 0:
                    _pivot(tab, basis, r, j)
                    break
    tab.pop()
    obj = [Fraction(v) for v in minimize] + \
        [Fraction(0)] * (n_slack + m) + [Fraction(0)]
    # express objective in terms of the current basis
    for r in range(m):
        if basis[r] < n and obj[basis[r]] != 0:
            factor = obj[basis[r]]
            obj = [a - factor * b for a, b in zip(obj, tab[r])]
    tab.append(obj)
    if not _simplex(tab, basis, n + n_slack):
        raise ValueError("unbounded objective")
    tab.pop()
    x = [Fraction(0)] * n
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = tab[r][-1]
    return x
