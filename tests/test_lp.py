"""The fraction-free dual simplex against the Fraction simplex in the
oracles.

``solve_lp`` minimizes a cost >= 0 by the dual simplex from the slack
basis, the oracle by the two-phase primal.  Where the optimum is one
vertex they must return it, as on the sizing LPs of real fronts; on small
random programs built to hit ratio-test ties, redundant equality rows,
negative right-hand sides and infeasibility, they must agree on
feasibility and on the optimal value, and each point ``solve_lp`` returns
must satisfy every row exactly with x >= 0.  ``feasible_vertex``, the
branch and bound's entry to the same pivots, may stop at another vertex:
on the same random programs, at the root and after chains of branch
bounds, it must agree with the oracle on feasibility, and each point it
returns must satisfy every row exactly.  Both enter every row with its
slack basic, an eq row as two ge rows, so each tableau ``feasible_vertex``
returns must be its slack block times the rows entered, exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import fraction_solve_lp
from reebchords.diagram import _sizing_rows, _template, parse_front
from reebchords import lp, report
from reebchords.lp import feasible_vertex, solve_lp
from test_realization import seeded_fronts, torus
from test_report import (FEASIBLE_LP_FRONT, branch_inputs, entered,
                         integer_point, searches)

F = Fraction

# contact 1/2 surgery on the tb = 1 trefoil: +1 surgery on two Reeb
# push-offs of it
TREFOIL_2_COPY = ("L1,L1,X2,L5,L5,X6,X4,X3,X5,X4,X4,X3,X5,X4,X4,X3,X5,X4,"
                  "X2,R1,R1,X2,R1,R1 / surgery {0:+1, 1:+1}")


def satisfies(x, n, eq, ge):
    return len(x) == n and all(v >= 0 for v in x) and \
        all(sum(c * v for c, v in zip(a, x)) == b for a, b in eq) and \
        all(sum(c * v for c, v in zip(a, x)) >= b for a, b in ge)


def check_optimal(n, eq, ge, minimize):
    """solve_lp's point, after checking that it is None exactly when the
    oracle's is, else satisfies every row and has the oracle's value."""
    x = solve_lp(n, eq, ge, minimize)
    y = fraction_solve_lp(n, eq, ge, minimize)
    assert (x is None) == (y is None)
    if x is not None:
        assert satisfies(x, n, eq, ge)
        assert sum(c * v for c, v in zip(minimize, x)) == \
            sum(c * v for c, v in zip(minimize, y))
    return x


def check_sizing_lp(front):
    n, eq, ge = _sizing_rows(*_template(front), F(32))
    theta = solve_lp(n, eq, ge, [F(1)] * n)
    assert theta == fraction_solve_lp(n, eq, ge, [F(1)] * n)
    assert isinstance(theta, list) and all(isinstance(v, Fraction)
                                           for v in theta)


@pytest.mark.parametrize("name", [
    "trefoil_plus", "trefoil_minus", "unknot_plus", "unknot_minus",
    "stab_plus", "hopf_plus", "hopf_mixed"])
def test_fixture_sizing_lps_match_the_fraction_simplex(name, request):
    check_sizing_lp(request.getfixturevalue(name).front)


def test_seeded_sizing_lps_match_the_fraction_simplex():
    for front in seeded_fronts():
        check_sizing_lp(front)


@pytest.mark.parametrize("front", [torus(3), torus(9), torus(21),
                                   parse_front(TREFOIL_2_COPY)],
                         ids=["T(2,3)", "T(2,9)", "T(2,21)", "2-copy"])
def test_torus_and_copy_sizing_lps_match_the_fraction_simplex(front):
    check_sizing_lp(front)


# (n, eq rows, ge rows, objective), one per case the random programs must
# reach.  TIE asks for feasibility only, and the oracle's primal stops at
# another of its vertices, (0, 1/2, 3/2).  In RATIO the first leaving row,
# -x0 - x1 - x2 + s = -2, has the ratios 1, 1 and 2 for x0, x1 and x2, and
# the tie goes to x0.  REDUNDANT's second eq row is a multiple of its
# first.  NEGATIVE has a negative right-hand side, INFEASIBLE no point,
# and in OPEN x0 - x1 >= 1 leaves the feasible set unbounded but not the
# objective.
TIE = (3, [([F(-2), F(0), F(2)], F(3)), ([F(0), F(1), F(1)], F(2))],
       [([F(0), F(1, 2), F(1)], F(1))], [F(0)] * 3)
RATIO = (3, [], [([F(1), F(1), F(1)], F(2))], [F(1), F(1), F(2)])
REDUNDANT = (2, [([F(1), F(2)], F(3)), ([F(-2), F(-4)], F(-6))], [],
             [F(1), F(1)])
NEGATIVE = (2, [], [([F(-1), F(-1)], F(-4)), ([F(1), F(-1)], F(1))],
            [F(1), F(2)])
INFEASIBLE = (1, [([F(1)], F(1))], [([F(1)], F(2))], [F(1)])
OPEN = (2, [], [([F(1), F(-1)], F(1))], [F(1), F(0)])


def test_named_programs():
    assert check_optimal(*TIE) == [F(1, 2), F(0), F(2)]
    assert check_optimal(*RATIO) == [F(2), F(0), F(0)]
    assert check_optimal(*REDUNDANT) == [F(0), F(3, 2)]
    assert check_optimal(*NEGATIVE) == [F(1), F(0)]
    assert check_optimal(*INFEASIBLE) is None
    assert check_optimal(*OPEN) == [F(1), F(0)]


RATIONALS = st.sampled_from([F(-2), F(-1), F(0), F(0), F(0), F(1), F(1),
                             F(2), F(1, 2), F(-1, 3)])
RHS = st.sampled_from([F(-3), F(-1), F(0), F(0), F(1), F(2), F(2), F(3),
                       F(1, 2), F(-2, 3)])


@st.composite
def small_programs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    row = st.tuples(st.lists(RATIONALS, min_size=n, max_size=n), RHS)
    eq = draw(st.lists(row, max_size=4))
    ge = draw(st.lists(row, max_size=4))
    if eq and draw(st.booleans()):
        # a multiple of an equality row: redundant when the rows agree
        a, b = eq[0]
        k = draw(st.sampled_from([F(1), F(-2), F(1, 2)]))
        eq.append(([k * v for v in a], k * b))
    # costs are >= 0, and a zero objective asks for feasibility only, so
    # the vertex returned is wherever the pivots stop
    minimize = draw(st.lists(st.sampled_from([F(0), F(1), F(2), F(1, 2)]),
                             min_size=n, max_size=n) | st.just([F(0)] * n))
    return n, eq, ge, minimize


@settings(max_examples=400, deadline=None)
@given(small_programs())
@example(TIE)
@example(RATIO)
@example(REDUNDANT)
@example(NEGATIVE)
@example(INFEASIBLE)
@example(OPEN)
def test_small_programs_match_the_fraction_simplex(program):
    check_optimal(*program)


def check_inverse(n, rows, tab):
    """Each tableau row's x columns and right-hand side, over its
    denominator, are its slack block y times the rows entered as
    -a.x + s = -b, exactly: the slack columns hold B^-1."""
    for row in tab:
        assert len(row) == n + len(rows) + 1
        y = row[n:-1]
        assert row[:n] == [-sum(v * a[j] for v, (a, _b) in zip(y, rows))
                           for j in range(n)]
        assert row[-1] == -sum(v * b for v, (_a, b) in zip(y, rows))


def check_bound_chain(n, eq, ge, bounds):
    """Solve the root, then each child that adds the next bound
    ``(j, sign, value)``, sign * x_j >= value, from its parent's tableau,
    while the nodes stay feasible.  Each verdict must be the oracle's, each
    point must satisfy every row, and each tableau must hold B^-1 of the
    rows entered (each eq row as a.x >= b and -a.x >= -b, then the ge
    rows); the nodes are returned."""
    nodes, parent = [], None
    for k in range(len(bounds) + 1):
        rows = ge + [([sign if c == j else 0 for c in range(n)], value)
                     for j, sign, value in bounds[:k]]
        node = feasible_vertex(n, eq, rows, parent)
        assert (node is None) == \
            (fraction_solve_lp(n, eq, rows, [0] * n) is None)
        nodes.append(node)
        if node is None:
            break
        assert satisfies(node[0], n, eq, rows)
        check_inverse(n, entered(eq, rows), node[1][0])
        parent = node[1]
    return nodes


# (n, eq rows, ge rows, bounds) for the dual simplex.  In ZERO_ROW the
# second eq row is twice the first, and each eq row enters as two ge rows,
# so the tableau keeps four; in CONTRADICTION the second contradicts the
# first.  NO_GE has eq rows only.  In BASIC_AND_NOT the root's vertex is
# x = (3/2, 0) with x0 basic: the first bound asks x1 >= 1 of the nonbasic
# x1, the second cuts the basic x0 to at most 0, and the third makes the
# node infeasible.
ZERO_ROW = (2, [([F(1), F(1)], F(2)), ([F(2), F(2)], F(4))], [], [])
CONTRADICTION = (2, [([F(1), F(1)], F(2)), ([F(2), F(2)], F(3))], [], [])
NO_GE = (3, [([F(1), F(-1), F(0)], F(-1)), ([F(0), F(1), F(2)], F(3))], [],
         [(0, -1, F(-1))])
BASIC_AND_NOT = (2, [], [([F(1), F(1)], F(3, 2))],
                 [(1, 1, F(1)), (0, -1, F(0)), (1, -1, F(-1))])


def test_named_dual_programs():
    [(x, (tab, _dens, _basis))] = check_bound_chain(*ZERO_ROW)
    assert len(tab) == 4 and x == [F(2), F(0)]
    assert check_bound_chain(*CONTRADICTION) == [None]
    assert [node[0] for node in check_bound_chain(*NO_GE)] == \
        [[F(2), F(3), F(0)], [F(1), F(2), F(1, 2)]]
    root, nonbasic, basic, infeasible = check_bound_chain(*BASIC_AND_NOT)
    assert root[0] == [F(3, 2), F(0)]
    assert 0 in root[1][2] and 1 not in root[1][2]
    assert nonbasic[0] == [F(1, 2), F(1)] and 0 in nonbasic[1][2]
    assert basic[0] == [F(0), F(3, 2)] and infeasible is None


@st.composite
def programs_with_a_point(draw):
    """Small programs whose rows hold at a drawn point x >= 0, with each
    ge row slack by its drawn right-hand side's size, so the root LP is
    feasible and the bounds meet more feasible nodes."""
    n, eq, ge, minimize = draw(small_programs())
    x = draw(st.lists(st.sampled_from([F(0), F(0), F(1), F(2), F(1, 2),
                                       F(5, 3)]), min_size=n, max_size=n))

    def at(a):
        return sum(c * v for c, v in zip(a, x))

    return (n, [(a, at(a)) for a, _b in eq],
            [(a, at(a) - abs(b)) for a, b in ge], minimize)


BOUND = st.tuples(st.integers(min_value=0, max_value=4),
                  st.sampled_from([1, -1]),
                  st.sampled_from([F(-1), F(0), F(1), F(2), F(1, 2),
                                   F(3, 2), F(-1, 3)]))


@settings(max_examples=300, deadline=None)
@given(small_programs() | programs_with_a_point(),
       st.lists(BOUND, max_size=5))
@example(TIE, [])
@example(REDUNDANT, [(1, -1, F(-1))])
@example(INFEASIBLE, [])
@example(ZERO_ROW[:3] + (F(0),), ZERO_ROW[3])
@example(CONTRADICTION[:3] + (F(0),), CONTRADICTION[3])
@example(NO_GE[:3] + (F(0),), NO_GE[3])
@example(BASIC_AND_NOT[:3] + (F(0),), BASIC_AND_NOT[3])
def test_dual_simplex_verdicts_match_the_fraction_simplex(program, bounds):
    n, eq, ge, _minimize = program
    check_bound_chain(n, eq, ge, [(j % n, sign, value)
                                  for j, sign, value in bounds])


def test_a_child_takes_fewer_pivots_than_a_fresh_solve(monkeypatch):
    """In the branch and bound of (r4) on ``FEASIBLE_LP_FRONT``, whose root
    LP is feasible and whose two children are not, each child solved from
    its parent's tableau takes fewer pivots than the same LP solved by
    ``feasible_vertex`` from the slack basis, and the three LPs take fewer
    than ``solve_lp`` takes on them with a zero objective.  All the counts
    are of the one dual simplex, from two starts: a parent's tableau, and
    the slack basis in either function's row order."""
    nodes, pivots = [], [0]
    pivot = lp._pivot

    def counted(*args):
        pivots[0] += 1
        return pivot(*args)

    def work(solver, *args):
        pivots[0] = 0
        return solver(*args), pivots[0]

    def solved(cols, eq, ge, parent):
        node, count = work(feasible_vertex, cols, eq, ge, parent)
        nodes.append((cols, eq, ge, parent, node, count))
        return node

    [(_case, args)] = branch_inputs(searches(FEASIBLE_LP_FRONT, [(4,)], 2))
    monkeypatch.setattr(lp, "_pivot", counted)
    monkeypatch.setattr(report, "feasible_vertex", solved)
    assert integer_point(*args) is False
    assert [parent is None for *_rows, parent, _node, _count in nodes] == \
        [True, False, False]
    from_slacks = 0
    for cols, eq, ge, parent, node, count in nodes:
        fresh, dual = work(feasible_vertex, cols, eq, ge)
        x, sized = work(solve_lp, cols, eq, ge, [0] * cols)
        assert (node is None) == (fresh is None) == (x is None)
        assert count < dual if parent else count == dual
        from_slacks += sized
    assert sum(count for *_rest, count in nodes) < from_slacks
