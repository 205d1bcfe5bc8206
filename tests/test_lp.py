"""The fraction-free simplex against the Fraction simplex in the oracles.

Both run Bland's rule with the same tie-breaks, so they must return the
same vertex, None on the same infeasible programs and raise on the same
unbounded ones: on the sizing LPs of real fronts and on small random
programs built to hit ratio-test ties, redundant equality rows (which leave
an artificial basic at 0), negative right-hand sides, infeasibility and
unboundedness.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import fraction_solve_lp
from reebchords.diagram import (DiagramError, _sizing_rows, _template,
                                parse_front)
from reebchords.lp import solve_lp
from test_realization import seeded_fronts, torus

F = Fraction

# contact 1/2 surgery on the tb = 1 trefoil: +1 surgery on two Reeb
# push-offs of it
TREFOIL_2_COPY = ("L1,L1,X2,L5,L5,X6,X4,X3,X5,X4,X4,X3,X5,X4,X4,X3,X5,X4,"
                  "X2,R1,R1,X2,R1,R1 / surgery {0:+1, 1:+1}")


def outcome(solver, n, eq, ge, minimize):
    """The solution, None when infeasible, or the error's message when
    unbounded (the library raises DiagramError, the oracle ValueError)."""
    try:
        return solver(n, eq, ge, minimize)
    except (DiagramError, ValueError) as exc:
        return f"raised: {exc}"


def check_same(n, eq, ge, minimize):
    result = outcome(solve_lp, n, eq, ge, minimize)
    assert result == outcome(fraction_solve_lp, n, eq, ge, minimize)
    return result


def check_sizing_lp(front):
    n, eq, ge = _sizing_rows(*_template(front), F(32))
    theta = check_same(n, eq, ge, [F(1)] * n)
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
# reach.  TIE asks for feasibility only; its first pivot enters x1 with
# the ratio 2 in the second and the third row, and taking the third row
# there leads to another vertex.  REDUNDANT keeps its second artificial
# basic at 0, since its row is a multiple of the first.
TIE = (3, [([F(-2), F(0), F(2)], F(3)), ([F(0), F(1), F(1)], F(2))],
       [([F(0), F(1, 2), F(1)], F(1))], [F(0)] * 3)
REDUNDANT = (2, [([F(1), F(2)], F(3)), ([F(-2), F(-4)], F(-6))], [],
             [F(1), F(1)])
NEGATIVE = (2, [], [([F(-1), F(-1)], F(-4)), ([F(1), F(-1)], F(1))],
            [F(-1), F(2)])
INFEASIBLE = (1, [([F(1)], F(1))], [([F(1)], F(2))], [F(1)])
UNBOUNDED = (2, [], [([F(1), F(-1)], F(1))], [F(-1), F(0)])


def test_named_programs():
    assert check_same(*TIE) == [F(0), F(1, 2), F(3, 2)]
    assert check_same(*REDUNDANT) == [F(0), F(3, 2)]
    assert check_same(*NEGATIVE) == [F(4), F(0)]
    assert check_same(*INFEASIBLE) is None
    assert check_same(*UNBOUNDED) == "raised: unbounded objective"
    with pytest.raises(DiagramError, match="unbounded objective"):
        solve_lp(*UNBOUNDED)


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
    # a zero objective asks for feasibility only, so the vertex returned
    # is wherever the pivots stop
    minimize = draw(st.lists(st.sampled_from([F(-2), F(-1), F(0), F(1),
                                              F(2)]),
                             min_size=n, max_size=n) | st.just([F(0)] * n))
    return n, eq, ge, minimize


@settings(max_examples=400, deadline=None)
@given(small_programs())
@example(TIE)
@example(REDUNDANT)
@example(NEGATIVE)
@example(INFEASIBLE)
@example(UNBOUNDED)
def test_small_programs_match_the_fraction_simplex(program):
    check_same(*program)
