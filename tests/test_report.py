import importlib.util
import random
from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from oracles import (branch_and_bound, brute_force_candidates,
                     candidate_pool, collection_i_grading,
                     fibers_over_exponent, front_text, fraction_solve_lp,
                     k_copy, pruned_search, reduce_class, search_program)
from reebchords import lp, report
from reebchords.diagram import parse_front, resolve
from reebchords.homology import h1_presentation
from reebchords.quiver import effective_fiber_vector, i_grading
from reebchords.report import (GeneratorRecord, _pool_length_cap,
                               candidate_reports, differential_candidates,
                               generators)
from reebchords.words import CyclicWord, unpack

F = Fraction
EPS = F(1, 100)

PAPER_ORBIT_TABLE = {
    (1,): (1, 1, 0, 0), (2,): (1, 1, 0, 0), (3,): (1, 1, 0, 0),
    (4,): (0, 2, 1, 1), (5,): (0, 2, -1, 1),
    (1, 2): (0, 2, 0, 0), (1, 3): (0, 2, 0, 0), (1, 4): (1, 3, 1, 1),
    (1, 5): (1, 3, -1, 1), (2, 3): (0, 2, 0, 0), (2, 4): (0, 3, 0, 1),
    (2, 5): (0, 3, 0, 1), (3, 4): (1, 3, 1, 1), (3, 5): (1, 3, -1, 1),
    (4, 5): (0, 4, 0, 2),
}


def test_trefoil_generator_tables(trefoil_plus, trefoil_minus,
                                  trefoil_plus_h1, trefoil_minus_h1):
    gens_p = {g.word.chords: g
              for g in generators(trefoil_plus, trefoil_plus_h1, max_len=2)}
    gens_m = {g.word.chords: g
              for g in generators(trefoil_minus, trefoil_minus_h1, max_len=2)}
    for word, (mu_p, cz_p, mu_m, cz_m) in PAPER_ORBIT_TABLE.items():
        assert gens_p[word].cz == cz_p
        assert gens_p[word].orbit_class.reduced == (mu_p % 2,)
        assert gens_m[word].cz == cz_m
        assert gens_m[word].orbit_class.vector == (mu_m,)


def test_unknot_good_bad_split(unknot_minus):
    h1 = h1_presentation(unknot_minus)
    gens = generators(unknot_minus, h1, max_len=4)
    flags = {g.word.chords: g.good for g in gens}
    assert flags[(1,)] and flags[(1, 1, 1)]
    assert not flags[(1, 1)] and not flags[(1, 1, 1, 1)]


def test_generator_degree_and_igrading(trefoil_plus, trefoil_plus_h1):
    gens = generators(trefoil_plus, trefoil_plus_h1, max_len=1)
    for g in gens:
        assert g.degree == g.cz - 1
        if g.orbit_class.is_zero():
            assert g.igrading is not None
        else:
            assert g.igrading is None


def test_trefoil_r4_differential(trefoil_plus, trefoil_plus_h1):
    g = GeneratorRecord(trefoil_plus, trefoil_plus_h1,
                        CyclicWord(trefoil_plus, [4]))
    rep = differential_candidates(g, trefoil_plus, trefoil_plus_h1, EPS)
    assert rep.z_graded
    assert len(rep.survivors) == 1
    c = rep.survivors[0]
    assert c.is_constant()
    assert not c.sign_ambiguous
    assert len(c.faces) == 1
    assert c.faces[0].corner_chords() == [4]


def test_stab_unknot_r1_differential(stab_plus):
    h1 = h1_presentation(stab_plus)
    gens = generators(stab_plus, h1, max_len=1)
    low = min((g for g in gens if g.good), key=lambda g: g.action)
    assert low.cz == 2 and low.orbit_class.is_zero()
    rep = differential_candidates(low, stab_plus, h1, EPS)
    consts = [c for c in rep.survivors if c.is_constant()]
    assert len(consts) == 1
    assert consts[0].faces and not consts[0].sign_ambiguous


def test_rot0_unknot_sign_ambiguous(unknot_plus):
    h1 = h1_presentation(unknot_plus)
    g = GeneratorRecord(unknot_plus, h1, CyclicWord(unknot_plus, [1]))
    rep = differential_candidates(g, unknot_plus, h1, EPS)
    consts = [c for c in rep.survivors if c.is_constant()]
    assert len(consts) == 1
    assert len(consts[0].faces) == 2
    assert consts[0].sign_ambiguous


def test_survivor_filters_reassertable(trefoil_plus, trefoil_plus_h1):
    d, h1 = trefoil_plus, trefoil_plus_h1
    g = GeneratorRecord(d, h1, CyclicWord(d, [1, 2]))
    rep = differential_candidates(g, d, h1, EPS)
    for c in rep.survivors:
        degree = sum(GeneratorRecord(d, h1, w).degree for w in c.factors)
        assert degree == g.degree - 1
        cls = [0] * len(h1.surgered)
        for w in c.factors:
            cls = [a + b for a, b in
                   zip(cls, GeneratorRecord(d, h1, w).orbit_class.vector)]
        assert reduce_class(h1, cls) == g.orbit_class.reduced
        action = sum((w.action() for w in c.factors), F(0))
        slack = 3 * EPS * (len(g.word.chords)
                           + sum(len(w.chords) for w in c.factors))
        assert action < g.action + slack
        if c.factors:
            top = i_grading(d, h1, g.word)
            bottom = collection_i_grading(d, h1, list(c.factors))
            assert all(a >= b for a, b in zip(top, bottom))
    labels = {c.label for c in rep.survivors}
    for label in labels:
        assert "count unknown" in label or "bubbling" in label


def test_survivors_of_a_free_class_row_keep_the_class(trefoil_minus,
                                                     trefoil_minus_h1):
    """H1 = Z on the trefoil with -1 surgery, so the class row of (r4r5)'s
    search is an equation, and it alone rejects (r4): its degree is the
    target and its action is under the budget.  Every survivor's summed
    class vector reduces to the generator's, at pool length 1 and 2."""
    d, h1 = trefoil_minus, trefoil_minus_h1
    g = GeneratorRecord(d, h1, CyclicWord(d, [4, 5]))
    r4 = GeneratorRecord(d, h1, CyclicWord(d, [4]))
    assert h1.diagonal == [0]
    assert r4.degree == g.degree - 1 and r4.action < g.action
    for max_pool_len in (1, 2):
        rep = differential_candidates(g, d, h1, EPS,
                                      max_pool_len=max_pool_len)
        assert rep.z_graded and rep.truncated is None
        assert len(rep.survivors) > 1
        for c in rep.survivors:
            assert c.factors != (r4.word,)
            cls = [0] * len(h1.surgered)
            for w in c.factors:
                cls = [a + b for a, b in
                       zip(cls, GeneratorRecord(d, h1, w).orbit_class.vector)]
            assert reduce_class(h1, cls) == g.orbit_class.reduced


def test_nonzero_counts_need_witness(trefoil_plus, trefoil_plus_h1):
    d, h1 = trefoil_plus, trefoil_plus_h1
    for base in ((4,), (1, 2), (2, 3)):
        g = GeneratorRecord(d, h1, CyclicWord(d, base))
        rep = differential_candidates(g, d, h1, EPS)
        for c in rep.survivors:
            if "bubbling" in c.label:
                assert c.faces
            else:
                assert not c.faces


def test_degraded_grading_warns(stab_plus):
    # nonzero first Chern vector: only the mod-2 degree survives
    h1 = h1_presentation(stab_plus)
    gens = generators(stab_plus, h1, max_len=1)
    low = min((g for g in gens if g.good), key=lambda g: g.action)
    rep = differential_candidates(low, stab_plus, h1, EPS)
    assert not rep.z_graded
    assert rep.warning and "mod 2" in rep.warning


SEARCH_FRONTS = [
    "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}",
    "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:+1}",
    "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:-1}",
    "L1,L2,R1,R1 / orientations {0:-} / surgery {0:+1}",
    "L1,L2,L2,X3,X2,R3,R2,R1 / surgery {0:+1, 1:-1, 2:0}"]
# searches that complete with 3, 26 and 11 survivors at pool length 2
WIDE_FRONT = ("L1,X1,X1,X1,X1,L1,X3,X2,L2,R2,X3,X1,R3,R1 / "
              "orientations {0:+, 1:-} / surgery {0:-1, 1:-1}")
WIDE_WORDS = [(1, 3), (1, 5), (3, 5)]
# chord r1 has the action 64 of each two-letter word on r3 to r6, whose
# actions are 32, so a pool holding both lists a dearer cost before a
# cheaper one
TIED_FRONT = ("L1,R1,L1,X1,X1,X1,X1,R1 / orientations {0:+, 1:-} / "
              "surgery {0:+1, 1:+1}")
TIED_WORDS = [(2, 5), (3, 6)]
# the degree-1 words of length 4 on the Hopf link with -1 surgeries, whose
# pools hold words of negative degree
HOPF_MINUS = "L1,L3,X2,X2,R1,R1 / surgery {0:-1, 1:-1}"
HOPF_MINUS_WORDS = [(1, 2, 4, 4), (1, 3, 2, 4), (1, 3, 3, 2)]
# c1 is nonzero here, so its searches filter by parity
PARITY_FRONT = ("L1,X1,X1,L3,X1,X3,R1,L2,X1,X1,X3,R2,R1,L1,R1 / "
                "orientations {0:+, 1:+, 2:+} / surgery {0:+1, 1:0, 2:-1}")
# split links with +1 surgery on both components, trefoil and trefoil
# (H1 = Z/2 + Z/2) and trefoil and T(2,5) (H1 = Z/2 + Z/4): their searches
# check two class rows
SPLIT_LINKS = [
    "L1,L3,X2,X2,X2,R1,R1,L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1, 1:+1}",
    "L1,L3,X2,X2,X2,R1,R1,L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:+1, 1:+1}"]
# H1 = Z and c1 nonzero: a class row that is an equation, in parity mode
FREE_H1_FRONT = "L1,L2,R1,R1,L1,R1 / surgery {0:+1, 1:+1}"
# (front, words, max_pool_len) of every search checked against the oracle
ORACLE_SEARCHES = [(text, None, None) for text in SEARCH_FRONTS] + [
    (WIDE_FRONT, WIDE_WORDS, 2),
    (TIED_FRONT, TIED_WORDS, 2),
    (HOPF_MINUS, HOPF_MINUS_WORDS, 4),
    (PARITY_FRONT, None, 2)] + [
    (text, None, 2) for text in SPLIT_LINKS + [FREE_H1_FRONT]]


def searches(text, words=None, max_pool_len=None):
    """(d, h1, g, report, pool length cap) of each good degree-1 generator
    of length at most max_pool_len (default 3) on the front, or of the
    given words."""
    d = resolve(parse_front(text))
    h1 = h1_presentation(d)
    if words is None:
        gens = [g for g in generators(d, h1, max_len=max_pool_len or 3)
                if g.good and g.degree == 1]
    else:
        gens = [GeneratorRecord(d, h1, CyclicWord(d, w)) for w in words]
    for g in gens:
        rep = differential_candidates(g, d, h1, EPS,
                                      max_pool_len=max_pool_len)
        cap = _pool_length_cap(d, g.degree - 1) if rep.z_graded else None
        if max_pool_len is not None:
            cap = max_pool_len if cap is None else min(cap, max_pool_len)
        yield d, h1, g, rep, cap


@pytest.mark.parametrize("text", [
    "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}",
    front_text(k_copy(parse_front("L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}"),
                      2))], ids=["trefoil+1", "2-copy"])
def test_the_pool_length_cap_is_found_once_per_diagram(text, monkeypatch):
    """The least letter index behind the pool length cap depends only on
    the diagram: repeated searches on one diagram ask it no composable or
    letter question after the first, and the cap at any target degree
    asks none either."""
    d = resolve(parse_front(text))
    h1 = h1_presentation(d)
    gens = [g for g in generators(d, h1, max_len=1, epsilon=EPS)
            if g.good and g.degree == 1]
    assert gens
    chords = [c.id for c in d.chords]
    least = min(d.letter(a, b).index for a in chords for b in chords
                if d.composable(a, b))
    calls = []
    for name in ("composable", "letter"):
        real = getattr(type(d), name)
        monkeypatch.setattr(type(d), name, lambda self, a, b, real=real:
                            calls.append((a, b)) or real(self, a, b))
    rounds = []
    for _ in range(3):
        del calls[:]
        for g in gens:
            differential_candidates(g, d, h1, EPS, max_pool_len=1)
        rounds.append(len(calls))
    caps = [_pool_length_cap(d, t) for t in range(-1, 4)]
    assert rounds[0] > 0 and rounds[1:] == [0, 0] and calls == []
    assert caps == [None if least <= 0 else max(1, (t + 1) // least)
                    for t in range(-1, 4)]


def oracle_cases():
    for args in ORACLE_SEARCHES:
        yield from searches(*args)


def branch_inputs(cases):
    """(case, (pool, costs, top, rows)) of each search of ``cases`` under
    the i-grading filter with a non-empty pool: the input of its branch and
    bound, built as ``differential_candidates`` builds it.  The search
    itself calls ``report._integer_point`` only once it has examined
    ``lp_at`` products, so the tests call it on these directly."""
    for d, h1, g, rep, cap in cases:
        if g.igrading is None:
            continue
        pool, costs, top, _actions, _den = report._pool_words(
            d, h1, g, EPS, cap, g.degree - 1 if rep.z_graded else None)
        if pool:
            rows, _face_row = report._search_rows(d, h1, g, pool,
                                                  rep.z_graded)
            yield (d, h1, g, rep, cap), (pool, costs, top, rows)


def integer_point(pool, costs, top, rows):
    """``report._integer_point`` run to its verdict: an integer point, or
    False when there is none."""
    point = report._integer_point(pool, costs, top, rows, report.MAX_NODES)
    assert point is not None
    return point


def assert_match_exhaustive_search(cases):
    checked = 0
    for d, h1, g, rep, cap in cases:
        assert g.good and g.degree == 1
        assert rep.truncated is None
        got = [(tuple(w.chords for w in c.factors), c.trail)
               for c in rep.survivors]
        assert got == brute_force_candidates(d, h1, g, EPS, rep.z_graded,
                                             cap)
        checked += len(got)
    assert checked > 0


@pytest.mark.parametrize("text", SEARCH_FRONTS)
def test_candidates_match_exhaustive_search(text):
    assert_match_exhaustive_search(searches(text))


def test_candidates_match_exhaustive_search_with_tied_actions():
    assert_match_exhaustive_search(searches(TIED_FRONT, TIED_WORDS, 2))


def test_candidates_match_exhaustive_search_with_many_survivors():
    assert_match_exhaustive_search(searches(WIDE_FRONT, WIDE_WORDS, 2))


def test_candidates_match_exhaustive_search_with_negative_degrees():
    assert_match_exhaustive_search(searches(HOPF_MINUS, HOPF_MINUS_WORDS, 4))


def test_candidates_match_exhaustive_search_in_parity_mode():
    cases = list(searches(PARITY_FRONT, max_pool_len=2))
    assert not any(rep.z_graded for _d, _h1, _g, rep, _cap in cases)
    assert_match_exhaustive_search(cases)


@pytest.mark.parametrize("text", SPLIT_LINKS)
def test_candidates_match_exhaustive_search_with_two_class_rows(text):
    """The generators of length 2; each of length 1 has over 20,000
    products under its budget, which brute force takes seconds to visit."""
    cases = [case for case in searches(text, max_pool_len=2)
             if len(case[2].word.chords) == 2]
    assert all(sum(v != 1 for v in h1.diagonal) == 2
               for _d, h1, _g, _rep, _cap in cases)
    assert_match_exhaustive_search(cases)


def test_candidates_match_exhaustive_search_with_a_free_class_row():
    cases = list(searches(FREE_H1_FRONT, max_pool_len=2))
    assert all(not rep.z_graded and 0 in h1.diagonal
               for _d, h1, _g, rep, _cap in cases)
    assert_match_exhaustive_search(cases)


def test_exhaustive_search_cases_reach_cutoff_and_divisibility():
    """The searches above meet a pool whose costs are out of pool order,
    where the child loop's suffix-minimum cutoff differs from stopping at
    the first child over budget, and pools with fractional fiber vectors
    under the i-grading filter, which its divisibility test decides."""
    unordered = fractional = 0
    for d, h1, g, rep, cap in oracle_cases():
        pool = candidate_pool(d, h1, g, EPS, rep.z_graded, cap)
        costs = [r.action - 3 * EPS * len(r.word.chords) for r in pool]
        unordered += any(a > b for a, b in zip(costs, costs[1:]))
        if h1.finite and g.orbit_class.is_zero():
            fractional += sum(
                any(F(v, h1.exponent).denominator != 1
                    for v in effective_fiber_vector(d, h1, r.word))
                for r in pool)
    assert unordered > 0
    assert fractional > 0


def test_exhaustive_search_cases_reach_every_prune():
    """The searches above visit the products that the oracle's walk under
    the same prunes enters, and each prune cuts there at least once: odd
    squares, degree reachability with words of negative degree in the
    pool, the intersection-grading bound, and the LP stop."""
    cuts = {"odd": 0, "degree": 0, "igrading": 0, "lp": 0}
    for d, h1, g, rep, cap in oracle_cases():
        nodes, case_cuts, _lps = pruned_search(d, h1, g, EPS, rep.z_graded,
                                               cap)
        assert rep.nodes == nodes
        pool = candidate_pool(d, h1, g, EPS, rep.z_graded, cap)
        if not any(r.degree < 0 for r in pool):
            case_cuts["degree"] = 0
        for reason, count in case_cuts.items():
            cuts[reason] += count
    assert all(count > 0 for count in cuts.values()), cuts


# a parity-mode front whose searches for (r4), and for (r7r8) at length 2,
# find the root LP feasible and both of its branches infeasible; without
# the branches (r7r8) would run to MAX_NODES
FEASIBLE_LP_FRONT = ("L1,L2,X3,X2,L4,R3,L2,R1,X3,X2,X1,X1,R3,R1 / "
                     "orientations {0:-} / surgery {0:+1}")


def test_search_goes_on_past_a_feasible_lp():
    """The branch and bound runs once the search has examined r (p + r)
    products, p the pool's size and r = 15 the rows of its LP: the 11
    face rows, all distinct, one class row, the degree row, the budget row
    and the row of at least one factor.  Its root LP is feasible, both of
    its children are infeasible, and the search stops complete there, not
    at 4,387 as without the branches."""
    [(d, h1, g, rep, cap)] = searches(FEASIBLE_LP_FRONT, [(4,)], 2)
    nodes, cuts, lps = pruned_search(d, h1, g, EPS, rep.z_graded, cap)
    pool = candidate_pool(d, h1, g, EPS, rep.z_graded, cap)
    assert len(g.igrading) == 11 and h1.diagonal == [5]
    assert not rep.z_graded and rep.truncated is None and cuts["lp"] == 1
    assert [x is None for _a, _b, x in lps] == [False, True, True]
    assert rep.nodes == nodes == 15 * (len(pool) + 15) == 525


def test_the_branch_and_bound_is_undecided_at_its_lp_cap(monkeypatch):
    """The branch and bound of (r4) on ``FEASIBLE_LP_FRONT`` needs its
    three LPs to prove that no integer point exists: with fewer it returns
    None.  The search caps it at MAX_NODES // 525 LPs, so it stops
    complete at 525 products when MAX_NODES allows three LPs, and at
    MAX_NODES, truncated, when it allows two."""
    [((d, h1, g, _rep, cap), args)] = branch_inputs(
        searches(FEASIBLE_LP_FRONT, [(4,)], 2))
    assert [report._integer_point(*args, lps) for lps in (1, 2, 3)] == \
        [None, None, False]
    for most, truncated, nodes in ((3 * 525 - 1, "nodes", 3 * 525 - 1),
                                   (3 * 525, None, 525)):
        monkeypatch.setattr(report, "MAX_NODES", most)
        rep = differential_candidates(g, d, h1, EPS, max_pool_len=cap)
        assert (rep.truncated, rep.nodes) == (truncated, nodes)


def test_lp_stop_without_repeated_face_rows_answers_as_the_full_lp(
        monkeypatch):
    """Every LP of the branch and bound of each search in ``chain --max-len
    1`` on the 2-copy, run to its verdict, keeps one row for each distinct
    face row (fiber entries and target), in face order, and answers as the
    LP with one row for every face, solved by the Fraction simplex; some
    of them have fewer rows than that.  The face rows are rebuilt here from
    each word's ``effective_fiber_vector`` and the generator's
    i-grading."""
    lps = []
    solve = report.feasible_vertex

    def solved(cols, eq, ge, parent):
        got = solve(cols, eq, ge, parent)
        lps.append((cols, eq, ge, [0] * cols, got is None))
        return got

    monkeypatch.setattr(report, "feasible_vertex", solved)
    trefoil = parse_front(SEARCH_FRONTS[0])
    checked = repeated = 0
    for (d, h1, g, _rep, _cap), args in branch_inputs(searches(
            front_text(k_copy(trefoil, 2)), None, 1)):
        lps.clear()
        integer_point(*args)
        pool = args[0]
        fiber = [effective_fiber_vector(d, h1, r.word) for r in pool]
        full = [(tuple(-v[c] for v in fiber), -t * h1.exponent)
                for c, t in enumerate(g.igrading)]
        distinct = list(dict.fromkeys(full))
        n = len(pool)
        for cols, eq, ge, minimize, infeasible in lps:
            assert [(tuple(a[:n]), b)
                    for a, b in ge[:len(distinct)]] == distinct
            pad = [0] * (cols - n)
            whole = [(list(a) + pad, b) for a, b in full] + \
                ge[len(distinct):]
            assert infeasible == (
                fraction_solve_lp(cols, eq, whole, minimize) is None)
            checked += 1
            repeated += len(distinct) < len(full)
    assert checked and repeated


def farkas_vector(a, b):
    """An integer y >= 0 with y.A >= 0 on every column and y.b < 0, which
    proves that A x <= b has no solution x >= 0, found by the Fraction
    simplex on the dual and checked in integers."""
    cols = len(a[0])
    dual = [([row[j] for row in a], 0) for j in range(cols)]
    dual.append(([-v for v in b], 1))
    y = fraction_solve_lp(len(a), [], dual, [0] * len(a))
    assert y is not None
    scale = lcm(*(v.denominator for v in y))
    y = [int(v * scale) for v in y]
    assert all(v >= 0 for v in y)
    assert all(sum(v * row[j] for v, row in zip(y, a)) >= 0
               for j in range(cols))
    assert sum(v * w for v, w in zip(y, b)) < 0
    return y


def decision(decide):
    """What a branch and bound generator of the oracles yields last: an
    integer point, or False when there is none."""
    return next(step for step in decide if step is not None)


def oracle_decision(d, h1, g, rep, cap):
    """(point or False, lps) of the oracle's branch and bound over
    ``search_program``, run to the end."""
    pool = candidate_pool(d, h1, g, EPS, rep.z_graded, cap)
    lps = []
    point = decision(branch_and_bound(
        *search_program(d, h1, pool, g, EPS, rep.z_graded), lps))
    return point, lps


def farkas_cases():
    """The searches of the Farkas tests: the trefoil +1 cases above, its 2-
    and 3-copy at length 1, and (r4) and (r7r8) of ``FEASIBLE_LP_FRONT``,
    whose root LPs are feasible."""
    trefoil = parse_front(SEARCH_FRONTS[0])
    return (searches(SEARCH_FRONTS[0]),
            searches(front_text(k_copy(trefoil, 2)), None, 1),
            searches(front_text(k_copy(trefoil, 3)), None, 1),
            searches(FEASIBLE_LP_FRONT, [(4,), (7, 8)], 2))


def test_lp_stops_have_integer_farkas_certificates(monkeypatch):
    """The branch and bound of each i-graded search of ``farkas_cases``,
    run to its verdict on the search's rows, solves the LPs of the oracle's
    branch and bound over ``search_program``, with the same verdicts.
    Every infeasible leaf of the oracle's, its root rows plus its branch
    bounds, has a Farkas vector checked in integers, so no integer point
    exists, whatever either simplex said, and the search itself ended
    complete."""
    verdicts = []

    def recorded(*args):
        verdicts.append(feasible_vertex(*args))
        return verdicts[-1]

    feasible_vertex = report.feasible_vertex
    monkeypatch.setattr(report, "feasible_vertex", recorded)
    for cases in farkas_cases():
        certified = 0
        for case, args in branch_inputs(cases):
            verdicts.clear()
            point = integer_point(*args)
            want, lps = oracle_decision(*case)
            assert [v is None for v in verdicts] == \
                [x is None for _a, _b, x in lps]
            assert (point is False) == (want is False)
            if point is False:
                assert case[3].truncated is None
                for a, b, x in lps:
                    if x is None:
                        farkas_vector(a, b)
                        certified += 1
        assert certified > 0


def entered(eq, ge):
    """The rows ``lp.feasible_vertex`` enters, in its order, as (a, b) with
    a.x >= b: each eq row as a.x >= b and -a.x >= -b, then the ge rows."""
    return [r for a, b in eq for r in ((a, b), ([-v for v in a], -b))] + \
        list(ge)


def test_infeasible_lps_end_on_their_own_farkas_vectors(monkeypatch):
    """On the branch and bound of each i-graded search of
    ``farkas_cases``, run to its verdict, and on the searches themselves,
    each LP that ``feasible_vertex`` finds infeasible ends on a tableau
    whose leaving row, the negative row with the least basic index, has in
    its slack columns an integer y over the rows entered.  With those rows scaled to ints, y >= 0, y.A <= 0 on
    every column and y.b > 0, so no x >= 0 has A x >= b: the library's own
    verdict carries its proof."""
    finals, infeasible = [], []
    dual_simplex, feasible_vertex = lp._dual_simplex, report.feasible_vertex

    def kept(tab, dens, basis, n):
        x = dual_simplex(tab, dens, basis, n)
        finals[:] = [(tab, basis)]
        return x

    def checked(n, eq, ge, parent=None):
        node = feasible_vertex(n, eq, ge, parent)
        if node is None:
            rows = entered(eq, ge)
            scale = lcm(*(F(v).denominator for a, b in rows
                          for v in (*a, b)))
            a_int = [[int(v * scale) for v in a] for a, _b in rows]
            b_int = [int(b * scale) for _a, b in rows]
            tab, basis = finals[0]
            row = min((j, r) for r, j in enumerate(basis)
                      if tab[r][-1] < 0)[1]
            y = tab[row][n:n + len(rows)]
            assert len(tab[row]) == n + len(rows) + 1
            assert all(v >= 0 for v in y)
            assert all(sum(v * a[j] for v, a in zip(y, a_int)) <= 0
                       for j in range(n))
            assert sum(v * b for v, b in zip(y, b_int)) > 0
            infeasible.append(y)
        return node

    monkeypatch.setattr(lp, "_dual_simplex", kept)
    monkeypatch.setattr(report, "feasible_vertex", checked)
    for cases in farkas_cases():
        before = len(infeasible)
        for _case, args in branch_inputs(cases):
            integer_point(*args)
        assert len(infeasible) > before


def products_under_budget(costs, budget, limit):
    """How many multisets of the pool cost less than the budget, counted up
    to just past ``limit``."""
    count, stack = 0, [(0, budget)]
    while stack and count <= limit:
        start, left = stack.pop()
        for i in range(start, len(costs)):
            if costs[i] < left:
                count += 1
                stack.append((i, left - costs[i]))
    return count


# the perfbench front generator, loaded from its file
_spec = importlib.util.spec_from_file_location(
    "fronts", Path(__file__).resolve().parent.parent / "perfbench" /
    "fronts.py")
FRONTS = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(FRONTS)


@settings(max_examples=60, deadline=None)
@seed(22)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_integer_point_decisions_agree_with_brute_force(front_seed):
    """On a seeded random front of 6-12 events, the branch and bound of
    every i-graded search at pool length 2, run to its verdict on the
    search's rows, finds no integer point only when
    ``brute_force_candidates`` finds no non-constant survivor, and a point
    only when that multiset is one of them.  Searches with more than 3,000
    products under the budget are left out: brute force would take minutes
    on some of them."""
    [text] = FRONTS.random_fronts(random.Random(front_seed), 1, 6, 12, 3)
    d = resolve(parse_front(text))
    h1 = h1_presentation(d)
    cases = []
    for g in generators(d, h1, max_len=2):
        if g.good and g.degree == 1:
            rep = differential_candidates(g, d, h1, EPS, max_pool_len=2)
            cap = _pool_length_cap(d, g.degree - 1) if rep.z_graded \
                else None
            cases.append((d, h1, g, rep, 2 if cap is None else min(cap, 2)))
    for (d, h1, g, rep, cap), args in branch_inputs(cases):
        pool = args[0]
        budget = g.action + 3 * EPS * len(g.word.chords)
        costs = [r.action - 3 * EPS * len(r.word.chords) for r in pool]
        if products_under_budget(costs, budget, 3000) > 3000:
            continue
        found = [factors for factors, _trail in brute_force_candidates(
            d, h1, g, EPS, rep.z_graded, cap)]
        x = integer_point(*args)
        if x is False:
            assert not any(found), g
        else:
            assert tuple(r.word.chords for r, k in zip(pool, x)
                         for _ in range(int(k))) in found, g


def test_truncated_search_keeps_the_first_survivors(monkeypatch):
    d, h1, g, rep, cap = next(searches(WIDE_FRONT, [(1, 5)], 2))
    full = brute_force_candidates(d, h1, g, EPS, rep.z_graded, cap)
    assert rep.truncated is None and len(full) == 26
    for name, value, reason in (
            ("MAX_SURVIVORS", 10, "survivors"),
            ("MAX_SURVIVORS", len(full) - 1, "survivors"),
            ("MAX_SURVIVORS", len(full), None),
            ("MAX_NODES", 100, "nodes"),
            ("MAX_NODES", rep.nodes - 1, "nodes"),
            ("MAX_NODES", rep.nodes, None)):
        with monkeypatch.context() as m:
            m.setattr(report, name, value)
            cut = differential_candidates(g, d, h1, EPS, max_pool_len=cap)
        got = [(tuple(w.chords for w in c.factors), c.trail)
               for c in cut.survivors]
        assert cut.truncated == reason, (name, value)
        assert got == full[:len(got)]
        if reason == "survivors":
            assert len(got) == value
        elif reason == "nodes":
            assert cut.nodes == value
        else:
            assert len(got) == len(full)


# the int pool against a Fraction route: the conftest fixtures' fronts,
# the trefoil's 2-copy and seeded random fronts, at epsilons whose
# denominators do not divide the chord actions'
POOL_FRONTS = [
    "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}",
    "L1,L3,X2,X2,X2,R1,R1 / surgery {0:-1}",
    "L1,R1 / surgery {0:+1}",
    "L1,R1 / surgery {0:-1}",
    "L1,L2,R1,R1 / orientations {0:-} / surgery {0:+1}",
    "L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:+1}",
    "L1,L3,X2,X2,R1,R1 / surgery {0:0, 1:+1}",
    front_text(k_copy(parse_front(SEARCH_FRONTS[0]), 2)),
] + FRONTS.random_fronts(random.Random("int pool"), 6, 6, 12, 3)
POOL_EPSILONS = [F(1, 100), F(1, 7), F(2, 301)]


def fraction_costs(g, epsilon, pool):
    """The pool's costs and g's budget over their least common denominator,
    as the search built them from ``Fraction``s."""
    slack = 3 * epsilon
    budget = g.action + slack * len(g.word.chords)
    costs = [r.action - slack * len(r.word.chords) for r in pool]
    den = lcm(budget.denominator, *(c.denominator for c in costs))
    return [int(c * den) for c in costs], int(budget * den)


@pytest.mark.parametrize("eps", POOL_EPSILONS, ids=str)
@pytest.mark.parametrize("text", POOL_FRONTS)
def test_int_pools_equal_the_fraction_pools(text, eps):
    """For every good generator of length at most 2, in enumeration order
    and then in reverse (so tables are both grown and read at smaller
    budgets), with and without a degree bound, ``_pool_words`` gives the
    Fraction route's pool in its order, its costs and its budget as the
    same ints, and the pool's actions over its denominator."""
    d = resolve(parse_front(text))
    h1 = h1_presentation(d)
    gens = [g for g in generators(d, h1, max_len=2, epsilon=eps) if g.good]
    for g in gens + gens[::-1]:
        for pool_len, z_graded in ((2, True), (2, False), (1, False)):
            pool, costs, top, actions, den = report._pool_words(
                d, h1, g, eps, pool_len, g.degree - 1 if z_graded else None)
            want = candidate_pool(d, h1, g, eps, z_graded, pool_len)
            assert [r.word.chords for r in pool] == \
                [r.word.chords for r in want]
            assert (costs, top) == fraction_costs(g, eps, want)
            assert [F(a, den) for a in actions] == [r.action for r in pool]


@pytest.mark.parametrize("eps", POOL_EPSILONS, ids=str)
def test_trail_actions_are_the_factors_action_sums(eps, monkeypatch):
    """Every survivor of every good degree-1 search at pool length 2 on
    the pool fronts has the ``Fraction`` sum of its factors' actions as its
    trail action; some of them have factors.  A work bound of 5,000 nodes
    keeps the 2-copy's searches short; their survivors are then the first
    of their lists."""
    monkeypatch.setattr(report, "MAX_NODES", 5000)
    products = 0
    for text in POOL_FRONTS:
        d = resolve(parse_front(text))
        h1 = h1_presentation(d)
        for g in generators(d, h1, max_len=2, epsilon=eps):
            if not (g.good and g.degree == 1):
                continue
            rep = differential_candidates(g, d, h1, eps, max_pool_len=2)
            for c in rep.survivors:
                assert type(c.trail["action"]) is F
                assert c.trail["action"] == sum(
                    (w.action() for w in c.factors), F(0))
                products += len(c.factors) > 0
    assert products > 0


def unpacked(x, width, count):
    """The first ``count`` fields of the unbiased packed int x, read as
    the search reads a survivor's: ``unpack``, padded with zeros."""
    return (list(unpack(x, width)) + [0] * count)[:count]


@settings(max_examples=400, deadline=None)
@seed(33)
@given(st.data())
def test_the_packed_prune_equals_the_row_sums(data):
    """For fields (a, t) with coefficients and targets up to a drawn size,
    a product of at most K factors, its last one new, a suffix start and k
    <= K: the walk's one sign-mask test on the packed state passes exactly
    when no field has s + v + k * m > t (s the old factors' sum, v the new
    one's, m the suffix minimum capped at 0), and the new state unpacks to
    t - s - v in every field."""
    count = data.draw(st.integers(0, 6), "fields")
    n = data.draw(st.integers(1, 5), "columns")
    factors = data.draw(st.integers(1, 5), "K")
    size = data.draw(st.sampled_from([1, 7, 2 ** 20, 2 ** 70]), "size")
    value = st.integers(-size, size)
    fields = [(data.draw(st.lists(value, min_size=n, max_size=n)),
               data.draw(value)) for _ in range(count)]
    chosen = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                max_size=factors), "product")
    start = data.draw(st.integers(0, n), "suffix")
    k = data.draw(st.integers(0, factors), "k")
    width = report._field_width(fields, factors)
    high = report._pack([1 << width - 1] * count, width)
    column = [report._pack([a[j] for a, _t in fields], width)
              for j in range(n)]
    least = [min([0] + a[start:]) for a, _t in fields]
    state = report._pack([t for _a, t in fields], width) + high - sum(
        column[j] for j in chosen[:-1])
    sums = [sum(a[j] for j in chosen[:-1]) for a, _t in fields]
    new = [a[chosen[-1]] for a, _t in fields]
    passes = (state - column[chosen[-1]] - k * report._pack(least, width)
              ) & high == high
    assert passes == (not any(s + v + k * m > t for s, v, m, (_a, t) in
                              zip(sums, new, least, fields)))
    assert unpacked(state - column[chosen[-1]] - high, width, count) == \
        [t - s - v for s, v, (_a, t) in zip(sums, new, fields)]


@pytest.mark.parametrize("width", [1, 2, 5, 64, 131])
def test_packed_fields_hold_the_ends_of_their_range(width):
    """Biased fields at +-(2^(W-1) - 1), -2^(W-1) and 0, next to each other
    in every order of a few, unpack to themselves, and the sign mask is
    set exactly when each is >= 0."""
    half = 1 << width - 1
    ends = sorted({half - 1, -(half - 1), -half, 0})
    cases = [[a, b, c] for a in ends for b in ends for c in ends]
    high = report._pack([half] * 3, width)
    for values in cases:
        state = report._pack(values, width) + high
        assert unpacked(state - high, width, 3) == values
        assert (state & high == high) == all(v >= 0 for v in values)


def test_a_fractional_fiber_count_raises_in_the_search(monkeypatch):
    """Fiber vectors are ints over H1's exponent, 2 on the trefoil +1.  With
    1 taken off one entry of (r1)'s, the null-homologous product (r1)(r2)
    has a fiber count off that lattice, and its generator's search raises
    in its proof over the class rows, before the walk; unskewed, no search
    does."""
    original = report.effective_fiber_vector

    def skewed(d, h1, w):
        vec = original(d, h1, w)
        if w.chords == (1,):
            vec = (vec[0] - 1,) + vec[1:]
        return vec

    def outcomes():
        d = resolve(parse_front(SEARCH_FRONTS[0]))
        h1 = h1_presentation(d)
        assert h1.exponent == 2
        raised = []
        for g in generators(d, h1, max_len=2, epsilon=EPS):
            if g.good and g.degree == 1:
                try:
                    differential_candidates(g, d, h1, EPS, max_pool_len=2)
                except report.DiagramError as exc:
                    assert "fractional fiber count" in str(exc)
                    raised.append(g.word.chords)
        return raised

    assert outcomes() == []
    monkeypatch.setattr(report, "effective_fiber_vector", skewed)
    assert outcomes()


def test_the_fiber_proof_raises_on_products_the_walk_never_reaches(
        monkeypatch):
    """On the trefoil +1 at pool length 1 both degree-1 rows, (r4) and
    (r5), have the pool (r1), (r2), (r3), each of degree 0 and class 1 in
    H1 = Z/2.  With 1 taken off the first fiber entry of (r3), each product
    with (r3) an odd number of times and an even number of factors has a
    fractional fiber count, but every such product lies over the budget or
    behind the face prune, so no search visits one: a check on visited
    products returns normally here.  The proof over the class rows'
    lattice raises in both searches; unskewed, neither raises."""
    original = report.effective_fiber_vector

    def skewed(d, h1, w):
        vec = original(d, h1, w)
        return (vec[0] - 1,) + vec[1:] if w.chords == (3,) else vec

    def outcomes():
        d = resolve(parse_front(SEARCH_FRONTS[0]))
        h1 = h1_presentation(d)
        raised = []
        for g in generators(d, h1, max_len=1, epsilon=EPS):
            if g.good and g.degree == 1:
                try:
                    rep = differential_candidates(g, d, h1, EPS,
                                                  max_pool_len=1)
                except report.DiagramError as exc:
                    assert "fractional fiber count" in str(exc)
                    raised.append(g.word.chords)
                else:
                    assert [c.factors for c in rep.survivors] == [()]
        return raised

    assert outcomes() == []
    monkeypatch.setattr(report, "effective_fiber_vector", skewed)
    assert outcomes() == [(4,), (5,)]


@settings(max_examples=200, deadline=None)
@seed(38)
@given(st.data())
def test_the_fiber_proof_agrees_with_brute_force(data):
    """``_prove_integral_fibers`` raises exactly when some x in [0, e)^n
    with C.x = 0 mod m has a face sum F.x that e does not divide, for an
    exponent e <= 12, at most two class rows C with moduli m dividing e, a
    few face rows F and n <= 4 pool words.  The lattice of the class rows
    holds e * Z^n, so that box meets every residue of it mod e.  Each
    input is checked with its class rows and again without them.  Face
    rows are drawn at random or as sums of (e / m) * C rows plus
    multiples of e, which the class rows make integral."""
    e = data.draw(st.integers(2, 12), "exponent")
    n = data.draw(st.integers(0, 4), "words")
    entries = st.lists(st.integers(-3 * e, 3 * e), min_size=n, max_size=n)
    moduli = st.sampled_from([m for m in range(2, e + 1) if e % m == 0])
    classes = data.draw(st.lists(st.tuples(entries, moduli), max_size=2),
                        "class rows")
    faces = data.draw(st.lists(entries, min_size=1, max_size=3), "faces")
    if data.draw(st.booleans(), "integral faces"):
        for f in faces:
            f[:] = [e * v for v in f]
            for c, m in classes:
                k = data.draw(st.integers(-2, 2), "multiple")
                f[:] = [v + k * (e // m) * a for v, a in zip(f, c)]
    for cls in (classes, []):
        rows = [(f, None, 0) for f in faces] + \
            [(c, m, 0) for c, m in cls] + [([0] * n, 0, 0)]
        fractional = any(
            all(sum(map(mul, c, x)) % m == 0 for c, m in cls) and
            any(sum(map(mul, f, x)) % e for f in faces)
            for x in product(range(e), repeat=n))
        try:
            report._prove_integral_fibers(rows, len(faces), e)
        except report.DiagramError:
            assert fractional
        else:
            assert not fractional


# (word, nodes, truncated, survivors) of every good degree-1 row of the
# trefoil's 2-copy at --max-len 2 and its 5-copy at --max-len 1, at
# epsilon 1/100, as the list-of-sums walk gave them
K_COPY_WORK = {
    (2, 2): [
        ((16,), 100000, "nodes", 1), ((17,), 100000, "nodes", 1),
        ((19,), 100000, "nodes", 1), ((20,), 100000, "nodes", 1),
        ((1, 15), 146, "survivors", 48), ((1, 18), 147, "survivors", 48),
        ((2, 15), 146, "survivors", 48), ((2, 18), 147, "survivors", 48),
        ((3, 6), 3237, None, 1), ((3, 10), 875, None, 0),
        ((3, 14), 100000, "nodes", 0), ((4, 8), 145, "survivors", 48),
        ((4, 12), 143, "survivors", 48), ((5, 9), 155, "survivors", 48),
        ((5, 13), 144, "survivors", 48), ((6, 7), 3311, None, 3),
        ((6, 11), 825, None, 0), ((7, 10), 100000, "nodes", 0),
        ((7, 14), 925, None, 0), ((8, 12), 146, "survivors", 48),
        ((9, 13), 150, "survivors", 48), ((10, 11), 100000, "nodes", 1),
        ((11, 14), 100000, "nodes", 0)],
    (5, 1): [((w,), 8316, None, 1)
             for w in (106, 107, 108, 109, 110, 121, 122, 123, 124, 125)],
}


@pytest.mark.parametrize("copies, max_len", sorted(K_COPY_WORK),
                         ids=["2-copy-len2", "5-copy-len1"])
def test_k_copy_search_work_is_pinned(copies, max_len):
    """The work of each k-copy search, which the CLI output cannot show:
    products examined, the stop reason and the number of survivors."""
    trefoil = parse_front(SEARCH_FRONTS[0])
    d = resolve(parse_front(front_text(k_copy(trefoil, copies))))
    h1 = h1_presentation(d)
    got = []
    for g in generators(d, h1, max_len, None, EPS):
        if g.good and g.degree == 1:
            rep = differential_candidates(g, d, h1, EPS,
                                          max_pool_len=max_len)
            got.append((g.word.chords, rep.nodes, rep.truncated,
                        len(rep.survivors)))
    assert got == K_COPY_WORK[copies, max_len]


def torus_minus(crossings):
    """T(2, crossings) with -1 surgery."""
    return "L1,L3," + "X2," * crossings + "R1,R1 / surgery {0:-1}"


SHARED_FRONTS = [
    (torus_minus(3), 3), (torus_minus(5), 3), (torus_minus(9), 3),
    (SEARCH_FRONTS[0], 3),
    (front_text(k_copy(parse_front(SEARCH_FRONTS[0]), 2)), 2)]


def candidate_summary(rep):
    """Everything a report says that ``chain`` prints or counts."""
    return ([(tuple(w.chords for w in c.factors), c.label,
              [f.id for f in c.faces], c.trail) for c in rep.survivors],
            rep.truncated, rep.nodes, rep.z_graded, rep.warning)


def chain_reports(text, max_len):
    """``candidate_reports`` of the front ``text`` at --max-len max_len."""
    d = resolve(parse_front(text))
    h1 = h1_presentation(d)
    return candidate_reports(generators(d, h1, max_len, None, EPS), d, h1,
                             EPS, max_len)


@pytest.mark.parametrize("text, max_len", SHARED_FRONTS,
                         ids=["T(2,3)-1", "T(2,5)-1", "T(2,9)-1", "trefoil+1",
                              "2-copy"])
def test_shared_searches_equal_fresh_ones(text, max_len):
    """Each row of ``candidate_reports``, shared with an earlier row's
    search or not, says what a fresh search on a freshly resolved diagram
    says of its generator."""
    reps = chain_reports(text, max_len)
    d = resolve(parse_front(text))
    h1 = h1_presentation(d)
    fresh = {g.word.chords: differential_candidates(g, d, h1, EPS, max_len)
             for g in generators(d, h1, max_len, None, EPS)
             if g.good and g.degree == 1}
    assert sorted(reps) == sorted(fresh) and reps
    for chords, rep in reps.items():
        assert candidate_summary(rep) == candidate_summary(fresh[chords])


@pytest.mark.parametrize("text, rows, searches",
                         [(torus_minus(3), 13, 6), (torus_minus(5), 21, 8),
                          (torus_minus(9), 37, 6)])
def test_chain_runs_one_search_per_distinct_question(text, rows, searches,
                                                     monkeypatch):
    """The torus knots with -1 surgery repeat questions: rows of one
    budget, class and i-grading share one search."""
    real, calls = report.differential_candidates, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(report, "differential_candidates", counted)
    assert (len(chain_reports(text, 3)), len(calls)) == (rows, searches)


def test_chain_proves_each_pool_at_most_once(monkeypatch):
    """T(2,5) -1 at --max-len 3 runs eight searches, five of them under the
    i-grading filter over two distinct pools, the second inside the
    first.  The fiber proof runs at most once per distinct pool and never
    on a pool inside one it has proven: here once, on the first."""
    real_pool, real_proof = report._pool_words, report._prove_integral_fibers
    pools, proofs = [], []

    def pool_words(d, h1, g, *args):
        out = real_pool(d, h1, g, *args)
        pools.append((g.igrading is not None,
                      frozenset(r.word.chords for r in out[0])))
        return out

    def proof(*args):
        proofs.append(pools[-1][1])
        return real_proof(*args)

    monkeypatch.setattr(report, "_pool_words", pool_words)
    monkeypatch.setattr(report, "_prove_integral_fibers", proof)
    chain_reports(torus_minus(5), 3)
    graded = [pool for igrading, pool in pools if igrading]
    assert (len(pools), len(graded), len(set(graded))) == (8, 5, 2)
    assert all(not p <= q for k, p in enumerate(proofs) for q in proofs[:k])
    assert len(proofs) <= len(set(graded))
    assert proofs == [graded[0]] and all(p <= graded[0] for p in graded)


@pytest.mark.parametrize("witness", [0, 1])
def test_a_shared_search_keeps_each_constant_term_its_own(witness,
                                                          monkeypatch):
    """On T(2,3) -1 six generators ask one question, whose report has the
    constant term.  A bubbling face is faked for one of two of them: the
    one searched (witness 0) or the first that shares its report (witness
    1).  That row's constant term carries the face and the witness label,
    the next row's none, and the rest of the two reports agree."""
    text = torus_minus(3)
    d = resolve(parse_front(text))
    h1 = h1_presentation(d)
    gens = generators(d, h1, 3, None, EPS)
    groups = {}
    for chords in candidate_reports(gens, d, h1, EPS, 3):   # search order
        g = next(g for g in gens if g.word.chords == chords)
        groups.setdefault((g.action + 3 * EPS * len(chords),
                           g.orbit_class.reduced, g.igrading),
                          []).append(chords)
    pair = next(v for v in groups.values() if len(v) == 6)[witness:][:2]
    face = d.faces_list[0]
    real = report.bubbling_faces
    monkeypatch.setattr(report, "bubbling_faces",
                        lambda d: real(d) + [(face, pair[0])])
    reps = candidate_reports(gens, d, h1, EPS, 3)
    for chords, faces in zip(pair, ([face.id], [])):
        constant = next(c for c in reps[chords].survivors if c.is_constant())
        assert [f.id for f in constant.faces] == faces
        assert ("bubbling face witness" in constant.label) == bool(faces)
    first, second = (candidate_summary(reps[chords]) for chords in pair)
    assert first[0][1:] == second[0][1:] and first[1:] == second[1:]


@settings(max_examples=300, deadline=None)
@seed(40)
@given(st.data())
def test_field_wise_tables_are_the_packed_columns_and_suffix_minima(data):
    """``_packed_tables`` holds ``_pack`` of each word's column and of each
    suffix minimum capped at 0, for pools of no words or no fields too,
    negative entries and entries at the ends of a field's range."""
    width = data.draw(st.sampled_from([1, 2, 5, 64, 131]), "width")
    half = 1 << width - 1
    n = data.draw(st.integers(0, 5), "words")
    value = st.one_of(st.integers(-half, half - 1),
                      st.sampled_from([-half, half - 1, 0, -1]))
    fields = [(data.draw(st.lists(value, min_size=n, max_size=n)), 0)
              for _ in range(data.draw(st.integers(0, 4), "fields"))]
    columns, suffix_lo = report._packed_tables(fields, n, width)
    assert columns == [report._pack([a[j] for a, _t in fields], width)
                       for j in range(n)]
    assert suffix_lo == [report._pack([min([0] + a[i:]) for a, _t in fields],
                                      width) for i in range(n + 1)]


T25_MINUS = "L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:-1}"


def two_and_three_factor_products(pool, budget, epsilon, degree):
    """Pool-index tuples of every product of 2 or 3 words of ``pool`` (a
    multiset each, factors by ascending cost) of summed degree ``degree``
    and cost under ``budget``: pairs by two loops that stop at the budget,
    third factors from the words of the one degree that completes it."""
    costs = [r.action - 3 * epsilon * len(r.word) for r in pool]
    den = lcm(budget.denominator, *(c.denominator for c in costs))
    order = sorted(range(len(pool)), key=costs.__getitem__)
    cost = [int(costs[i] * den) for i in order]
    top = int(budget * den)
    deg = [pool[i].degree for i in order]
    of_degree = {}
    for a, v in enumerate(deg):
        of_degree.setdefault(v, []).append(a)
    for a in range(len(order)):
        for b in range(a, len(order)):
            if cost[a] + cost[b] >= top:
                break
            if deg[a] + deg[b] == degree:
                yield order[a], order[b]
            for c in of_degree.get(degree - deg[a] - deg[b], ()):
                if c >= b and cost[a] + cost[b] + cost[c] < top:
                    yield order[a], order[b], order[c]


@pytest.mark.parametrize("text, max_len, complete_rows", [
    (T25_MINUS, 3, 8), (HOPF_MINUS, 4, 3)])
def test_no_passing_product_of_two_or_three_needs_a_positive_degree_factor(
        text, max_len, complete_rows):
    """A z-graded pool keeps only words of degree at most g's minus one,
    0.  That drops no survivor when every letter raises the degree
    (``_pool_length_cap`` is then not None); on these fronts one does not,
    the pool holds words of degree -1, and a factor of degree >= 1 beside
    one of degree -1 would still sum to 0.  Over the unfiltered pool of
    each complete row, by brute force, no product of 2 or 3 words that
    passes every filter (degree, class, odd squares, budget, i-grading)
    has a factor of degree > 0, and the passing products are the row's
    survivors of 2 and 3 factors."""
    d = resolve(parse_front(text))
    h1 = h1_presentation(d)
    assert _pool_length_cap(d, 0) is None
    gens = generators(d, h1, max_len, None, EPS)
    reps = candidate_reports(gens, d, h1, EPS, max_len)
    rows = [g for g in gens if g.good and g.degree == 1
            and reps[g.word.chords].truncated is None]
    assert len(rows) == complete_rows
    passing, degrees = 0, set()
    for g in rows:
        assert reps[g.word.chords].z_graded
        pool = candidate_pool(d, h1, g, EPS, False, max_len)
        degrees.update(r.degree for r in pool)
        budget = g.action + 3 * EPS * len(g.word)
        fibers = [[int(v * h1.exponent)
                   for v in fibers_over_exponent(d, h1, r.word)]
                  for r in pool] if g.igrading is not None else None
        found = set()
        for product in two_and_three_factor_products(pool, budget, EPS,
                                                     g.degree - 1):
            factors = [pool[j] for j in product]
            odd = [r.word.chords for r in factors if r.degree % 2]
            if len(odd) != len(set(odd)):
                continue
            if fibers is not None and any(
                    s > t * h1.exponent for s, t in zip(
                        map(sum, zip(*(fibers[j] for j in product))),
                        g.igrading)):
                continue
            vector = list(map(sum, zip(*(r.orbit_class.vector
                                         for r in factors))))
            if reduce_class(h1, vector) != tuple(g.orbit_class.reduced):
                continue
            assert all(r.degree <= 0 for r in factors), (g.word, product)
            found.add(tuple(sorted(r.word.chords for r in factors)))
        assert found == {tuple(sorted(w.chords for w in c.factors))
                         for c in reps[g.word.chords].survivors
                         if len(c.factors) in (2, 3)}, g.word
        passing += len(found)
    assert min(degrees) < 0 < max(degrees) and passing > 0


def test_the_readme_library_example_runs_as_its_comments_say(capsys):
    """README's "Library" block, run as written: H1 = Z/2, 20 orbit words
    at max_len=2, the constant term with its one witness face as (r4)'s
    only survivor, and a complete search (of 56 products when written)."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    scope = {}
    exec(block.split("```", 1)[0], scope)
    rep = scope["rep"]
    assert scope["h1"].group_description() == "Z/2"
    assert len(scope["table"]) == 20
    [only] = rep.survivors
    assert only.is_constant() and len(only.faces) == 1
    assert "bubbling face witness" in only.label
    assert rep.truncated is None and rep.nodes > 0
    assert capsys.readouterr().out.splitlines() == [
        repr(rep.survivors), f"None {rep.nodes}"]
