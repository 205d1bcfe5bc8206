from fractions import Fraction
from math import lcm

import pytest

from oracles import (brute_force_candidates, candidate_pool,
                     collection_i_grading, front_text, fraction_solve_lp,
                     k_copy, pruned_search, search_lp)
from reebchords import report
from reebchords.diagram import parse_front, resolve
from reebchords.homology import h1_presentation
from reebchords.quiver import effective_fiber_vector, i_grading
from reebchords.report import (GeneratorRecord, _pool_length_cap,
                               differential_candidates, generators)
from reebchords.words import CyclicWord

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
        assert h1.reduce(cls) == g.orbit_class.reduced
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
# chord r7 has the action of the word (r10r11), so a pool holding both lists
# a dearer cost before a cheaper one; longer pools here grow to 10^5
# survivors, so only these generators and factors of length <= 2
TIED_FRONT = ("L1,X1,X1,X1,X1,L1,X3,X2,L2,R2,X3,X1,R3,R1 / "
              "orientations {0:+, 1:-} / surgery {0:-1, 1:-1}")
TIED_WORDS = [(1, 3), (1, 5), (3, 5)]
# the degree-1 words of length 4 on the Hopf link with -1 surgeries, whose
# pools hold words of negative degree
HOPF_MINUS = "L1,L3,X2,X2,R1,R1 / surgery {0:-1, 1:-1}"
HOPF_MINUS_WORDS = [(1, 2, 4, 4), (1, 3, 2, 4), (1, 3, 3, 2)]
# c1 is nonzero here, so its searches filter by parity
PARITY_FRONT = ("L1,X1,X1,L3,X1,X3,R1,L2,X1,X1,X3,R2,R1,L1,R1 / "
                "orientations {0:+, 1:+, 2:+} / surgery {0:+1, 1:0, 2:-1}")
# (front, words, max_pool_len) of every search checked against the oracle
ORACLE_SEARCHES = [(text, None, None) for text in SEARCH_FRONTS] + [
    (TIED_FRONT, TIED_WORDS, 2),
    (HOPF_MINUS, HOPF_MINUS_WORDS, 4),
    (PARITY_FRONT, None, 2)]


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


def oracle_cases():
    for args in ORACLE_SEARCHES:
        yield from searches(*args)


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


def test_candidates_match_exhaustive_search_with_negative_degrees():
    assert_match_exhaustive_search(searches(HOPF_MINUS, HOPF_MINUS_WORDS, 4))


def test_candidates_match_exhaustive_search_in_parity_mode():
    cases = list(searches(PARITY_FRONT, max_pool_len=2))
    assert not any(rep.z_graded for _d, _h1, _g, rep, _cap in cases)
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
                any(v.denominator != 1
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
        nodes, case_cuts = pruned_search(d, h1, g, EPS, rep.z_graded, cap)
        assert rep.nodes == nodes
        pool = candidate_pool(d, h1, g, EPS, rep.z_graded, cap)
        if not any(r.degree < 0 for r in pool):
            case_cuts["degree"] = 0
        for reason, count in case_cuts.items():
            cuts[reason] += count
    assert all(count > 0 for count in cuts.values()), cuts


# a parity-mode search whose LP is still feasible when the search reaches
# it: the search goes on, to 4,387 products
FEASIBLE_LP_FRONT = ("L1,L2,X3,X2,L4,R3,L2,R1,X3,X2,X1,X1,R3,R1 / "
                     "orientations {0:-} / surgery {0:+1}")


def test_search_goes_on_past_a_feasible_lp():
    [(d, h1, g, rep, cap)] = searches(FEASIBLE_LP_FRONT, [(4,)], 2)
    nodes, cuts = pruned_search(d, h1, g, EPS, rep.z_graded, cap)
    pool = candidate_pool(d, h1, g, EPS, rep.z_graded, cap)
    rows = len(g.igrading) + 2 + rep.z_graded
    assert rep.truncated is None and cuts["lp"] == 0
    assert rep.nodes == nodes > rows * (len(pool) + rows)


def test_lp_stop_without_repeated_face_rows_answers_as_the_full_lp(
        monkeypatch):
    """Every LP stop test of ``chain --max-len 1`` on the 2-copy answers as
    the LP with one row for every face, solved by the Fraction simplex, and
    some of them solve fewer rows than that."""
    answers, sizes = [], []
    passes, solve = report._no_product_passes, report.solve_lp

    def both(fiber, target_i, costs, top, eq):
        n = len(costs)
        full = [([-vec[c] for vec in fiber], -t)
                for c, t in enumerate(target_i)]
        full += [([-c for c in costs], 1 - top), ([1] * n, 1)]
        got = passes(fiber, target_i, costs, top, eq)
        answers.append((got, fraction_solve_lp(n, eq, full, [0] * n) is None,
                        sizes[-1] < len(full)))
        return got

    def counted(n, eq, ge, minimize):
        sizes.append(len(ge))
        return solve(n, eq, ge, minimize)

    monkeypatch.setattr(report, "_no_product_passes", both)
    monkeypatch.setattr(report, "solve_lp", counted)
    trefoil = parse_front(SEARCH_FRONTS[0])
    cases = list(searches(front_text(k_copy(trefoil, 2)), None, 1))
    assert cases and answers
    assert all(got == full for got, full, _ in answers)
    assert any(repeated for _, _, repeated in answers)


def test_lp_stops_have_integer_farkas_certificates(monkeypatch):
    """Each search that the LP stops, on the trefoil +1 cases above and on
    its 2- and 3-copy at length 1, has a Farkas vector y for the oracle's
    LP A x <= b, x >= 0, found by the Fraction simplex on the dual and
    checked in integers: y >= 0, y.A >= 0 on every column and y.b < 0, so
    no x exists, whatever either simplex said."""
    verdicts = []

    def recorded(*args):
        verdicts.append(solve_lp(*args))
        return verdicts[-1]

    solve_lp = report.solve_lp
    monkeypatch.setattr(report, "solve_lp", recorded)
    trefoil = parse_front(SEARCH_FRONTS[0])
    for cases in (searches(SEARCH_FRONTS[0]),
                  searches(front_text(k_copy(trefoil, 2)), None, 1),
                  searches(front_text(k_copy(trefoil, 3)), None, 1)):
        certified = 0
        for d, h1, g, rep, cap in cases:
            if verdicts and verdicts[-1] is None:
                pool = candidate_pool(d, h1, g, EPS, rep.z_graded, cap)
                a, b = search_lp(d, h1, pool, g, EPS, rep.z_graded)
                dual = [([row[j] for row in a], 0) for j in range(len(pool))]
                dual.append(([-v for v in b], 1))
                y = fraction_solve_lp(len(a), [], dual, [0] * len(a))
                assert y is not None, g
                scale = lcm(*(v.denominator for v in y))
                y = [int(v * scale) for v in y]
                assert all(v >= 0 for v in y)
                assert all(sum(v * row[j] for v, row in zip(y, a)) >= 0
                           for j in range(len(pool)))
                assert sum(v * w for v, w in zip(y, b)) < 0
                certified += 1
            verdicts.clear()
        assert certified > 0


def test_truncated_search_keeps_the_first_survivors(monkeypatch):
    d, h1, g, rep, cap = next(searches(TIED_FRONT, [(1, 5)], 2))
    full = brute_force_candidates(d, h1, g, EPS, rep.z_graded, cap)
    assert rep.truncated is None and len(full) == 43
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
