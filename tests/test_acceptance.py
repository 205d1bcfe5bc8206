"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (run with -s to
see them on success).  Everything is exact rational arithmetic, tolerance
zero, except where an explicit inequality is the criterion.
"""

import itertools
import sys
from fractions import Fraction

from oracles import (all_orbit_strings, capping_walk, collection_i_grading,
                     embedding_points, orbit_class_pushout, packed_reference,
                     padd, pmul, point_in_convex, poly_diameter_sq, pscale,
                     pushout_grading, pushout_linking, reference_return_map,
                     rot_number, step_maps, trace_at,
                     trimmed_flow_polygon, divisors_2x2)
from reebchords.dynamics import embed_orbit, is_bad, orbit_action, return_map
from reebchords.homology import (h1_presentation, orbit_class_monomial,
                                 smith_normal_form)
from reebchords.indices import cz_integral
from reebchords.quiver import bubbling_faces
from reebchords.report import GeneratorRecord, differential_candidates, generators
from reebchords.words import CyclicWord, enumerate_orbit_words
from test_quiver import (TABLE as IGRADING_TABLE, paper_face_order,
                         quiver_json)

F = Fraction
EPS = F(1, 100)


def report(number, description, ok):
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {description}"
    print(line)
    print(line, file=sys.stderr)
    assert ok, line


# -- 1: rotation numbers -------------------------------------------------------

ROT_TABLE = {
    1: [0, 0, 0, 0, 1],
    2: [0, 0, 0, 0, 1],
    3: [0, 0, 0, 0, 1],
    4: [1, 1, 1, 1, 2],
    5: [0, 0, 0, 0, 1],
}


def test_criterion_1(trefoil_plus):
    ok = True
    for j in range(1, 6):
        for k in range(1, 6):
            letter = trefoil_plus.letter(j, k)
            ok &= letter.index - (letter.c == 1) == ROT_TABLE[j][k - 1]
    report(1, "trefoil rotation-number table (25 exact integers)", ok)


# -- 2: crossing monomials -----------------------------------------------------

SIGNS = {1: 1, 2: 1, 3: 1, 4: -1, 5: -1}
CROSS_PAIRS = {
    (1, 1): 0, (1, 2): 0, (1, 3): 2, (1, 4): 3, (1, 5): 1,
    (2, 1): 0, (2, 2): 0, (2, 3): 0, (2, 4): 1, (2, 5): 1,
    (3, 1): -2, (3, 2): 0, (3, 3): 0, (3, 4): 1, (3, 5): -1,
    (4, 1): 1, (4, 2): 1, (4, 3): 3, (4, 4): 4, (4, 5): 2,
    (5, 1): -1, (5, 2): 1, (5, 3): 1, (5, 4): 2, (5, 5): 0,
}


def test_criterion_2(trefoil_plus, trefoil_minus):
    """A letter's monomial is its first chord's term plus its pair term."""
    ok = True
    for d, c in ((trefoil_plus, 1), (trefoil_minus, -1)):
        for j in range(1, 6):
            ok &= d.chord(j).sign == SIGNS[j]
        for (j, k), val in CROSS_PAIRS.items():
            ok &= d.letter(j, k).vector[0] == c + SIGNS[j] + val
    report(2, "trefoil crossing monomials (both coefficient columns and "
              "all 25 pair entries)", ok)


# -- 3: orbit table ------------------------------------------------------------

ORBITS = {
    (1,): (1, 1, 0, 0), (2,): (1, 1, 0, 0), (3,): (1, 1, 0, 0),
    (4,): (0, 2, 1, 1), (5,): (0, 2, -1, 1),
    (1, 2): (0, 2, 0, 0), (1, 3): (0, 2, 0, 0), (1, 4): (1, 3, 1, 1),
    (1, 5): (1, 3, -1, 1), (2, 3): (0, 2, 0, 0), (2, 4): (0, 3, 0, 1),
    (2, 5): (0, 3, 0, 1), (3, 4): (1, 3, 1, 1), (3, 5): (1, 3, -1, 1),
    (4, 5): (0, 4, 0, 2),
}


def test_criterion_3(trefoil_plus, trefoil_minus, trefoil_plus_h1,
                     trefoil_minus_h1):
    gens_p = {g.word.chords: g
              for g in generators(trefoil_plus, trefoil_plus_h1, max_len=2)}
    gens_m = {g.word.chords: g
              for g in generators(trefoil_minus, trefoil_minus_h1, max_len=2)}
    ok = len(ORBITS) == 15
    for word, (mu_p, cz_p, mu_m, cz_m) in ORBITS.items():
        ok &= gens_p[word].cz == cz_p
        ok &= gens_p[word].orbit_class.reduced == (mu_p % 2,)
        ok &= gens_m[word].cz == cz_m
        ok &= gens_m[word].orbit_class.vector == (mu_m,)
    report(3, "trefoil orbit table: mu class and index, 15 rows, both "
              "surgery signs", ok)


# -- 4: intersection gradings --------------------------------------------------

def test_criterion_4(trefoil_plus, trefoil_plus_h1):
    d, h1 = trefoil_plus, trefoil_plus_h1
    perm = paper_face_order(d)
    ok = True
    arcs = {}
    for words, expect in IGRADING_TABLE.items():
        cws = [CyclicWord(d, w) for w in words]
        ig = collection_i_grading(d, h1, cws)
        ok &= tuple(ig[p - 1] for p in perm) == expect
        for strings in itertools.product(
                *[all_orbit_strings(w) for w in cws]):
            ig = pushout_grading(d, list(zip(cws, strings)), arcs)
            ok &= tuple(ig[p - 1] for p in perm) == expect
    report(4, "trefoil intersection-grading table, 7 x 6 exact, and the "
              "same from whole push-out curves for every capping-side "
              "choice (two entries corrected to restore the published "
              "table's own additivity relations)", ok)


# -- 5: differential forcing ---------------------------------------------------

def test_criterion_5(trefoil_plus, trefoil_plus_h1):
    d, h1 = trefoil_plus, trefoil_plus_h1
    g = GeneratorRecord(d, h1, CyclicWord(d, [4]))
    rep = differential_candidates(g, d, h1, EPS)
    ok = len(rep.survivors) == 1
    if ok:
        c = rep.survivors[0]
        ok &= c.is_constant()
        ok &= len(c.faces) == 1 and not c.sign_ambiguous
        ok &= c.faces[0].id == paper_face_order(d)[4]
        ok &= c.faces[0].all_positive()
    report(5, "filtered differential of the loop orbit is exactly the "
              "constant term, witnessed by its one-corner face with "
              "count +-1", ok)


# -- 6: unknot suite -----------------------------------------------------------

def test_criterion_6(unknot_plus, unknot_minus):
    ok = len(unknot_plus.chords) == len(unknot_minus.chords) == 1
    ok &= h1_presentation(unknot_minus).group_description() == "Z/2"
    ok &= h1_presentation(unknot_plus).group_description() == "Z"
    for k in range(1, 6):
        w_m = CyclicWord(unknot_minus, [1] * k)
        w_p = CyclicWord(unknot_plus, [1] * k)
        ok &= cz_integral(unknot_minus, w_m) == k
        ok &= cz_integral(unknot_plus, w_p) == 2 * k
        ok &= is_bad(unknot_minus, w_m) == (k % 2 == 0)
        ok &= not is_bad(unknot_plus, w_p)
    report(6, "unknot: one chord, homology Z/2 and Z, indices k and 2k, "
              "bad orbits exactly the even covers for -1 surgery", ok)


# -- 7: stabilized unknot ------------------------------------------------------

def test_criterion_7(stab_plus):
    d = stab_plus
    ok = len(d.chords) == 2
    ok &= d.tb == {0: -2} and d.rot == {0: 1}
    h1 = h1_presentation(d)
    gens = generators(d, h1, max_len=1)
    low = min((g for g in gens if g.good), key=lambda g: g.action)
    ok &= low.cz == 2 and low.orbit_class.is_zero()
    detected = [(f, word) for f, word in bubbling_faces(d)
                if word == low.word.chords]
    ok &= len(detected) == 1
    ok &= len(detected[0][0].corners) == 1
    report(7, "stabilized unknot: two chords, tb -2, rot 1, index-2 "
              "null-homologous orbit, its disk detected", ok)


# -- 8: Hopf quiver ------------------------------------------------------------

def test_criterion_8(hopf_plus):
    q = quiver_json(hopf_plus)
    ok = len(q["vertices"]) == 2 and len(q["edges"]) == 4
    ok &= len(q["loops"]["0"]) == 1 and len(q["loops"]["1"]) == 1
    across = sorted((e["tail"], e["tip"]) for e in q["edges"]
                    if e["tail"] != e["tip"])
    ok &= across == [(0, 1), (1, 0)]
    words = enumerate_orbit_words(hopf_plus, max_len=1)
    ok &= len(words) == 2
    ok &= all(hopf_plus.chord(w.chords[0]).tail_comp
              == hopf_plus.chord(w.chords[0]).tip_comp for w in words)
    report(8, "Hopf link quiver: two vertices, four edges, one loop at "
              "each vertex", ok)


# -- 9: property suite ---------------------------------------------------------

def test_criterion_9a(trefoil_plus, trefoil_minus):
    ok = True
    for d in (trefoil_plus, trefoil_minus):
        for w in enumerate_orbit_words(d, max_len=4):
            # the mod-2 index is 1 on negative hyperbolic orbits, whose
            # return maps have trace below -2
            trace = trace_at(return_map(d, w), Fraction(1, 100))
            ok &= cz_integral(d, w) % 2 == (trace < -2)
    report("9a", "integral index parity equals the mod-2 index on all "
                 "trefoil words of length <= 4", ok)


def test_criterion_9b(trefoil_plus):
    ok = True
    for w in enumerate_orbit_words(trefoil_plus, max_len=4):
        return_map(trefoil_plus, w)
        # the reference product's det is 1 and the packed rows are that
        # product's entries at u = 2^W
        _sign, ((a, b), (c, dd)) = reference_return_map(trefoil_plus,
                                                        w.chords)
        ok &= padd(pmul(a, dd), pscale(pmul(b, c), -1)) == {0: 1}
        ok &= (w.sign, w.rows) == packed_reference(trefoil_plus, w)
    report("9b", "det of the return map is the constant polynomial 1 on "
                 "the same set", ok)


def test_criterion_9c(trefoil_plus, trefoil_minus):
    ok = True
    for d in (trefoil_plus, trefoil_minus):
        for w in enumerate_orbit_words(d, max_len=4):
            tr = return_map(d, w).trace()
            n = len(w.chords)
            rot_total = sum(rot_number(d, j1, j2) for j1, j2 in w.pairs())
            plus_steps = sum(1 for j, _ in w.pairs()
                             if d.surgery[d.chord(j).tip_comp] == 1)
            ok &= len(tr) == n + 1
            ok &= tr[n] == (-1) ** rot_total * (-1) ** plus_steps
    report("9c", "leading trace coefficient sign matches the rotation and "
                 "coefficient parity on the same set", ok)


def test_criterion_9d(trefoil_plus, trefoil_minus):
    ok = True
    for d in (trefoil_plus, trefoil_minus):
        for w in enumerate_orbit_words(d, max_len=4):
            act = orbit_action(d, w, EPS)
            ok &= abs(act - w.action()) < 3 * EPS * len(w.chords)
    report("9d", "orbit action within 3 eps wordlength of the word action "
                 "at eps = 1/100 on the same set", ok)


def test_criterion_9e(trefoil_plus, trefoil_minus):
    ok = True
    for d in (trefoil_plus, trefoil_minus):
        h1 = h1_presentation(d)
        for w in enumerate_orbit_words(d, max_len=3):
            target = orbit_class_monomial(d, h1, w)
            for s in all_orbit_strings(w):
                linking = pushout_linking(d, w, s)
                ok &= orbit_class_pushout(h1, linking) == target
    report("9e", "push-out homology class equals the monomial class for "
                 "every capping-side choice, trefoil words length <= 3", ok)


def test_criterion_9f(trefoil_plus):
    d = trefoil_plus
    ok = True
    for w in enumerate_orbit_words(d, max_len=3):
        point = embedding_points(embed_orbit(d, w, EPS))[0]
        steps = step_maps(d, w, EPS)
        # independent elimination solve of the composed affine fixed point
        a = (F(1), F(0), F(0), F(1))
        b = (F(0), F(0))
        for mat, off in steps:
            m0, m1, m2, m3 = mat
            a = (m0 * a[0] + m1 * a[2], m0 * a[1] + m1 * a[3],
                 m2 * a[0] + m3 * a[2], m2 * a[1] + m3 * a[3])
            b = (m0 * b[0] + m1 * b[1] + off[0],
                 m2 * b[0] + m3 * b[1] + off[1])
        det = (1 - a[0]) * (1 - a[3]) - a[1] * a[2]
        ok &= det != 0
        x = ((1 - a[3]) * b[0] + a[1] * b[1]) / det
        y = (a[2] * b[0] + (1 - a[0]) * b[1]) / det
        ok &= (x, y) == point
        poly = trimmed_flow_polygon(steps, EPS, rounds=16)
        ok &= bool(poly)
        if poly:
            ok &= point_in_convex(poly, point)
            ok &= poly_diameter_sq(poly) < F(1, 10 ** 20)
    report("9f", "trimmed affine-flow oracle traps exactly one fixed point "
                 "per word of length <= 3 and it equals the solved "
                 "embedding exactly", ok)


def test_criterion_9g():
    ok = True
    rng = range(-5, 6)
    for a, b, c, e in itertools.product(rng, rng, rng, rng):
        m = [[a, b], [c, e]]
        dd, u, v = smith_normal_form(m)
        ok &= (dd[0][0], dd[1][1]) == divisors_2x2(m)
    for a in rng:
        dd, _u, _v = smith_normal_form([[a]])
        ok &= dd[0][0] == abs(a)
    report("9g", "Smith normal form matches the brute-force elementary "
                 "divisors on all small matrices", ok)


def test_criterion_9h(trefoil_plus):
    d = trefoil_plus
    ok = True
    for j in range(1, 6):
        for k in range(1, 6):
            letter = d.letter(j, k)
            turns = 4 * (letter.index - (letter.c == 1)) + 2
            turns_bar = capping_walk(d, j, k, "etabar")[1]
            ok &= turns - turns_bar == 8 * d.rot[d.chord(j).tip_comp]
    report("9h", "capping-angle difference identity on every composable "
                 "trefoil pair, the etabar angle walked segment by segment",
           ok)
