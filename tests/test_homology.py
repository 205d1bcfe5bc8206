import itertools
import random
from fractions import Fraction

import pytest

from oracles import (all_orbit_strings, divisors_2x2, gauss_jordan_solve,
                     orbit_class_pushout)
from reebchords import homology
from reebchords.diagram import DiagramError, resolve
from reebchords.homology import (crossing_monomials, h1_presentation,
                                 orbit_class_monomial, smith_normal_form)
from reebchords.quiver import effective_fiber_vector
from reebchords.words import CyclicWord, enumerate_orbit_words, push_out
from test_realization import seeded_fronts

F = Fraction


def mat_mul(a, b):
    n, m, p = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(p)]
            for i in range(n)]


def test_snf_against_bruteforce_1x1():
    for v in range(-5, 6):
        d, u, vv = smith_normal_form([[v]])
        assert d[0][0] == abs(v)
        assert u[0][0] * v * vv[0][0] == d[0][0]


def test_snf_against_bruteforce_2x2():
    rng = range(-5, 6)
    for a, b, c, e in itertools.product(rng, rng, rng, rng):
        m = [[a, b], [c, e]]
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert (d[0][0], d[1][1]) == divisors_2x2(m)
        assert d[0][1] == d[1][0] == 0
        assert abs(u[0][0] * u[1][1] - u[0][1] * u[1][0]) == 1
        assert abs(v[0][0] * v[1][1] - v[0][1] * v[1][0]) == 1


def test_h1_examples(trefoil_plus_h1, trefoil_minus_h1,
                     unknot_plus, unknot_minus):
    assert trefoil_plus_h1.group_description() == "Z/2"
    assert trefoil_plus_h1.finite
    assert trefoil_minus_h1.group_description() == "Z"
    assert not trefoil_minus_h1.finite
    assert h1_presentation(unknot_minus).group_description() == "Z/2"
    assert h1_presentation(unknot_plus).group_description() == "Z"


def test_h1_matrix_entries(trefoil_plus, hopf_plus):
    h1 = h1_presentation(trefoil_plus)
    assert h1.matrix == [[trefoil_plus.tb[0] + 1]]
    h1h = h1_presentation(hopf_plus)
    assert h1h.matrix[0][0] == hopf_plus.tb[0] + 1
    assert h1h.matrix[0][1] == hopf_plus.linking[0][1]
    assert h1h.finite == (h1h.matrix[0][0] * h1h.matrix[1][1]
                          - h1h.matrix[0][1] * h1h.matrix[1][0] != 0)


def test_zero_coefficient_components_excluded(hopf_mixed):
    h1 = h1_presentation(hopf_mixed)
    assert h1.surgered == [1]
    assert len(h1.matrix) == 1


TREFOIL_SIGNS = {1: 1, 2: 1, 3: 1, 4: -1, 5: -1}
TREFOIL_CROSS_PAIRS = {
    (1, 1): 0, (1, 2): 0, (1, 3): 2, (1, 4): 3, (1, 5): 1,
    (2, 1): 0, (2, 2): 0, (2, 3): 0, (2, 4): 1, (2, 5): 1,
    (3, 1): -2, (3, 2): 0, (3, 3): 0, (3, 4): 1, (3, 5): -1,
    (4, 1): 1, (4, 2): 1, (4, 3): 3, (4, 4): 4, (4, 5): 2,
    (5, 1): -1, (5, 2): 1, (5, 3): 1, (5, 4): 2, (5, 5): 0,
}


def test_trefoil_crossing_monomials(trefoil_plus, trefoil_minus):
    for d, c in ((trefoil_plus, 1), (trefoil_minus, -1)):
        singles, pairs = crossing_monomials(d)
        for j in range(1, 6):
            assert d.chord(j).sign == TREFOIL_SIGNS[j]
            assert singles[j][0] == c + TREFOIL_SIGNS[j]
        for (j, k), val in TREFOIL_CROSS_PAIRS.items():
            assert pairs[(j, k)][0] == val


def test_single_component_chord_monomial_rule(unknot_plus, unknot_minus):
    for d, c in ((unknot_plus, 1), (unknot_minus, -1)):
        singles, _ = crossing_monomials(d)
        assert singles[1][0] == c + d.chord(1).sign


def test_orbit_class_examples(trefoil_plus, trefoil_minus, unknot_minus,
                              trefoil_plus_h1, trefoil_minus_h1):
    cls = orbit_class_monomial(trefoil_plus, trefoil_plus_h1,
                               CyclicWord(trefoil_plus, [4]))
    assert cls.is_zero()
    cls1 = orbit_class_monomial(trefoil_plus, trefoil_plus_h1,
                                CyclicWord(trefoil_plus, [1]))
    assert cls1.reduced == (1,)
    cls5 = orbit_class_monomial(trefoil_minus, trefoil_minus_h1,
                                CyclicWord(trefoil_minus, [5]))
    assert cls5.vector == (-1,)
    h1u = h1_presentation(unknot_minus)
    clsu = orbit_class_monomial(unknot_minus, h1u,
                                CyclicWord(unknot_minus, [1]))
    # equals the meridian class in Z/2
    assert clsu.reduced == h1u.reduce([1]) == (1,)


def test_pushout_class_examples(unknot_minus, trefoil_plus, trefoil_plus_h1):
    h1u = h1_presentation(unknot_minus)
    w = CyclicWord(unknot_minus, [1])
    po = push_out(unknot_minus, w)
    # the meridian class of the lens space
    assert orbit_class_pushout(h1u, po).reduced == (1,)
    w4 = CyclicWord(trefoil_plus, [4])
    from reebchords.words import OrbitString
    po4 = push_out(trefoil_plus, w4, OrbitString(w4, ["etabar"]))
    assert orbit_class_pushout(trefoil_plus_h1, po4).is_zero()
    assert po4.linking[0] == 0


def test_pushout_equals_monomial_everywhere(trefoil_plus, trefoil_minus,
                                            hopf_plus):
    for d in (trefoil_plus, trefoil_minus, hopf_plus):
        h1 = h1_presentation(d)
        for w in enumerate_orbit_words(d, max_len=2):
            target = orbit_class_monomial(d, h1, w)
            for s in all_orbit_strings(w):
                po = push_out(d, w, s)
                assert orbit_class_pushout(h1, po) == target


def test_class_additive_under_covers(trefoil_plus, trefoil_plus_h1):
    d, h1 = trefoil_plus, trefoil_plus_h1
    for w in enumerate_orbit_words(d, max_len=2):
        base = orbit_class_monomial(d, h1, w)
        for k in (2, 3):
            cover = orbit_class_monomial(d, h1, CyclicWord(d, w.chords * k))
            total = base
            for _ in range(k - 1):
                total = total + base
            assert cover == total


def test_qhs_flag_matches_determinant(trefoil_plus, hopf_plus, unknot_plus):
    for d in (trefoil_plus, hopf_plus, unknot_plus):
        h1 = h1_presentation(d)
        n = len(h1.matrix)
        det = 1
        if n == 1:
            det = h1.matrix[0][0]
        elif n == 2:
            det = h1.matrix[0][0] * h1.matrix[1][1] \
                - h1.matrix[0][1] * h1.matrix[1][0]
        assert h1.finite == (det != 0)


def check_smith_solve(h1, rng):
    """The Smith-form solve of matrix^T x = rhs equals Gauss-Jordan's."""
    n = len(h1.surgered)
    transpose = [[h1.matrix[j][i] for j in range(n)] for i in range(n)]
    for _ in range(5):
        rhs = [F(rng.randint(-40, 40), rng.randint(1, 12)) for _ in range(n)]
        assert h1.solve(rhs) == gauss_jordan_solve(transpose, rhs)


@pytest.mark.parametrize("name", [
    "trefoil_plus", "unknot_minus", "stab_plus", "hopf_plus"])
def test_smith_solve_matches_gauss_jordan_on_fixtures(name, request):
    h1 = h1_presentation(request.getfixturevalue(name))
    assert h1.finite
    check_smith_solve(h1, random.Random(name))


def test_smith_solve_matches_gauss_jordan_on_seeded_fronts():
    rng = random.Random(7)
    finite = 0
    for front in seeded_fronts():
        h1 = h1_presentation(resolve(front))
        if h1.finite:
            check_smith_solve(h1, rng)
            finite += 1
    assert finite == 9          # of the ten fronts; one has H1 = Z/7 + Z


@pytest.mark.parametrize("which", [1, 2])
def test_non_unimodular_snf_transform_raises(hopf_plus, monkeypatch, which):
    """Doubling a row of U (which = 1) or V (which = 2) of the first Smith
    form doubles its determinant, and the presentation must reject it."""
    real = homology.smith_normal_form
    calls = []

    def doubled(m):
        out = list(real(m))
        if not calls:
            out[which] = [[2 * x for x in out[which][0]]] + out[which][1:]
        calls.append(m)
        return tuple(out)

    monkeypatch.setattr(homology, "smith_normal_form", doubled)
    with pytest.raises(DiagramError, match="SNF transforms are not unimodular"):
        homology.H1Presentation(hopf_plus)


def test_fiber_vector_needs_finite_h1(unknot_plus):
    h1 = h1_presentation(unknot_plus)
    assert not h1.finite
    with pytest.raises(DiagramError):
        effective_fiber_vector(unknot_plus, h1, CyclicWord(unknot_plus, [1]))
