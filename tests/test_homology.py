import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (all_orbit_strings, class_lift, divisors_2x2,
                     gauss_jordan_solve, orbit_class_pushout, pushout_linking,
                     reduce_class)
from reebchords import homology
from reebchords.diagram import DiagramError, parse_front, resolve
from reebchords.homology import (h1_presentation, orbit_class_monomial,
                                 smith_normal_form)
from reebchords.quiver import effective_fiber_vector
from reebchords.words import CyclicWord, enumerate_orbit_words
from test_lp import TREFOIL_2_COPY
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


def exact_det(m):
    """The determinant of a square integer matrix, by Gaussian elimination
    in Fractions."""
    a, det = [[F(x) for x in row] for row in m], F(1)
    for k in range(len(a)):
        piv = next((i for i in range(k, len(a)) if a[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            a[k], a[piv], det = a[piv], a[k], -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return det


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8).flatmap(lambda cols: st.lists(
    st.lists(st.integers(-50, 50), min_size=cols, max_size=cols),
    min_size=1, max_size=8)))
def test_snf_is_a_unimodular_diagonalization(m):
    """U m V = D exactly, D is diagonal with 0 <= d_i and d_i | d_(i+1),
    and U and V have determinant +-1, on matrices up to 8x8."""
    d, u, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    diag = [d[k][k] for k in range(min(len(m), len(m[0])))]
    assert all(x == 0 for i, row in enumerate(d)
               for j, x in enumerate(row) if i != j)
    assert all(x >= 0 for x in diag)
    assert all(y % x == 0 if x else y == 0 for x, y in zip(diag, diag[1:]))
    assert abs(exact_det(u)) == abs(exact_det(v)) == 1


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
    """Each letter's monomial is the paper's chord term c + sign of its
    first chord plus the paper's pair term."""
    for d, c in ((trefoil_plus, 1), (trefoil_minus, -1)):
        for j in range(1, 6):
            assert d.chord(j).sign == TREFOIL_SIGNS[j]
        for (j, k), val in TREFOIL_CROSS_PAIRS.items():
            assert d.letter(j, k).vector == (c + TREFOIL_SIGNS[j] + val,)


def test_single_component_chord_monomial_rule(unknot_plus, unknot_minus):
    """The one letter of the unknot passes no chord end, so its monomial is
    the chord term alone."""
    for d, c in ((unknot_plus, 1), (unknot_minus, -1)):
        assert d.letter(1, 1).vector == (c + d.chord(1).sign,)


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
    assert clsu.reduced == reduce_class(h1u, [1]) == (1,)


def test_pushout_class_examples(unknot_minus, trefoil_plus, trefoil_plus_h1):
    h1u = h1_presentation(unknot_minus)
    w = CyclicWord(unknot_minus, [1])
    # the meridian class of the lens space
    linking = pushout_linking(unknot_minus, w, ("eta",))
    assert orbit_class_pushout(h1u, linking).reduced == (1,)
    w4 = CyclicWord(trefoil_plus, [4])
    linking4 = pushout_linking(trefoil_plus, w4, ("etabar",))
    assert orbit_class_pushout(trefoil_plus_h1, linking4).is_zero()
    assert linking4[0] == 0


def test_pushout_equals_monomial_everywhere(trefoil_plus, trefoil_minus,
                                            hopf_plus):
    for d in (trefoil_plus, trefoil_minus, hopf_plus):
        h1 = h1_presentation(d)
        for w in enumerate_orbit_words(d, max_len=2):
            target = orbit_class_monomial(d, h1, w)
            for s in all_orbit_strings(w):
                assert orbit_class_pushout(h1, pushout_linking(d, w, s)) \
                    == target


def check_linking_is_the_class_vector(d):
    """The push-out linking on the surgered components, for every side
    string of the words of length <= 2 and the 'eta' string of those of
    length 3, is the class vector minus, per 'etabar' letter, the relation
    matrix's column of the letter's component: the framed push-off of the
    whole component that separates the two sides.  The 'eta' linking is
    the class vector itself, which the grading's meridian correction reads.
    Returns the number of strings checked."""
    h1 = h1_presentation(d)
    count = 0
    for w in enumerate_orbit_words(d, max_len=3):
        vector = orbit_class_monomial(d, h1, w).vector
        strings = all_orbit_strings(w) if len(w.chords) <= 2 \
            else [("eta",) * 3]
        for sides in strings:
            want = list(vector)
            for (j1, _j2), side in zip(w.pairs(), sides):
                if side == "etabar":
                    col = h1.surgered.index(d.chord(j1).tip_comp)
                    want = [v - row[col] for v, row in zip(want, h1.matrix)]
            linking = pushout_linking(d, w, sides)
            assert [linking[i] for i in h1.surgered] == want, (w, sides)
            count += 1
    return count


@pytest.mark.parametrize("name", [
    "trefoil_plus", "trefoil_minus", "unknot_plus", "unknot_minus",
    "stab_plus", "hopf_plus", "hopf_mixed"])
def test_pushout_linking_is_the_class_vector(name, request):
    assert check_linking_is_the_class_vector(request.getfixturevalue(name))


def test_pushout_linking_is_the_class_vector_on_seeded_fronts_and_copy():
    fronts = list(seeded_fronts()) + [parse_front(TREFOIL_2_COPY)]
    assert all(check_linking_is_the_class_vector(resolve(front))
               for front in fronts)


def check_lift_is_u_times_the_vector(d):
    """Every word of length <= 3 has ``OrbitClass.lift`` equal to U times
    its class vector and ``reduced`` equal to that vector's normal form,
    all three from the oracles: the vector as the 'eta' push-out's linking
    on the surgered components, U v as ``class_lift``, the normal form as
    ``reduce_class``.  Returns the number of words checked."""
    h1 = h1_presentation(d)
    words = enumerate_orbit_words(d, max_len=3)
    for w in words:
        linking = pushout_linking(d, w, ("eta",) * len(w.chords))
        vector = [linking[i] for i in h1.surgered]
        cls = orbit_class_monomial(d, h1, w)
        assert cls.lift == class_lift(h1, vector), w
        assert cls.reduced == reduce_class(h1, vector), w
    return len(words)


@pytest.mark.parametrize("name", [
    "trefoil_plus", "trefoil_minus", "unknot_plus", "unknot_minus",
    "stab_plus", "hopf_plus", "hopf_mixed"])
def test_class_lift_is_u_times_the_vector(name, request):
    assert check_lift_is_u_times_the_vector(request.getfixturevalue(name))


def test_class_lift_is_u_times_the_vector_on_seeded_fronts_and_copy():
    fronts = list(seeded_fronts()) + [parse_front(TREFOIL_2_COPY)]
    assert all(check_lift_is_u_times_the_vector(resolve(front))
               for front in fronts)


def test_class_additive_under_covers(trefoil_plus, trefoil_plus_h1):
    d, h1 = trefoil_plus, trefoil_plus_h1
    for w in enumerate_orbit_words(d, max_len=2):
        base = orbit_class_monomial(d, h1, w)
        for k in (2, 3):
            cover = orbit_class_monomial(d, h1, CyclicWord(d, w.chords * k))
            assert cover.reduced == reduce_class(
                h1, [k * v for v in base.vector])


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
    """The Smith-form solve of matrix^T x = rhs, in ints over the
    exponent, equals Gauss-Jordan's in Fractions, and the exponent is the
    last elementary divisor, which divides |H1|."""
    n = len(h1.surgered)
    transpose = [[h1.matrix[j][i] for j in range(n)] for i in range(n)]
    assert h1.exponent == h1.diagonal[-1]
    assert prod(h1.diagonal) % h1.exponent == 0
    for _ in range(5):
        rhs = [rng.randint(-40, 40) for _ in range(n)]
        x = h1.solve(rhs)
        assert all(type(v) is int for v in x)
        assert [F(v, h1.exponent) for v in x] == \
            gauss_jordan_solve(transpose, rhs)


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


def test_a_transform_of_determinant_two_raises(hopf_plus, monkeypatch):
    """U = [[1, 1], [-1, 1]], of determinant 2 with no row a multiple of
    another's, is rejected as not unimodular."""
    real = homology.smith_normal_form

    def skewed(m):
        d, _u, v = real(m)
        return d, [[1, 1], [-1, 1]], v

    monkeypatch.setattr(homology, "smith_normal_form", skewed)
    with pytest.raises(DiagramError, match="SNF transforms are not unimodular"):
        homology.H1Presentation(hopf_plus)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.integers(-2, 2), st.integers(-10 ** 6, 10 ** 6)),
             min_size=n, max_size=n), min_size=n, max_size=n)))
def test_the_bareiss_determinant_is_exact(m):
    """The fraction-free determinant that checks U and V equals Gaussian
    elimination in Fractions, singular matrices and 0x0 included."""
    assert homology._det(m) == exact_det(m)


# (diagonal, U) of each fixture's presentation, as measured before the
# unimodularity check became a determinant
H1_OF_FIXTURES = {
    "trefoil_plus": ([2], [[1]]), "trefoil_minus": ([0], [[1]]),
    "unknot_plus": ([0], [[1]]), "unknot_minus": ([2], [[-1]]),
    "stab_plus": ([1], [[-1]]), "hopf_plus": ([1, 1], [[-1, 0], [0, -1]]),
    "hopf_mixed": ([0], [[1]]), "2-copy": ([1, 3], [[1, 0], [2, -1]]),
}


@pytest.mark.parametrize("name", sorted(H1_OF_FIXTURES))
def test_h1_diagonal_and_u_of_the_fixtures(name, request):
    d = resolve(parse_front(TREFOIL_2_COPY)) if name == "2-copy" \
        else request.getfixturevalue(name)
    h1 = h1_presentation(d)
    assert (h1.diagonal, h1.u) == H1_OF_FIXTURES[name]


def test_fiber_vector_needs_finite_h1(unknot_plus):
    h1 = h1_presentation(unknot_plus)
    assert not h1.finite
    with pytest.raises(DiagramError):
        effective_fiber_vector(unknot_plus, h1, CyclicWord(unknot_plus, [1]))
