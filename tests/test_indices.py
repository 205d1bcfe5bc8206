from fractions import Fraction

import pytest

from reebchords.indices import (CappingAngle, c1_class,
                                canonical_grading_valid, capping_angle,
                                cz_integral, rot_number)
from reebchords.dynamics import cz_mod2
from reebchords.words import CyclicWord, enumerate_orbit_words

F = Fraction

TREFOIL_ROT = {
    1: [0, 0, 0, 0, 1],
    2: [0, 0, 0, 0, 1],
    3: [0, 0, 0, 0, 1],
    4: [1, 1, 1, 1, 2],
    5: [0, 0, 0, 0, 1],
}


def test_unknot_capping_angle(unknot_minus):
    ca = capping_angle(unknot_minus, 1, 1, "eta")
    assert ca.t == 3          # theta = 3 pi / 2
    assert ca.rot == 1


def test_trefoil_rotation_table(trefoil_plus):
    for j in range(1, 6):
        for k in range(1, 6):
            assert rot_number(trefoil_plus, j, k) == TREFOIL_ROT[j][k - 1]


def test_angles_odd_and_angle_sum(trefoil_plus, stab_plus):
    for d in (trefoil_plus, stab_plus):
        n = d.n_chords
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if not d.composable(j, k):
                    continue
                t_eta = capping_angle(d, j, k, "eta").t
                t_bar = capping_angle(d, j, k, "etabar").t
                assert t_eta % 2 == 1 and t_bar % 2 == 1
                comp = d.chord(j).tip_comp
                assert t_eta - t_bar == 4 * d.rot[comp]


def test_capping_angle_odd_validation():
    with pytest.raises(Exception):
        CappingAngle(1, 2, "eta", 4)


def test_cz_examples(trefoil_plus, trefoil_minus, stab_plus):
    cz = lambda d, w: cz_integral(d, CyclicWord(d, w))
    assert cz(trefoil_plus, [4]) == 2
    assert cz(trefoil_plus, [1]) == 1
    assert cz(trefoil_plus, [1, 5]) == 3
    assert cz(trefoil_plus, [4, 5]) == 4
    assert cz(trefoil_minus, [2]) == 0
    assert cz(trefoil_minus, [2, 4]) == 1
    assert cz(stab_plus, [1]) == 2


def test_cz_rotation_invariance_and_linearity(trefoil_plus):
    d = trefoil_plus
    for w in enumerate_orbit_words(d, max_len=3):
        base = cz_integral(d, w)
        for rot in w.rotations():
            assert sum(
                rot_number(d, rot[i], rot[(i + 1) % len(rot)])
                + (1 if d.surgery[d.chord(rot[i]).tip_comp] == 1 else 0)
                for i in range(len(rot))) == base
        for k in (2, 3):
            assert cz_integral(d, CyclicWord(d, w.chords * k)) == k * base


def test_cz_mod2_cross_module(trefoil_plus, trefoil_minus):
    for d in (trefoil_plus, trefoil_minus):
        for w in enumerate_orbit_words(d, max_len=3):
            assert cz_integral(d, w) % 2 == cz_mod2(d, w)


def test_c1_class(trefoil_plus, stab_plus, hopf_plus):
    assert c1_class(trefoil_plus) == [0]
    assert c1_class(stab_plus) == [1]
    assert c1_class(hopf_plus) == [0, 0]


def test_canonical_grading_flag(trefoil_plus, stab_plus):
    assert canonical_grading_valid(trefoil_plus, True, False)
    assert canonical_grading_valid(trefoil_plus, False, True)
    assert not canonical_grading_valid(stab_plus, True, True)
