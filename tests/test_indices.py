from oracles import capping_walk, rot_number
from reebchords.homology import h1_presentation
from reebchords.indices import c1_class, canonical_grading_valid, cz_integral
from reebchords.report import GeneratorRecord
from reebchords.words import CyclicWord, enumerate_orbit_words


TREFOIL_ROT = {
    1: [0, 0, 0, 0, 1],
    2: [0, 0, 0, 0, 1],
    3: [0, 0, 0, 0, 1],
    4: [1, 1, 1, 1, 2],
    5: [0, 0, 0, 0, 1],
}


def test_unknot_capping_angle(unknot_minus):
    assert capping_walk(unknot_minus, 1, 1, "eta")[1] == 6    # 3 pi / 2
    assert unknot_minus.letter(1, 1).index == 1     # rot 1, coefficient -1


def test_trefoil_rotation_table(trefoil_plus):
    for j in range(1, 6):
        for k in range(1, 6):
            assert rot_number(trefoil_plus, j, k) == TREFOIL_ROT[j][k - 1]
            # rot + [c = +1]
            assert trefoil_plus.letter(j, k).index == \
                TREFOIL_ROT[j][k - 1] + 1


def test_angles_odd_and_angle_sum(trefoil_plus, stab_plus):
    """The walked eta and etabar angles are odd multiples of pi/2, the eta
    one lies between rot pi and (rot + 1) pi for the letter's rot, and they
    differ by the component's rotation number times 2 pi."""
    for d in (trefoil_plus, stab_plus):
        n = len(d.chords)
        for j in range(1, n + 1):
            for k in range(1, n + 1):
                if not d.composable(j, k):
                    continue
                letter = d.letter(j, k)
                turns = capping_walk(d, j, k, "eta")[1]
                turns_bar = capping_walk(d, j, k, "etabar")[1]
                assert turns % 4 == 2 and turns_bar % 4 == 2
                assert turns // 4 == letter.index - (letter.c == 1)
                comp = d.chord(j).tip_comp
                assert turns - turns_bar == 8 * d.rot[comp]


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
        n = len(w.chords)
        for rot in (w.chords[k:] + w.chords[:k] for k in range(n)):
            assert sum(
                rot_number(d, rot[i], rot[(i + 1) % len(rot)])
                + (1 if d.surgery[d.chord(rot[i]).tip_comp] == 1 else 0)
                for i in range(len(rot))) == base
        for k in (2, 3):
            assert cz_integral(d, CyclicWord(d, w.chords * k)) == k * base


def test_cz_mod2_cross_module(trefoil_plus, trefoil_minus):
    """The kind a generator record reports is the parity of the
    ``indices`` sum."""
    for d in (trefoil_plus, trefoil_minus):
        h1 = h1_presentation(d)
        for w in enumerate_orbit_words(d, max_len=3):
            kind = GeneratorRecord(d, h1, w).hyperbolic
            assert cz_integral(d, w) % 2 == (kind == "negative")


def test_c1_class(trefoil_plus, stab_plus, hopf_plus):
    assert c1_class(trefoil_plus) == [0]
    assert c1_class(stab_plus) == [1]
    assert c1_class(hopf_plus) == [0, 0]


def test_canonical_grading_flag(trefoil_plus, stab_plus):
    assert canonical_grading_valid(trefoil_plus, True, False)
    assert canonical_grading_valid(trefoil_plus, False, True)
    assert not canonical_grading_valid(stab_plus, True, True)
