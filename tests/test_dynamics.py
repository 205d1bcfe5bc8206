from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (apply_all, fraction_composite, fraction_embedding,
                     fraction_orbit_action, matrix_at, padd, peval,
                     point_in_convex, poly_diameter_sq, poly_eval, pscale,
                     reference_return_map, step_maps, trace_at,
                     trimmed_flow_polygon, twist_height)
from reebchords.diagram import DiagramError
from reebchords.dynamics import (cz_mod2, embed_orbit, hyperbolic_type,
                                 is_bad, orbit_action, return_map)
from reebchords.indices import rot_number
from reebchords.words import CyclicWord, enumerate_orbit_words

F = Fraction
EPS = F(1, 100)

US = [F(1), F(3), F(-2), F(7, 3), F(100), F(-5, 7), F(0)]


def all_words(d, n):
    return enumerate_orbit_words(d, max_len=n)


def test_return_map_against_reference_product(trefoil_plus, trefoil_minus,
                                              unknot_plus, unknot_minus):
    for d in (trefoil_plus, trefoil_minus, unknot_plus, unknot_minus):
        for w in all_words(d, 3):
            rm = return_map(d, w)
            sign, ref = reference_return_map(d, w.chords)
            assert rm.sign == sign
            entries = [rm.entries[0], rm.entries[1], rm.entries[2],
                       rm.entries[3]]
            ref_flat = [ref[0][0], ref[0][1], ref[1][0], ref[1][1]]
            for mine, theirs in zip(entries, ref_flat):
                for u in US:
                    assert poly_eval(mine, u) == peval(theirs, u)


def test_unknot_trace_polynomials(unknot_plus, unknot_minus):
    assert return_map(unknot_plus, CyclicWord(unknot_plus, [1])).trace() \
        == (0, 1)
    assert return_map(unknot_minus, CyclicWord(unknot_minus, [1])).trace() \
        == (0, -1)


def test_determinant_one_identically(trefoil_plus):
    for w in all_words(trefoil_plus, 4):
        rm = return_map(trefoil_plus, w)
        a, b, c, dd = rm.entries
        for u in US:
            det = poly_eval(a, u) * poly_eval(dd, u) \
                - poly_eval(b, u) * poly_eval(c, u)
            assert det == 1


def test_leading_trace_coefficient_sign(trefoil_plus, trefoil_minus):
    for d in (trefoil_plus, trefoil_minus):
        for w in all_words(d, 4):
            rm = return_map(d, w)
            tr = rm.trace()
            n = len(w.chords)
            assert len(tr) == n + 1
            rot_total = sum(rot_number(d, j1, j2) for j1, j2 in w.pairs())
            plus_steps = sum(1 for j, _ in w.pairs()
                             if d.surgery[d.chord(j).tip_comp] == 1)
            expected = (-1) ** rot_total * (-1) ** plus_steps
            assert tr[n] == expected


def test_trefoil_r4r5_trace_leading_term(trefoil_plus):
    rm = return_map(trefoil_plus, CyclicWord(trefoil_plus, [4, 5]))
    assert rm.trace()[2] == 1


def test_power_trace_consistency(trefoil_plus):
    """Traces of covers equal traces of matrix powers of the primitive."""
    diag = trefoil_plus
    for base in ((1,), (4,), (1, 2)):
        prim = CyclicWord(diag, base)
        m = matrix_at(return_map(diag, prim), EPS)
        power = (F(1), F(0), F(0), F(1))
        for k in range(1, 4):
            p0, p1, p2, p3 = power
            m0, m1, m2, m3 = m
            power = (p0 * m0 + p1 * m2, p0 * m1 + p1 * m3,
                     p2 * m0 + p3 * m2, p2 * m1 + p3 * m3)
            cover = CyclicWord(diag, base * k)
            assert trace_at(return_map(diag, cover), EPS) == power[0] + power[3]


def test_cz_mod2_examples(unknot_plus, unknot_minus, trefoil_minus):
    assert cz_mod2(unknot_minus, CyclicWord(unknot_minus, [1])) == 1
    assert cz_mod2(unknot_plus, CyclicWord(unknot_plus, [1])) == 0
    assert cz_mod2(trefoil_minus, CyclicWord(trefoil_minus, [2, 4])) == 1


def test_cz_mod2_against_trace_sign(trefoil_plus, trefoil_minus):
    """det(Ret - I) = 2 - tr has sign (-1)^(cz2 + 1) for small epsilon."""
    for d in (trefoil_plus, trefoil_minus):
        for w in all_words(d, 3):
            tr = trace_at(return_map(d, w), EPS)
            sign = 1 if 2 - tr > 0 else -1
            assert sign == (-1) ** (cz_mod2(d, w) + 1)


def test_hyperbolic_type(unknot_plus, unknot_minus, trefoil_plus):
    kind, eps_w = hyperbolic_type(unknot_minus, CyclicWord(unknot_minus, [1]))
    assert kind == "negative" and eps_w == F(1, 2)
    kind, _ = hyperbolic_type(unknot_plus, CyclicWord(unknot_plus, [1]))
    assert kind == "positive"
    for w in all_words(trefoil_plus, 3):
        _, eps_w = hyperbolic_type(trefoil_plus, w)
        for eps in (EPS, eps_w / 2, eps_w * F(99, 100)):
            assert abs(trace_at(return_map(trefoil_plus, w), eps)) > 2


def test_is_bad(unknot_plus, unknot_minus):
    for k in range(1, 6):
        w_m = CyclicWord(unknot_minus, [1] * k)
        assert is_bad(unknot_minus, w_m) == (k % 2 == 0)
        w_p = CyclicWord(unknot_plus, [1] * k)
        assert not is_bad(unknot_plus, w_p)


def test_embed_orbit_fixed_point(trefoil_plus, unknot_minus):
    for d, base in ((unknot_minus, (1,)), (trefoil_plus, (4,)),
                    (trefoil_plus, (1, 2))):
        w = CyclicWord(d, base)
        emb = embed_orbit(d, w, EPS)
        assert apply_all(emb, emb.points[0]) == emb.points[0]
        for p, _q in emb.points:
            assert abs(p) < EPS


def test_embed_orbit_rejects_large_epsilon(unknot_plus):
    # near epsilon = 1/2 the +1-surgery model degenerates and the fixed
    # point escapes the handle
    w = CyclicWord(unknot_plus, [1])
    with pytest.raises(ValueError):
        embed_orbit(unknot_plus, w, F(49, 100))


def test_affine_iteration_oracle_matches_embed(trefoil_plus):
    """Trimmed iteration of the model flow pins the same unique fixed point."""
    d = trefoil_plus
    for base in ((4,), (1, 2), (2, 3)):
        w = CyclicWord(d, base)
        emb = embed_orbit(d, w, EPS)
        poly = trimmed_flow_polygon(step_maps(d, w, EPS), EPS, rounds=40)
        assert poly, f"trimmed flow of {w} died out"
        assert point_in_convex(poly, emb.points[0])
        assert poly_diameter_sq(poly) < F(1, 10 ** 24)


def test_twist_height_constant():
    assert twist_height(EPS, F(0)) == -EPS / 8


def test_orbit_action_bound(trefoil_plus, unknot_minus):
    for d in (trefoil_plus, unknot_minus):
        for w in all_words(d, 3):
            act = orbit_action(d, w, EPS)
            assert abs(act - w.action()) < 3 * EPS * len(w.chords)


# every fixture; 1/2 is singular for many words, and the larger values make
# many orbits escape the handle
FIXTURES = ["trefoil_plus", "trefoil_minus", "unknot_plus", "unknot_minus",
            "stab_plus", "hopf_plus", "hopf_mixed"]
ORACLE_EPS = [F(1, 100), F(1, 3), F(3, 7), F(49, 100), F(1, 2)]


def outcome(fn, *args):
    """(result, None) or (None, (exception class, message))."""
    try:
        return fn(*args), None
    except (ValueError, DiagramError) as exc:
        return None, (type(exc), str(exc))


def exact(x):
    # Fraction(1, 2) == 0.5 holds, so equality alone misses a stray float
    return type(x) in (Fraction, int)


def check_against_fraction_model(d, w, eps):
    """embed_orbit, orbit_action and return_map against the oracle's
    Fraction composition; returns the outcome's kind."""
    got, got_err = outcome(embed_orbit, d, w, eps)
    want, want_err = outcome(fraction_embedding, d, w, eps)
    assert got_err == want_err, (w, eps)
    act, act_err = outcome(orbit_action, d, w, eps)
    assert act_err == want_err, (w, eps)
    rm = return_map(d, w)
    lin, _off = fraction_composite(step_maps(d, w, eps))
    at_eps = matrix_at(rm, eps)
    assert at_eps == lin and trace_at(rm, eps) == lin[0] + lin[3]
    assert all(exact(v) for v in at_eps + (trace_at(rm, eps),))
    if want_err is not None:
        return want_err[0].__name__
    assert got.points == want
    assert all(exact(v) for pt in got.points for v in pt)
    assert apply_all(got, got.points[0]) == got.points[0]
    assert act == fraction_orbit_action(d, w, eps, want) and exact(act)
    return "ok"


@pytest.mark.parametrize("fixture", FIXTURES)
def test_embedding_and_return_map_match_fraction_model(fixture, request):
    d = request.getfixturevalue(fixture)
    kinds = set()
    for w in all_words(d, 4):
        sign, ref = reference_return_map(d, w.chords)
        want = pscale(padd(ref[0][0], ref[1][1]), sign)
        assert {k: c for k, c in enumerate(return_map(d, w).trace())
                if c != 0} == want
        for eps in ORACLE_EPS:
            kinds.add(check_against_fraction_model(d, w, eps))
    assert "ok" in kinds


def test_fraction_model_cases_all_reached(trefoil_plus, unknot_plus):
    kinds = {check_against_fraction_model(d, w, eps)
             for d in (trefoil_plus, unknot_plus)
             for w in all_words(d, 2) for eps in ORACLE_EPS}
    assert kinds == {"ok", "ValueError", "DiagramError"}


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=F(1, 10 ** 4), max_value=F(1),
                    max_denominator=10 ** 4))
def test_embedding_matches_fraction_model_at_random_epsilon(
        trefoil_plus, hopf_plus, eps):
    for d in (trefoil_plus, hopf_plus):
        for w in all_words(d, 3):
            check_against_fraction_model(d, w, eps)
