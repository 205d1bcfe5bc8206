from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (apply_all, embedding_points, fraction_composite,
                     fraction_embedding, fraction_orbit_action, matrix_at,
                     packed_reference, padd, peval, pmul,
                     point_in_convex, poly_diameter_sq, poly_eval, pscale,
                     reference_return_map, rot_number, stabilize, step_maps,
                     trace_at, trimmed_flow_polygon, twist_height)
from reebchords import diagram, dynamics
from reebchords.diagram import DiagramError, parse_front, resolve
from reebchords.dynamics import (embed_orbit, hyperbolic_type, is_bad,
                                 orbit_action, return_map)
from reebchords.indices import cz_integral
from reebchords.words import (CyclicWord, enumerate_orbit_words,
                              surgered_chords, unpack)

F = Fraction
EPS = F(1, 100)

US = [F(1), F(3), F(-2), F(7, 3), F(100), F(-5, 7), F(0)]


def all_words(d, n):
    return enumerate_orbit_words(d, max_len=n)


def test_return_map_against_reference_product(trefoil_plus, trefoil_minus,
                                              unknot_plus, unknot_minus):
    for d in (trefoil_plus, trefoil_minus, unknot_plus, unknot_minus):
        for w in all_words(d, 3):
            return_map(d, w)
            assert (w.sign, w.rows) == packed_reference(d, w)
            sign, ref = reference_return_map(d, w.chords)
            assert w.sign == sign
            entries = [unpack(x, w.width) for x in w.rows]
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
        return_map(trefoil_plus, w)
        assert (w.sign, w.rows) == packed_reference(trefoil_plus, w)
        _sign, ((ra, rb), (rc, rd)) = reference_return_map(trefoil_plus,
                                                           w.chords)
        assert padd(pmul(ra, rd), pscale(pmul(rb, rc), -1)) == {0: 1}
        a, b, c, dd = (unpack(x, w.width) for x in w.rows)
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
        assert (prim.sign, prim.rows) == packed_reference(diag, prim)
        m = matrix_at(diag, prim, EPS)
        power = (F(1), F(0), F(0), F(1))
        for k in range(1, 4):
            p0, p1, p2, p3 = power
            m0, m1, m2, m3 = m
            power = (p0 * m0 + p1 * m2, p0 * m1 + p1 * m3,
                     p2 * m0 + p3 * m2, p2 * m1 + p3 * m3)
            cover = CyclicWord(diag, base * k)
            assert trace_at(return_map(diag, cover), EPS) == power[0] + power[3]


def test_cz_mod2_examples(unknot_plus, unknot_minus, trefoil_minus):
    cz_mod2 = lambda d, w: cz_integral(d, CyclicWord(d, w)) % 2
    assert cz_mod2(unknot_minus, [1]) == 1
    assert cz_mod2(unknot_plus, [1]) == 0
    assert cz_mod2(trefoil_minus, [2, 4]) == 1


def test_cz_mod2_against_trace_sign(trefoil_plus, trefoil_minus):
    """det(Ret - I) = 2 - tr has sign (-1)^(cz2 + 1) for small epsilon."""
    for d in (trefoil_plus, trefoil_minus):
        for w in all_words(d, 3):
            tr = trace_at(return_map(d, w), EPS)
            sign = 1 if 2 - tr > 0 else -1
            assert sign == (-1) ** (cz_integral(d, w) % 2 + 1)


def kind_of(d, w):
    return hyperbolic_type(cz_integral(d, w) % 2, return_map(d, w).trace())


def test_hyperbolic_type(unknot_plus, unknot_minus, trefoil_plus):
    kind, eps_w = kind_of(unknot_minus, CyclicWord(unknot_minus, [1]))
    assert kind == "negative" and eps_w == F(1, 2)
    kind, _ = kind_of(unknot_plus, CyclicWord(unknot_plus, [1]))
    assert kind == "positive"
    for w in all_words(trefoil_plus, 3):
        _, eps_w = kind_of(trefoil_plus, w)
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
        pts = embedding_points(embed_orbit(d, w, EPS))
        assert apply_all(step_maps(d, w, EPS), pts[0]) == pts[0]
        for p, _q in pts:
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
        point = embedding_points(embed_orbit(d, w, EPS))[0]
        poly = trimmed_flow_polygon(step_maps(d, w, EPS), EPS, rounds=40)
        assert poly, f"trimmed flow of {w} died out"
        assert point_in_convex(poly, point)
        assert poly_diameter_sq(poly) < F(1, 10 ** 24)


def test_every_point_of_an_orbit_has_one_z_at_epsilon_one_over_q(
        trefoil_plus):
    # at eps = p/q a letter multiplies z by p, and here p = 1
    solved = 0
    for w in all_words(trefoil_plus, 5):
        try:
            points = embed_orbit(trefoil_plus, w, EPS)
        except ValueError:
            continue
        solved += 1
        assert len({z for _x, _y, z in points}) == 1, w
    assert solved > 100


def test_arc_den_holds_the_letters_of_every_word():
    # on this Hopf link the letter of (r3) has an h denominator of 182 and
    # that of (r4) one of 2702, which 182 does not divide: both are ints
    # over the diagram's one arc_den, so a word's orbit needs no other
    d = resolve(parse_front("L1,L3,X2,X2,R1,R1 / surgery {0:+1, 1:+1}"))
    dens = [F(d.letter(j, j).h, d.arc_den).denominator for j in (3, 4)]
    assert dens == [182, 2702]
    assert all(d.arc_den % den == 0 for den in dens)
    for eps in (EPS, F(3, 700)):
        for chords in ((3,), (4,), (1, 2), (3,)):
            w = CyclicWord(d, chords)
            want = fraction_orbit_action(d, w, eps,
                                         fraction_embedding(d, w, eps))
            assert orbit_action(d, w, eps) == want


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
    Fraction composition; returns the outcome's kind: "ok", or the
    exception class and whether I - A is singular or the orbit escapes."""
    got, got_err = outcome(embed_orbit, d, w, eps)
    want, want_err = outcome(fraction_embedding, d, w, eps)
    assert got_err == want_err, (w, eps)
    act, act_err = outcome(orbit_action, d, w, eps)
    assert act_err == want_err, (w, eps)
    rm = return_map(d, w)
    assert (w.sign, w.rows) == packed_reference(d, w)
    assert all(type(v) is int for v in w.rows)
    lin, _off = fraction_composite(step_maps(d, w, eps))
    at_eps = matrix_at(d, w, eps)
    assert at_eps == lin and trace_at(rm, eps) == lin[0] + lin[3]
    assert all(exact(v) for v in at_eps + (trace_at(rm, eps),))
    if want_err is not None:
        cls, msg = want_err
        return cls.__name__ + (" singular" if msg.startswith("I - A singular")
                               else " escapes")
    pts = embedding_points(got)
    assert pts == want
    assert all(exact(v) for pt in pts for v in pt)
    assert apply_all(step_maps(d, w, eps), pts[0]) == pts[0]
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
    assert kinds == {"ok", "ValueError singular", "ValueError escapes"}


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=F(1, 10 ** 4), max_value=F(1),
                    max_denominator=10 ** 4))
def test_embedding_matches_fraction_model_at_random_epsilon(
        trefoil_plus, hopf_plus, eps):
    for d in (trefoil_plus, hopf_plus):
        for w in all_words(d, 3):
            check_against_fraction_model(d, w, eps)


@pytest.mark.parametrize("text", [
    "L1,L3,X2,X2,X2,R1,R1 / surgery {0:+1}",
    "L1,L3,X2,X2,X2,X2,X2,R1,R1 / surgery {0:+1}",
    "L1,R1 / surgery {0:+1}"], ids=["trefoil", "T(2,5)", "unknot"])
def test_orbit_actions_on_stabilized_fronts_match_the_fraction_model(text):
    # a zigzag moves rot off 0, so capping arcs cross the potential's cut
    for position in (1, 2):
        for times in (1, 2):
            d = resolve(stabilize(parse_front(text), position, times))
            assert d.rot[0] != 0
            solved = 0
            for w in all_words(d, 3):
                for eps in (EPS, F(3, 700)):
                    want, err = outcome(fraction_embedding, d, w, eps)
                    act, act_err = outcome(orbit_action, d, w, eps)
                    assert act_err == err, (w, eps)
                    if err is None:
                        assert act == fraction_orbit_action(d, w, eps, want)
                        solved += 1
            assert solved


def test_letters_and_orbit_actions_build_no_fraction(monkeypatch, request):
    """A letter's h and the orbit model are ints over the diagram's own
    denominators: with ``Fraction`` raising in ``diagram`` and
    ``dynamics``, fresh diagrams of the fixtures still make every letter
    of the surgered sublink, and every orbit action of their words up to
    length 3 that stays in the handle equals the fixture's."""
    def forbidden(*args):
        raise AssertionError(f"Fraction{args} built")

    fixtures = [request.getfixturevalue(name) for name in FIXTURES]
    wanted = [{(w.chords, eps): act for w in all_words(d, 3)
               for eps in (EPS, F(3, 700))
               for act, err in [outcome(orbit_action, d, w, eps)]
               if err is None} for d in fixtures]
    fresh = [resolve(d.front) for d in fixtures]
    monkeypatch.setattr(diagram, "Fraction", forbidden)
    monkeypatch.setattr(dynamics, "Fraction", forbidden)
    letters = 0
    for d, actions in zip(fresh, wanted):
        chords = surgered_chords(d)
        for a in chords:
            for b in chords:
                if d.composable(a, b):
                    letters += type(d.letter(a, b).h) is int
        for (word, eps), act in actions.items():
            assert orbit_action(d, CyclicWord(d, word), eps) == act
    # every composable pair of the seven fixtures, and every action solved
    assert letters == 65 and sum(map(len, wanted)) == 314
