"""Exact arithmetic in k<x,y> and cap-truncated substitutions."""

import random
from fractions import Fraction

import pytest

from potalg.fields import GF, QQ, FieldError
from potalg.freepoly import (FreePoly, Substitution, abelianize_cubic,
                             substitute)
from potalg.parsing import parse_poly
from potalg.words import MonomialOrder

from helpers import compose_trail, random_poly


def P(s, cap=None, field=QQ):
    return parse_poly(s, field, cap)


def test_zero_coefficients_dropped():
    f = FreePoly(QQ, {"xy": Fraction(0), "x": Fraction(2)})
    assert set(f.terms) == {"x"}
    assert FreePoly.from_terms({}).is_zero()
    assert FreePoly.zero().is_zero()


def test_from_terms_validates_alphabet():
    with pytest.raises(ValueError):
        FreePoly.from_terms({"xz": 1})


def test_product_golden():
    assert P("x + y") * P("x - y") == P("x^2 - x y + y x - y^2")
    assert P("x y") * P("y x") == P("x y^2 x")
    assert (P("x") * P("1")) == P("x")


def test_cap_truncates():
    assert P("x + x^3", cap=2) == P("x")
    g = P("x^2", cap=4) * P("x^3", cap=4)
    assert g.is_zero()
    assert g.cap == 4
    # product cap is the tighter of the two factor caps
    assert (P("x", cap=5) * P("y", cap=3)).cap == 3


def test_ring_axioms_random():
    rng = random.Random(7)
    zero = FreePoly.zero(QQ, 6)
    for _ in range(40):
        f = random_poly(rng, cap=6)
        g = random_poly(rng, cap=6)
        h = random_poly(rng, cap=6)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f + g) * h == f * h + g * h
        assert f - f == zero
        assert -(-f) == f
        assert f.scale(Fraction(3)) == f + f + f


def test_degree_views():
    f = P("2 x y - y^3 + 1/2 x")
    assert f.min_degree() == 1
    assert f.max_degree() == 3
    assert sorted({len(w) for w in f.terms}) == [1, 2, 3]
    assert f.homogeneous_part(2) == P("2 x y")
    assert f.homogeneous_part(5).is_zero()
    assert f.constant_term() == 0
    assert P("3 + x").constant_term() == 3


def test_leading_word_by_mode():
    f = P("x y + y^3")
    assert f.leading_word() == "xy"
    assert f.leading_coeff() == 1
    glo = MonomialOrder(mode="global")
    assert f.leading_word(glo) == "yyy"
    g = P("3 x y + 2 y x")
    assert g.leading_word() == "xy"
    assert g.monic() == P("x y + 2/3 y x")


def test_mixed_fields_rejected():
    with pytest.raises(FieldError):
        P("x") + parse_poly("x", GF(5))
    with pytest.raises(FieldError):
        P("x") * parse_poly("x", GF(5))


def test_substitute_golden():
    s = Substitution(P("x + y^2", cap=6), P("y", cap=6))
    assert substitute(P("x^2", cap=6), s) == P("x^2 + x y^2 + y^2 x + y^4")
    assert substitute(P("y", cap=6), s) == P("y")


def test_substitution_rejects_constant_term():
    with pytest.raises(ValueError):
        Substitution(P("1 + x", cap=4), P("y", cap=4))


def test_substitution_is_a_ring_map():
    rng = random.Random(11)
    for _ in range(25):
        s = Substitution(random_poly(rng, degrees=(1, 2), cap=5),
                         random_poly(rng, degrees=(1, 2), cap=5), cap=5)
        f = random_poly(rng, cap=5)
        g = random_poly(rng, cap=5)
        assert substitute(f + g, s) == substitute(f, s) + substitute(g, s)
        assert substitute(f * g, s) == \
            (substitute(f, s) * substitute(g, s)).with_cap(5)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_diagonal_substitution_matches_letter_products(field):
    """x -> a x + (degree >= e), y -> d y + (degree >= e) sends a word
    longer than cap + 1 - e to a multiple of itself without building its
    prefixes; substitute agrees with the products of the letter images,
    a zero diagonal entry and a pure diagonal part included."""
    rng = random.Random("diagonal-%s" % field.name)
    pool = (0, 1, -1, 2, Fraction(1, 2), Fraction(-5, 3))
    for _ in range(40):
        cap, e = rng.randint(3, 8), rng.randint(2, 4)
        images = []
        for ch in "xy":
            high = random_poly(rng, field, degrees=range(e, e + 3),
                               terms=rng.randint(0, 2), cap=cap)
            images.append(FreePoly.term(ch, field.coerce(rng.choice(pool)),
                                        field, cap) + high)
        s = Substitution(*images, cap=cap)
        f = random_poly(rng, field, degrees=range(1, cap + 2),
                        terms=rng.randint(1, 6), cap=cap)
        want = FreePoly.zero(field, cap)
        for w, c in f.terms.items():
            term = FreePoly.term("", c, field, cap)
            for ch in w:
                term = term * images["xy".index(ch)]
            want = want + term
        assert substitute(f, s) == want


def test_then_applies_left_argument_first():
    s = Substitution(P("y", cap=4), P("x", cap=4))
    t = Substitution(P("x + x^2", cap=4), P("y", cap=4))
    st = compose_trail([s, t], 4)
    for text in ("x", "y", "x y - 2 y^2"):
        f = P(text, cap=4)
        assert substitute(f, st) == substitute(substitute(f, s), t)
    assert substitute(P("x", cap=4), st) == P("y", cap=4)


def test_abelianize_cubic():
    from potalg.potential import cyclicize
    assert abelianize_cubic(cyclicize(P("x^2 y"))) == (0, 3, 0, 0)
    # xyx has one y, so it lands in the x^2 y bucket
    assert abelianize_cubic(P("x^3 - 2 x y x + y^3")) == (1, -2, 0, 1)
    assert abelianize_cubic(FreePoly.zero()) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        abelianize_cubic(P("x^2"))
