"""Grammar round trips and error positions.

Rendering lists words by ascending degree and, within a degree, by the
x-before-y order, so the output of render() is a canonical form: parsing
it back always reproduces the polynomial.
"""

import random
from fractions import Fraction

import pytest

from potalg.fields import GF, QQ
from potalg.parsing import ParseError, parse_poly, render

from helpers import random_poly


def test_parse_golden():
    f = parse_poly("cyc(x^2 y) + y^4", cap=8)
    assert f.terms == {"xxy": 1, "xyx": 1, "yxx": 1, "yyyy": 1}
    assert f.cap == 8
    g = parse_poly("2 x y - 1/2 y + 3")
    assert g.coeff("xy") == 2
    assert g.coeff("y") == Fraction(-1, 2)
    assert g.coeff("") == 3


def test_parse_structure():
    assert parse_poly("(x + y)(x + y)") == parse_poly("x^2 + x y + y x + y^2")
    assert parse_poly("2 (x - y) x") == parse_poly("2 x^2 - 2 y x")
    assert parse_poly("x^0") == parse_poly("1")
    assert parse_poly("cyc ( x y )") == parse_poly("x y + y x")
    assert parse_poly("cyc(cyc(x y))") == parse_poly("2 x y + 2 y x")


def test_huge_exponent_beyond_cap_is_dropped_fast():
    f = parse_poly("x^1000000000 + y", cap=4)
    assert f == parse_poly("y")


def test_parse_over_prime_field():
    f = parse_poly("1/2 x + 7 y", GF(5))
    assert f.coeff("x") == 3
    assert f.coeff("y") == 2


def test_render_golden():
    P = parse_poly
    assert render(P("y x + x y + x^2")) == "x^2 + x y + y x"
    assert render(P("- x + y")) == "-x + y"
    assert render(P("x - 1")) == "-1 + x"
    assert render(P("0")) == "0"
    assert render(P("-5/2")) == "-5/2"
    assert render(P("2 x y - 1/2 y")) == "-1/2 y + 2 x y"
    assert render(P("x x y y y x")) == "x^2 y^3 x"


def test_error_positions():
    cases = [
        ("x^^2", "expected exponent digits", 2),
        ("1/0 x", "zero denominator", 0),
        ("cyc(1 + x)", "constant term", 0),
        ("x +", "expected a factor", 3),
        ("(x", "expected ')'", 2),
        ("cyc(x^0 y)", "exponent 0", 6),
        ("z", "expected a factor", 0),
        ("", "expected a factor", 0),
        ("x y)", "trailing input", 3),
        ("3/", "digits after '/'", 2),
        # digits are ASCII: neither a superscript nor an Arabic-Indic digit
        ("x^\u00b2", "expected exponent digits", 2),
        ("x^\u0663 y", "expected exponent digits", 2),
        ("\u00b2x", "expected a factor", 0),
    ]
    for text, fragment, pos in cases:
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert fragment in str(err.value)
        assert err.value.position == pos


def test_render_parse_round_trip():
    rng = random.Random(99)
    pool = (Fraction(-5, 2), -1, 1, Fraction(7, 3), 4)
    for _ in range(60):
        f = random_poly(rng, degrees=(0, 1, 2, 3), terms=4, coeff_pool=pool)
        assert parse_poly(render(f)) == f
        # canonical form: rendering is idempotent through a parse
        assert render(parse_poly(render(f))) == render(f)
