"""Quotient data: Hilbert counts, tables, and structural fingerprints."""

import itertools

import pytest

from potalg.fields import GF, QQ
from potalg.isotest import algebra_profile, from_quotient
from potalg.parsing import parse_poly
from potalg.potential import relations_of
from potalg.quotient import hilbert
from potalg.rewrite import complete
from potalg.words import MonomialOrder

from helpers import dense, validate

XY = MonomialOrder()


def build(texts, cap=8, field=QQ, order=XY):
    rels = [parse_poly(t, field, cap) for t in texts]
    return hilbert(complete(rels, order, cap))


def test_hilbert_r1():
    Q = build(("x y + y x", "x^2 + y^3"))
    assert Q.hilbert == (1, 2, 2, 2, 1, 1, 0, 0, 0)
    assert Q.finite and Q.dimension == 9
    assert Q.first_empty_degree == 6
    assert Q.growth == "finite"
    assert Q.basis_words == ["", "x", "y", "yx", "yy", "yyx", "yyy",
                             "yyyy", "yyyyy"]


def test_hilbert_dim8():
    rels = relations_of(parse_poly("x^3 + y^3 + cyc(x y x y)", cap=9))
    Q = hilbert(complete(list(rels), XY, 9))
    assert Q.hilbert == (1, 2, 2, 2, 1, 0, 0, 0, 0, 0)
    assert Q.dimension == 8
    assert Q.first_empty_degree == 5


def test_hilbert_global_mode():
    Q = build(("x y + y x", "x^2 + y^3"), order=MonomialOrder(mode="global"))
    assert Q.hilbert == (1, 2, 3, 2, 1, 0, 0, 0, 0)
    assert Q.dimension == 9
    assert [w if w else "1" for w in Q.basis_words] == \
        ["1", "x", "y", "xx", "yx", "yy", "yxx", "yyx", "yyxx"]


def test_growth_labels():
    free = hilbert(complete([], XY, 6))
    assert free.hilbert == (1, 2, 4, 8, 16, 32, 64)
    assert free.growth == "growing" and not free.finite
    assert free.dimension is None

    bounded = build(("x^2", "x y"), cap=6)
    assert bounded.hilbert == (1, 2, 2, 2, 2, 2, 2)
    assert bounded.growth == "bounded-constant"

    line = build(("x y + y x",), cap=6)
    assert line.hilbert == (1, 2, 3, 4, 5, 6, 7)
    assert line.growth == "growing"


def test_degenerate_everything_killed():
    Q = build(("x", "y"), cap=4)
    assert Q.hilbert == (1, 0, 0, 0, 0)
    assert Q.dimension == 1
    assert Q.first_empty_degree == 1


def product(F, u, v):
    """Coordinates of u v on F's basis, zero rows included."""
    return dense(F, F.table.get((F.index[u], F.index[v]), {}))


def coords(F, text):
    return [parse_poly(text).coeff(w) for w in F.words]


def test_mult_table_entries():
    F = from_quotient(build(("x y + y x", "x^2 + y^3")))
    assert product(F, "x", "x") == coords(F, "-y^3")
    assert product(F, "x", "y") == [-c for c in product(F, "y", "x")]
    assert not any(product(F, "y", "yyyyy"))
    assert product(F, "", "yx") == coords(F, "y x")

    F2 = from_quotient(build(("x y + y x", "x^2 + y^3 + y^4")))
    assert product(F2, "x", "x") == coords(F2, "-y^3 - y^4")


def test_mult_table_requires_finiteness():
    with pytest.raises(ValueError):
        from_quotient(build(("x^2", "x y"), cap=6))


def test_associativity_of_fixtures():
    for texts in (("x y + y x", "x^2 + y^3"),
                  ("x y + y x", "x^2 + y^3 + y^4")):
        assert validate(from_quotient(build(texts)))
    rels = relations_of(parse_poly("x^3 + y^3 + cyc(x y x y)", cap=9))
    Q = hilbert(complete(list(rels), XY, 9))
    assert validate(from_quotient(Q))


def test_profile_r1_golden():
    prof = algebra_profile(from_quotient(build(("x y + y x", "x^2 + y^3"))))
    assert prof == {
        "hilbert": [1, 2, 2, 2, 1, 1, 0],
        "dimension": 9,
        "derivation_dim": 8,
        "left_annihilator_dim": 1,
        "right_annihilator_dim": 1,
        "two_sided_annihilator_dim": 1,
        "center_dim": 6,
    }


def test_profile_dim8_golden():
    rels = relations_of(parse_poly("x^3 + y^3 + cyc(x y x y)", cap=9))
    Q = hilbert(complete(list(rels), XY, 9))
    prof = algebra_profile(from_quotient(Q))
    assert prof["derivation_dim"] == 6
    assert prof["center_dim"] == 5
    assert prof["two_sided_annihilator_dim"] == 1


def square_zero_count(Q):
    """|{a : a^2 = 0}| over a finite field. a^2 = 0 forces the unit
    component to zero, so only the radical vectors are enumerated."""
    F = from_quotient(Q)
    p = F.field.characteristic
    radical = ({k: c for k, c in enumerate(rad, 1) if c}
               for rad in itertools.product(range(p), repeat=F.dim - 1))
    return sum(1 for a in radical if not F.mul(a, a))


def test_square_zero_counts():
    F3 = GF(3)
    tiny = build(("x^2", "x y", "y x", "y^2"), cap=4, field=F3)
    assert square_zero_count(tiny) == 9

    Q = build(("x y + y x", "x^2 + y^3"), field=F3)
    assert square_zero_count(Q) == 81

    rels = ("x^2 + 2 y x y", "y^2 + 2 x y x")
    Q8 = build(rels, cap=9, field=F3)
    assert square_zero_count(Q8) == 27


def test_json_document():
    Q = build(("x y + y x", "x^2 + y^3"))
    assert Q.system.field.name == "QQ"
    assert list(Q.hilbert) == [1, 2, 2, 2, 1, 1, 0, 0, 0]
    assert Q.dimension == 9
    assert Q.basis_words[0] == ""
    assert Q.system.leads == ["xx", "xy", "yyyx", "yyyyyy"]
    doc = from_quotient(Q).to_json()
    assert doc["basis"][0] == "1"
    assert doc["table"]["x,x"] == \
        ["0", "0", "0", "0", "0", "0", "-1", "0", "0"]
