"""Field arithmetic edge cases."""

from fractions import Fraction

import pytest

from potalg.fields import GF, QQ, FieldError, PrimeField


def test_qq_basics():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    assert QQ.coerce("3/4") == Fraction(3, 4)
    assert QQ.characteristic == 0


def test_qq_zero_division():
    with pytest.raises(FieldError):
        QQ.inv(Fraction(0))
    with pytest.raises(FieldError):
        QQ.div(Fraction(1), Fraction(0))


def test_gf_arithmetic():
    F = GF(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.div(1, 2) == 4
    assert F.neg(0) == 0
    with pytest.raises(FieldError):
        F.inv(0)


def test_gf_requires_prime():
    for n in (0, 1, 4, 6, 9, 100):
        with pytest.raises(FieldError):
            GF(n)


def test_gf_coerces_fractions():
    F = GF(5)
    assert F.coerce(Fraction(1, 2)) == 3
    assert F.coerce(-7) == 3
    with pytest.raises(FieldError):
        F.coerce(Fraction(1, 5))
    with pytest.raises(FieldError):
        F.coerce(Fraction(3, 10))


def test_field_equality_and_hash():
    assert GF(3) == GF(3)
    assert GF(3) != GF(5)
    assert GF(3) != QQ
    assert hash(GF(3)) == hash(PrimeField(3))
