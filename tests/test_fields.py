"""Field arithmetic edge cases."""

import time
from fractions import Fraction

import pytest

from potalg.fields import GF, PRIME_BOUND, QQ, FieldError, PrimeField, is_prime


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


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if trial_division(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # 561 is a Carmichael number; 3215031751 is a strong pseudoprime to
    # the bases 2, 3, 5 and 7; 318665857834031151167461 is one to every
    # prime base up to 37, so the base 41 is needed below PRIME_BOUND
    for n in (561, 3215031751, 318665857834031151167461):
        assert not is_prime(n), n


def test_is_prime_is_fast_on_large_primes():
    # trial division took 0.7 s at 10^14 and grows with the square root
    start = time.perf_counter()
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 14 + 31)
    assert time.perf_counter() - start < 0.01


def test_gf_refuses_moduli_at_or_above_the_bound():
    for n in (2 ** 89 - 1, PRIME_BOUND):
        with pytest.raises(FieldError, match=str(PRIME_BOUND)):
            GF(n)
