"""Coefficient fields: exact rationals and prime fields GF(p).

A field object carries zero/one constants and exact arithmetic on its
element type: Fraction for the rationals, canonical ints 0..p-1 for GF(p).
Division by zero raises FieldError, as does coercing a fraction whose
denominator vanishes mod p.
"""

from __future__ import annotations

from fractions import Fraction


class FieldError(ArithmeticError):
    """Impossible field operation (zero division, bad modulus, bad coercion)."""


class ResourceCapError(RuntimeError):
    """A computation exceeded its declared resource budget."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Rationals:
    """The rationals; elements are Fraction instances."""

    characteristic = 0
    name = "QQ"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, a):
        if isinstance(a, Fraction):
            return a
        if isinstance(a, int) or isinstance(a, str):
            return Fraction(a)
        raise FieldError("cannot coerce %r into QQ" % (a,))

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if not a:
            raise FieldError("division by zero")
        return 1 / a

    def div(self, a, b):
        if not b:
            raise FieldError("division by zero")
        return a / b

    def to_str(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """GF(p) for prime p; elements are ints reduced to 0..p-1."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError("modulus %r is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self.name = "GF(%d)" % p
        self.zero = 0
        self.one = 1 % p

    def coerce(self, a):
        p = self.p
        if isinstance(a, int):
            return a % p
        if isinstance(a, Fraction):
            if a.denominator % p == 0:
                raise FieldError(
                    "denominator of %s vanishes mod %d" % (a, p))
            return (a.numerator % p) * pow(a.denominator % p, p - 2, p) % p
        if isinstance(a, str):
            return self.coerce(Fraction(a))
        raise FieldError("cannot coerce %r into GF(%d)" % (a, p))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def to_str(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()


def GF(p: int) -> PrimeField:
    return PrimeField(p)
