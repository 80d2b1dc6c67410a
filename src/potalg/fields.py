"""Coefficient fields (exact rationals, GF(p)) and the errors the CLI reports.

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


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at offset %d)" % (message, position))
        self.message = message
        self.position = position


class CleanupError(RuntimeError):
    """A cleanup stage had no exact solution in either coordinate system."""


PRIME_BOUND = 3317044064679887385961981
"""Primality is decided exactly below this bound, the least strong
pseudoprime to the thirteen prime bases 2..41 (Sorenson and Webster,
Math. Comp. 86, 2017). The twelve bases 2..37 alone would admit
318665857834031151167461."""

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin on the bases 2..41, deterministic below PRIME_BOUND.

    Raises FieldError at or above the bound rather than guess.
    """
    if n >= PRIME_BOUND:
        raise FieldError("modulus %d is not below %d, the bound under "
                         "which primality is decided exactly"
                         % (n, PRIME_BOUND))
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
