"""Noncommutative polynomials in x, y with exact coefficients and a cap.

A FreePoly stores a sparse map word -> nonzero coefficient together with a
truncation cap: words of degree above the cap are dropped on construction
and in every operation. cap=None means no truncation. Mixed-cap arithmetic
truncates at the minimum of the operand caps. Values are treated as
immutable; all operations return fresh objects. A FreePoly carries no
rewriting state: rewrite reads it into its own integer rule format.

A Substitution caches the image of each word it meets as integer
numerators over one denominator, the format of linalg.integral (over
GF(p) residues over 1, so both fields take one path); substitute sums
them over one common denominator and forms one fraction per output word.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .fields import QQ, FieldError
from .linalg import integral
from .words import EMPTY, MonomialOrder

_DEFAULT_ORDER = MonomialOrder()


def _min_cap(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class FreePoly:
    __slots__ = ("field", "terms", "cap")

    def __init__(self, field, terms=None, cap=None):
        self.field = field
        self.cap = cap
        clean = {}
        if terms:
            for w, c in terms.items():
                if cap is not None and len(w) > cap:
                    continue
                if c:
                    clean[w] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field=QQ, cap=None):
        return cls(field, {}, cap)

    @classmethod
    def term(cls, word, coeff=1, field=QQ, cap=None):
        return cls(field, {word: field.coerce(coeff)}, cap)

    @classmethod
    def from_terms(cls, mapping, field=QQ, cap=None):
        terms = {}
        for w, c in mapping.items():
            if any(ch not in "xy" for ch in w):
                raise ValueError("bad word %r" % (w,))
            terms[w] = field.coerce(c)
        return cls(field, terms, cap)

    # -- basic queries -------------------------------------------------

    def is_zero(self):
        return not self.terms

    def coeff(self, word):
        return self.terms.get(word, self.field.zero)

    def min_degree(self):
        if not self.terms:
            return None
        return min(len(w) for w in self.terms)

    def max_degree(self):
        if not self.terms:
            return None
        return max(len(w) for w in self.terms)

    def homogeneous_part(self, d):
        return FreePoly(self.field,
                        {w: c for w, c in self.terms.items() if len(w) == d},
                        self.cap)

    def constant_term(self):
        return self.terms.get(EMPTY, self.field.zero)

    def leading_word(self, order=_DEFAULT_ORDER):
        if not self.terms:
            return None
        return min(self.terms, key=order.leading_key)

    def leading_coeff(self, order=_DEFAULT_ORDER):
        w = self.leading_word(order)
        return self.field.zero if w is None else self.terms[w]

    # -- arithmetic ----------------------------------------------------

    def _require_same_field(self, other):
        if self.field != other.field:
            raise FieldError("mixed coefficient fields: %r vs %r"
                             % (self.field, other.field))

    def __add__(self, other):
        self._require_same_field(other)
        cap = _min_cap(self.cap, other.cap)
        terms = dict(self.terms)
        add = self.field.add
        for w, c in other.terms.items():
            terms[w] = add(terms[w], c) if w in terms else c
        return FreePoly(self.field, terms, cap)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        neg = self.field.neg
        return FreePoly(self.field,
                        {w: neg(c) for w, c in self.terms.items()}, self.cap)

    def scale(self, c):
        c = self.field.coerce(c)
        if not c:
            return FreePoly(self.field, {}, self.cap)
        mul = self.field.mul
        return FreePoly(self.field,
                        {w: mul(cc, c) for w, cc in self.terms.items()},
                        self.cap)

    def __mul__(self, other):
        if not isinstance(other, FreePoly):
            return NotImplemented
        return poly_mul(self, other)

    def with_cap(self, cap):
        """Reinterpret under a new cap, dropping the words above it."""
        return FreePoly(self.field, self.terms, cap)

    def monic(self, order=_DEFAULT_ORDER):
        lc = self.leading_coeff(order)
        if not lc:
            return self
        return self.scale(self.field.inv(lc))

    # -- comparison / display -------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FreePoly) and other.field == self.field
                and other.terms == self.terms)

    def __hash__(self):
        return hash((self.field, frozenset(self.terms.items())))

    def sorted_terms(self, order=_DEFAULT_ORDER):
        return sorted(self.terms.items(), key=lambda kv: order.sort_key(kv[0]))

    def __repr__(self):
        from .parsing import render
        return render(self)


def sum_terms(field, pairs, cap=None) -> FreePoly:
    """Sum of (word, coefficient) pairs, truncated at the cap.

    Words that sum to zero are dropped by the constructor, like words of
    degree above the cap.
    """
    terms = {}
    add = field.add
    for w, c in pairs:
        terms[w] = add(terms[w], c) if w in terms else c
    return FreePoly(field, terms, cap)


def poly_mul(f: FreePoly, g: FreePoly) -> FreePoly:
    """Product truncated at min(f.cap, g.cap)."""
    f._require_same_field(g)
    cap = _min_cap(f.cap, g.cap)
    field = f.field
    mul, add = field.mul, field.add
    terms = {}
    if cap is not None:
        gitems = sorted(g.terms.items(), key=lambda kv: len(kv[0]))
    else:
        gitems = list(g.terms.items())
    for u, cu in f.terms.items():
        budget = None if cap is None else cap - len(u)
        for v, cv in gitems:
            if budget is not None and len(v) > budget:
                break
            w = u + v
            c = mul(cu, cv)
            terms[w] = add(terms[w], c) if w in terms else c
    return FreePoly(field, terms, cap)


class Substitution:
    """Images of x and y with zero constant term, applied cap-truncated.

    Word images are cached as the module docstring says, each built from
    the image of its longest cached prefix.
    """

    __slots__ = ("field", "image_x", "image_y", "cap", "_images", "_fixed")

    def __init__(self, image_x: FreePoly, image_y: FreePoly, cap=None):
        image_x._require_same_field(image_y)
        if image_x.constant_term() or image_y.constant_term():
            raise ValueError("substitution images must have zero constant term")
        self.field = image_x.field
        self.cap = _min_cap(_min_cap(image_x.cap, image_y.cap), cap)
        self.image_x = image_x.with_cap(self.cap)
        self.image_y = image_y.with_cap(self.cap)
        # a letter's terms by length, so a product can stop at the cap
        self._images = {EMPTY: ({EMPTY: 1}, 1)}
        for ch, image in (("x", self.image_x), ("y", self.image_y)):
            num, D = integral(image.terms, self.field.characteristic)
            self._images[ch] = dict(sorted(num.items(),
                                           key=lambda t: len(t[0]))), D
        # with diagonal linear parts and every other term of degree >= e,
        # a word longer than cap + 1 - e maps to a multiple of itself
        e = min((len(v) for ch in "xy" for v in self._images[ch][0]
                 if v != ch), default=math.inf)
        self._fixed = math.inf if self.cap is None else self.cap + 1 - e

    @classmethod
    def linear(cls, a, b, c, d, field=QQ, cap=None):
        """x -> a x + b y, y -> c x + d y."""
        fx = FreePoly.from_terms({"x": a, "y": b}, field, cap)
        fy = FreePoly.from_terms({"x": c, "y": d}, field, cap)
        return cls(fx, fy, cap)

    def _image(self, w):
        """The image of w as (numerators, D); every prefix built on the
        way is cached, unless w maps to a multiple of itself."""
        images, p = self._images, self.field.characteristic
        top = math.inf if self.cap is None else self.cap
        if self._fixed < len(w) <= top:
            (x, dx), (y, dy) = images["x"], images["y"]
            i, j = w.count("x"), w.count("y")
            c = x.get("x", 0) ** i * y.get("y", 0) ** j
            if p:
                c %= p
            return {w: c} if c else {}, dx ** i * dy ** j
        k = len(w)
        while w[:k] not in images:
            k -= 1
        num, D = images[w[:k]]
        for ch in w[k:]:
            letter, d = images[ch]
            out = {}
            for u, a in num.items():
                budget = top - len(u)
                for v, b in letter.items():
                    if len(v) > budget:
                        break
                    out[u + v] = out.get(u + v, 0) + a * b
            if p:
                out = {v: a % p for v, a in out.items()}
            num = {v: a for v, a in out.items() if a}
            D *= d
            k += 1
            images[w[:k]] = num, D
        return num, D

    def __eq__(self, other):
        return (isinstance(other, Substitution)
                and other.image_x == self.image_x
                and other.image_y == self.image_y)

    def __repr__(self):
        from .parsing import render
        return "Substitution(x -> %s, y -> %s)" % (
            render(self.image_x), render(self.image_y))

    def to_json(self) -> dict:
        from .parsing import render
        return {"x": render(self.image_x), "y": render(self.image_y)}


def substitute(f: FreePoly, s: Substitution) -> FreePoly:
    """Evaluate f at the images of s, truncated at min(f.cap, s.cap).

    Rejects substitutions with nonzero constant images at construction
    time, so the result is well defined under truncation.
    """
    if f.field != s.field:
        raise FieldError("substitution field does not match polynomial field")
    p = f.field.characteristic
    fnum, fD = integral(f.terms, p)
    images = [(c, s._image(w)) for w, c in sorted(fnum.items())]
    L = math.lcm(*(D for _, (_, D) in images))
    acc = {}
    for c, (num, D) in images:
        c *= L // D
        for v, d in num.items():
            acc[v] = acc.get(v, 0) + c * d
    den = fD * L
    return FreePoly(f.field, {v: a % p if p else Fraction(a, den)
                              for v, a in acc.items()},
                    _min_cap(f.cap, s.cap))


def abelianize_cubic(f3: FreePoly):
    """Coefficients (of x^3, x^2 y, x y^2, y^3) after letting x, y commute.

    The input must be homogeneous of degree 3 (the zero polynomial counts).
    """
    F = f3.field
    buckets = [F.zero] * 4
    for w, c in f3.terms.items():
        if len(w) != 3:
            raise ValueError("abelianize_cubic needs a homogeneous cubic")
        buckets[w.count("y")] = F.add(buckets[w.count("y")], c)
    return tuple(buckets)
