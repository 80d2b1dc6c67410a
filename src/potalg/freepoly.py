"""Noncommutative polynomials in x, y with exact coefficients and a cap.

A FreePoly stores a sparse map word -> nonzero coefficient together with a
truncation cap: words of degree above the cap are dropped on construction
and in every operation. cap=None means no truncation. Mixed-cap arithmetic
truncates at the minimum of the operand caps. Values are treated as
immutable; all operations return fresh objects. A FreePoly carries no
rewriting state: rewrite reads it into its own integer rule format.
"""

from __future__ import annotations

from .fields import QQ, FieldError
from .words import EMPTY, MonomialOrder

_DEFAULT_ORDER = MonomialOrder()


def _min_cap(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


class FreePoly:
    # _hash caches the hash; values are immutable, so it cannot go stale
    __slots__ = ("field", "terms", "cap", "_hash")

    def __init__(self, field, terms=None, cap=None):
        self.field = field
        self.cap = cap
        self._hash = None
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
    def one(cls, field=QQ, cap=None):
        return cls(field, {EMPTY: field.one}, cap)

    @classmethod
    def var(cls, letter, field=QQ, cap=None):
        if letter not in ("x", "y"):
            raise ValueError("unknown variable %r" % (letter,))
        return cls(field, {letter: field.one}, cap)

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

    def truncated(self, cap):
        return FreePoly(self.field, self.terms, _min_cap(self.cap, cap))

    def with_cap(self, cap):
        """Reinterpret under a new cap (may drop or re-admit nothing)."""
        return FreePoly(self.field, self.terms, cap)

    def monic(self, order=_DEFAULT_ORDER):
        lc = self.leading_coeff(order)
        if not lc:
            return self
        return self.scale(self.field.inv(lc))

    def map_coeffs(self, fn, field=None):
        return FreePoly(field or self.field,
                        {w: fn(c) for w, c in self.terms.items()}, self.cap)

    # -- comparison / display -------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, FreePoly) and other.field == self.field
                and other.terms == self.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, frozenset(self.terms.items())))
        return self._hash

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


def poly_mul(f: FreePoly, g: FreePoly, cap=None) -> FreePoly:
    """Product truncated at min(f.cap, g.cap, cap)."""
    f._require_same_field(g)
    cap = _min_cap(_min_cap(f.cap, g.cap), cap)
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

    then(t) composes: applying s.then(t) equals applying s, then t.
    """

    __slots__ = ("field", "image_x", "image_y", "cap", "_cache")

    def __init__(self, image_x: FreePoly, image_y: FreePoly, cap=None):
        image_x._require_same_field(image_y)
        if image_x.constant_term() or image_y.constant_term():
            raise ValueError("substitution images must have zero constant term")
        self.field = image_x.field
        self.cap = _min_cap(_min_cap(image_x.cap, image_y.cap), cap)
        self.image_x = image_x.truncated(self.cap)
        self.image_y = image_y.truncated(self.cap)
        self._cache = {EMPTY: FreePoly.one(self.field, self.cap),
                       "x": self.image_x, "y": self.image_y}

    @classmethod
    def identity(cls, field=QQ, cap=None):
        return cls(FreePoly.var("x", field, cap), FreePoly.var("y", field, cap))

    @classmethod
    def linear(cls, a, b, c, d, field=QQ, cap=None):
        """x -> a x + b y, y -> c x + d y."""
        fx = FreePoly.from_terms({"x": a, "y": b}, field, cap)
        fy = FreePoly.from_terms({"x": c, "y": d}, field, cap)
        return cls(fx, fy, cap)

    def linear_part(self):
        """Matrix ((a, b), (c, d)) of the degree-1 coefficients."""
        return ((self.image_x.coeff("x"), self.image_x.coeff("y")),
                (self.image_y.coeff("x"), self.image_y.coeff("y")))

    def apply_word(self, w: str) -> FreePoly:
        cache = self._cache
        got = cache.get(w)
        if got is not None:
            return got
        # build by longest cached prefix to reuse products
        half = cache.get(w[:-1])
        if half is None:
            half = self.apply_word(w[:-1])
        out = poly_mul(half, cache[w[-1]], self.cap)
        cache[w] = out
        return out

    def then(self, t: "Substitution") -> "Substitution":
        """Composite: apply self first, then t."""
        return Substitution(substitute(self.image_x, t),
                            substitute(self.image_y, t),
                            _min_cap(self.cap, t.cap))

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
    mul = f.field.mul
    return sum_terms(f.field, ((v, mul(d, c))
                               for w, c in sorted(f.terms.items())
                               for v, d in s.apply_word(w).terms.items()),
                     _min_cap(f.cap, s.cap))


def invert_substitution(s: Substitution, cap=None) -> Substitution:
    """Inverse substitution through the cap by fixed-point iteration.

    Requires an invertible linear part; raises FieldError otherwise. The
    result t satisfies substitute(substitute(v, s), t) = v for v in {x, y}
    up to the cap, and the same in the other composition order.
    """
    cap = _min_cap(cap, s.cap)
    if cap is None:
        raise ValueError("an explicit cap is required to invert")
    F = s.field
    (a, b), (c, d) = s.linear_part()
    det = F.sub(F.mul(a, d), F.mul(b, c))
    if not det:
        raise FieldError("substitution has singular linear part")
    inv_det = F.inv(det)
    # L^{-1} = (1/det) [[d, -b], [-c, a]]
    ia, ib = F.mul(d, inv_det), F.neg(F.mul(b, inv_det))
    ic, id_ = F.neg(F.mul(c, inv_det)), F.mul(a, inv_det)

    def linv(px, py):
        return (px.scale(ia) + py.scale(ib), px.scale(ic) + py.scale(id_))

    hx = FreePoly(F, {w: cc for w, cc in s.image_x.terms.items() if len(w) > 1},
                  cap)
    hy = FreePoly(F, {w: cc for w, cc in s.image_y.terms.items() if len(w) > 1},
                  cap)
    vx, vy = FreePoly.var("x", F, cap), FreePoly.var("y", F, cap)
    tx, ty = linv(vx, vy)
    for _ in range(cap):
        t = Substitution(tx, ty, cap)
        nx, ny = linv(vx - substitute(hx, t), vy - substitute(hy, t))
        if nx == tx and ny == ty:
            break
        tx, ty = nx, ny
    return Substitution(tx, ty, cap)


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
