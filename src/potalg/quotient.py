"""Finite-dimensional data of a truncated quotient algebra.

The quotient of the free algebra by a completed relation system has the
normal words as a filtered basis. h_n counts normal words of degree n;
factor closure of normal words makes a zero count propagate upward, so
the first empty degree certifies finiteness and bounds the nilpotency
index of the radical.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldError
from .freepoly import FreePoly
from .rewrite import RewriteSystem, normal_form, normal_words_by_degree

_ASSOC_EXHAUSTIVE_LIMIT = 12


def _word_label(w: str) -> str:
    return w if w else "1"


@dataclass
class QuotientAlgebra:
    system: RewriteSystem
    normal_basis: list          # words grouped by degree
    hilbert: tuple              # h_0..h_cap
    finite: bool
    first_empty_degree: object  # int or None
    growth: str                 # "finite" | "bounded-constant" | "growing"
    table: object = None        # {(u, v): FreePoly} when finite and built

    @property
    def basis_words(self):
        return [w for layer in self.normal_basis for w in layer]

    @property
    def dimension(self):
        if not self.finite:
            return None
        return sum(self.hilbert)

    @property
    def nilpotency_index(self):
        return self.first_empty_degree

    def to_json(self) -> dict:
        from .parsing import render
        doc = {
            "field": self.system.field.name,
            "order": self.system.order.to_json(),
            "cap": self.system.cap,
            "complete_through": self.system.complete_through,
            "hilbert": list(self.hilbert),
            "finite": self.finite,
            "growth": self.growth,
            "relations": [render(g, self.system.order)
                          for g in self.system.elements],
            "leading_words": self.system.leads,
        }
        if self.finite:
            doc["total_dimension"] = self.dimension
            doc["first_empty_degree"] = self.first_empty_degree
            doc["basis"] = [_word_label(w) for w in self.basis_words]
        if self.table is not None:
            ser = {}
            words = self.basis_words
            for (u, v), p in self.table.items():
                key = "%s,%s" % (_word_label(u), _word_label(v))
                ser[key] = [self.system.field.to_str(p.coeff(w))
                            for w in words]
            doc["table"] = ser
        return doc


def hilbert(system: RewriteSystem) -> QuotientAlgebra:
    """Normal-word counts through the cap, with a finiteness verdict.

    Counts are exact in every degree up to the cap once the completion has
    resolved all ambiguities below it. Finiteness is claimed as soon as a
    degree is empty: factor closure then empties all higher degrees, which
    is asserted rather than assumed.
    """
    layers = normal_words_by_degree(system)
    h = tuple(len(layer) for layer in layers)
    first_empty = None
    for d, hd in enumerate(h):
        if hd == 0:
            first_empty = d
            break
    if first_empty is not None:
        for d in range(first_empty, len(h)):
            if h[d] != 0:
                raise AssertionError("normal word count rose after an empty "
                                     "degree; monotone vanishing violated")
        finite = True
        growth = "finite"
        layers = layers[:first_empty]
    else:
        finite = False
        tail = h[-3:]
        growth = "bounded-constant" if len(set(tail)) == 1 else "growing"
    return QuotientAlgebra(system, layers, h, finite, first_empty, growth)


def _product(system, u, v):
    f = FreePoly.term(u + v, system.field.one, system.field, system.cap)
    return normal_form(f, system)


def mult_table(Q: QuotientAlgebra, workers: int = 1) -> QuotientAlgebra:
    """Structure constants on the normal basis. Requires finiteness.

    Products of basis words whose degree exceeds the cap are genuinely
    zero: their normal forms would live in empty degrees. workers is
    accepted and ignored; a thread pool over the products measured no
    gain, since normal forms hold the interpreter lock.
    """
    if not Q.finite:
        raise ValueError("multiplication table of an infinite algebra")
    words = Q.basis_words
    Q.table = {(u, v): _product(Q.system, u, v) for u in words for v in words}
    _check_table_closure(Q)
    return Q


def _check_table_closure(Q):
    basis = set(Q.basis_words)
    for (u, v), p in Q.table.items():
        for w in p.terms:
            if w not in basis:
                raise AssertionError("product %r * %r left the normal basis"
                                     % (u, v))


def check_associative(Q: QuotientAlgebra) -> bool:
    """Exhaustive associativity check through the table (dim <= 12)."""
    if Q.table is None:
        mult_table(Q)
    words = Q.basis_words
    if len(words) > _ASSOC_EXHAUSTIVE_LIMIT:
        raise ValueError("exhaustive associativity limited to dim <= %d"
                         % _ASSOC_EXHAUSTIVE_LIMIT)
    table = Q.table

    def times(p: FreePoly, v: str) -> FreePoly:
        out = FreePoly.zero(Q.system.field, Q.system.cap)
        for w, c in p.terms.items():
            out = out + table[(w, v)].scale(c)
        return out

    for u in words:
        for v in words:
            uv = table[(u, v)]
            for w in words:
                left = times(uv, w)
                right_p = table[(v, w)]
                right = FreePoly.zero(Q.system.field, Q.system.cap)
                for t, c in right_p.terms.items():
                    right = right + table[(u, t)].scale(c)
                if left != right:
                    return False
    return True


def invariant_profile(Q: QuotientAlgebra, square_zero=False) -> dict:
    """Field-independent fingerprint used before any isomorphism search.

    The profile of the dense algebra (isotest.algebra_profile). The
    square-zero count is only meaningful over a finite field; requesting
    it over the rationals raises FieldError.
    """
    from .isotest import algebra_profile, from_quotient
    profile = algebra_profile(from_quotient(Q))
    if square_zero:
        if Q.system.field.characteristic == 0:
            raise FieldError("square-zero counting needs a finite field")
        profile["square_zero_count"] = _square_zero_count(Q)
    return profile


def _square_zero_count(Q):
    """|{a : a^2 = 0}|. Unit components are forced to zero, so only
    radical vectors are enumerated: p^(dim-1) candidates."""
    field = Q.system.field
    p = field.characteristic
    words = Q.basis_words
    rad = [w for w in words if len(w) > 0]
    count = 0

    def square_is_zero(coeffs):
        acc = {}
        for (i, wi) in enumerate(rad):
            ci = coeffs[i]
            if not ci:
                continue
            for (j, wj) in enumerate(rad):
                cj = coeffs[j]
                if not cj:
                    continue
                prod = Q.table[(wi, wj)]
                scale = field.mul(ci, cj)
                for w, c in prod.terms.items():
                    acc[w] = field.add(acc.get(w, field.zero),
                                       field.mul(scale, c))
        return all(not v for v in acc.values())

    total = p ** len(rad)
    for idx in range(total):
        coeffs = []
        t = idx
        for _ in rad:
            coeffs.append(t % p)
            t //= p
        if square_is_zero(coeffs):
            count += 1
    return count
