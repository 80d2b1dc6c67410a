"""Finite-dimensional data of a truncated quotient algebra.

The quotient of the free algebra by a completed relation system has the
normal words as a filtered basis. h_n counts normal words of degree n;
factor closure of normal words makes a zero count propagate upward, so
the first empty degree certifies finiteness and bounds the nilpotency
index of the radical. The multiplication table of a finite quotient is
isotest.FiniteAlgebra, built by isotest.from_quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldError, ResourceCapError
from .rewrite import RewriteSystem, normal_words_by_degree


@dataclass
class QuotientAlgebra:
    system: RewriteSystem
    normal_basis: list          # words grouped by degree
    hilbert: tuple              # h_0..h_cap
    finite: bool
    first_empty_degree: object  # int or None
    growth: str                 # "finite" | "bounded-constant" | "growing"

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


def invariant_profile(Q: QuotientAlgebra, square_zero=False) -> dict:
    """Field-independent fingerprint used before any isomorphism search.

    The profile of the dense algebra (isotest.algebra_profile). The
    square-zero count |{a : a^2 = 0}| is only meaningful over a finite
    field; requesting it over the rationals raises FieldError. a^2 = 0
    forces the unit component to zero, so only the p^(dim-1) radical
    vectors are enumerated, within the brute-force budget.
    """
    from .isotest import (_BRUTE_BUDGET, _radical_candidates,
                          algebra_profile, from_quotient)
    p = Q.system.field.characteristic
    if square_zero and p == 0:
        raise FieldError("square-zero counting needs a finite field")
    F = from_quotient(Q)
    profile = algebra_profile(F)
    if square_zero:
        if p ** (F.dim - 1) > _BRUTE_BUDGET:
            raise ResourceCapError("%d square-zero candidates exceed the "
                                   "budget %d" % (p ** (F.dim - 1),
                                                  _BRUTE_BUDGET))
        profile["square_zero_count"] = sum(
            1 for a in _radical_candidates(F) if not any(F.mul(a, a)))
    return profile
