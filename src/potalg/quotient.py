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

from .rewrite import RewriteSystem, normal_words_by_degree


@dataclass
class QuotientAlgebra:
    """Hilbert data of a truncated quotient. finite is True when an empty
    degree certifies it, else None, never False: a truncation cannot
    prove that an algebra is infinite."""
    system: RewriteSystem
    normal_basis: list          # words grouped by degree
    hilbert: tuple              # h_0..h_cap
    finite: object              # True or None
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
        finite = None
        tail = h[-3:]
        growth = "bounded-constant" if len(set(tail)) == 1 else "growing"
    return QuotientAlgebra(system, layers, h, finite, first_empty, growth)
