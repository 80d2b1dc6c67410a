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

    Finiteness is claimed at the first empty degree d: factor closure
    empties every higher degree, which is asserted rather than assumed.
    Let I be the ideal of the relations and m that of the words of
    positive degree. In local mode the counts through the cap are exact
    for F/(I + m^(cap+1)), and every word of degree d rewrites to later
    words, so m^d lies in I + m^(d+1), hence in I + m^(d+k) for every k,
    and in I by Nakayama's lemma, I being closed among power series
    (finite determinacy; Greuel-Pfister, A Singular Introduction to
    Commutative Algebra). Then I + m^(cap+1) = I: no higher cap can
    change the counts. In global mode no term is cut, so every rule lies
    in I, every word of degree d or more holds a lead, and the normal
    words below d span F/I, which is therefore finite. The total is
    exact once cap >= 2L - 1, L the longest lead: every overlap of two
    leads then has its witness within the cap (an inclusion's is at
    most L), so all were resolved (Bergman's diamond lemma).
    """
    layers = normal_words_by_degree(system)
    h = tuple(len(layer) for layer in layers)
    first_empty = next((d for d, hd in enumerate(h) if hd == 0), None)
    if first_empty is not None:
        if any(h[first_empty:]):
            raise AssertionError("normal word count rose after an empty "
                                 "degree; monotone vanishing violated")
        finite, growth = True, "finite"
        layers = layers[:first_empty]
    else:
        finite = None
        tail = h[-3:]
        growth = "bounded-constant" if len(set(tail)) == 1 else "growing"
    return QuotientAlgebra(system, layers, h, finite, first_empty, growth)
