"""Potentials and their cyclic calculus.

A potential is a FreePoly with zero constant term, considered as the
superpotential of a two-generator algebra. The two derivative conventions
are two functions:

* derive_simple: drop the leading letter of each word that starts with it.
* derive_ginzburg: for each occurrence of the letter, take the rotation
  that starts right after that occurrence (the cyclic derivative).

For any word w, ginzburg(w) = simple(cyclicize(w)); the two conventions
give the same relations on cyclically invariant inputs up to per-degree
scaling. derive_ginzburg and cyclic_symmetrize sum each rotation class
once, then derive or divide once per class. relations_of takes the
simple derivatives and leaves out the zero ones, so every relation it
returns can go to completion as is.
"""

from __future__ import annotations

import warnings

from .fields import FieldError
from .freepoly import FreePoly, sum_terms
from .words import MonomialOrder, rotations

_DEFAULT_ORDER = MonomialOrder()


def cyclicize(f: FreePoly) -> FreePoly:
    """Sum of all |w| rotations of every word, duplicates included.

    cyclicize(x^3) = 3 x^3 and cyclicize(xyxy) = 2 xyxy + 2 yxyx.
    Constant terms vanish (a degree-0 word has no rotations).
    """
    return sum_terms(f.field, ((r, c) for w, c in f.terms.items()
                               for r in rotations(w)), f.cap)


def cyclic_symmetrize(f: FreePoly) -> FreePoly:
    """Projection onto cyclically invariant polynomials: each word is
    replaced by the average of all its rotations, duplicates included.

    That gives each distinct rotation of a class the class sum over the
    number of distinct rotations, which is what is computed. In
    characteristic p a warning is emitted for p < 7, and FieldError is
    raised when p divides a word's length, even where the number of
    distinct rotations is a unit. Constant terms vanish, as under
    cyclicize.
    """
    F = f.field
    p = F.characteristic
    if 0 < p < 7:
        warnings.warn("characteristic %d < 7: cyclic averaging may divide "
                      "by vanishing word lengths" % p)
    if p:
        for w in f.terms:
            if w and len(w) % p == 0:
                raise FieldError("cannot average a degree-%d word in "
                                 "characteristic %d" % (len(w), p))
    terms = {}
    for w, c in _class_sums(f).items():
        k = (w + w).find(w, 1)   # the number of distinct rotations
        share = F.div(c, F.coerce(k))
        terms.update((w[i:] + w[:i], share) for i in range(k))
    return FreePoly(F, terms, f.cap)


def is_cyclically_invariant(f: FreePoly) -> bool:
    """True when every word has the same coefficient as its rotations."""
    for w, c in f.terms.items():
        if len(w) < 2:
            continue
        r = w[1:] + w[:1]
        if f.coeff(r) != c:
            return False
    return True


def derive_simple(f: FreePoly, letter: str) -> FreePoly:
    """Left derivative: keep words starting with the letter, drop it."""
    return sum_terms(f.field, ((w[1:], c) for w, c in f.terms.items()
                               if w.startswith(letter)), f.cap)


def _class_sums(f: FreePoly) -> dict:
    """The coefficient sum of each rotation class of f's words of
    positive degree, keyed by the first word of the class met, in the
    order met; classes that sum to zero are left out."""
    first = {}
    for w in f.terms:
        if w not in first:
            first.update(dict.fromkeys(rotations(w), w))
    return sum_terms(f.field, ((first[w], c) for w, c in f.terms.items()
                               if w)).terms


def derive_ginzburg(f: FreePoly, letter: str) -> FreePoly:
    """Cyclic derivative: sum over occurrences of the rotation starting
    just after the occurrence.

    A word and its rotations have the same cyclic derivative, so the
    coefficients of each rotation class are summed first and the first
    word of the class met is derived once: O(|w|^2) letters per class,
    where deriving every word of cyc(w) takes O(|w|^3).
    """
    return sum_terms(f.field, ((w[i + 1:] + w[:i], c)
                               for w, c in _class_sums(f).items()
                               for i, ch in enumerate(w) if ch == letter),
                     f.cap)


def _require_potential(f: FreePoly) -> None:
    if f.constant_term():
        raise ValueError("potential body must have zero constant term")


def relations_of(f: FreePoly, order: MonomialOrder = _DEFAULT_ORDER):
    """The nonzero simple derivatives of a potential, d/dx f then d/dy f.

    Each is scaled so that its leading coefficient under the order is 1.
    A zero derivative is left out, as it relates nothing, so a zero
    potential has no relations: the tuple is empty. A nonzero constant
    term raises ValueError.
    """
    _require_potential(f)
    derivatives = (derive_simple(f, "x"), derive_simple(f, "y"))
    return tuple(r.monic(order) for r in derivatives if not r.is_zero())

