"""Potentials and their cyclic calculus.

A potential is a FreePoly with zero constant term, considered as the
superpotential of a two-generator algebra. The two derivative conventions
are two functions:

* derive_simple: drop the leading letter of each word that starts with it.
* derive_ginzburg: for each occurrence of the letter, take the rotation
  that starts right after that occurrence (the cyclic derivative).

For any word w, ginzburg(w) = simple(cyclicize(w)); the two conventions
give the same relations on cyclically invariant inputs up to per-degree
scaling. relations_of takes the simple derivatives and leaves out the
zero ones, so every relation it returns can go to completion as is.
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
    replaced by the average of its rotations.

    In characteristic p the division by word lengths can fail; a warning
    is emitted for p < 7 and FieldError raised when a length vanishes.
    Constant terms vanish, as under cyclicize.
    """
    F = f.field
    p = F.characteristic
    if 0 < p < 7:
        warnings.warn("characteristic %d < 7: cyclic averaging may divide "
                      "by vanishing word lengths" % p)

    def shares(w, c):
        n = len(w)
        if p and n % p == 0:
            raise FieldError("cannot average a degree-%d word in "
                             "characteristic %d" % (n, p))
        share = F.div(c, F.coerce(n))
        return ((r, share) for r in rotations(w))

    return sum_terms(F, (rc for w, c in f.terms.items() if w
                         for rc in shares(w, c)), f.cap)


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


def derive_ginzburg(f: FreePoly, letter: str) -> FreePoly:
    """Cyclic derivative: sum over occurrences of the rotation starting
    just after the occurrence.

    A word and its rotations have the same cyclic derivative, so the
    coefficients of each rotation class are summed first and the first
    word of the class met is derived once: O(|w|^2) letters per class,
    where deriving every word of cyc(w) takes O(|w|^3).
    """
    first = {}
    for w in f.terms:
        if w not in first:
            first.update(dict.fromkeys(rotations(w), w))
    classes = sum_terms(f.field, ((first[w], c) for w, c in f.terms.items()
                                  if w))
    return sum_terms(f.field, ((w[i + 1:] + w[:i], c)
                               for w, c in classes.terms.items()
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


def syzygy_residual(f: FreePoly):
    """The two universal syzygy candidates of a potential, simple mode.

    r1 = F - x dF/dx - y dF/dy vanishes identically.
    r2 = [x, dF/dx] + [y, dF/dy] vanishes exactly when F is cyclically
    invariant.
    """
    _require_potential(f)
    dx = derive_simple(f, "x")
    dy = derive_simple(f, "y")
    vx = FreePoly.var("x", f.field, f.cap)
    vy = FreePoly.var("y", f.field, f.cap)
    r1 = f - vx * dx - vy * dy
    r2 = (vx * dx - dx * vx) + (vy * dy - dy * vy)
    return r1, r2
