"""Words in the free monoid on x, y and the monomial orders used throughout.

Words are plain strings over the alphabet {"x", "y"}; "" is the empty word.
A MonomialOrder fixes a variable precedence ("xy" means x > y) and a mode:

* "local": the leading word of a polynomial is the lex-greatest word among
  those of minimal degree, matching power-series conventions where low
  degree terms dominate.
* "global": the leading word is the lex-greatest among the maximal-degree
  words (ordinary deglex), used as a cross-check only.
"""

from __future__ import annotations

import itertools

ALPHABET = "xy"
EMPTY = ""


def rotations(w: str) -> list:
    """All |w| rotations of w, in shift order; duplicates are kept."""
    return [w[i:] + w[:i] for i in range(len(w))]


def all_words(degree: int, precedence: str = "xy") -> list:
    """Words of the given degree in lex order by the given precedence."""
    if degree == 0:
        return [EMPTY]
    return ["".join(t) for t in itertools.product(precedence, repeat=degree)]


class MonomialOrder:
    """Variable precedence plus a local/global leading-term convention."""

    __slots__ = ("precedence", "mode", "_swap")

    def __init__(self, precedence: str = "xy", mode: str = "local"):
        if sorted(precedence) != ["x", "y"]:
            raise ValueError("precedence must be a permutation of 'xy'")
        if mode not in ("local", "global"):
            raise ValueError("mode must be 'local' or 'global'")
        self.precedence = precedence
        self.mode = mode
        # relabel so that plain string order is precedence order ("x" < "y")
        self._swap = str.maketrans("xy", "yx") if precedence == "yx" else None

    def sort_key(self, w: str) -> tuple:
        """Presentation order: degree ascending, lex-greatest first within
        a degree. Used for rendering and normal-basis listings."""
        if self._swap is not None:
            w = w.translate(self._swap)
        return (len(w), w)

    def leading_key(self, w: str):
        """Key whose minimum over the support picks the leading word."""
        if self._swap is not None:
            w = w.translate(self._swap)
        if self.mode == "local":
            return (len(w), w)
        return (-len(w), w)

    def __eq__(self, other):
        return (isinstance(other, MonomialOrder)
                and other.precedence == self.precedence
                and other.mode == self.mode)

    def __hash__(self):
        return hash((self.precedence, self.mode))

    def __repr__(self):
        return "MonomialOrder(%r, %r)" % (self.precedence, self.mode)

    def to_json(self) -> dict:
        return {"precedence": self.precedence, "mode": self.mode}
