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

    __slots__ = ("precedence", "mode", "_bits", "_letters")

    def __init__(self, precedence: str = "xy", mode: str = "local"):
        if sorted(precedence) != ["x", "y"]:
            raise ValueError("precedence must be a permutation of 'xy'")
        if mode not in ("local", "global"):
            raise ValueError("mode must be 'local' or 'global'")
        self.precedence = precedence
        self.mode = mode
        # the preceding letter as binary digit 0, the other as 1
        self._bits = str.maketrans(precedence, "01")
        self._letters = str.maketrans("01", precedence)

    def sort_key(self, w: str) -> int:
        """Presentation order: degree ascending, lex-greatest first within
        a degree. Used for rendering and normal-basis listings. The key is
        the word's binary digits behind a leading 1, so shorter words come
        first and words of one length are read lex."""
        return int("1" + w.translate(self._bits), 2)

    def word(self, key: int) -> str:
        """The word whose sort_key is key."""
        return bin(key)[3:].translate(self._letters)

    def leading_key(self, w: str) -> int:
        """Key whose minimum over the support picks the leading word: the
        presentation key, less 3 * 2^|w| in global mode, which puts each
        length below every shorter one."""
        r = int("1" + w.translate(self._bits), 2)
        return r if self.mode == "local" else r - (3 << len(w))

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
