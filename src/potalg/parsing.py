"""Concrete syntax for noncommutative polynomials.

Grammar (whitespace insignificant):

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := [rational] factor+
    factor   := ('x'|'y') ['^' nat] | 'cyc(' expr ')' | '(' expr ')'
    rational := int ['/' nat]

cyc(...) expands to the sum of all rotations of every word, duplicates
included. Exponent 0 is allowed outside cyc (an empty word contributes a
constant) but rejected inside, where degree-0 cyclic words make no sense.
Parentheses and cyc(...) nest at most MAX_NESTING deep, which keeps the
recursive descent far from Python's recursion limit. Without a cap no
word may be longer than MAX_DEGREE letters, whether from one power or a
product: the cyclic derivative of a word costs the square of its length.
No product may multiply out more than MAX_TERMS pairs of terms, since a
product of k binomials expands to 2^k words.
Syntax errors carry the 0-based offset of the offending character.
"""

from __future__ import annotations

from .fields import QQ
from .freepoly import FreePoly
from .words import MonomialOrder

_DEFAULT_ORDER = MonomialOrder()
MAX_NESTING = 100
MAX_DEGREE = 1000
MAX_TERMS = 10_000


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at offset %d)" % (message, position))
        self.message = message
        self.position = position


class _Parser:
    def __init__(self, text: str, field, cap):
        self.text = text
        self.field = field
        self.cap = cap
        self.pos = 0
        self.in_cyc = 0
        self.depth = 0

    def error(self, message, position=None):
        raise ParseError(message, self.pos if position is None else position)

    def check_degree(self, degree, position):
        if self.cap is None and degree > MAX_DEGREE:
            self.error("words are limited to %d letters when there is "
                       "no cap" % MAX_DEGREE, position)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self) -> FreePoly:
        poly = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("unexpected trailing input")
        return poly

    def parse_expr(self) -> FreePoly:
        sign = 1
        ch = self.peek()
        if ch in ("+", "-"):
            self.take()
            sign = -1 if ch == "-" else 1
        poly = self.parse_term().scale(sign)
        while True:
            ch = self.peek()
            if ch not in ("+", "-"):
                break
            self.take()
            nxt = self.parse_term()
            poly = poly - nxt if ch == "-" else poly + nxt
        return poly

    def parse_term(self) -> FreePoly:
        coeff = self.field.one
        explicit = False
        if self.peek().isdigit():
            coeff = self.parse_rational()
            explicit = True
        poly = None
        while True:
            ch = self.peek()
            if ch in ("x", "y") or ch == "(" or self.text.startswith("cyc", self.pos):
                at = self.pos
                factor = self.parse_factor()
                if poly is not None and poly.terms and factor.terms:
                    self.check_degree(poly.max_degree() + factor.max_degree(),
                                      at)
                    if len(poly.terms) * len(factor.terms) > MAX_TERMS:
                        self.error("a product may multiply out at most %d "
                                   "pairs of terms" % MAX_TERMS, at)
                poly = factor if poly is None else poly * factor
            else:
                break
        if poly is None:
            if explicit:
                # bare rational: a degree-0 term
                return FreePoly(self.field, {"": coeff}, self.cap)
            self.error("expected a factor")
        return poly.scale(coeff)

    def parse_rational(self):
        start = self.pos
        num = self.parse_int()
        den = 1
        if self.peek() == "/":
            self.take()
            if not self.peek().isdigit():
                self.error("expected digits after '/'")
            den = self.parse_int()
            if den == 0:
                self.error("zero denominator", start)
        from fractions import Fraction
        return self.field.coerce(Fraction(num, den))

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected digits")
        return int(self.text[start:self.pos])

    def parse_group(self) -> FreePoly:
        """The expression up to the matching ')', after its '('."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("parentheses nest deeper than %d" % MAX_NESTING)
        inner = self.parse_expr()
        if self.peek() != ")":
            self.error("expected ')'")
        self.take()
        self.depth -= 1
        return inner

    def parse_factor(self) -> FreePoly:
        self.skip_ws()
        if self.text.startswith("cyc", self.pos):
            after = self.pos + 3
            probe = after
            while probe < len(self.text) and self.text[probe].isspace():
                probe += 1
            if probe < len(self.text) and self.text[probe] == "(":
                cyc_at = self.pos
                self.pos = probe + 1
                self.in_cyc += 1
                inner = self.parse_group()
                self.in_cyc -= 1
                if inner.constant_term():
                    self.error("cyc of a polynomial with a constant term",
                               cyc_at)
                from .potential import cyclicize
                return cyclicize(inner)
        ch = self.peek()
        if ch == "(":
            self.take()
            return self.parse_group()
        if ch in ("x", "y"):
            at = self.pos
            self.take()
            exp = 1
            if self.peek() == "^":
                self.take()
                if not self.peek().isdigit():
                    self.error("expected exponent digits")
                exp_at = self.pos
                exp = self.parse_int()
                if exp == 0 and self.in_cyc:
                    self.error("exponent 0 on a variable inside cyc", exp_at)
            if self.cap is not None and exp > self.cap:
                return FreePoly.zero(self.field, self.cap)
            self.check_degree(exp, at)
            return FreePoly.term(ch * exp, self.field.one, self.field,
                                 self.cap)
        self.error("expected 'x', 'y', '(' or 'cyc('")


def parse_poly(text: str, field=QQ, cap=None) -> FreePoly:
    """Parse the expression grammar into a FreePoly over the given field."""
    return _Parser(text, field, cap).parse()


def _render_word(w: str) -> str:
    if not w:
        return "1"
    parts = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        run = j - i
        parts.append(w[i] if run == 1 else "%s^%d" % (w[i], run))
        i = j
    return " ".join(parts)


def render(f: FreePoly, order: MonomialOrder = _DEFAULT_ORDER) -> str:
    """Deterministic display: degree ascending, lex-greatest first within
    a degree; integral and fractional coefficients as produced by the
    field. render and parse_poly are mutually inverse on their ranges."""
    if f.is_zero():
        return "0"
    field = f.field
    chunks = []
    for w, c in f.sorted_terms(order):
        s = field.to_str(c)
        neg = s.startswith("-")
        if neg:
            s = s[1:]
        if w and s == "1":
            body = _render_word(w)
        elif not w:
            body = s
        else:
            body = "%s %s" % (s, _render_word(w))
        if not chunks:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)
