"""Truncated completion of two-sided ideals in the free algebra on x, y.

The engine reduces with primitive integer rules (lead, scale, tail),
each the polynomial scale * lead + tail: integer coefficients with the
content divided out and scale > 0 (over GF(p): residues and scale 1),
leading words selected by a MonomialOrder, tail terms in leading_key
order. The rule format is private to this module; its two integer
steps, integral and primitive, are linalg's. A RewriteSystem holds its
rules beside the monic FreePolys it shows: complete hands over the rules
it completed, and a system built from FreePolys reads each once.
Reduction keeps the pending terms as integer numerators over one common
denominator, on a heap keyed by the order's int leading_key, so a
rewriting step multiplies and subtracts integers and never normalises a
fraction.

All computations happen below a degree cap. Resolving every overlap and
inclusion ambiguity whose witness degree is at most the cap makes the
normal-word counts exact in each degree up to the cap; the recorded
complete_through = cap - max(leading degree) is the conservative
certificate carried by the system.

In local mode every rewrite replaces a word by words that are strictly
later in the order (same or higher degree), so reduction terminates below
any cap. Global mode is ordinary deglex and is offered as a cross-check;
it always runs under a cap as well.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .fields import QQ, FieldError, ResourceCapError
from .freepoly import FreePoly
from .linalg import Echelon, integral, primitive
from .words import MonomialOrder, all_words

_DEFAULT_ORDER = MonomialOrder()


@dataclass(frozen=True)
class Ambiguity:
    """An overlap or inclusion between two leading words.

    kind is "overlap" (a proper nonempty suffix of the left element's lead
    equals a proper prefix of the right's) or "inclusion" (the right lead
    is a factor of the left lead). witness is the common multiple word;
    left_at/right_at give the positions of the two leads inside it.
    """

    kind: str
    left: int
    right: int
    witness: str
    left_at: int
    right_at: int

    @property
    def degree(self):
        return len(self.witness)


class RewriteSystem:
    """An interreduced truncated rewriting system: monic FreePolys and
    the primitive rules of the same polynomials, read off the FreePolys
    given, or handed over by complete() through _of_rules."""

    __slots__ = ("elements", "rules", "order", "cap", "field")

    def __init__(self, elements, order, cap, field=None):
        self.elements = tuple(elements)
        self.rules = tuple(_rule(g, order) for g in self.elements)
        self.order = order
        self.cap = cap
        if self.elements:
            self.field = self.elements[0].field
        elif field is not None:
            self.field = field
        else:
            raise ValueError("an empty rewrite system needs an explicit field")

    @classmethod
    def _of_rules(cls, rules, field, order, cap):
        """The system of primitive rules, with their monic FreePolys."""
        system = cls((), order, cap, field)
        p = field.characteristic
        system.elements = tuple(
            FreePoly(field, dict([(lead, field.one)] + [
                (t, c if p else Fraction(c, scale)) for t, _, c in tail]), cap)
            for lead, scale, tail in rules)
        system.rules = tuple(rules)
        return system

    @property
    def leads(self):
        return [lead for lead, _, _ in self.rules]

    @property
    def complete_through(self):
        return self.cap - max(map(len, self.leads), default=0)

    def to_json(self) -> dict:
        from .parsing import render
        return {
            "order": self.order.to_json(),
            "cap": self.cap,
            "complete_through": self.complete_through,
            "field": self.field.name,
            "elements": [render(g, self.order) for g in self.elements],
            "leading_words": self.leads,
        }


def _lead_finder(leads):
    """Function mapping a word to (position, element index) of its leftmost
    lead occurrence, or None. At one position the lowest basis index wins:
    the alternatives of a regular expression are tried in the order they
    are listed, and the leads are listed in basis order."""
    index = {}
    for gi, lw in enumerate(leads):
        index.setdefault(lw, gi)
    search = re.compile("|".join(leads)).search

    def find(word):
        m = search(word) if word and leads else None
        return None if m is None else (m.start(), index[m.group()])
    return find


def _primitive_rule(terms, p):
    """The rule (lead, scale, tail) of the polynomial whose integer terms
    (over GF(p): residues) are listed in leading_key order; tail holds
    (word, length, coefficient) triples."""
    (lead, scale), *rest = primitive(terms, next(iter(terms)), p).items()
    return lead, scale, tuple((w, len(w), c) for w, c in rest)


def _rule(g, order):
    """The FreePoly g as the primitive rule lead -> -tail / scale, its
    tail in leading_key order: shortest words first in local mode, and
    none longer than the lead in global mode."""
    p = g.field.characteristic
    terms = dict(sorted(g.terms.items(),
                        key=lambda t: order.leading_key(t[0])))
    return _primitive_rule(integral(terms, p)[0], p)


def _reduce(cur, D, rules, order, cap, p):
    """Reduction of the terms cur by the rules, on integers over
    the common denominator D; cur is consumed. Returns the normal terms
    in leading_key order, over the final D, and that D. A finished term keeps
    the D it was popped at and is brought to the final one at the end."""
    find = _lead_finder([lead for lead, _, _ in rules])
    # the finder passes over the empty word, which a unit lead reduces
    unit = next(((0, gi) for gi, r in enumerate(rules) if not r[0]), None)
    key = order.leading_key
    heap = [(key(w), w) for w in cur]
    heapq.heapify(heap)
    done = []
    while heap:
        _, w = heapq.heappop(heap)
        c = cur.pop(w, 0)
        if not c:
            continue
        hit = find(w) if w else unit
        if hit is None:
            done.append((w, c, D))
            continue
        i, gi = hit
        lead, scale, tail = rules[gi]
        if scale != 1:
            g0 = gcd(c, scale)
            c, m = c // g0, scale // g0
            if m != 1:
                D *= m
                cur = {v: a * m for v, a in cur.items()}
        pre, post = w[:i], w[i + len(lead):]
        room = cap - len(pre) - len(post)
        # every nw comes later in the order than w, so a word already in
        # cur is still queued and only new words need a heap entry
        for t, lt, ct in tail:
            if lt > room:
                break
            nw = pre + t + post
            s = cur.get(nw, 0) - c * ct
            if p:
                s %= p
            if s:
                if nw not in cur:
                    heapq.heappush(heap, (key(nw), nw))
                cur[nw] = s
            else:
                del cur[nw]
    return {w: c * (D // d) for w, c, d in done}, D


def normal_form(f, system):
    """The FreePoly f reduced modulo the RewriteSystem system, most
    significant words first, as a FreePoly cut at the system's cap.

    Deterministic: at each step the earliest word in the order with a
    reducible occurrence is rewritten at its leftmost occurrence, trying
    elements in basis order.

    The pending terms are integers over one common denominator D (over
    GF(p): residues, with D = 1). Rewriting c w by a rule with integer
    tail h and scale L multiplies the pending terms and D by L / gcd(c, L)
    and subtracts c / gcd(c, L) times pre h post, so no step divides. A
    popped word that no lead divides is final, since every rewrite only
    produces later words.
    """
    p, cap = f.field.characteristic, system.cap
    cur, D = integral({w: c for w, c in f.terms.items() if len(w) <= cap}, p)
    out, D = _reduce(cur, D, system.rules, system.order, cap, p)
    return FreePoly(f.field, {w: c if p else Fraction(c, D)
                              for w, c in out.items()}, cap)


def _interreduce(rules, order, cap, p):
    """Full autoreduction of primitive rules: no lead divides another
    lead or any tail word. Deterministic processing by lead key: the
    first element that the others can reduce is replaced, then the pool
    is sorted again. An element none of whose words holds another lead is
    already normal, so it is passed over without reducing it."""
    pool = list(rules)
    changed = True
    while changed:
        changed = False
        pool.sort(key=lambda r: order.leading_key(r[0]))
        leads = [r[0] for r in pool]
        for i, (lead, scale, tail) in enumerate(pool):
            terms = dict([(lead, scale)] + [(t, c) for t, _, c in tail])
            text = "|".join(terms)
            if not any(lw in text for j, lw in enumerate(leads) if j != i):
                continue
            others = pool[:i] + pool[i + 1:]
            r, _ = _reduce(terms, 1, others, order, cap, p)
            r = _primitive_rule(r, p) if r else None
            if r != pool[i]:
                pool[i:i + 1] = [r] if r else []
                changed = True
                break
    # no other lead occurs in any element now, so only a tail that holds
    # its own lead is reduced, by the full system
    out = list(pool)
    for i, (lead, scale, tail) in enumerate(pool):
        if lead in "|".join([t for t, _, _ in tail]):
            r, D = _reduce({t: c for t, _, c in tail}, 1, pool, order, cap, p)
            out[i] = _primitive_rule({lead: scale * D, **r}, p)
    return out


def ambiguities(leads, cap):
    """All overlap/inclusion ambiguities between the leading words, with
    witness degree <= cap, sorted by (witness degree, discovery order)."""
    found = []
    for i, li in enumerate(leads):
        for j, lj in enumerate(leads):
            # overlap: proper nonempty suffix of li == proper prefix of lj
            for k in range(1, min(len(li), len(lj))):
                if li[-k:] == lj[:k]:
                    w = li + lj[k:]
                    if len(w) <= cap:
                        found.append(Ambiguity("overlap", i, j, w,
                                               0, len(li) - k))
            # inclusion: lj a proper factor of li
            if i != j and len(lj) < len(li):
                start = li.find(lj)
                while start != -1:
                    found.append(Ambiguity("inclusion", i, j, li, 0, start))
                    start = li.find(lj, start + 1)
    found.sort(key=lambda a: a.degree)
    return found


def s_polynomial(amb: Ambiguity, rules, cap, p):
    """Difference of the two one-step reductions of the witness, as a dict
    of integers: the difference times the lcm of the two scales; over
    GF(p), residues."""
    gi, gj = rules[amb.left], rules[amb.right]
    w = amb.witness
    scale = lcm(gi[1], gj[1])
    out = {}
    for (lead, s, tail), at, m in ((gi, amb.left_at, -1),
                                   (gj, amb.right_at, 1)):
        pre, post = w[:at], w[at + len(lead):]
        m *= scale // s
        for t, lt, c in tail:
            if len(pre) + lt + len(post) > cap:
                break
            v = pre + t + post
            out[v] = out.get(v, 0) + m * c
    return {v: c % p for v, c in out.items()} if p else out


def complete(relations, order=_DEFAULT_ORDER, cap=12) -> RewriteSystem:
    """Truncated completion of the two-sided ideal the relations generate.

    Requires cap >= the largest relation degree (its minimal degree in
    local mode). Ambiguities are processed in ascending witness degree,
    FIFO within a degree; the basis is interreduced, which also sorts it
    canonically, at the start and after every insertion. In finite
    characteristic an element whose every leading candidate has zero
    coefficient cannot be made monic and is reported. The basis is kept
    as primitive integer rules, which the returned system holds beside
    their monic FreePolys.

    Resolved ambiguities are remembered in done across insertions, keyed
    on the two rules themselves plus kind, witness and positions: while
    both elements survive unchanged the s-polynomial is the same, and an
    element rewritten by interreduction gives new keys, so its
    ambiguities are resolved again. Which resolved pairs are skipped, and
    in what order the rest are met, does not show in the output: the
    reduced complete basis of the truncated ideal is unique.
    """
    rels = []
    for r in relations:
        if r.is_zero():
            raise ValueError("zero relation given to complete()")
        r = r.truncated(cap)
        if r.is_zero():
            raise ValueError("cap %d drops a relation entirely" % cap)
        if not r.leading_coeff(order):
            raise FieldError("relation with vanishing leading coefficient "
                             "cannot be made monic")
        rels.append(_rule(r, order))
        field = r.field
    if not rels:
        # free algebra: nothing to resolve, counts are exact through cap
        return RewriteSystem([], order, cap, field=QQ)
    need = max(len(lead) for lead, _, _ in rels)
    if cap < need:
        raise ValueError("cap %d below max relation degree %d" % (cap, need))

    p = field.characteristic
    basis = _interreduce(rels, order, cap, p)
    done = set()
    progress = True
    while progress:
        progress = False
        for amb in ambiguities([lead for lead, _, _ in basis], cap):
            sig = (amb.kind, basis[amb.left], basis[amb.right], amb.witness,
                   amb.left_at, amb.right_at)
            if sig in done:
                continue
            s = s_polynomial(amb, basis, cap, p)
            r, _ = _reduce(s, 1, basis, order, cap, p)
            done.add(sig)
            if r:
                basis = _interreduce(basis + [_primitive_rule(r, p)],
                                     order, cap, p)
                progress = True
                break
    return RewriteSystem._of_rules(basis, field, order, cap)


def verify_complete(system: RewriteSystem) -> bool:
    """Every ambiguity with witness degree <= cap reduces to zero."""
    rules, order, cap = system.rules, system.order, system.cap
    p = system.field.characteristic
    return not any(
        _reduce(s_polynomial(amb, rules, cap, p), 1, rules, order, cap, p)[0]
        for amb in ambiguities(system.leads, cap))


# the most letters the normal words of one enumeration may hold; the
# tests, pins, benchmark jobs and reproduce reports stay below 1,000
_MAX_NORMAL_LETTERS = 1 << 22


def normal_words_by_degree(system: RewriteSystem, through=None):
    """Normal words grouped by degree, using factor closure degree by
    degree: a word is normal iff no leading word occurs in it. Raises
    ResourceCapError once the words hold more than _MAX_NORMAL_LETTERS
    letters."""
    cap = system.cap if through is None else min(through, system.cap)
    leads = set(system.leads)
    prec = system.order.precedence
    lead_lens = sorted({len(l) for l in leads})
    cur = [] if "" in leads else [""]   # a unit lead reduces every word
    out = [cur]
    held = 0
    for d in range(1, cap + 1):
        nxt = []
        for w in cur:
            for ch in prec:
                nw = w + ch
                ok = True
                for L in lead_lens:
                    if L <= len(nw) and nw[-L:] in leads:
                        ok = False
                        break
                if ok:
                    nxt.append(nw)
        out.append(nxt)
        cur = nxt
        held += d * len(nxt)
        if held > _MAX_NORMAL_LETTERS:
            raise ResourceCapError(
                "normal words through degree %d hold %d letters in %d "
                "words, over the limit of %d"
                % (d, held, sum(map(len, out)), _MAX_NORMAL_LETTERS))
    return out


_ORACLE_MAX_CAP = 12


def oracle_dimension(relations, cap, order=_DEFAULT_ORDER):
    """Per-degree dimensions by exact row reduction, no rewriting.

    Spans all truncated products u * r * v inside the word space of degree
    <= cap and counts non-pivot columns per degree, with columns ordered by
    the local order so pivots respect minimal degrees. Caps above 12 are
    refused: the row space grows as 4^cap.

    Local orders only. The row space is the truncation of the closure of
    the ideal, which is what a local quotient sees; pivoting it by a
    global order would report closure dimensions against the wrong
    quotient (x - x^2 telescopes to x in the closure, so the oracle would
    undercount the polynomial quotient of x^2 - x).
    """
    if order.mode != "local":
        raise ValueError("the dimension oracle is only sound for local "
                         "orders")
    if cap > _ORACLE_MAX_CAP:
        raise ResourceCapError("oracle cap %d exceeds %d" %
                               (cap, _ORACLE_MAX_CAP))
    rels = [r.truncated(cap) for r in relations if not r.is_zero()]
    rels = [r for r in rels if not r.is_zero()]
    ech = Echelon(rels[0].field if rels else QQ)
    # column i is the i-th word in the local order, so pivots are ints
    words = sorted((w for d in range(cap + 1) for w in all_words(d)),
                   key=order.leading_key)
    col = {w: i for i, w in enumerate(words)}

    prec = order.precedence
    for r in rels:
        terms = integral(r.terms, ech.p)[0].items()
        for total in range(cap - r.min_degree() + 1):
            for la in range(total + 1):
                lb = total - la
                for u in all_words(la, prec):
                    for v in all_words(lb, prec):
                        row = {col[u + w + v]: c for w, c in terms
                               if len(w) + total <= cap}
                        if row:
                            ech.add_integral(row)

    counts = [0] * (cap + 1)
    for i in ech.pivots:
        counts[len(words[i])] += 1
    return tuple(2 ** d - counts[d] for d in range(cap + 1))
