"""Truncated completion of two-sided ideals in the free algebra on x, y.

Elements are kept monic FreePolys with leading words selected by a
MonomialOrder. To reduce by them, each element is read once per order as
an integer rule: its leading word, and its tail times the lcm of the
tail's denominators. normal_form keeps the pending terms as integer
numerators over one common denominator, so a rewriting step multiplies
and subtracts integers and never normalises a fraction; each finished
coefficient becomes a field element once. Over GF(p) the same loop runs
on residues with denominator 1.

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
from .freepoly import FreePoly, sum_terms
from .linalg import Echelon
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
    """An interreduced truncated rewriting system."""

    __slots__ = ("elements", "order", "cap", "complete_through", "field")

    def __init__(self, elements, order, cap, complete_through=None, field=None):
        self.elements = tuple(elements)
        self.order = order
        self.cap = cap
        if self.elements:
            self.field = self.elements[0].field
        elif field is not None:
            self.field = field
        else:
            raise ValueError("an empty rewrite system needs an explicit field")
        if complete_through is None:
            if self.elements:
                maxlead = max(len(g.leading_word(order))
                              for g in self.elements)
                complete_through = cap - maxlead
            else:
                complete_through = cap
        self.complete_through = complete_through

    @property
    def leads(self):
        return [g.leading_word(self.order) for g in self.elements]

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


def _rule(g: FreePoly, order):
    """g as the rewrite rule lead -> -tail / scale, with an integer tail.

    Returns (lead, scale, tail): the leading word, the lcm of the tail's
    denominators (1 over GF(p)) and the (word, length, integer) triples
    of scale * (g - lead), shortest words first. The rule treats the lead
    coefficient as 1, so g is expected monic. Built once per element and
    order and kept on g.
    """
    memo = g._rule
    if memo is not None and memo[0] == order:
        return memo[1]
    lead = g.leading_word(order)
    pairs = [(t, c) for t, c in g.terms.items() if t != lead]
    scale = 1
    if not g.field.characteristic:
        scale = lcm(*(c.denominator for _, c in pairs))
        pairs = [(t, c.numerator * (scale // c.denominator))
                 for t, c in pairs]
    tail = tuple(sorted(((t, len(t), c) for t, c in pairs),
                        key=lambda e: e[1]))
    rule = (lead, scale, tail)
    g._rule = (order, rule)
    return rule


def normal_form(f: FreePoly, system) -> FreePoly:
    """Reduce f modulo the system, most significant words first.

    Deterministic: at each step the earliest word in the order with a
    reducible occurrence is rewritten at its leftmost occurrence, trying
    elements in basis order.

    The pending terms are integers over one common denominator D (over
    GF(p): residues, with D = 1). Rewriting c w by a rule with integer
    tail h and scale L multiplies the pending terms and D by L / gcd(c, L)
    and subtracts c / gcd(c, L) times pre h post, so no step divides. A
    popped word that no lead divides is final, since every rewrite only
    produces later words, and leaves as the field element c / D.
    """
    if isinstance(system, RewriteSystem):
        elements, order, cap = system.elements, system.order, system.cap
    else:
        elements, order, cap = system
    rules = [_rule(g, order) for g in elements]
    find = _lead_finder([lead for lead, _, _ in rules])
    field = f.field
    p = field.characteristic
    cur = {w: c for w, c in f.terms.items() if cap is None or len(w) <= cap}
    D = 1
    if not p:
        D = lcm(*(c.denominator for c in cur.values()))
        cur = {w: c.numerator * (D // c.denominator) for w, c in cur.items()}
    heap = [(order.leading_key(w), w) for w in cur]
    heapq.heapify(heap)
    out = {}
    while heap:
        _, w = heapq.heappop(heap)
        c = cur.pop(w, 0)
        if not c:
            continue
        hit = find(w)
        if hit is None:
            out[w] = c if p else Fraction(c, D)
            continue
        i, gi = hit
        lead, scale, tail = rules[gi]
        if scale != 1:
            g0 = gcd(c, scale)
            m = scale // g0
            c //= g0
            if m != 1:
                D *= m
                cur = {v: a * m for v, a in cur.items()}
        pre, post = w[:i], w[i + len(lead):]
        room = None if cap is None else cap - len(pre) - len(post)
        # every nw comes later in the order than w, so a word already in
        # cur is still queued and only new words need a heap entry
        for t, lt, ct in tail:
            if room is not None and lt > room:
                break
            nw = pre + t + post
            s = cur.get(nw, 0) - c * ct
            if p:
                s %= p
            if s:
                if nw not in cur:
                    heapq.heappush(heap, (order.leading_key(nw), nw))
                cur[nw] = s
            else:
                del cur[nw]
    return FreePoly(field, out, f.cap if cap is None else cap)


def _interreduce(elements, order, cap):
    """Full autoreduction: every element is monic, no lead divides another
    lead or any tail word. Deterministic processing by leading key: the
    first element that the others can reduce is replaced, then the pool
    is sorted again. An element none of whose words holds another lead is
    already normal, so it is passed over without calling normal_form."""
    def lead_key(g):
        return order.leading_key(_rule(g, order)[0])

    pool = [g for g in elements if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        pool.sort(key=lead_key)
        leads = [_rule(g, order)[0] for g in pool]
        for i, g in enumerate(pool):
            text = "|".join(g.terms)
            if not any(lw in text for j, lw in enumerate(leads) if j != i):
                continue
            others = pool[:i] + pool[i + 1:]
            r = normal_form(g, (others, order, cap))
            if r.is_zero():
                pool = others
                changed = True
                break
            r = r.monic(order)
            if r != g:
                pool[i] = r
                changed = True
                break
    # tail-reduce each element by the full system, own lead included
    out = []
    for g in sorted(pool, key=lead_key):
        lw = _rule(g, order)[0]
        tail = FreePoly(g.field,
                        {w: c for w, c in g.terms.items() if w != lw}, cap)
        tail = normal_form(tail, (pool, order, cap))
        out.append(FreePoly.term(lw, g.field.one, g.field, cap) + tail)
    return out


def ambiguities(elements, order, cap):
    """All overlap/inclusion ambiguities with witness degree <= cap,
    sorted by (witness degree, discovery order)."""
    leads = [_rule(g, order)[0] for g in elements]
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


def s_polynomial(amb: Ambiguity, elements, order, cap) -> FreePoly:
    """Difference of the two one-step reductions of the witness."""
    gi = elements[amb.left]
    gj = elements[amb.right]
    w = amb.witness

    def tail(g, at):
        """The non-leading terms of g, put in place of its lead in w."""
        lw = _rule(g, order)[0]
        pre, post = w[:at], w[at + len(lw):]
        return [(pre + t + post, c) for t, c in g.terms.items() if t != lw]

    neg = gi.field.neg
    return sum_terms(gi.field, [(v, neg(c)) for v, c in tail(gi, amb.left_at)]
                     + tail(gj, amb.right_at), cap)


def complete(relations, order=_DEFAULT_ORDER, cap=12) -> RewriteSystem:
    """Truncated completion of the two-sided ideal the relations generate.

    Requires cap >= the largest relation degree (its minimal degree in
    local mode). Ambiguities are processed in ascending witness degree,
    FIFO within a degree; the basis is interreduced after every insertion
    and canonically sorted at the end. In finite characteristic an element
    whose every leading candidate has zero coefficient cannot be made
    monic and is reported.

    Resolved ambiguities are remembered in done across insertions, keyed
    on the two element polynomials themselves plus kind, witness and
    positions: while both elements survive unchanged the s-polynomial is
    the same, and an element rewritten by interreduction gives new keys,
    so its ambiguities are resolved again. Which resolved pairs are
    skipped, and in what order the rest are met, does not show in the
    output: the reduced complete basis of the truncated ideal is unique.
    """
    rels = []
    for r in relations:
        if r.is_zero():
            raise ValueError("zero relation given to complete()")
        r = r.truncated(cap)
        if r.is_zero():
            raise ValueError("cap %d drops a relation entirely" % cap)
        lc = r.leading_coeff(order)
        if not lc:
            raise FieldError("relation with vanishing leading coefficient "
                             "cannot be made monic")
        rels.append(r.monic(order))
    if not rels:
        # free algebra: nothing to resolve, counts are exact through cap
        return RewriteSystem([], order, cap, field=QQ)
    need = max(len(r.leading_word(order)) for r in rels)
    if cap < need:
        raise ValueError("cap %d below max relation degree %d" % (cap, need))

    basis = _interreduce(rels, order, cap)
    done = set()
    progress = True
    while progress:
        progress = False
        for amb in ambiguities(basis, order, cap):
            sig = (amb.kind, basis[amb.left], basis[amb.right], amb.witness,
                   amb.left_at, amb.right_at)
            if sig in done:
                continue
            s = s_polynomial(amb, basis, order, cap)
            r = normal_form(s, (basis, order, cap))
            done.add(sig)
            if not r.is_zero():
                basis = _interreduce(basis + [r.monic(order)], order, cap)
                progress = True
                break

    basis = _interreduce(basis, order, cap)
    system = RewriteSystem(basis, order, cap)
    return system


def verify_complete(system: RewriteSystem) -> bool:
    """Every ambiguity with witness degree <= cap reduces to zero."""
    for amb in ambiguities(system.elements, system.order, system.cap):
        s = s_polynomial(amb, system.elements, system.order, system.cap)
        if not normal_form(s, system).is_zero():
            return False
    return True


def normal_words_by_degree(system: RewriteSystem, through=None):
    """Normal words grouped by degree, using factor closure degree by
    degree: a word is normal iff no leading word occurs in it."""
    cap = system.cap if through is None else min(through, system.cap)
    leads = set(system.leads)
    prec = system.order.precedence
    lead_lens = sorted({len(l) for l in leads})
    out = [[""]]
    cur = [""]
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
    ech = Echelon(rels[0].field if rels else QQ, order.leading_key)

    prec = order.precedence
    for r in rels:
        d = r.min_degree()
        budget = cap - d
        for total in range(budget + 1):
            for la in range(total + 1):
                lb = total - la
                for u in all_words(la, prec):
                    for v in all_words(lb, prec):
                        row = {}
                        for w, c in r.terms.items():
                            nw = u + w + v
                            if len(nw) <= cap:
                                row[nw] = c
                        if row:
                            ech.add(row)

    counts = [0] * (cap + 1)
    for w in ech.pivots:
        counts[len(w)] += 1
    return tuple(2 ** d - counts[d] for d in range(cap + 1))
