"""Truncated completion of two-sided ideals in the free algebra on x, y.

The engine reduces with primitive integer rules (lead, scale, tail),
each the polynomial scale * lead + tail: integer coefficients with the
content divided out and scale > 0 (over GF(p): residues and scale 1),
leading words selected by a MonomialOrder, tail terms in leading_key
order. A word is an int in here, its code: the order's sort_key, binary
digits behind a leading 1, so pre + t + post takes a few shifts, and
heap keys are codes (less 3 << length in global mode: the leading_key).
Strings are only in a RewriteSystem's elements, leads and to_json, in
normal_form's FreePoly and in the public ambiguity search over the
leads. The rule format is private to this module; its two integer steps,
integral and primitive, are linalg's. A RewriteSystem holds its rules
beside the monic FreePolys it shows: complete hands over the rules it
completed, and a system built from FreePolys reads each once. Reduction
keeps the pending terms as integer numerators over one common
denominator, so a rewriting step multiplies and subtracts integers and
never normalises a fraction. Its caches last for one basis of one
completion, or for one normal_form call.

All computations happen below a degree cap, that is in the free algebra
modulo the words longer than the cap. Resolving every overlap and
inclusion ambiguity whose witness degree is at most the cap makes the
normal-word counts exact in each degree up to the cap; the recorded
complete_through = cap - max(leading degree) is the conservative
certificate carried by the system.

Completion is exact by Bergman's diamond lemma (Adv. Math. 1978): once
every ambiguity is resolvable relative to the order (its s-polynomial is
a combination of rules applied below the witness), reduction is
confluent. complete keeps the leads minimal, no lead a factor of
another, so no inclusion arises; and it skips an overlap whose witness
holds a lead touching neither end (the chain criterion of Gebauer and
Möller, JSC 1988; Mora, TCS 1994, for the free algebra). Such a lead
is not a factor of either lead of the pair, so it overlaps both; the
two sub-overlaps have shorter witnesses, are met first, and their
resolutions add up to one of the skipped overlap, by induction on the
witness length. Inclusions are never skipped. A rule taken out because
its lead holds a new lead lies in the ideal of the rules that remain,
below its lead, so what was resolved stays resolved. Tails are left
unreduced until the system is complete; then reduction gives every word
its one normal form, so one reduction of each tail yields lead - NF(lead)
for each minimal lead: the unique reduced basis, whatever the path.

In local mode every rewrite replaces a word by words that are strictly
later in the order (same or higher degree), so reduction terminates below
any cap. Global mode is ordinary deglex and is offered as a cross-check;
it always runs under a cap as well.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .fields import QQ, ResourceCapError
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
        p, word = field.characteristic, order.word
        system.elements = tuple(
            FreePoly(field, dict([(word(lead), field.one)] + [
                (word(t | 1 << lt), c if p else Fraction(c, scale))
                for t, lt, c in tail]), cap)
            for lead, scale, tail in rules)
        system.rules = tuple(rules)
        return system

    @property
    def leads(self):
        return [self.order.word(lead) for lead, _, _ in self.rules]

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
    """Function mapping a word code to (position, element index) of its
    leftmost lead occurrence, or None: one regular expression, a group per
    lead (codes too), over the digits behind the leading 1. Alternatives
    are tried in the order listed, so the lowest index wins at a position."""
    search = re.compile("|".join("(%s)" % bin(lead)[3:]
                                 for lead in leads)).search

    def find(code):
        m = search(bin(code)[3:]) if leads else None
        return None if m is None else (m.start(), m.lastindex - 1)
    return find


def _primitive_rule(terms, p):
    """The rule (lead, scale, tail) of the polynomial whose integer terms
    (over GF(p): residues) are keyed by code in leading_key order; tail
    holds (code without its leading 1, length, coefficient) triples."""
    (lead, scale), *rest = primitive(terms, next(iter(terms)), p).items()
    return lead, scale, tuple((w ^ 1 << w.bit_length() - 1,
                               w.bit_length() - 1, c) for w, c in rest)


def _rule(g, order):
    """The FreePoly g as the primitive rule lead -> -tail / scale, its
    tail in leading_key order: shortest words first in local mode, and
    none longer than the lead in global mode."""
    p = g.field.characteristic
    terms = {order.sort_key(w): c for w, c in
             sorted(g.terms.items(), key=lambda t: order.leading_key(t[0]))}
    return _primitive_rule(integral(terms, p)[0], p)


def _kernel(rules, order, cap, p):
    """reduce(cur, D): the reduction by the rules of one basis, with its
    caches (the lead finder; each word's leftmost hit, packed as position
    << width | rule index, -1 if normal). It consumes the integer terms
    cur (code -> numerator) over the common denominator D (over GF(p):
    residues, D = 1) and returns the normal terms in leading_key order over
    the final D, and that D. Rewriting c w by a rule of scale L multiplies
    the pending terms and D by L / gcd(c, L) and subtracts c / gcd(c, L)
    times pre tail post, so no step divides."""
    find = _lead_finder([lead for lead, _, _ in rules])
    width, memo = len(rules).bit_length(), {}
    glob = order.mode == "global"

    def reduce(cur, D):
        heap = [w - (3 << w.bit_length() - 1) if glob else w for w in cur]
        heapify(heap)
        done = []
        while heap:
            w = heappop(heap)
            if glob:
                w += 3 << (~w).bit_length() - 1
            c = cur.pop(w, 0)
            if not c:
                continue
            hit = memo.get(w)
            if hit is None:
                hit = find(w)
                hit = memo[w] = -1 if hit is None else hit[0] << width | hit[1]
            if hit < 0:
                done.append((w, c, D))
                continue
            lead, scale, tail = rules[hit & (1 << width) - 1]
            if scale != 1:
                g0 = gcd(c, scale)
                c, m = c // g0, scale // g0
                if m != 1:
                    D *= m
                    cur = {v: a * m for v, a in cur.items()}
            # w is pre, lead, post: rest letters outside the lead, k in post
            rest = w.bit_length() - lead.bit_length()
            k, room = rest - (hit >> width), cap - rest
            pre, post = w >> (lead.bit_length() - 1 + k), w & (1 << k) - 1
            # every nw comes later in the order than w, so a word already in
            # cur is still queued and only new words need a heap entry
            for t, lt, ct in tail:
                if lt > room:
                    break
                nw = (pre << lt | t) << k | post
                s = cur.get(nw)
                if s is None:
                    heappush(heap, nw - (3 << rest + lt) if glob else nw)
                    cur[nw] = -c * ct % p if p else -c * ct
                    continue
                s -= c * ct
                if p:
                    s %= p
                if s:
                    cur[nw] = s
                else:
                    del cur[nw]
        return {w: c * (D // d) for w, c, d in done}, D
    return reduce


def normal_form(f, system):
    """The FreePoly f reduced modulo the RewriteSystem system, most
    significant words first, as a FreePoly cut at the system's cap.

    Deterministic: at each step the earliest word in the order with a
    reducible occurrence is rewritten at its leftmost occurrence, trying
    elements in basis order. A popped word that no lead divides is final,
    since every rewrite only produces later words.
    """
    p, cap, order = f.field.characteristic, system.cap, system.order
    cur, D = integral({order.sort_key(w): c for w, c in f.terms.items()
                       if len(w) <= cap}, p)
    out, D = _kernel(system.rules, order, cap, p)(cur, D)
    return FreePoly(f.field, {order.word(w): c if p else Fraction(c, D)
                              for w, c in out.items()}, cap)


def _insert(basis, new, order, cap, p):
    """The rules basis with the rules new inserted, keeping the leads
    minimal: a rule whose lead holds another lead is reduced first (and
    dropped at zero), and then every rule whose lead holds its lead is
    taken out and inserted again the same way. Tails are left as they
    are. The result is sorted by lead key."""
    basis, todo, word = list(basis), list(new), order.word
    while todo:
        r = todo.pop()
        held = word(r[0])
        if any(word(g[0]) in held for g in basis):
            terms = {r[0]: r[1], **{t | 1 << lt: c for t, lt, c in r[2]}}
            terms, _ = _kernel(basis, order, cap, p)(terms, 1)
            if not terms:
                continue
            r = _primitive_rule(terms, p)
            held = word(r[0])
        todo += [g for g in basis if held in word(g[0])]
        basis = [g for g in basis if held not in word(g[0])] + [r]
    basis.sort(key=lambda g: order.leading_key(word(g[0])))
    return basis


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
            # inclusion: lj a proper factor of li, or a later equal lead
            if len(lj) < len(li) or lj == li and i < j:
                start = li.find(lj)
                while start != -1:
                    found.append(Ambiguity("inclusion", i, j, li, 0, start))
                    start = li.find(lj, start + 1)
    found.sort(key=lambda a: a.degree)
    return found


def s_polynomial(amb: Ambiguity, rules, cap, p):
    """Difference of the two one-step reductions of the witness, as a dict
    of integers keyed by word code: the difference times the lcm of the
    two scales; over GF(p), residues."""
    gi, gj = rules[amb.left], rules[amb.right]
    n = amb.degree
    # the left lead starts the witness; the right one's last r letters end it
    r = n + 1 - gi[0].bit_length()
    w = gi[0] << r | gj[0] & (1 << r) - 1
    scale = lcm(gi[1], gj[1])
    out = {}
    for (lead, s, tail), at, m in ((gi, amb.left_at, -1),
                                   (gj, amb.right_at, 1)):
        k = n + 1 - at - lead.bit_length()
        pre, post = w >> n - at, w & (1 << k) - 1
        m *= scale // s
        for t, lt, c in tail:
            if n + 1 - lead.bit_length() + lt > cap:
                break
            v = (pre << lt | t) << k | post
            out[v] = out.get(v, 0) + m * c
    return {v: c % p for v, c in out.items()} if p else out


def complete(relations, order=_DEFAULT_ORDER, cap=12) -> RewriteSystem:
    """Truncated completion of the two-sided ideal the relations generate.

    Requires cap >= the largest relation degree (its minimal degree in
    local mode). The basis is kept as primitive integer rules, which the
    returned system holds beside their monic FreePolys.

    The relations and every new element go in through _insert, which
    keeps the leads minimal and leaves tails alone. Ambiguities are
    processed in ascending witness degree, FIFO within a degree, and an
    overlap with a lead strictly inside its witness is skipped (the chain
    criterion; the module docstring has the argument). Resolved
    ambiguities are remembered in done across insertions, keyed on the
    two rules themselves plus kind, witness and positions: while both
    rules survive the s-polynomial is the same, and a rule inserted again
    gives new keys. Once every ambiguity resolves, each tail is reduced
    once by the complete system, which gives the unique reduced basis:
    which pairs were skipped, and in what order the rest were met, does
    not show in the output.
    """
    rels = []
    for r in relations:
        if r.is_zero():
            raise ValueError("zero relation given to complete()")
        r = r.with_cap(cap)
        if r.is_zero():
            raise ValueError("cap %d drops a relation entirely" % cap)
        rels.append(_rule(r, order))
        field = r.field
    if not rels:
        # free algebra: nothing to resolve, counts are exact through cap
        return RewriteSystem([], order, cap, field=QQ)
    need = max(lead.bit_length() - 1 for lead, _, _ in rels)
    if cap < need:
        raise ValueError("cap %d below max relation degree %d" % (cap, need))

    p = field.characteristic
    basis = _insert([], rels, order, cap, p)
    done = set()
    progress = True
    while progress:
        progress = False
        reduce = _kernel(basis, order, cap, p)
        leads = [order.word(lead) for lead, _, _ in basis]
        inner = re.compile("|".join(leads)).search
        for amb in ambiguities(leads, cap):
            # the chain criterion: a lead inside the witness, touching
            # neither end, splits the overlap into two shorter ones
            if amb.kind == "overlap" and inner(amb.witness, 1,
                                               amb.degree - 1):
                continue
            sig = (amb.kind, basis[amb.left], basis[amb.right], amb.witness,
                   amb.left_at, amb.right_at)
            if sig in done:
                continue
            r, _ = reduce(s_polynomial(amb, basis, cap, p), 1)
            done.add(sig)
            if r:
                basis = _insert(basis, [_primitive_rule(r, p)], order, cap, p)
                progress = True
                break
    # the system is complete: one reduction of each tail gives the
    # reduced basis
    out = []
    for lead, scale, tail in basis:
        r, D = reduce({t | 1 << lt: c for t, lt, c in tail}, 1)
        out.append(_primitive_rule({lead: scale * D, **r}, p))
    return RewriteSystem._of_rules(out, field, order, cap)


def verify_complete(system: RewriteSystem) -> bool:
    """Every ambiguity with witness degree <= cap reduces to zero."""
    rules, cap, p = system.rules, system.cap, system.field.characteristic
    reduce = _kernel(rules, system.order, cap, p)
    return not any(reduce(s_polynomial(amb, rules, cap, p), 1)[0]
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
    the local order so pivots respect minimal degrees. Rows go in latest
    pivot first, then shortest first, so that a row meets few and short
    pivot rows (the Macaulay-matrix order; Lazard, EUROCAL 1983); the
    counts do not depend on the order (linalg). Caps above 12 are
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
    rels = [r for r in (q.with_cap(cap) for q in relations) if not r.is_zero()]
    ech = Echelon(rels[0].field if rels else QQ)
    # column i is the i-th word in the local order, so pivots are ints
    words = sorted((w for d in range(cap + 1) for w in all_words(d)),
                   key=order.leading_key)
    col = {w: i for i, w in enumerate(words)}

    prec = order.precedence
    rows = []
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
                            rows.append(row)
    for row in sorted(rows, key=lambda row: (-min(row), len(row))):
        ech.add_integral(row)

    counts = [0] * (cap + 1)
    for i in ech.pivots:
        counts[len(words[i])] += 1
    return tuple(2 ** d - counts[d] for d in range(cap + 1))
