"""Fixtures shared by several test modules; the library does not use them."""

import heapq
import itertools
from heapq import heapify, heappop, heappush

from potalg.fields import QQ
from potalg.freepoly import FreePoly, sum_terms
from potalg.isotest import is_isomorphism
from potalg.linalg import kernel, solve
from potalg.rewrite import RewriteSystem, _lead_finder, ambiguities
from potalg.words import all_words


def random_poly(rng, field=QQ, degrees=(1, 2, 3), terms=3, cap=None,
                coeff_pool=(-2, -1, 1, 2, 3)) -> FreePoly:
    """Small random polynomial for property tests; deterministic in rng."""
    out = {}
    for _ in range(terms):
        d = rng.choice(degrees)
        w = "".join(rng.choice("xy") for _ in range(d))
        out[w] = field.coerce(rng.choice(coeff_pool))
    return FreePoly(field, out, cap)


def dense(F, row):
    """A sparse row of F as its list of n coordinates."""
    return [row.get(k, F.field.zero) for k in range(F.dim)]


def dense_mul(F, u, v):
    """u v for coordinate lists, read entry by entry off F's table: a
    reference product that does not go through FiniteAlgebra.mul."""
    f = F.field
    out = [f.zero] * F.dim
    for i, ci in enumerate(u):
        for j, cj in enumerate(v) if ci else ():
            for k, c in F.table.get((i, j), {}).items() if cj else ():
                out[k] = f.add(out[k], f.mul(f.mul(ci, cj), c))
    return out


def validate(F):
    """The sparse row format of every table row, check_shape, then
    associativity on every basis triple of F."""
    for pair, row in F.table.items():
        if not row:
            raise ValueError("empty row stored at %r" % (pair,))
        if not all(0 <= i < F.dim for i in pair + tuple(row)):
            raise ValueError("index out of range at %r" % (pair,))
        if not all(row.values()):
            raise ValueError("zero entry stored at %r" % (pair,))
    F.check_shape()
    for i, j, k in itertools.product(range(F.dim), repeat=3):
        left = dense_mul(F, dense(F, F.table.get((i, j), {})),
                         dense(F, F.basis_vec(k)))
        right = dense_mul(F, dense(F, F.basis_vec(i)),
                          dense(F, F.table.get((j, k), {})))
        if left != right:
            raise ValueError("associativity fails at (%d, %d, %d)"
                             % (i, j, k))
    return True


def residuals(A, B, vx, vy, degree):
    """A's relations evaluated in full at the generator images vx, vy in
    B, every word at every length, in the coordinates of the given
    degree and labelled (relation, basis index)."""
    f = B.field
    memo = {"": B.basis_vec(0)}

    def image(w):
        if w not in memo:
            memo[w] = B.mul(vx if w[0] == "x" else vy, image(w[1:]))
        return memo[w]

    out = {}
    for r, rel in enumerate(A.relations):
        value = {}
        for w, c in rel.terms.items():
            for k, v in image(w).items():
                value[k] = f.add(value.get(k, f.zero), f.mul(c, v))
        out.update(((r, k), v) for k, v in value.items()
                   if v and B.degrees[k] == degree)
    return out


def linear_images(B, a, b, c, d):
    """x -> a e1 + b e2 and y -> c e1 + d e2 on B's degree-one words."""
    e1, e2 = [i for i in range(B.dim) if B.degrees[i] == 1]
    return ({k: v for k, v in ((e1, a), (e2, b)) if v},
            {k: v for k, v in ((e1, c), (e2, d)) if v})


def stage_system(A, B, vx, vy, slots, degree):
    """The stage system by finite differences: the column of an unknown
    is the residual with that unknown set to one, less the residual at
    the node, and the right-hand side is the negated residual. The
    unknowns are zero in vx and vy."""
    f = B.field
    base = residuals(A, B, vx, vy, degree)
    cols = []
    for letter, slot in slots:
        wx, wy = dict(vx), dict(vy)
        (wx if letter == "x" else wy)[slot] = f.one
        moved = residuals(A, B, wx, wy, degree)
        col = {k: f.sub(moved.get(k, f.zero), base.get(k, f.zero))
               for k in moved.keys() | base.keys()}
        cols.append({k: v for k, v in col.items() if v})
    return cols, {k: f.neg(v) for k, v in base.items()}


def reference_lift(A, B):
    """The lift search with the degree-2 filter evaluated directly and
    every stage system built by stage_system, without budgets: the
    reference lifted_iso_search is compared with. Returns
    ("isomorphic", (vx, vy)) or ("not_isomorphic", linear parts tried).
    """
    f, p = B.field, B.field.characteristic
    stages = range(2, max(B.degrees) + 1)

    def dfs(vx, vy, d):
        if d not in stages:
            return (vx, vy) if is_isomorphism(A, B, vx, vy)[0] else None
        slots = [(letter, i) for letter in "xy"
                 for i in range(B.dim) if B.degrees[i] == d]
        labels = [(r, k) for r in range(len(A.relations))
                  for k in range(B.dim) if B.degrees[k] == d + 1]
        cols, rhs = stage_system(A, B, vx, vy, slots, d + 1)
        part, stalled, reduced = solve(cols, labels, rhs, f)
        if stalled:
            return None
        basis = kernel(reduced, len(cols), f)
        for combo in itertools.product(range(p), repeat=len(basis)):
            wx, wy = dict(vx), dict(vy)
            for n, (letter, slot) in enumerate(slots):
                t = part[n]
                for c, vec in zip(combo, basis):
                    t = f.add(t, f.mul(c, vec[n]))
                if t:
                    (wx if letter == "x" else wy)[slot] = t
            hit = dfs(wx, wy, d + 1)
            if hit:
                return hit
        return None

    tried = 0
    for a, b, c, d in itertools.product(range(p), repeat=4):
        if not f.sub(f.mul(a, d), f.mul(b, c)):
            continue
        tried += 1
        vx, vy = linear_images(B, a, b, c, d)
        if residuals(A, B, vx, vy, 2):
            continue
        hit = dfs(vx, vy, 2)
        if hit:
            return "isomorphic", hit
    return "not_isomorphic", tried


def reference_normal_form(f, system):
    """normal_form as a plain field-arithmetic loop: the reference the
    library's integer loop is compared against.

    At each step the earliest word in the order with a reducible
    occurrence is rewritten at its leftmost occurrence, trying elements
    in basis order; every coefficient is a field element throughout.
    """
    if isinstance(system, RewriteSystem):
        elements, order, cap = system.elements, system.order, system.cap
    else:
        elements, order, cap = system
    leads = [g.leading_word(order) for g in elements]
    find = _lead_finder(leads)
    unit = (0, leads.index("")) if "" in leads else None
    field = f.field
    add, mul, neg = field.add, field.mul, field.neg
    cur = dict(f.terms)
    if cap is not None:
        for w in [w for w in cur if len(w) > cap]:
            del cur[w]
    heap = [(order.leading_key(w), w) for w in cur]
    heapq.heapify(heap)
    normal = set()
    while heap:
        _, w = heapq.heappop(heap)
        c = cur.get(w)
        if not c or w in normal:
            continue
        hit = find(w) if w else unit
        if hit is None:
            normal.add(w)
            continue
        i, gi = hit
        g = elements[gi]
        lw = leads[gi]
        pre, post = w[:i], w[i + len(lw):]
        del cur[w]
        negc = neg(c)
        for t, ct in g.terms.items():
            if t == lw:
                continue
            nw = pre + t + post
            if cap is not None and len(nw) > cap:
                continue
            piece = mul(negc, ct)
            if nw in cur:
                s = add(cur[nw], piece)
                if s:
                    cur[nw] = s
                else:
                    del cur[nw]
            else:
                cur[nw] = piece
                heapq.heappush(heap, (order.leading_key(nw), nw))
    return FreePoly(field, cur, f.cap if cap is None else cap)


def _reference_interreduce(elements, order, cap):
    """Full autoreduction of FreePolys by reference_normal_form: the
    first element that the others can reduce is replaced by its monic
    normal form, or dropped if that is zero, until none can be; then
    every tail is reduced by the whole system."""
    def key(g):
        return order.leading_key(g.leading_word(order))

    pool = [g for g in elements if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        pool.sort(key=key)
        for i, g in enumerate(pool):
            others = pool[:i] + pool[i + 1:]
            r = reference_normal_form(g, (others, order, cap))
            if r.is_zero():
                pool = others
                changed = True
                break
            r = r.monic(order)
            if r != g:
                pool[i] = r
                changed = True
                break
    out = []
    for g in pool:
        lw = g.leading_word(order)
        tail = FreePoly(g.field, {w: c for w, c in g.terms.items()
                                  if w != lw}, cap)
        tail = reference_normal_form(tail, (pool, order, cap))
        out.append(FreePoly.term(lw, g.field.one, g.field, cap) + tail)
    return out


def _reference_s_polynomial(amb, elements, order, cap):
    """The witness rewritten at the right lead, less the witness
    rewritten at the left one, for monic FreePolys."""
    w = amb.witness

    def placed(g, at, sign):
        lw = g.leading_word(order)
        pre, post = w[:at], w[at + len(lw):]
        return [(pre + t + post, sign * c) for t, c in g.terms.items()
                if t != lw]

    gi, gj = elements[amb.left], elements[amb.right]
    return sum_terms(gi.field, placed(gi, amb.left_at, -1)
                     + placed(gj, amb.right_at, 1), cap)


def reference_complete(relations, order, cap):
    """Truncated completion on monic FreePolys in field arithmetic, the
    way the library ran it before its basis became integer rules: the
    reference complete() is compared against. Every unresolved
    ambiguity adds its monic normal form and interreduces; the basis
    returned is the same unique reduced basis."""
    rels = [r.truncated(cap).monic(order) for r in relations]
    if not rels:
        return RewriteSystem([], order, cap, field=QQ)
    basis = _reference_interreduce(rels, order, cap)
    done = set()
    progress = True
    while progress:
        progress = False
        leads = [g.leading_word(order) for g in basis]
        for amb in ambiguities(leads, cap):
            sig = (amb.kind, basis[amb.left], basis[amb.right], amb.witness,
                   amb.left_at, amb.right_at)
            if sig in done:
                continue
            s = _reference_s_polynomial(amb, basis, order, cap)
            r = reference_normal_form(s, (basis, order, cap))
            done.add(sig)
            if not r.is_zero():
                basis = _reference_interreduce(basis + [r.monic(order)],
                                               order, cap)
                progress = True
                break
    return RewriteSystem(basis, order, cap)


class FieldEchelon:
    """Row reduction in field arithmetic with pivot rows scaled to one:
    the reference the integer kernel of linalg is compared against."""

    def __init__(self, field, key=None):
        self.field = field
        self.key = key
        self.pivots = {}

    def _entry(self, col):
        return col if self.key is None else (self.key(col), col)

    def reduce(self, row):
        f, pivots = self.field, self.pivots
        row = dict(row)
        heap = [self._entry(c) for c in row if c in pivots]
        heapify(heap)
        while heap:
            c = heappop(heap)
            if self.key is not None:
                c = c[1]
            a = row.pop(c, None)
            if a is None:
                continue
            for col, v in pivots[c].items():
                if col == c:
                    continue
                got = row.get(col)
                if got is None:
                    row[col] = f.neg(f.mul(a, v))
                    if col in pivots:
                        heappush(heap, self._entry(col))
                else:
                    s = f.sub(got, f.mul(a, v))
                    if s:
                        row[col] = s
                    else:
                        del row[col]
        return row

    def add(self, row):
        f = self.field
        row = self.reduce(row)
        if row:
            p = min(row, key=self.key)
            inv = f.inv(row[p])
            self.pivots[p] = {c: f.mul(v, inv) for c, v in row.items()}


def reference_oracle_dimension(relations, cap, order):
    """oracle_dimension on FieldEchelon, with the words themselves as
    columns ordered by order.leading_key."""
    rels = [r.truncated(cap) for r in relations if not r.is_zero()]
    rels = [r for r in rels if not r.is_zero()]
    ech = FieldEchelon(rels[0].field if rels else QQ, order.leading_key)
    for r in rels:
        for total in range(cap - r.min_degree() + 1):
            for la in range(total + 1):
                for u in all_words(la, order.precedence):
                    for v in all_words(total - la, order.precedence):
                        row = {u + w + v: c for w, c in r.terms.items()
                               if len(u + w + v) <= cap}
                        if row:
                            ech.add(row)
    counts = [0] * (cap + 1)
    for w in ech.pivots:
        counts[len(w)] += 1
    return tuple(2 ** d - counts[d] for d in range(cap + 1))
