"""Fixtures shared by several test modules; the library does not use them."""

import heapq
import itertools

from potalg.fields import QQ
from potalg.freepoly import FreePoly
from potalg.rewrite import RewriteSystem, _lead_finder


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
        hit = find(w)
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
