"""Finite braces, trusses, ideal filtrations, and graded pre-Lie checks.

Carriers are index sets {0..n-1} with dense addition and star tables and
0 the additive identity. The circle operation a∘b = a+b+a*b is derived.
A brace here satisfies the compatibility law (a*b+a+b)*c = a*c+b*c+a*(b*c)
together with left distributivity of *, which is the truss axiom with
alpha identically zero; a truss replaces the latter by
a*(b+c) = a*b+a*c+alpha(a) and only asks the circle to be a semigroup.

Everything is verified exhaustively: the structures live at desk scale
and the point is to certify the axioms, not to assume them. The
distributivity correction series follows the recursion d0 = a, d0' = b,
d_{i+1} = d_i + d_i', d_{i+1}' = d_i * d_i'; unrolling the brace axiom
gives the signs (-1)^(i+1) with the sum starting at i = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class Verdict:
    ok: bool
    reason: str = ""
    witness: object = None

    def __bool__(self):
        return self.ok

    def to_json(self):
        doc = {"ok": self.ok}
        if self.reason:
            doc["reason"] = self.reason
        if self.witness is not None:
            doc["witness"] = list(self.witness)
        return doc


def _check_tables(add, star, order):
    for name, table in (("add", add), ("star", star)):
        if len(table) != order or any(len(row) != order for row in table):
            raise ValueError("%s table must be %d x %d" % (name, order,
                                                           order))
        for row in table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < order:
                    raise ValueError("%s entry %r outside carrier" %
                                     (name, v))


class _Carrier:
    """Shared index arithmetic over the add and star tables."""

    def __init__(self, add, star):
        _check_tables(add, star, len(add))
        self.add = [list(r) for r in add]
        self.star = [list(r) for r in star]
        self.neg = [None] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.add[a][b] == 0:
                    self.neg[a] = b
        if None in self.neg:
            raise ValueError("additive inverses missing")

    @property
    def order(self):
        return len(self.add)

    def plus(self, a, b):
        return self.add[a][b]

    def minus(self, a, b):
        return self.add[a][self.neg[b]]

    def times(self, a, b):
        return self.star[a][b]

    def circle(self, a, b):
        return self.add[self.add[a][b]][self.star[a][b]]

    def _additive_group_verdict(self):
        n = self.order
        for a in range(n):
            if self.add[0][a] != a or self.add[a][0] != a:
                return Verdict(False, "0 is not the additive identity", (a,))
        for a in range(n):
            for b in range(n):
                if self.add[a][b] != self.add[b][a]:
                    return Verdict(False, "addition is not commutative",
                                   (a, b))
                for c in range(n):
                    if self.add[self.add[a][b]][c] != \
                            self.add[a][self.add[b][c]]:
                        return Verdict(False, "addition is not associative",
                                       (a, b, c))
        return Verdict(True)


class FiniteBrace(_Carrier):
    def to_json(self):
        return {"order": self.order, "add": [list(r) for r in self.add],
                "star": [list(r) for r in self.star]}


class FiniteTruss(_Carrier):
    def __init__(self, add, star, alpha):
        super().__init__(add, star)
        if len(alpha) != self.order or \
                any(not isinstance(v, int) or not 0 <= v < self.order
                    for v in alpha):
            raise ValueError("alpha table must map the carrier to itself")
        self.alpha = list(alpha)

    def to_json(self):
        return {"order": self.order, "add": [list(r) for r in self.add],
                "star": [list(r) for r in self.star],
                "alpha": list(self.alpha)}


def from_json(doc):
    """Tolerant loader for the table format; alpha decides the type."""
    order = doc["order"]
    add, star = doc["add"], doc["star"]
    if len(add) != order:
        raise ValueError("order %d does not match the add table" % order)
    if "alpha" in doc and doc["alpha"] is not None:
        return FiniteTruss(add, star, doc["alpha"])
    return FiniteBrace(add, star)


def filtration_from_json(doc, structure):
    """Chain from the optional per-file filtration block.

    Levels list the proper members starting at the second one; the full
    carrier is prepended and a terminal {0} appended when missing.
    """
    levels = [frozenset(range(structure.order))]
    for entry in doc.get("filtration", ()):
        level = frozenset(int(v) for v in entry)
        if not level <= levels[0]:
            raise ValueError("filtration members must be carrier indices")
        levels.append(level)
    if levels[-1] != frozenset((0,)):
        levels.append(frozenset((0,)))
    return Filtration(levels)


@dataclass
class Filtration:
    """Descending chain B = B1 ⊇ B2 ⊇ ... ⊇ Bm = {0} of index sets."""
    chain: list

    def __post_init__(self):
        self.chain = [frozenset(level) for level in self.chain]

    @property
    def length(self):
        return len(self.chain)

    def degree(self, a):
        if a == 0:
            return math.inf
        d = 0
        for i, level in enumerate(self.chain, start=1):
            if a in level:
                d = i
        return d

    def to_json(self):
        return {"filtration": [sorted(level) for level in self.chain[1:-1]]}


def _additive_span(B, seed):
    span = {0}
    frontier = set(seed) | {0}
    while frontier:
        nxt = set()
        for a in frontier:
            for b in list(span) + list(frontier):
                for v in (B.plus(a, b), B.neg[a]):
                    if v not in span and v not in frontier:
                        nxt.add(v)
        span |= frontier
        frontier = nxt
    return frozenset(span)


def gamma_filtration(B) -> Filtration:
    """Chain generated by star products, the brace lower series.

    Gamma_{k+1} spans all products of accumulated levels whose degrees
    sum past k. Raises when the series stalls above zero, which is the
    non-nilpotent case.
    """
    levels = [frozenset(range(B.order))]
    while levels[-1] != frozenset((0,)):
        k = len(levels)
        seed = set()
        for i in range(1, k + 1):
            j = max(1, k + 1 - i)
            if j > k:
                continue
            for a in levels[i - 1]:
                for b in levels[j - 1]:
                    seed.add(B.times(a, b))
        nxt = _additive_span(B, seed)
        if nxt == levels[-1]:
            raise ValueError("star series stalls at %s; no nilpotent "
                             "filtration" % sorted(nxt))
        levels.append(nxt)
        if len(levels) > B.order + 1:
            raise ValueError("filtration fails to terminate")
    return Filtration(levels)


def check_brace(B: FiniteBrace) -> Verdict:
    """Exhaustive brace axioms; the witness is the first failing triple."""
    n = B.order
    base = B._additive_group_verdict()
    if not base:
        return base
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if B.times(a, B.plus(b, c)) != \
                        B.plus(B.times(a, b), B.times(a, c)):
                    return Verdict(False, "star is not left distributive",
                                   (a, b, c))
    for a in range(n):
        for b in range(n):
            lhs_root = B.circle(a, b)
            for c in range(n):
                lhs = B.times(lhs_root, c)
                rhs = B.plus(B.plus(B.times(a, c), B.times(b, c)),
                             B.times(a, B.times(b, c)))
                if lhs != rhs:
                    return Verdict(False, "brace compatibility fails",
                                   (a, b, c))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if B.circle(B.circle(a, b), c) != \
                        B.circle(a, B.circle(b, c)):
                    return Verdict(False, "circle is not associative",
                                   (a, b, c))
    ident = next((e for e in range(n)
                  if all(B.circle(e, a) == a and B.circle(a, e) == a
                         for a in range(n))), None)
    if ident is None:
        return Verdict(False, "circle has no identity")
    for a in range(n):
        if not any(B.circle(a, x) == ident and B.circle(x, a) == ident
                   for x in range(n)):
            return Verdict(False, "circle inverse missing", (a,))
    return Verdict(True, "brace")


def check_truss(T: FiniteTruss) -> Verdict:
    """Circle associativity plus the alpha form of the truss axiom."""
    n = T.order
    base = T._additive_group_verdict()
    if not base:
        return base
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if T.circle(T.circle(a, b), c) != \
                        T.circle(a, T.circle(b, c)):
                    return Verdict(False, "circle is not associative",
                                   (a, b, c))
    for a in range(n):
        corr = T.alpha[a]
        for b in range(n):
            for c in range(n):
                lhs = T.times(a, T.plus(b, c))
                rhs = T.plus(T.plus(T.times(a, b), T.times(a, c)), corr)
                if lhs != rhs:
                    return Verdict(False, "truss axiom fails", (a, b, c))
    return Verdict(True, "truss")


def check_filtration(B, filt: Filtration) -> Verdict:
    """Subgroups, congruence ideals, and degree multiplicativity.

    For trusses the correction must sink to the third level, the uniform
    reading of the degree condition on alpha.
    """
    chain = filt.chain
    m = filt.length
    carrier = frozenset(range(B.order))
    if chain[0] != carrier:
        return Verdict(False, "chain must start at the whole carrier")
    if chain[-1] != frozenset((0,)):
        return Verdict(False, "chain must end at zero")
    for i in range(m - 1):
        if not chain[i + 1] <= chain[i]:
            return Verdict(False, "chain is not descending", (i + 1,))
    for i, level in enumerate(chain, start=1):
        for a in level:
            if B.neg[a] not in level:
                return Verdict(False, "level %d not closed under negation"
                               % i, (a,))
            for b in level:
                if B.plus(a, b) not in level:
                    return Verdict(False, "level %d not additively closed"
                                   % i, (a, b))
    for i, level in enumerate(chain, start=1):
        for a in range(B.order):
            for b in range(B.order):
                ab = B.times(a, b)
                for u in level:
                    if B.minus(B.times(a, B.plus(b, u)), ab) not in level:
                        return Verdict(False, "level %d is not a right "
                                       "congruence ideal" % i, (a, b, u))
                    if B.minus(B.times(B.plus(a, u), b), ab) not in level:
                        return Verdict(False, "level %d is not a left "
                                       "congruence ideal" % i, (a, b, u))
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            target = chain[min(i + j, m) - 1]
            for a in chain[i - 1]:
                for b in chain[j - 1]:
                    if B.times(a, b) not in target:
                        return Verdict(False, "B_%d * B_%d escapes B_%d" %
                                       (i, j, min(i + j, m)), (a, b))
    if isinstance(B, FiniteTruss):
        target = chain[min(3, m) - 1]
        for a in range(B.order):
            if B.alpha[a] not in target:
                return Verdict(False, "alpha escapes the third level", (a,))
    return Verdict(True, "filtration")


class GradedProductError(ValueError):
    def __init__(self, message, witnesses):
        super().__init__(message)
        self.witnesses = witnesses


@dataclass
class GradedStructure:
    """Homogeneous components Bi/Bi+1 with the induced product.

    Classes are numbered within each degree with 0 the zero class;
    products landing past the top degree are zero and stored as None.
    reps holds one representative per class for computations back in
    the underlying structure.
    """
    brace: object
    filtration: Filtration
    components: list
    class_of: list
    reps: list

    @property
    def top(self):
        return len(self.components)

    def component_orders(self):
        return tuple(len(c) for c in self.components)

    def cls(self, degree, element):
        return self.class_of[degree - 1][element]

    def add(self, degree, c1, c2):
        r = self.brace.plus(self.reps[degree - 1][c1],
                            self.reps[degree - 1][c2])
        return self.cls(degree, r)

    def product(self, i, c1, j, c2):
        if i + j > self.top:
            return None
        r = self.brace.times(self.reps[i - 1][c1], self.reps[j - 1][c2])
        return self.cls(i + j, r)

    def to_json(self):
        products = {}
        for i in range(1, self.top + 1):
            for j in range(1, self.top + 1):
                for c1 in range(len(self.components[i - 1])):
                    for c2 in range(len(self.components[j - 1])):
                        out = self.product(i, c1, j, c2)
                        if out:
                            products["%d.%d,%d.%d" % (i, c1, j, c2)] = \
                                "%d.%d" % (i + j, out)
        return {"component_orders": list(self.component_orders()),
                "nonzero_products": products}


def associated_graded(B, filt: Filtration) -> GradedStructure:
    """Quotient components with the product checked for well-definedness.

    Requires a valid filtration; every representative pair is compared,
    so a clean return certifies the graded product exists, and both
    distributive laws are verified on classes.
    """
    ok = check_filtration(B, filt)
    if not ok:
        raise ValueError("invalid filtration: %s" % ok.reason)
    chain = filt.chain
    top = filt.length - 1
    components, class_of, reps = [], [], []
    for i in range(top):
        level, nxt = sorted(chain[i]), chain[i + 1]
        cosets, labels = [], {}
        for a in level:
            hit = next((ci for ci, coset in enumerate(cosets)
                        if B.minus(a, coset[0]) in nxt), None)
            if hit is None:
                cosets.append([a])
                hit = len(cosets) - 1
            else:
                cosets[hit].append(a)
            labels[a] = hit
        # relabel so that the coset of 0, the subgroup itself, is class 0
        order = [labels[0]] + [ci for ci in range(len(cosets))
                               if ci != labels[0]]
        relabel = {old: new for new, old in enumerate(order)}
        components.append([frozenset(cosets[old]) for old in order])
        class_of.append({a: relabel[ci] for a, ci in labels.items()})
        reps.append([min(cosets[old]) for old in order])
    G = GradedStructure(B, filt, components, class_of, reps)
    witnesses = []
    for i in range(1, top + 1):
        for j in range(1, top + 1):
            if i + j > top:
                continue
            seen = {}
            for a in chain[i - 1]:
                for b in chain[j - 1]:
                    key = (G.cls(i, a), G.cls(j, b))
                    out = G.cls(i + j, B.times(a, b))
                    if key in seen and seen[key] != out:
                        witnesses.append((i, a, j, b))
                    seen.setdefault(key, out)
    if witnesses:
        raise GradedProductError("graded product depends on "
                                 "representatives", witnesses)
    for i in range(1, top + 1):
        for j in range(1, top + 1):
            if i + j > top:
                continue
            for c1 in range(len(components[i - 1])):
                for c2 in range(len(components[i - 1])):
                    for d in range(len(components[j - 1])):
                        lhs = G.product(i, G.add(i, c1, c2), j, d)
                        rhs = G.add(i + j, G.product(i, c1, j, d),
                                    G.product(i, c2, j, d))
                        if lhs != rhs:
                            raise GradedProductError(
                                "graded product is not right additive",
                                [(i, c1, c2, j, d)])
                        lhs = G.product(j, d, i, G.add(i, c1, c2))
                        rhs = G.add(i + j, G.product(j, d, i, c1),
                                    G.product(j, d, i, c2))
                        if lhs != rhs:
                            raise GradedProductError(
                                "graded product is not left additive",
                                [(j, d, i, c1, c2)])
    return G


def pre_lie_defect(G: GradedStructure):
    """Left symmetry of the graded associator, 0 or the first witness.

    The associator of classes with degrees i, j, k lives in degree
    i+j+k; it is compared through representatives, which the
    well-definedness of the product makes legitimate.
    """
    B, filt = G.brace, G.filtration
    top = G.top
    chain = filt.chain
    for i in range(1, top + 1):
        for j in range(1, top + 1):
            for k in range(1, top + 1):
                if i + j + k > top:
                    continue
                target = chain[i + j + k]
                for c1 in range(len(G.components[i - 1])):
                    for c2 in range(len(G.components[j - 1])):
                        for c3 in range(len(G.components[k - 1])):
                            a = G.reps[i - 1][c1]
                            b = G.reps[j - 1][c2]
                            c = G.reps[k - 1][c3]
                            left = B.minus(
                                B.times(B.times(a, b), c),
                                B.times(a, B.times(b, c)))
                            right = B.minus(
                                B.times(B.times(b, a), c),
                                B.times(b, B.times(a, c)))
                            if B.minus(left, right) not in target:
                                return ((i, c1), (j, c2), (k, c3))
    return 0


def distributivity_series(B, a, b, c, N):
    """Partial sums of the correction series against the direct defect.

    Each term i contributes (-1)^(i+1) ((d_i*d_i')*c - d_i*(d_i'*c));
    on a brace nilpotent along a length-m chain the sum is exact once
    N >= m because the terms sink below every level.
    """
    if not all(0 <= t < B.order for t in (a, b, c)):
        raise ValueError("series triple %r is outside the carrier 0..%d"
                         % ([a, b, c], B.order - 1))
    if N < 0:
        raise ValueError("series length N must be >= 0, got %d" % N)
    direct = B.minus(B.times(B.plus(a, b), c),
                     B.plus(B.times(a, c), B.times(b, c)))
    d, dp = a, b
    partial = 0
    sums = []
    for i in range(N):
        term = B.minus(B.times(B.times(d, dp), c),
                       B.times(d, B.times(dp, c)))
        if i % 2 == 0:
            partial = B.minus(partial, term)
        else:
            partial = B.plus(partial, term)
        sums.append(partial)
        d, dp = B.plus(d, dp), B.times(d, dp)
    return {"direct": direct, "partial_sums": sums,
            "exact": bool(sums) and sums[-1] == direct}


def enumerate_braces(max_order):
    """Braces on small cyclic groups and the Klein group, by lambda maps.

    On a cyclic carrier every brace has lambda_a acting as a unit, so
    unit-valued maps m with m[0] = 1 and m[a∘b] = m[a]m[b] enumerate
    them all; on the Klein group lambda ranges over the six linear
    permutations. Yields verified braces in a deterministic order.
    """
    from itertools import product as iproduct
    for n in range(1, max_order + 1):
        units = [u for u in range(1, n) if math.gcd(u, n) == 1] or [0]
        if n == 1:
            yield FiniteBrace([[0]], [[0]])
            continue
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        for tail in iproduct(units, repeat=n - 1):
            m = (1,) + tail
            if any(m[(a + m[a] * b) % n] != m[a] * m[b] % n
                   for a in range(n) for b in range(n)):
                continue
            star = [[(m[a] * b - b) % n for b in range(n)]
                    for a in range(n)]
            B = FiniteBrace(add, star)
            if not check_brace(B):
                raise RuntimeError("lambda parametrization produced a "
                                   "non-brace of order %d" % n)
            yield B
        if n == 4:
            yield from _klein_braces()


def _klein_braces():
    from itertools import permutations, product as iproduct
    xor_add = [[a ^ b for b in range(4)] for a in range(4)]
    perms = [(0,) + p for p in permutations((1, 2, 3))]
    ident = (0, 1, 2, 3)
    for lam in iproduct(perms, repeat=3):
        lam = (ident,) + lam
        ok = True
        for a in range(4):
            for b in range(4):
                composed = tuple(lam[a][lam[b][v]] for v in range(4))
                if lam[a ^ lam[a][b]] != composed:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        star = [[lam[a][b] ^ b for b in range(4)] for a in range(4)]
        B = FiniteBrace(xor_add, star)
        if not check_brace(B):
            raise RuntimeError("Klein lambda map produced a non-brace")
        yield B


def first_non_right_distributive(max_order=8):
    """First enumerated nilpotent brace where (a+b)*c != a*c + b*c.

    Returns the brace, the first failing triple, and its star-series
    filtration; braces whose star series stalls above zero are skipped
    since the correction series needs a finite chain.
    """
    for B in enumerate_braces(max_order):
        witness = next(((a, b, c)
                        for a in range(B.order)
                        for b in range(B.order)
                        for c in range(B.order)
                        if B.times(B.plus(a, b), c) !=
                        B.plus(B.times(a, c), B.times(b, c))), None)
        if witness is None:
            continue
        try:
            filt = gamma_filtration(B)
        except ValueError:
            continue
        return B, witness, filt
    raise ValueError("no non-right-distributive nilpotent brace of "
                     "order <= %d" % max_order)


def brace_from_nilpotent_ring(add, mul) -> FiniteBrace:
    """Adjoint brace of a nilpotent ring: star is the ring product.

    Nilpotency is what makes 1+a formally invertible, hence the circle
    a group; the axioms are verified anyway rather than trusted.
    """
    B = FiniteBrace(add, mul)
    level = frozenset(range(B.order))
    while level != frozenset((0,)):
        nxt = _additive_span(B, {B.times(a, b) for a in level
                                 for b in range(B.order)})
        if nxt == level:
            raise ValueError("ring is not nilpotent; powers stall at %s"
                             % sorted(level))
        level = nxt
    verdict = check_brace(B)
    if not verdict:
        raise ValueError("ring tables do not satisfy the brace axioms: "
                         "%s" % verdict.reason)
    return B
