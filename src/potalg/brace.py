"""Finite braces, trusses, ideal filtrations, and graded pre-Lie checks.

Carriers are index sets {0..n-1} with dense addition and star tables and
0 the additive identity. The circle operation a∘b = a+b+a*b is derived.
A brace here satisfies the compatibility law (a*b+a+b)*c = a*c+b*c+a*(b*c)
together with left distributivity of *, which is the truss axiom with
alpha identically zero; a truss replaces the latter by
a*(b+c) = a*b+a*c+alpha(a) and only asks the circle to be a semigroup.

Every verdict is a complete proof, not a sample, yet most laws are
checked on a greedy additive generating set S (|S| <= log2 n once
(B, +) is a group) instead of on every triple. Light's test certifies
associativity of + from (x+s)+y = x+(s+y) for s in S. A map that is
additive, or affine, in c is fixed by its values at c in S, or at
c in {0} ∪ S: this covers the truss axiom (left distributivity is its
case alpha = 0), compatibility and the circle law of a truss. A brace's
circle needs no check of its own. Left distributivity makes
lambda_a(b) = b + a*b additive, compatibility then gives lambda_{a∘b} =
lambda_a lambda_b (Rump 2007; Guarnieri-Vendramin 2017), and so
(a∘b)∘c = a + lambda_a(b + lambda_b(c)) = a∘(b∘c). As a*0 = 0, an
identity e = e∘0 can only be 0; a is invertible exactly when its circle
row is a permutation, a right inverse in a finite monoid being two-sided.
The congruence laws of a filtration level telescope from a generating
set of that level. When a certificate fails, the plain triple scan runs
to name the first failing triple, so verdicts and witnesses are those of
the exhaustive check. The distributivity correction series follows the
recursion d0 = a, d0' = b, d_{i+1} = d_i + d_i', d_{i+1}' = d_i * d_i';
unrolling the brace axiom gives the signs (-1)^(i+1) with the sum
starting at i = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import ResourceCapError

MAX_ORDER = 256
"""Largest carrier from_json accepts: naming a witness scans O(n^3) triples."""

MAX_SERIES_TERMS = 4096
"""Longest correction series: it is exact once N reaches the chain length,
which is at most the order."""

MAX_LEVELS = 32
"""Most levels a filtration block may list: checking a chain of m levels
costs O(m^2 n^2), and a strictly descending chain of subgroups on at most
MAX_ORDER elements has at most 9 distinct levels."""


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


def _is_index(v, order):
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < order


def _check_tables(add, star, order):
    if order < 1:
        raise ValueError("a carrier must contain the element 0")
    for name, table in (("add", add), ("star", star)):
        if not isinstance(table, (list, tuple)) or len(table) != order or \
                any(not isinstance(row, (list, tuple)) or len(row) != order
                    for row in table):
            raise ValueError("%s table must be %d x %d" % (name, order,
                                                           order))
        for row in table:
            for v in row:
                if not _is_index(v, order):
                    raise ValueError("%s entry %r outside carrier" %
                                     (name, v))


def _generators(add, members):
    """Greedy additive generating set of members, in sorted order.

    A member not yet reached becomes a generator. The span grows by
    right addition, so every member is a sum 0+s1+...+sk bracketed from
    the left; 0 must be the additive identity.
    """
    gens, span = [], {0}
    for x in sorted(members):
        if x in span:
            continue
        gens.append(x)
        todo = [add[e][x] for e in span]
        while todo:
            v = todo.pop()
            if v not in span:
                span.add(v)
                todo.extend(add[v][s] for s in gens)
    return gens


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
        self.gens = None
        self._group = None

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
        """Abelian group axioms of (B, +), decided once per carrier.

        With 0 a two-sided identity and + commutative, Light's test
        (x+s)+y = x+(s+y) for all x, y and every generator s proves
        associativity, since the s passing it are closed under +. On
        success self.gens holds the generators.
        """
        if self._group is None:
            self._group = (Verdict(True) if self._group_certified()
                           else self._scan_additive_group())
        return self._group

    def _group_certified(self):
        add, n = self.add, self.order
        if any(add[0][a] != a or add[a][0] != a for a in range(n)) or \
                add != [list(col) for col in zip(*add)]:
            return False
        gens = _generators(add, range(n))
        if not all(add[row[s]] == [row[t] for t in add[s]]
                   for s in gens for row in add):
            return False
        self.gens = gens
        return True

    def _scan_additive_group(self):
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
        if not isinstance(alpha, (list, tuple)) or \
                len(alpha) != self.order or \
                any(not _is_index(v, self.order) for v in alpha):
            raise ValueError("alpha table must map the carrier to itself")
        self.alpha = list(alpha)

    def to_json(self):
        return {"order": self.order, "add": [list(r) for r in self.add],
                "star": [list(r) for r in self.star],
                "alpha": list(self.alpha)}


def from_json(doc):
    """Loader for the table format; alpha decides the type.

    A malformed document raises ValueError. An order above MAX_ORDER
    raises ResourceCapError before any table is read.
    """
    if not isinstance(doc, dict):
        raise ValueError("a brace file holds a JSON object, not %s"
                         % type(doc).__name__)
    for key in ("order", "add", "star"):
        if key not in doc:
            raise ValueError("a brace file needs the key %r" % key)
    order = doc["order"]
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValueError("order must be an integer, got %r" % (order,))
    if order > MAX_ORDER:
        raise ResourceCapError("order %d is above the brace order limit %d"
                               % (order, MAX_ORDER))
    add, star = doc["add"], doc["star"]
    if not isinstance(add, list) or len(add) != order:
        raise ValueError("order %d does not match the add table" % order)
    if "alpha" in doc and doc["alpha"] is not None:
        return FiniteTruss(add, star, doc["alpha"])
    return FiniteBrace(add, star)


def filtration_from_json(doc, structure):
    """Chain from the optional per-file filtration block.

    Levels list the proper members starting at the second one; the full
    carrier is prepended and a terminal {0} appended when missing. More
    than MAX_LEVELS listed levels raise ResourceCapError.
    """
    entries = doc.get("filtration", ())
    if not isinstance(entries, (list, tuple)) or \
            any(not isinstance(entry, (list, tuple)) for entry in entries):
        raise ValueError("filtration must be a list of index lists")
    if len(entries) > MAX_LEVELS:
        raise ResourceCapError("filtration lists %d levels, above the limit "
                               "%d" % (len(entries), MAX_LEVELS))
    levels = [frozenset(range(structure.order))]
    for entry in entries:
        if not all(_is_index(v, structure.order) for v in entry):
            raise ValueError("filtration members must be carrier indices")
        levels.append(frozenset(entry))
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


def _circle_table(B):
    add, star = B.add, B.star
    return [[add[add_a[b]][star_a[b]] for b in range(B.order)]
            for add_a, star_a in zip(add, star)]


def _circle_certified(B, circ):
    """(a∘b)∘c = a∘(b∘c) at c in {0} ∪ S for all a, b.

    Complete once c -> a*c is additive up to a constant (the truss
    axiom): both sides are then affine in c, so agreeing at 0 and on the
    generators makes them agree everywhere.
    """
    for c in [0] + B.gens:
        col = [row[c] for row in circ]
        if not all([col[v] for v in row] == [row[w] for w in col]
                   for row in circ):
            return False
    return True


def _affine_certified(B, alpha):
    """a*(b+s) = a*b + a*s + alpha(a) for all a, b and every generator s.

    This says c -> a*c + alpha(a) is additive, so the law holds at every
    c. alpha identically zero is left distributivity.
    """
    add, star = B.add, B.star
    return all([row[t] for t in add[s]] == [add[add[row[s]][corr]][v]
                                            for v in row]
               for s in B.gens for row, corr in zip(star, alpha))


def _first_failure(n, fails):
    """First triple (a, b, c) in lexicographic order where fails holds."""
    return next(((a, b, c) for a in range(n) for b in range(n)
                 for c in range(n) if fails(a, b, c)), None)


def _affine_failure(B, alpha):
    return _first_failure(B.order, lambda a, b, c: B.times(a, B.plus(b, c))
                          != B.plus(B.plus(B.times(a, b), B.times(a, c)),
                                    alpha[a]))


def _compatibility_failure(B):
    times, plus = B.times, B.plus
    return _first_failure(B.order, lambda a, b, c: times(B.circle(a, b), c)
                          != plus(plus(times(a, c), times(b, c)),
                                  times(a, times(b, c))))


def _circle_failure(B):
    circle = B.circle
    return _first_failure(B.order, lambda a, b, c: circle(circle(a, b), c)
                          != circle(a, circle(b, c)))


def check_brace(B: FiniteBrace) -> Verdict:
    """Brace axioms; the witness is the first failing triple.

    Left distributivity and compatibility are checked at c in S only:
    the law at the generators makes a*c additive in c, and then both
    sides of compatibility are additive in c. A failed certificate
    reruns that axiom's triple scan to name the witness. The two laws
    leave only the identity and inverses to read off (module docstring).
    """
    n = B.order
    base = B._additive_group_verdict()
    if not base:
        return base
    add, star, zero = B.add, B.star, [0] * n
    if not _affine_certified(B, zero):
        return Verdict(False, "star is not left distributive",
                       _affine_failure(B, zero))
    circ = _circle_table(B)
    for c in B.gens:
        col = [row[c] for row in star]
        for a in range(n):
            star_a, add_ac = star[a], add[col[a]]
            if [col[v] for v in circ[a]] != \
                    [add[add_ac[w]][star_a[w]] for w in col]:
                return Verdict(False, "brace compatibility fails",
                               _compatibility_failure(B))
    if any(star[0]):
        return Verdict(False, "circle has no identity")
    for a, row in enumerate(circ):
        if len(set(row)) < n:
            return Verdict(False, "circle inverse missing", (a,))
    return Verdict(True, "brace")


def check_truss(T: FiniteTruss) -> Verdict:
    """Circle associativity plus the alpha form of the truss axiom.

    The axiom says c -> a*c + alpha(a) is additive, so it is checked at
    c in S; the circle is then certified at c in {0} ∪ S. When either
    certificate fails, both triple scans run in the order circle, axiom.
    """
    base = T._additive_group_verdict()
    if not base:
        return base
    if _affine_certified(T, T.alpha) and \
            _circle_certified(T, _circle_table(T)):
        return Verdict(True, "truss")
    witness = _circle_failure(T)
    if witness is not None:
        return Verdict(False, "circle is not associative", witness)
    return Verdict(False, "truss axiom fails", _affine_failure(T, T.alpha))


def _congruence_certified(B, level):
    """Both congruence laws of a subgroup level at its generators u.

    In a group, x - y lies in the level exactly when x and y share a
    coset. The laws at u and v give them at u + v by telescoping, so
    generators suffice.
    """
    n, add = B.order, B.add
    coset = [None] * n
    for x in range(n):
        if coset[x] is None:
            for u in level:
                coset[add[x][u]] = x
    rows = [[coset[v] for v in row] for row in B.star]
    for u in _generators(add, level):
        shift = add[u]
        if any(row != [row[t] for t in shift] for row in rows) or \
                any(rows[add[a][u]] != rows[a] for a in range(n)):
            return False
    return True


def check_filtration(B, filt: Filtration) -> Verdict:
    """Subgroups, congruence ideals, and degree multiplicativity.

    For trusses the correction must sink to the third level, the uniform
    reading of the degree condition on alpha. The congruence laws are
    certified on generators when (B, +) is a group; a level that fails,
    or any level of a carrier that is not a group, gets the triple scan.
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
    group = bool(B._additive_group_verdict())
    for i, level in enumerate(chain, start=1):
        if group and _congruence_certified(B, level):
            continue
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
        # 0 comes first: class 0 is the subgroup, reps are least members
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
        components.append([frozenset(coset) for coset in cosets])
        class_of.append(labels)
        reps.append([coset[0] for coset in cosets])
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
    B, chain, top = G.brace, G.filtration.chain, G.top
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
    if not 0 <= N <= MAX_SERIES_TERMS:
        raise ValueError("series length N must be in 0..%d, got %d"
                         % (MAX_SERIES_TERMS, N))
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
    for n in range(1, max_order + 1):
        units = [u for u in range(1, n) if math.gcd(u, n) == 1] or [0]
        if n == 1:
            yield FiniteBrace([[0]], [[0]])
            continue
        add = [[(a + b) % n for b in range(n)] for a in range(n)]
        for m in _lambda_maps(n, units):
            star = [[(m[a] * b - b) % n for b in range(n)]
                    for a in range(n)]
            B = FiniteBrace(add, star)
            if not check_brace(B):
                raise RuntimeError("lambda parametrization produced a "
                                   "non-brace of order %d" % n)
            yield B
        if n == 4:
            yield from _klein_braces()


def _lambda_maps(n, units):
    """Unit maps m, m[0] = 1, with m[(a + m[a] b) % n] = m[a] m[b] % n.

    Depth-first over m[1], m[2], ... in lexicographic order. A branch
    stops at the first broken constraint whose three indices are all
    assigned; each constraint is tested once, when its largest index is.
    """
    m = [1] * n

    def holds_at(k):
        for a in range(k + 1):
            for b in range(k + 1):
                c = (a + m[a] * b) % n
                if c <= k and k in (a, b, c) and m[c] != m[a] * m[b] % n:
                    return False
        return True

    def extend(k):
        if k == n:
            yield tuple(m)
            return
        for u in units:
            m[k] = u
            if holds_at(k):
                yield from extend(k + 1)

    return extend(1)


def _klein_braces():
    from itertools import permutations, product as iproduct
    xor_add = [[a ^ b for b in range(4)] for a in range(4)]
    perms = [(0,) + p for p in permutations((1, 2, 3))]
    ident = (0, 1, 2, 3)
    for lam in iproduct(perms, repeat=3):
        lam = (ident,) + lam
        if any(lam[a ^ lam[a][b]] != tuple(lam[a][lam[b][v]]
                                           for v in range(4))
               for a in range(4) for b in range(4)):
            continue
        star = [[lam[a][b] ^ b for b in range(4)] for a in range(4)]
        B = FiniteBrace(xor_add, star)
        if not check_brace(B):
            raise RuntimeError("Klein lambda map produced a non-brace")
        yield B


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
