"""Finite braces, trusses, ideal filtrations, and graded pre-Lie checks.

Carriers are index sets {0..n-1} with dense addition and star tables and
0 the additive identity. The circle operation a∘b = a+b+a*b is derived.
A brace here satisfies the compatibility law (a*b+a+b)*c = a*c+b*c+a*(b*c)
together with left distributivity of *, which is the truss axiom with
alpha identically zero; a truss replaces the latter by
a*(b+c) = a*b+a*c+alpha(a) and only asks the circle to be a semigroup.

Every verdict is a complete proof, not a sample, yet most laws are
checked on a greedy additive generating set S (|S| <= log2 n once (B, +)
is a group) instead of on every triple. Light's test certifies
associativity of + from (x+s)+y = x+(s+y) for s in S. A map that is
additive, or affine, in c is fixed by its values at c in S, or at c in
{0} ∪ S: this covers the truss axiom (left distributivity is its case
alpha = 0) and the circle law. Given left distributivity,
a∘(b∘c) = a + b + c + b*c + a*b + a*c + a*(b*c), so a brace's
compatibility (a∘b)*c = a*c + b*c + a*(b*c) holds at a triple exactly
when (a∘b)∘c = a∘(b∘c) does: the circle certificate decides it and its
triple scan names the witness (Rump 2007; Guarnieri-Vendramin 2017). As
a*0 = 0, an identity e = e∘0 can only be 0; a is invertible exactly when
its circle row is a permutation, a right inverse in a finite monoid
being two-sided. A filtration level L holding 0 is a subgroup exactly
when the closure of {0} under adding its generators S_L is L. Given left
distributivity, b -> a*b is additive, so B_i * B_j lies in a subgroup
once a * S_j does; and c -> (partial sum) - (direct defect) of the
distributivity series is additive, so the series is exact at every c
once it is at c in {0} ∪ S. A truss that passes its axioms and the
product certificate has alpha = 0. The certificate gives x*s = 0 for
every x and every generator s of the last nonzero level. By the truss
axiom the circle law at c = s reads
(a∘b)*s = a*s + b*s + a*(b*s) + 2 alpha(a), that is
0 = a*0 + 2 alpha(a), and a*0 = -alpha(a) by the axiom at b = c = 0, so
alpha(a) = 0. When a certificate fails, the plain scan runs to name the
first failing pair or triple, so verdicts and witnesses are those of the
exhaustive check. A truss that passes its axioms and a filtration is a
brace on the same tables. The product law at B_m = {0} asks
a*0 = 0 = 0*a, so the truss axiom at b = c = 0 gives alpha(a) = -a*0 = 0
and star is left distributive; circle associativity is then brace
compatibility, by the identity above; and b -> a*b is additive and
raises the level, so it is nilpotent, every circle row b -> a + b + a*b
is a permutation, 0 is the identity and the circle is a group. Last,
every level L = B_j is then an ideal in Rump's sense (J. Algebra 2007):
for u in L and a, b in B, a*(b+u) - a*b and (a+u)*b - a*b lie in L, so
these congruence laws are not checked. The first is a*u by left
distributivity, in B_1 * B_j ⊆ L. For the second, lambda_a(x) = x + a*x
is an automorphism of (B, +) mapping the finite L into L, so it permutes
L and v = lambda_a^-1(u) lies in L; then a + u = a∘v, and compatibility
gives (a+u)*b - a*b = v*b + a*(v*b), where v*b lies in B_j * B_1 ⊆ L and
a*(v*b) in B_1 * L ⊆ L. So no law on alpha is checked beyond the truss
axiom, and the graded structure, built only on input that passes its
checks, is a brace's: the paper's graded theorem, stated for braces and
trusses, is reproduced in its brace case. There the class product is
well defined. Take a in B_i and b in B_j with representatives ra and rb,
and u = a - ra in B_(i+1). lambda_ra permutes B_(i+1), so a = ra∘v with
v = lambda_ra^-1(u) in B_(i+1); compatibility gives a*b - ra*b =
v*b + ra*(v*b) in B_(i+j+1), and ra*b - ra*rb = ra*(b - rb) lies there
by left distributivity. The product is left additive by left
distributivity, and right additive: for a, b in B_i and d in B_j,
c = lambda_a^-1(b) lies in B_i and a + b = a∘c, so
(a+b)*d = a*d + c*d + a*(c*d) with a*(c*d) in B_(i+j+1); and
b - c = a*c lies in B_2i ⊆ B_(i+1), so c*d and b*d share a class by the
first lemma. A truss that passes its checks is a brace on the same
tables, so both lemmas cover it. The distributivity correction series
follows the recursion d0 = a, d0' = b, d_{i+1} = d_i + d_i',
d_{i+1}' = d_i * d_i'; unrolling the brace axiom gives the signs
(-1)^(i+1) with the sum starting at i = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain as ichain, permutations

from .fields import ResourceCapError

MAX_ORDER = 256
"""Largest carrier from_json accepts. A verdict on a group carrier costs
O(n^2 log n) when its certificates pass, but naming a witness scans
O(n^3) triples."""

MAX_SERIES_TERMS = 4096
"""Longest correction series: it is exact once N reaches the chain length,
which is at most the order."""

MAX_LEVELS = 32
"""Most levels a filtration block may list: on generators the product
law of a chain of m levels costs O(m^2 n log n), its scan O(m^2 n^2),
and a strictly descending chain of subgroups on at most MAX_ORDER
elements has at most 9 distinct levels."""


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
    """Shape and entries of both tables. Plain ints in range pass on a
    set of types, a min and a max; else a loop names the first bad entry."""
    if order < 1:
        raise ValueError("a carrier must contain the element 0")
    for name, table in (("add", add), ("star", star)):
        if not isinstance(table, (list, tuple)) or len(table) != order or \
                any(not isinstance(row, (list, tuple)) or len(row) != order
                    for row in table):
            raise ValueError("%s table must be %d x %d" % (name, order,
                                                           order))
        if set(map(type, ichain.from_iterable(table))) == {int} and \
                min(map(min, table)) >= 0 and max(map(max, table)) < order:
            continue
        for row in table:
            for v in row:
                if not _is_index(v, order):
                    raise ValueError("%s entry %r outside carrier" %
                                     (name, v))


def _closure(add, seed):
    """Greedy additive generating set of seed, in sorted order, and its
    span.

    An element not yet reached becomes a generator. The span, the closure
    of {0} under adding generators, grows by right addition, so every
    member is a sum 0+s1+...+sk bracketed from the left; 0 must be the
    additive identity. In a finite group the span is the subgroup seed
    generates, so members holding 0 form a subgroup exactly when they
    are their own span.
    """
    gens, span = [], {0}
    for x in sorted(seed):
        if x in span:
            continue
        gens.append(x)
        todo = [add[e][x] for e in span]
        while todo:
            v = todo.pop()
            if v not in span:
                span.add(v)
                todo.extend(add[v][s] for s in gens)
    return gens, frozenset(span)


def _generators(add, members):
    """Greedy generators of members, or None when they are not their span."""
    gens, span = _closure(add, members)
    return gens if span == members else None


class _Carrier:
    """Shared index arithmetic over the add and star tables."""

    def __init__(self, add, star):
        _check_tables(add, star, len(add))
        self.add = [list(r) for r in add]
        self.star = [list(r) for r in star]
        # the last zero of each row, read from the reversed row
        last = self.order - 1
        self.neg = [last - row[::-1].index(0) if 0 in row else None
                    for row in self.add]
        if None in self.neg:
            raise ValueError("additive inverses missing")
        self.gens = None
        self._group = None
        self._distributive = None

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

    def _left_distributive(self):
        """a*(b+c) = a*b + a*c, certified once; asks for the group verdict
        to have passed."""
        if self._distributive is None:
            self._distributive = _affine_certified(self, [0] * self.order)
        return self._distributive

    def _group_certified(self):
        add, n = self.add, self.order
        if any(add[0][a] != a or add[a][0] != a for a in range(n)) or \
                add != [list(col) for col in zip(*add)]:
            return False
        gens = _generators(add, set(range(n)))
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
    kind = "brace"

    def to_json(self):
        return {"order": self.order, "add": [list(r) for r in self.add],
                "star": [list(r) for r in self.star]}


class FiniteTruss(_Carrier):
    kind = "truss"

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


def gamma_filtration(B) -> Filtration:
    """Chain generated by star products, the brace lower series.

    Gamma_{k+1} spans all products of accumulated levels whose degrees
    sum past k. Raises when the series stalls above zero, which is the
    non-nilpotent case, or runs longer than the order, which a greedy
    span allows only when (B, +) is not a group.
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
        nxt = _closure(B.add, seed)[1]
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


def _circle_failure(B):
    circle = B.circle
    return _first_failure(B.order, lambda a, b, c: circle(circle(a, b), c)
                          != circle(a, circle(b, c)))


def check_brace(B: FiniteBrace) -> Verdict:
    """Brace axioms; the witness is the first failing triple.

    Left distributivity is certified at c in S. Given it, compatibility
    is the circle law triple by triple (module docstring), so the circle
    certificate decides it and the circle's triple scan names the
    witness. The identity and inverses are then read off the tables.
    """
    n = B.order
    base = B._additive_group_verdict()
    if not base:
        return base
    if not B._left_distributive():
        return Verdict(False, "star is not left distributive",
                       _affine_failure(B, [0] * n))
    circ = _circle_table(B)
    if not _circle_certified(B, circ):
        return Verdict(False, "brace compatibility fails", _circle_failure(B))
    if any(B.star[0]):
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


def check_axioms(S) -> Verdict:
    """The axioms S claims by its kind: a truss's, or else a brace's."""
    return check_truss(S) if isinstance(S, FiniteTruss) else check_brace(S)


def _cosets(add, members, sub):
    """Cosets x + sub of the members of a union of them, by least member.

    Returns the class number of each carrier element (None off the
    members) and the least member of each class; walking the members in
    increasing order numbers the cosets by their least members, so the
    class of 0 is 0.
    """
    label, reps = [None] * len(add), []
    for x in sorted(members):
        if label[x] is None:
            for u in sub:
                label[add[x][u]] = len(reps)
            reps.append(x)
    return label, reps


def _products_certified(B, chain, gens):
    """a * s inside B_min(i+j,m) for a in B_i and s generating B_j."""
    m, star = len(chain), B.star
    for i, level in enumerate(chain, start=1):
        for j, sj in enumerate(gens, start=1):
            target = chain[min(i + j, m) - 1]
            if not all(star[a][s] in target for a in level for s in sj):
                return False
    return True


def check_filtration(B, filt: Filtration) -> Verdict:
    """Subgroup levels and degree multiplicativity, on verified input.

    B must pass check_axioms, or the verdict is the refusal "not a
    <kind>: <reason>", as associated_graded raises it. On a structure
    that passes, two laws are checked, and every level that meets them
    is an ideal (module docstring). A level is a subgroup when the
    closure of {0} under its generators is the level (O(|L| |S_L|)
    against O(|L|^2)). B_i * B_j ⊆ B_(i+j) is certified on the
    generators S_j of B_j (sum |B_i| * sum |S_j| against
    (sum |B_i|)^2 lookups), which is complete on a truss too, since one
    that passes it has alpha = 0. Where a certificate fails, the plain
    scan names the witness.
    """
    return _filtration_verdict(B, filt, check_axioms(B))


def _filtration_verdict(B, filt, axioms):
    """check_filtration given axioms = check_axioms(B): the refusal
    "not a <kind>: <reason>" where it failed, else the laws."""
    if not axioms:
        return Verdict(False, "not a %s: %s" % (B.kind, axioms.reason))
    return _filtration_laws(B, filt)


def _filtration_laws(B, filt):
    """check_filtration past its axiom check."""
    chain = filt.chain
    m = filt.length
    if chain[0] != frozenset(range(B.order)):
        return Verdict(False, "chain must start at the whole carrier")
    if chain[-1] != frozenset((0,)):
        return Verdict(False, "chain must end at zero")
    for i in range(m - 1):
        if not chain[i + 1] <= chain[i]:
            return Verdict(False, "chain is not descending", (i + 1,))
    gens = [_generators(B.add, level) for level in chain]
    for i, (level, sl) in enumerate(zip(chain, gens), start=1):
        if sl is not None:
            continue
        for a in level:
            if B.neg[a] not in level:
                return Verdict(False, "level %d not closed under negation"
                               % i, (a,))
            for b in level:
                if B.plus(a, b) not in level:
                    return Verdict(False, "level %d not additively closed"
                                   % i, (a, b))
    # past this point every level is a subgroup, so every sl is set
    if not _products_certified(B, chain, gens):
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                target = chain[min(i + j, m) - 1]
                for a in chain[i - 1]:
                    for b in chain[j - 1]:
                        if B.times(a, b) not in target:
                            return Verdict(False, "B_%d * B_%d escapes B_%d"
                                           % (i, j, min(i + j, m)), (a, b))
    return Verdict(True, "filtration")


@dataclass
class GradedStructure:
    """Homogeneous components Bi/Bi+1 with the induced product.

    Classes are numbered within each degree with 0 the zero class, in
    the order of their least members; class_of[i - 1] maps each member
    of Bi to its class and reps[i - 1] lists the least member of each
    class. Products landing past the top degree are zero and stored as
    None.
    """
    brace: object
    filtration: Filtration
    class_of: list
    reps: list

    @property
    def top(self):
        return len(self.reps)

    def component_orders(self):
        return tuple(len(r) for r in self.reps)

    def cls(self, degree, element):
        return self.class_of[degree - 1][element]

    def product(self, i, c1, j, c2):
        if i + j > self.top:
            return None
        r = self.brace.times(self.reps[i - 1][c1], self.reps[j - 1][c2])
        return self.cls(i + j, r)

    def to_json(self):
        products = {}
        orders = self.component_orders()
        for i in range(1, self.top + 1):
            for j in range(1, self.top + 1):
                for c1 in range(orders[i - 1]):
                    for c2 in range(orders[j - 1]):
                        out = self.product(i, c1, j, c2)
                        if out:
                            products["%d.%d,%d.%d" % (i, c1, j, c2)] = \
                                "%d.%d" % (i + j, out)
        return {"component_orders": list(orders),
                "nonzero_products": products}


def associated_graded(B, filt: Filtration = None) -> GradedStructure:
    """The graded structure of B along filt, by default its star series.

    B must pass its own axioms (check_axioms) and filt check_filtration;
    otherwise ValueError names the failed law. The class product is then
    well defined and biadditive (module docstring), so it is not checked.
    """
    axioms = check_axioms(B)
    if not axioms:
        raise ValueError(_filtration_verdict(B, filt, axioms).reason)
    if filt is None:
        filt = gamma_filtration(B)
    ok = _filtration_laws(B, filt)
    if not ok:
        raise ValueError("invalid filtration: %s" % ok.reason)
    return _graded(B, filt)


def _graded(B, filt):
    """Quotient components B_i / B_(i+1), labelled by cosets.

    Asks for (B, +) a group, star left distributive and filt passing
    check_filtration, as on every input of associated_graded, and raises
    ValueError when the first two fail. Nothing else is checked: on such
    input the class product is well defined and biadditive (module
    docstring).
    """
    if not (B._additive_group_verdict() and B._left_distributive()):
        raise ValueError("graded product needs (B, +) a group and star "
                         "left distributive")
    class_of, reps = [], []
    for level, nxt in zip(filt.chain, filt.chain[1:]):
        label, rep = _cosets(B.add, level, nxt)
        class_of.append(label)
        reps.append(rep)
    return GradedStructure(B, filt, class_of, reps)


def pre_lie_defect(G: GradedStructure):
    """Left symmetry of the graded associator, 0 or the first witness.

    The associator of classes with degrees i, j, k lives in degree
    i+j+k; it is compared through representatives, which the
    well-definedness of the product makes legitimate.
    """
    B, chain, top = G.brace, G.filtration.chain, G.top
    orders = G.component_orders()
    for i in range(1, top + 1):
        for j in range(1, top + 1 - i):
            for k in range(1, top + 1 - i - j):
                target = chain[i + j + k]
                for c1 in range(orders[i - 1]):
                    for c2 in range(orders[j - 1]):
                        for c3 in range(orders[k - 1]):
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


def _series(B, a, b, N, cs):
    """Direct defect (a+b)*c - (a*c + b*c) and partial sums at each c in
    cs, with the pairs (d_i, d_i') computed once for all of them."""
    if not 0 <= N <= MAX_SERIES_TERMS:
        raise ValueError("series length N must be in 0..%d, got %d"
                         % (MAX_SERIES_TERMS, N))
    add, star, neg = B.add, B.star, B.neg
    rows, d, dp = [], a, b
    for _ in range(N):
        # term i at c is (d_i*d_i')*c - d_i*(d_i'*c)
        rows.append((star[star[d][dp]], star[d], star[dp]))
        d, dp = add[d][dp], star[d][dp]
    for c in cs:
        partial, sums = 0, []
        for i, (prod, left, right) in enumerate(rows):
            term = add[prod[c]][neg[left[right[c]]]]
            partial = add[partial][neg[term] if i % 2 == 0 else term]
            sums.append(partial)
        yield add[star[add[a][b]][c]][neg[add[star[a][c]][star[b][c]]]], sums


def distributivity_series(B, a, b, c, N):
    """Partial sums of the correction series against the direct defect.

    Each term i contributes (-1)^(i+1) ((d_i*d_i')*c - d_i*(d_i'*c));
    on a brace nilpotent along a length-m chain the sum is exact once
    N >= m because the terms sink below every level.
    """
    if not all(0 <= t < B.order for t in (a, b, c)):
        raise ValueError("series triple %r is outside the carrier 0..%d"
                         % ([a, b, c], B.order - 1))
    direct, sums = next(_series(B, a, b, N, [c]))
    return {"direct": direct, "partial_sums": sums,
            "exact": bool(sums) and sums[-1] == direct}


def series_exact(B, N):
    """Whether distributivity_series(B, a, b, c, N) is exact at every
    triple, with the (d_i, d_i') recursion run once per (a, b).

    When (B, +) is a group and star is left distributive, every map
    c -> x*c is additive, so c -> (partial sum) - (direct defect) is
    additive too; it vanishes everywhere once it vanishes at c in
    {0} ∪ S, which costs O(n^2 (|S| + 1) N) against O(n^3 N). Otherwise
    every c is tried.
    """
    n = B.order
    certified = B._additive_group_verdict() and B._left_distributive()
    cs = [0] + B.gens if certified else range(n)
    return all(sums and sums[-1] == direct
               for a in range(n) for b in range(n)
               for direct, sums in _series(B, a, b, N, cs))


def enumerate_braces(max_order):
    """Braces on small cyclic groups and the Klein group, by lambda maps.

    A brace is fixed by its map a -> lambda_a into Aut(B, +), with
    a*b = lambda_a(b) - b. On Z/n the automorphisms are the unit
    multiplications, and on the Klein group the six permutations fixing
    0; _lambda_maps searches both lists alike. Yields verified braces in
    a deterministic order: by order, then Z/n before the Klein group,
    then lambda in lexicographic order of indices.
    """
    for n in range(1, max_order + 1):
        groups = [([[(a + b) % n for b in range(n)] for a in range(n)],
                   [[u * b % n for b in range(n)]
                    for u in range(n) if math.gcd(u, n) == 1])]
        if n == 4:
            groups.append(([[a ^ b for b in range(4)] for a in range(4)],
                           [[0, *p] for p in permutations((1, 2, 3))]))
        for add, auts in groups:
            neg = [row.index(0) for row in add]
            for lam in _lambda_maps(add, auts):
                star = [[add[auts[i][b]][neg[b]] for b in range(n)]
                        for i in lam]
                B = FiniteBrace(add, star)
                if not check_brace(B):
                    raise RuntimeError("lambda map produced a non-brace "
                                       "of order %d" % n)
                yield B


def _lambda_maps(add, auts):
    """Maps a -> lambda_a as tuples of indices into auts, with lambda_0 =
    auts[0], the identity, and lambda_{a + lambda_a(b)} = lambda_a lambda_b.

    Depth-first over lambda_1, lambda_2, ... in lexicographic order. A
    branch stops at the first broken constraint whose three elements are
    all assigned; each constraint is tested once, when its largest
    element is. Compositions are read off a table of indices into auts.
    """
    n = len(add)
    comp = [[auts.index([f[v] for v in g]) for g in auts] for f in auts]
    lam = [0] * n

    def holds_at(k):
        for a in range(k + 1):
            f, row = auts[lam[a]], comp[lam[a]]
            for b in range(k + 1):
                c = add[a][f[b]]
                if c <= k and k in (a, b, c) and lam[c] != row[lam[b]]:
                    return False
        return True

    def extend(k):
        if k == n:
            yield tuple(lam)
            return
        for i in range(len(auts)):
            lam[k] = i
            if holds_at(k):
                yield from extend(k + 1)

    return extend(1)


def brace_from_nilpotent_ring(add, mul) -> FiniteBrace:
    """Adjoint brace of a nilpotent ring: star is the ring product.

    Nilpotency is what makes 1+a formally invertible, hence the circle
    a group; the axioms are verified anyway rather than trusted. For a
    ring the star series of gamma_filtration is the power series, so
    nilpotency is read off it; its levels are greedy spans, so (B, +)
    must be a group first.
    """
    B = FiniteBrace(add, mul)
    verdict = B._additive_group_verdict()
    if not verdict:
        raise ValueError("ring addition is not an abelian group: %s"
                         % verdict.reason)
    gamma_filtration(B)
    verdict = check_brace(B)
    if not verdict:
        raise ValueError("ring tables do not satisfy the brace axioms: "
                         "%s" % verdict.reason)
    return B
