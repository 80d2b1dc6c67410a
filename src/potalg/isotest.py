"""Isomorphism decisions for small nilpotent quotient algebras.

These algebras are local: the radical is the span of the positive-degree
basis words and any homomorphism is pinned by where it sends the two
degree-one generators, so the search over a prime field (the lift
search) chooses generator images only. The table is the algebra: the
defining relations are read off it (table_relations), and a candidate
pair is a homomorphism exactly when they evaluate to zero through the
structure constants; bijectivity then makes it an isomorphism. Every
verdict is over the algebras' own field, so over QQ none comes from a
finite field: a rational invariant that differs, such as derivation_dim,
certifies non-isomorphism, and agreeing profiles leave it open. Every
positive witness is re-verified (unital, bijective, multiplicative).

Every vector is a sparse row {basis index: nonzero coefficient}, the
row format of linalg.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from math import lcm
from operator import mul

from .fields import GF, QQ, FieldError, ResourceCapError
from .linalg import kernel, rank, solve

_LIFT_BUDGET = 1 << 18
"""Most invertible linear parts, and most search nodes, a lift search tries."""

_SCALAR = re.compile(r"-?[0-9]+(/[0-9]*[1-9][0-9]*)?")
"""A table entry as to_str writes it: n or n/d with d nonzero."""

_WORD = re.compile("1|[xy]*")
"""A basis word as to_json writes it: 1 for the unit, else x and y."""


def _word_label(w: str) -> str:
    return w if w else "1"


def _combine(field, terms):
    """The sparse row sum of c * row over (c, row) pairs."""
    add, mul = field.add, field.mul
    out = {}
    for c, row in terms:
        for k, v in row.items():
            out[k] = add(out[k], mul(c, v)) if k in out else mul(c, v)
    return {k: v for k, v in out.items() if v}


@dataclass
class FiniteAlgebra:
    """Structure constants on a basis of words with unit at index 0, or
    on no words at all: the zero algebra, which has no unit word.

    A word's degree is its length. table maps an index pair to the
    sparse row of the product; pairs whose product is zero are absent.
    The basis is closed under factors and each word of length two or
    more is the product of its first letter and the rest (check_shape),
    which is what lets table_relations read the relations off the table.
    """
    field: object
    words: list
    table: dict

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}
        self.degrees = [len(w) for w in self.words]

    @property
    def dim(self):
        return len(self.words)

    def basis_vec(self, i):
        return {i: self.field.one}

    def mul(self, u, v):
        f, table = self.field, self.table
        add, fmul = f.add, f.mul
        out = {}
        for i, ci in u.items():
            for j, cj in v.items():
                row = table.get((i, j))
                if row is None:
                    continue
                s = fmul(ci, cj)
                for k, ck in row.items():
                    out[k] = add(out[k], fmul(s, ck)) if k in out \
                        else fmul(s, ck)
        return {k: c for k, c in out.items() if c}

    def check_shape(self):
        """Unit word first, unit rows, closure under factors, each word
        its first letter times the rest, degree filtration.

        Cheap enough to run on every table read from outside, unlike an
        associativity check over all basis triples.
        """
        if self.words and self.words[0] != "":
            raise ValueError("basis must start with the unit word")
        deg = self.degrees
        if deg != sorted(deg):
            raise ValueError("basis must be grouped by ascending degree")
        idx, vec = self.index, self.basis_vec
        for i, w in enumerate(self.words):
            if self.table.get((0, i)) != vec(i):
                raise ValueError("unit fails on the left of index %d" % i)
            if self.table.get((i, 0)) != vec(i):
                raise ValueError("unit fails on the right of index %d" % i)
            if w and (w[:-1] not in idx or w[1:] not in idx):
                raise ValueError("basis is not factor closed at %r" % w)
            if w and self.table.get((idx[w[0]], idx[w[1:]])) != vec(i):
                raise ValueError("%r is not the product of its letters" % w)
        for (i, j), row in self.table.items():
            if any(deg[k] < deg[i] + deg[j] for k in row):
                raise ValueError("product (%d,%d) drops below its "
                                 "filtration degree" % (i, j))

    def hilbert(self):
        return tuple(map(self.degrees.count,
                         range(max(self.degrees, default=-1) + 1)))

    def to_json(self):
        f, labels = self.field, [_word_label(w) for w in self.words]
        zeros = [f.to_str(f.zero)] * self.dim
        table = {}
        for (i, j), row in sorted(self.table.items()):
            table["%s,%s" % (labels[i], labels[j])] = dense = zeros.copy()
            for k, c in row.items():
                dense[k] = f.to_str(c)
        return {"field": f.name, "basis": labels,
                "degrees": list(self.degrees), "table": table}


def table_relations(F: FiniteAlgebra):
    """The defining relations a w - a * w, as rows {word: coefficient},
    for each letter a and basis word w where a w is not a basis word but
    a w[:-1] is. On a basis that passes check_shape these are the leads
    of the reduced rewriting system with their normal forms (Bergman's
    diamond lemma, Adv. Math. 1978)."""
    f, idx, words = F.field, F.index, F.words
    return [{a + w: f.one, **{words[k]: f.neg(c) for k, c in
                              F.table.get((idx[a], j), {}).items()}}
            for j, w in enumerate(words) for a in "xy"
            if a + w not in idx and a + w[:-1] in idx]


def from_quotient(Q) -> FiniteAlgebra:
    """Structure constants of a finite quotient.QuotientAlgebra from 2n
    normal forms. Only here does isotest use the polynomial engine, so
    iso, which reads tables, never loads it.

    Left multiplication by a letter a has the columns NF(a w), one per
    basis word w. The basis is suffix closed, so every other product
    follows suffix-first: (a u) v = L_a (u v), with 1 v = v. The longest
    word reduced is one letter longer than the longest basis word, which
    is within the cap, so no product is cut at the cap.
    """
    from .freepoly import FreePoly
    from .rewrite import normal_form
    if not Q.finite:
        raise ValueError("only finite-dimensional quotients have tables")
    system, f, words = Q.system, Q.system.field, Q.basis_words
    n = len(words)
    idx = {w: i for i, w in enumerate(words)}
    left = {}
    for a in "xy":
        cols = []
        for w in words:
            nf = normal_form(FreePoly.term(a + w, f.one, f, system.cap),
                             system)
            if any(t not in idx for t in nf.terms):
                raise AssertionError("product %r * %r left the normal basis"
                                     % (a, w))
            cols.append({idx[t]: c for t, c in nf.terms.items()})
        left[a] = cols
    rows = {}
    for i, u in enumerate(words):
        for j in range(n):
            if u:
                cols = left[u[0]]
                row = _combine(f, ((c, cols[k]) for k, c in
                                   rows.get((idx[u[1:]], j), {}).items()))
            else:
                row = {j: f.one}
            if row:
                rows[(i, j)] = row
    return FiniteAlgebra(f, list(words), rows)


def algebra_mod_p(F: FiniteAlgebra, p: int) -> FiniteAlgebra:
    """Entry-wise reduction of a rational table to the p-element field.

    Entries and rows that vanish mod p are dropped. Fails when any
    structure constant has a denominator divisible by p; the relations
    read off the reduced table are the rational ones reduced mod p.
    """
    gf = GF(p)
    if F.field.characteristic == p:
        return F
    if F.field.characteristic != 0:
        raise FieldError("cannot move between prime fields")
    table = {}
    for pair, row in F.table.items():
        row = {k: r for k, c in row.items() if (r := gf.coerce(c))}
        if row:
            table[pair] = row
    return FiniteAlgebra(gf, list(F.words), table)


def _scalar(field, c):
    if type(c) is int or (isinstance(c, str) and _SCALAR.fullmatch(c)):
        return field.coerce(c)
    raise ValueError("table entry %r is not an integer or a string n or "
                     "n/d with d nonzero" % (c,))


def algebra_from_json(doc) -> FiniteAlgebra:
    """Rebuild an algebra from its serialized table.

    The document comes from outside, so its shape is checked (ValueError
    otherwise); full associativity is not, being cubic in the dimension.
    Rows are dense there and sparse here: only nonzero entries are kept.
    The basis is empty only for the zero algebra, whose table is {}.
    Other keys, such as dim's relations and name, are ignored.
    """
    for key in ("basis", "degrees", "table"):
        if key not in doc:
            raise ValueError("an algebra document needs the key %r" % key)
    name = doc.get("field", "QQ")
    if name == "QQ":
        field = QQ
    elif isinstance(name, str) and re.fullmatch(r"GF\([0-9]+\)", name):
        field = GF(int(name[3:-1]))
    else:
        raise ValueError("unknown field %r" % name)
    basis = doc["basis"]
    if not (isinstance(basis, list) and (basis or doc["table"] == {})
            and all(isinstance(w, str) and _WORD.fullmatch(w) for w in basis)):
        raise ValueError("basis must be a list of words in x and y, with 1 "
                         "for the unit word, and empty only with table {}")
    words = [w if w != "1" else "" for w in basis]
    n = len(words)
    degrees = doc["degrees"]
    if (degrees != [len(w) for w in words]
            or any(type(d) is not int for d in degrees)):
        raise ValueError("degrees must list the length of each basis word")
    if not isinstance(doc["table"], dict):
        raise ValueError("table must be an object keyed by basis pairs")
    idx = {w: i for i, w in enumerate(words)}
    table, strings = {}, {}

    # a string entry is read once; 1, 1.0 and True are one dict key
    def scalar(c):
        if type(c) is str and c not in strings:
            strings[c] = _scalar(field, c)
        return strings[c] if type(c) is str else _scalar(field, c)

    for key, row in doc["table"].items():
        pair = tuple(idx.get(w if w != "1" else "") for w in key.split(","))
        if len(pair) != 2 or None in pair:
            raise ValueError("table key %r does not name two basis words"
                             % key)
        if not isinstance(row, list) or len(row) != n:
            raise ValueError("table row %r does not have %d entries"
                             % (key, n))
        table[pair] = {k: v for k, c in enumerate(row)
                       if c != "0" and (v := scalar(c))}
    alg = FiniteAlgebra(field, words, {p: r for p, r in table.items() if r})
    alg.check_shape()
    return alg


@dataclass
class IsoVerdict:
    status: str                      # isomorphic | not_isomorphic | inconclusive
    witness: object = None
    certificate: object = None

    def to_json(self):
        doc = {"status": self.status}
        if self.witness is not None:
            doc["witness"] = self.witness
        if self.certificate is not None:
            doc["certificate"] = self.certificate
        return doc


def _word_images(B, vx, vy):
    """Image in B of any word at the generator images, suffix-first.

    w = c w' maps to image(c) * image(w'), and every image is memoized,
    so words that share a suffix share its evaluation.
    """
    memo = {"": B.basis_vec(0)}
    gen = {"x": vx, "y": vy}

    def image(w):
        if w not in memo:
            memo[w] = B.mul(gen[w[0]], image(w[1:]))
        return memo[w]
    return image


def _residuals(rels, B, vx, vy, degree):
    """The relations rels at the generator images in B, in the
    coordinates of the given degree, labelled (relation, basis index).

    The images have no unit part and products never fall below their
    filtration degree (check_shape), so longer words are skipped.
    """
    image = _word_images(B, vx, vy)
    values = (_combine(B.field, ((c, image(w)) for w, c in rel.items()
                                 if len(w) <= degree)) for rel in rels)
    return {(r, k): c for r, value in enumerate(values)
            for k, c in value.items() if B.degrees[k] == degree}


def is_isomorphism(A: FiniteAlgebra, B: FiniteAlgebra, vx, vy):
    """Full verification of a candidate pair of generator images.

    Checks that the induced linear map is bijective and multiplicative
    on every basis pair (which subsumes the relations) and fixes the
    unit. Returns (ok, detail).
    """
    if A.dim != B.dim or A.field != B.field:
        return False, "shape mismatch"
    image = _word_images(B, vx, vy)
    imgs = [image(w) for w in A.words]
    if rank(imgs, B.field) != B.dim:
        return False, "not bijective"
    for i in range(A.dim):
        for j in range(A.dim):
            rhs = _combine(B.field, ((c, imgs[k]) for k, c in
                                     A.table.get((i, j), {}).items()))
            if B.mul(imgs[i], imgs[j]) != rhs:
                return False, "not multiplicative at (%d, %d)" % (i, j)
    return True, "verified"


def _witness_doc(B, vx, vy):
    f = B.field
    return {"field": f.name,
            "x": {_word_label(B.words[i]): f.to_str(c)
                  for i, c in vx.items()},
            "y": {_word_label(B.words[i]): f.to_str(c)
                  for i, c in vy.items()}}


def _basis_entries(F: FiniteAlgebra):
    """The profile entries read off the basis words alone."""
    return {"hilbert": list(F.hilbert()) + [0], "dimension": F.dim}


def _first_difference(A, B, pa, pb):
    """not_isomorphic on the first entry where the profiles pa of A and
    pb of B differ, walking dimension, hilbert, then the rest by name;
    None when they agree. Every entry but the dimension is an invariant
    of associative tables only, so a verdict on one first runs
    _check_associative on both (ValueError)."""
    keys = ["dimension", "hilbert"]
    keys += sorted(k for k in pa if k not in keys)
    key = next((k for k in keys if pa[k] != pb[k]), None)
    if key is None:
        return None
    if key != "dimension":
        _check_associative(A, B)
    return IsoVerdict("not_isomorphic", certificate={
        "invariant": key, "field": A.field.name, "a": pa[key], "b": pb[key]})


def _basis_verdict(A: FiniteAlgebra, B: FiniteAlgebra):
    """The verdict the bases alone give, or None: not_isomorphic on the
    dimension or the Hilbert data, and the zero map between two zero
    algebras, which have no unit word to search from. Otherwise the
    algebras must have the two degree-one generators x and y that the
    lift search and derivation_dim read (ValueError)."""
    verdict = _first_difference(A, B, _basis_entries(A), _basis_entries(B))
    if verdict is None and not A.dim:
        verdict = IsoVerdict("isomorphic", witness={"x": {}, "y": {}})
    if verdict is None and A.hilbert()[1:2] != (2,):
        raise ValueError("expected exactly two degree-one generators")
    return verdict


def _check_associative(*algebras):
    """ValueError at the first basis triple (g, b, c), g a generator, with
    (g b) c != g (b c). On a table that passes check_shape, where words
    of degree one can only be at 1 and 2, these 2 n^2 checks prove
    associativity by induction on the length of a: a = g a' with a'
    shorter, and (a b) c = (g (a' b)) c = g ((a' b) c) = g (a' (b c)) =
    a (b c), the checks being linear in b and c."""
    for F in algebras:
        one, row, mul = F.basis_vec, F.table.get, F.mul
        for g, b, c in product((1, 2), range(F.dim), range(F.dim)):
            if mul(row((g, b), {}), one(c)) != mul(one(g), row((b, c), {})):
                raise ValueError("table is not associative at basis "
                                 "triple %r" % ((g, b, c),))


def _int_table(F: FiniteAlgebra):
    """D, the constants' common denominator, and the table times D, each
    row a list of (index, int) pairs."""
    D = lcm(*(c.denominator for row in F.table.values() for c in row.values()))
    return D, {pair: [(k, c.numerator * (D // c.denominator)) for k, c in
                      row.items()] for pair, row in F.table.items()}


def derivation_dim(F: FiniteAlgebra, ints=None):
    """The dimension of Der(F) over F's own field.

    x and y generate F, so a derivation D is fixed by the 2n coordinates
    of D(x) and D(y); it is well defined exactly when D(r) = 0 for each
    relation r of table_relations. D(w) sums e_{w[:i]} D(w_i) e_{w[i+1:]}
    over the positions i of w, and each factor is a basis word, so a
    coefficient is two table lookups; degrees above top - len(w) + 1 in
    D(w_i) vanish there. Constants times their common denominator are
    multiplied as ints: ints, or _int_table(F). Der(F) is the kernel of a
    linear system over F's field, so its dimension is unchanged under
    field extension (de Graaf, Lie Algebras: Theory and Algorithms, 2000).
    """
    n, f, idx, deg = F.dim, F.field, F.index, F.degrees
    p = f.characteristic
    D, table = ints or _int_table(F)
    rows = {}                        # (relation, basis index) -> equation
    for r, rel in enumerate(table_relations(F)):
        for w, c in rel.items():
            c = c.numerator * (D // c.denominator)
            reach = bisect_right(deg, deg[-1] + 1 - len(w))
            for i, a in enumerate(w):
                u, v, base = idx[w[:i]], idx[w[i + 1:]], n * (a == "y")
                for k in range(reach):
                    for j, c1 in table.get((u, k), ()):
                        for t, c2 in table.get((j, v), ()):
                            row = rows.setdefault((r, t), {})
                            row[base + k] = row.get(base + k, 0) + c * c1 * c2
    eqs = [{k: e for k, v in row.items() if (e := v % p if p else v)}
           for row in rows.values()]
    return 2 * n - rank(eqs, f)


def algebra_profile(F: FiniteAlgebra):
    """Field-independent fingerprint used before any isomorphism search.

    Annihilators and the center are exact kernel dimensions against the
    table; the center only needs commuting with the degree-one words,
    which generate. With derivation_dim, each entry is a dimension of
    the kernel of a linear system over F's field, unchanged under field
    extension; all are read off _int_table(F), whose ranks are the table's.
    """
    f = F.field
    n = F.dim
    ints = _int_table(F)
    table = ints[1]

    def row(w, side, gs):
        # coordinates of w g (side 0), g w (side 1) or w g - g w (side 2)
        # for every g in gs, as one sparse row: the n rows are the
        # transposed matrix of a -> (those products), whose kernel has
        # dimension n minus their rank
        out = {}
        for g in gs:
            a, b = table.get((w, g), ()), table.get((g, w), ())
            vec = a if side == 0 else b if side == 1 else \
                _combine(f, ((1, dict(a)), (-1, dict(b)))).items()
            out.update(((side, g, t), c) for t, c in vec)
        return out

    gens = range(1, n)
    deg1 = [g for g in gens if F.degrees[g] == 1]
    left = [row(w, 0, gens) for w in range(n)]
    right = [row(w, 1, gens) for w in range(n)]
    both = [{**a, **b} for a, b in zip(left, right)]
    return {
        **_basis_entries(F),
        "derivation_dim": derivation_dim(F, ints),
        "left_annihilator_dim": n - rank(left, f),
        "right_annihilator_dim": n - rank(right, f),
        "two_sided_annihilator_dim": n - rank(both, f),
        "center_dim": n - rank([row(w, 2, deg1) for w in range(n)], f),
    }


def _linearized(rels, B, deg1):
    """The degree-2 filter and the stage columns, from words of length 2.

    With u = (a, b, c, d) for x -> a e1 + b e2, y -> c e1 + d e2, let
    q(l, m) be the residuals of the words st of rels with l put for s
    and m for t. Products never fall below their filtration degree
    (check_shape), so the degree-2 residuals are sum_lm u_l u_m q(l, m):
    forms kept by their coefficients on u_l u_m, l <= m. And an unknown
    e of degree d moves the degree d+1 residuals by sum_m u_m (q(e, m) +
    q(m, e)) at every node; effects[e] holds those four rows.
    """
    f = B.field
    two = [{(w[0], w[1]): c for w, c in r.items() if len(w) == 2}
           for r in rels]
    lin = [(s, i) for s in "xy" for i in deg1]

    def q(degree, *pairs):
        return _combine(f, ((c[s, t], {(r, k): v for k, v in
                                       B.table.get((i, j), {}).items()
                                       if B.degrees[k] == degree})
                            for (s, i), (t, j) in pairs
                            for r, c in enumerate(two) if (s, t) in c))

    monomials = [q(2, (l, m), (m, l)) if l != m else q(2, (l, l))
                 for n, l in enumerate(lin) for m in lin[n:]]
    forms = [[row.get(label, f.zero) for row in monomials]
             for label in sorted({label for row in monomials
                                  for label in row})]
    effects = {e: [q(B.degrees[e[1]] + 1, (e, m), (m, e)) for m in lin]
               for e in product("xy", range(B.dim)) if B.degrees[e[1]] > 1}
    return forms, effects


def lifted_iso_search(A: FiniteAlgebra, B: FiniteAlgebra) -> IsoVerdict:
    """Linear part first, then degree-by-degree coefficient lifting.

    Both algebras live over one p-element field and pass check_shape
    and _check_associative, on which table_relations and _linearized
    rest (a table that fails raises ValueError); candidates are tested
    against A's relations as read off its table. The (p^2 - 1)(p^2 - p)
    invertible linear parts are tried in lexicographic order, unless
    there are more than _LIFT_BUDGET (ResourceCapError); one goes on
    where the degree-2 forms vanish. The degree d unknowns then solve an
    affine system on the degree d+1 residuals, with columns built once
    per linear part and stage and the node's residual as right-hand
    side, explored zeros-first (particular solution, then kernel
    combinations). A verdict of not_isomorphic certifies that no linear
    part admits any lift over this field.
    """
    p = A.field.characteristic
    if not p:
        raise ValueError("lifted search needs a finite field; "
                         "pass --field P")
    if A.field != B.field:
        raise ValueError("lift needs a common field")
    A.check_shape()
    B.check_shape()
    verdict = _basis_verdict(A, B)
    if verdict:
        return verdict
    _check_associative(A, B)
    f = B.field
    deg1 = [i for i in range(B.dim) if B.degrees[i] == 1]
    parts = (p * p - 1) * (p * p - p)
    if parts > _LIFT_BUDGET:
        raise ResourceCapError("%d invertible linear parts over %s exceed "
                               "the lift budget %d"
                               % (parts, f.name, _LIFT_BUDGET))
    rels = table_relations(A)
    stages = range(2, max(B.degrees) + 1)
    slots_by_stage = {d: [(letter, i) for letter in "xy"
                          for i in range(B.dim) if B.degrees[i] == d]
                      for d in stages}
    labels_by_stage = {d: [(r, k) for r in range(len(rels))
                           for k in range(B.dim) if B.degrees[k] == d + 1]
                       for d in stages}
    forms, effects = _linearized(rels, B, deg1)
    scalars = range(p)
    visited = 0
    cols_at = {}                     # stage columns of the linear part u

    def dfs(vx, vy, stage_i):
        nonlocal visited
        visited += 1
        if visited > _LIFT_BUDGET:
            raise ResourceCapError("lift exploration exceeded %d nodes"
                                   % _LIFT_BUDGET)
        if stage_i == len(stages):
            ok, _ = is_isomorphism(A, B, vx, vy)
            return (vx, vy) if ok else None
        d = stages[stage_i]
        slots = slots_by_stage[d]
        if d not in cols_at:
            cols_at[d] = [_combine(f, zip(u, effects[s])) for s in slots]
        rhs = {label: f.neg(c) for label, c in
               _residuals(rels, B, vx, vy, d + 1).items()}
        part, stalled, reduced = solve(cols_at[d], labels_by_stage[d],
                                       rhs, f)
        if stalled:
            return None
        part = dict(zip(slots, part))
        basis = [dict(zip(slots, vec))
                 for vec in kernel(reduced, len(slots), f)]
        # kernel combinations zeros first, in lexicographic order
        for combo in product(scalars, repeat=len(basis)):
            t = _combine(f, [(f.one, part)] + list(zip(combo, basis)))
            wx, wy = dict(vx), dict(vy)
            for (letter, slot), val in t.items():
                (wx if letter == "x" else wy)[slot] = val
            hit = dfs(wx, wy, stage_i + 1)
            if hit:
                return hit
        return None

    for u in product(scalars, repeat=4):
        if not (u[0] * u[3] - u[1] * u[2]) % p:
            continue
        monomials = [u[m] * u[n] for m in range(4) for n in range(m, 4)]
        if any(sum(map(mul, q, monomials)) % p for q in forms):
            continue
        cols_at.clear()
        hit = dfs({k: v for k, v in zip(deg1, u[:2]) if v},
                  {k: v for k, v in zip(deg1, u[2:]) if v}, 0)
        if hit:
            pa, pb = algebra_profile(A), algebra_profile(B)
            if pa != pb:
                raise AssertionError("witness found between algebras with "
                                     "different profiles: %r vs %r"
                                     % (pa, pb))
            return IsoVerdict("isomorphic",
                              witness=_witness_doc(B, hit[0], hit[1]))
    return IsoVerdict("not_isomorphic",
                      certificate={"method": "lift-exhaustion",
                                   "field": f.name,
                                   "linear_parts": parts})


STRATEGIES = ("auto", "lift", "invariants")


def distinguish_algebras(A: FiniteAlgebra, B: FiniteAlgebra,
                         strategy="auto") -> IsoVerdict:
    """The iso verdict for two algebras over one field, by strategy.

    Every strategy first answers from the bases (_basis_verdict). lift
    is then lifted_iso_search alone; invariants compares the profiles,
    whose mismatch settles non-isomorphism over the algebras' own field.
    auto tries the identity on equal tables, then the profiles, then,
    over a finite field only, a lift search. Over QQ no verdict comes
    from a finite field: agreeing profiles leave the rational question
    open (inconclusive), as they do for invariants.
    """
    if strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r" % (strategy,))
    if A.field != B.field:
        raise ValueError("the algebras live over different fields; "
                         "pass --field to align them")
    verdict = _basis_verdict(A, B)
    if verdict:
        return verdict
    if strategy == "lift":
        return lifted_iso_search(A, B)
    if strategy == "auto" and A.words == B.words and A.table == B.table:
        vx = A.basis_vec(A.index["x"])
        vy = A.basis_vec(A.index["y"])
        ok, _ = is_isomorphism(A, B, vx, vy)
        if ok:
            return IsoVerdict("isomorphic", witness=_witness_doc(A, vx, vy))
    verdict = _first_difference(A, B, algebra_profile(A), algebra_profile(B))
    if verdict:
        return verdict
    if strategy == "auto" and A.field.characteristic:
        return lifted_iso_search(A, B)
    return IsoVerdict("inconclusive", certificate={"profiles": "agree",
                                                   "field": A.field.name})
