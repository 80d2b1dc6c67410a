"""Isomorphism decisions for small nilpotent quotient algebras.

These algebras are local: the radical is the span of the positive-degree
basis words and any homomorphism is pinned by where it sends the two
degree-one generators, so the search over a prime field (the lift
search) chooses generator images only. A candidate pair is a
homomorphism exactly when the defining relations evaluate to zero
through the structure constants; bijectivity then makes it an
isomorphism. Verdicts over a prime field are explicit proxies for
the rational question: only a rational invariant mismatch certifies
non-isomorphism over the rationals, and every positive witness is
re-verified (unital, bijective, multiplicative on all basis pairs).

Every vector is a sparse row {basis index: nonzero coefficient}, the
row format of linalg.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from operator import mul

from .fields import GF, QQ, FieldError, ResourceCapError
from .freepoly import FreePoly
from .linalg import kernel, rank, solve
from .quotient import QuotientAlgebra
from .rewrite import normal_form

_LIFT_BUDGET = 1 << 18
"""Most invertible linear parts, and most search nodes, a lift search tries."""

_PROXY_PRIMES = (3, 5, 7)

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
    relations, when carried, are the defining relations rewritten over
    the same field and are what candidate homomorphisms are tested
    against.
    """
    field: object
    words: list
    table: dict
    relations: list = None
    name: str = ""

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
        """Unit word first, suffix closure, unit rows, degree filtration.

        Cheap enough to run on every table read from outside, unlike an
        associativity check over all basis triples.
        """
        if self.words and self.words[0] != "":
            raise ValueError("basis must start with the unit word")
        deg = self.degrees
        if deg != sorted(deg):
            raise ValueError("basis must be grouped by ascending degree")
        for w in self.words[1:]:
            if w[1:] not in self.index:
                raise ValueError("basis is not suffix closed at %r" % w)
        for i in range(self.dim):
            if self.table.get((0, i)) != self.basis_vec(i):
                raise ValueError("unit fails on the left of index %d" % i)
            if self.table.get((i, 0)) != self.basis_vec(i):
                raise ValueError("unit fails on the right of index %d" % i)
        for (i, j), row in self.table.items():
            if any(deg[k] < deg[i] + deg[j] for k in row):
                raise ValueError("product (%d,%d) drops below its "
                                 "filtration degree" % (i, j))

    def hilbert(self):
        return tuple(map(self.degrees.count, range(max(self.degrees) + 1)))

    def to_json(self):
        f, labels = self.field, [_word_label(w) for w in self.words]
        zeros = [f.to_str(f.zero)] * self.dim
        table = {}
        for (i, j), row in sorted(self.table.items()):
            table["%s,%s" % (labels[i], labels[j])] = dense = zeros.copy()
            for k, c in row.items():
                dense[k] = f.to_str(c)
        doc = {"field": f.name, "basis": labels,
               "degrees": list(self.degrees), "table": table}
        if self.relations is not None:
            from .parsing import render
            doc["relations"] = [render(r) for r in self.relations]
        if self.name:
            doc["name"] = self.name
        return doc


def from_quotient(Q: QuotientAlgebra, name="") -> FiniteAlgebra:
    """Structure constants of a finite quotient from 2n normal forms.

    Left multiplication by a letter a has the columns NF(a w), one per
    basis word w. The basis is suffix closed, so every other product
    follows suffix-first: (a u) v = L_a (u v), with 1 v = v. The longest
    word reduced is one letter longer than the longest basis word, which
    is within the cap, so no product is cut at the cap.
    """
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
    return FiniteAlgebra(f, list(words), rows, list(system.elements), name)


def algebra_mod_p(F: FiniteAlgebra, p: int) -> FiniteAlgebra:
    """Entry-wise reduction of a rational table to the p-element field.

    Entries and rows that vanish mod p are dropped. Fails when any
    structure constant or relation coefficient has a denominator
    divisible by p.
    """
    if F.field.characteristic == p:
        return F
    if F.field.characteristic != 0:
        raise FieldError("cannot move between prime fields")
    gf = GF(p)
    table = {}
    for pair, row in F.table.items():
        row = {k: r for k, c in row.items() if (r := gf.coerce(c))}
        if row:
            table[pair] = row
    rels = None if F.relations is None else \
        [r.map_coeffs(gf.coerce, gf) for r in F.relations]
    return FiniteAlgebra(gf, list(F.words), table, rels, F.name)


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
    """
    from .parsing import parse_poly
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
    table = {}
    for key, row in doc["table"].items():
        pair = tuple(idx.get(w if w != "1" else "") for w in key.split(","))
        if len(pair) != 2 or None in pair:
            raise ValueError("table key %r does not name two basis words"
                             % key)
        if not isinstance(row, list) or len(row) != n:
            raise ValueError("table row %r does not have %d entries"
                             % (key, n))
        table[pair] = {k: v for k, c in enumerate(row)
                       if c != "0" and (v := _scalar(field, c))}
    rels = None
    if "relations" in doc:
        texts = doc["relations"]
        if not (isinstance(texts, list)
                and all(isinstance(t, str) for t in texts)):
            raise ValueError("relations must be a list of strings")
        rels = [parse_poly(t, field) for t in texts]
    alg = FiniteAlgebra(field, words,
                        {pair: row for pair, row in table.items() if row},
                        rels, doc.get("name", ""))
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


def _residuals(A, B, vx, vy, degree):
    """A's relations at the generator images in B, in the coordinates of
    the given degree, labelled (relation, basis index).

    The images have no unit part and products never fall below their
    filtration degree (check_shape), so longer words are skipped.
    """
    image = _word_images(B, vx, vy)
    values = (_combine(B.field, ((c, image(w)) for w, c in rel.terms.items()
                                 if len(w) <= degree)) for rel in A.relations)
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


def algebra_profile(F: FiniteAlgebra):
    """Field-independent fingerprint used before any isomorphism search.

    Radical powers are spanned by basis words of degree >= k, so their
    dimensions come straight from the Hilbert data. Annihilators and the
    center are exact kernel dimensions against the table; the center
    only needs commuting with the degree-one words, which generate.
    """
    f = F.field
    n = F.dim
    h = F.hilbert() + (0,)
    rad_dims = [sum(h[k:]) for k in range(1, len(h))]
    minus_one = f.neg(f.one)

    def row(w, side, gs):
        # coordinates of w g (side 0), g w (side 1) or w g - g w (side 2)
        # for every g in gs, as one sparse row: the n rows are the
        # transposed matrix of a -> (those products), whose kernel has
        # dimension n minus their rank
        out = {}
        for g in gs:
            a, b = F.table.get((w, g), {}), F.table.get((g, w), {})
            vec = a if side == 0 else b if side == 1 else \
                _combine(f, ((f.one, a), (minus_one, b)))
            out.update(((side, g, t), c) for t, c in vec.items())
        return out

    gens = range(1, n)
    deg1 = [g for g in gens if F.degrees[g] == 1]
    left = [row(w, 0, gens) for w in range(n)]
    right = [row(w, 1, gens) for w in range(n)]
    both = [{**a, **b} for a, b in zip(left, right)]
    return {
        "hilbert": list(h),
        "dimension": n,
        "radical_power_dims": rad_dims,
        "left_annihilator_dim": n - rank(left, f),
        "right_annihilator_dim": n - rank(right, f),
        "two_sided_annihilator_dim": n - rank(both, f),
        "center_dim": n - rank([row(w, 2, deg1) for w in range(n)], f),
    }


def _linearized(A, B, deg1):
    """The degree-2 filter and the stage columns, from words of length 2.

    With u = (a, b, c, d) for x -> a e1 + b e2, y -> c e1 + d e2, let
    q(l, m) be the residuals of A's words st with l put for s and m for
    t. Products never fall below their filtration degree (check_shape),
    so the degree-2 residuals are sum_lm u_l u_m q(l, m): forms kept by
    their coefficients on u_l u_m, l <= m. And an unknown e of degree d
    moves the degree d+1 residuals by sum_m u_m (q(e, m) + q(m, e)) at
    every node; effects[e] holds those four rows.
    """
    f = B.field
    two = [{(w[0], w[1]): c for w, c in r.terms.items() if len(w) == 2}
           for r in A.relations]
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

    Both algebras live over one p-element field and pass check_shape,
    which _linearized rests on. The (p^2 - 1)(p^2 - p) invertible linear
    parts are tried in lexicographic order, unless there are more than
    _LIFT_BUDGET (ResourceCapError); one goes on where the degree-2
    forms vanish. The degree d unknowns then solve an affine system on
    the degree d+1 residuals, with columns built once per linear part
    and stage and the node's residual as right-hand side, explored
    zeros-first (particular solution, then kernel combinations). A
    verdict of not_isomorphic certifies that no linear part admits any
    lift over this field.
    """
    p = A.field.characteristic
    if not p:
        raise ValueError("lifted search needs a finite field; "
                         "pass --field P")
    if A.field != B.field:
        raise ValueError("lift needs a common field")
    A.check_shape()
    B.check_shape()
    if A.dim != B.dim or sorted(A.degrees) != sorted(B.degrees):
        return IsoVerdict("not_isomorphic",
                          certificate={"invariant": "graded dimensions",
                                       "a": A.hilbert(), "b": B.hilbert()})
    if A.relations is None:
        raise ValueError("lifted search needs the defining relations")
    f = B.field
    deg1 = [i for i in range(B.dim) if B.degrees[i] == 1]
    if len(deg1) != 2:
        raise ValueError("expected exactly two degree-one generators")
    parts = (p * p - 1) * (p * p - p)
    if parts > _LIFT_BUDGET:
        raise ResourceCapError("%d invertible linear parts over %s exceed "
                               "the lift budget %d"
                               % (parts, f.name, _LIFT_BUDGET))
    stages = range(2, max(B.degrees) + 1)
    slots_by_stage = {d: [(letter, i) for letter in "xy"
                          for i in range(B.dim) if B.degrees[i] == d]
                      for d in stages}
    labels_by_stage = {d: [(r, k) for r in range(len(A.relations))
                           for k in range(B.dim) if B.degrees[k] == d + 1]
                       for d in stages}
    forms, effects = _linearized(A, B, deg1)
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
               _residuals(A, B, vx, vy, d + 1).items()}
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

    tried = 0
    for u in product(scalars, repeat=4):
        if not (u[0] * u[3] - u[1] * u[2]) % p:
            continue
        tried += 1
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
                                   "linear_parts": tried})


def zero_algebra_verdict(A: FiniteAlgebra, B: FiniteAlgebra):
    """The verdict when A or B is the zero algebra, else None.

    The zero algebra has no unit word to profile or search from; its
    total dimension, a rational invariant, tells it apart, and the zero
    map is the one isomorphism between two zero algebras.
    """
    if A.dim and B.dim:
        return None
    if A.dim == B.dim:
        return IsoVerdict("isomorphic", witness={"x": {}, "y": {}})
    return IsoVerdict("not_isomorphic", certificate={
        "invariant": "dimension", "field": A.field.name,
        "a": A.dim, "b": B.dim})


def distinguish_algebras(A: FiniteAlgebra, B: FiniteAlgebra) -> IsoVerdict:
    """Invariants first, then proxy lift searches over GF(3), GF(5), GF(7).

    A profile mismatch settles non-isomorphism over the algebras' own
    field. Otherwise, for rational tables, non-isomorphism over some
    proxy prime is reported with the field disclosed, and agreement
    over every proxy leaves the rational question open (inconclusive).
    """
    if A.field != B.field:
        raise ValueError("distinguish needs a common base field")
    zero = zero_algebra_verdict(A, B)
    if zero:
        return zero
    if (A.words == B.words and A.table == B.table
            and "x" in A.index and "y" in A.index):
        vx = A.basis_vec(A.index["x"])
        vy = A.basis_vec(A.index["y"])
        ok, _ = is_isomorphism(A, B, vx, vy)
        if ok:
            return IsoVerdict("isomorphic", witness=_witness_doc(A, vx, vy))
    pa = algebra_profile(A)
    pb = algebra_profile(B)
    for key in pa:
        if pa[key] != pb[key]:
            return IsoVerdict("not_isomorphic",
                              certificate={"invariant": key,
                                           "field": A.field.name,
                                           "a": pa[key], "b": pb[key]})
    if A.field.characteristic != 0:
        return lifted_iso_search(A, B)
    report = {}
    for p in _PROXY_PRIMES:
        try:
            Ap = algebra_mod_p(A, p)
            Bp = algebra_mod_p(B, p)
        except FieldError as exc:
            report["GF(%d)" % p] = "skipped: %s" % exc
            continue
        verdict = lifted_iso_search(Ap, Bp)
        report["GF(%d)" % p] = verdict.status
        if verdict.status == "not_isomorphic":
            verdict.certificate["note"] = ("finite-field proxy; rational "
                                           "profiles agree")
            return verdict
    return IsoVerdict("inconclusive",
                      certificate={"rational_profiles": "agree",
                                   "proxies": report})
