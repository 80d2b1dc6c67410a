"""Isomorphism search: reductions, lifting against a brute-force
reference, invariants."""

import functools
import itertools
import random

import pytest

from potalg import isotest
from potalg.fields import GF, QQ, FieldError, ResourceCapError
from potalg.freepoly import FreePoly, Substitution, substitute
from potalg.isotest import (FiniteAlgebra, algebra_from_json, algebra_mod_p,
                            algebra_profile, derivation_dim,
                            distinguish_algebras, from_quotient,
                            is_isomorphism, lifted_iso_search,
                            table_relations)
from potalg.linalg import rank
from potalg.parsing import parse_poly
from potalg.potential import relations_of
from potalg.quotient import hilbert
from potalg.rewrite import complete, normal_form
from potalg.words import MonomialOrder

from helpers import (dense, dense_mul, linear_images, random_poly,
                     reference_derivation_dim, reference_lift, residuals,
                     stage_system, validate)

XY = MonomialOrder()

R1 = ("x y + y x", "x^2 + y^3")
R2 = ("x y + y x", "x^2 + y^3 + y^4")


def reduce_mod_p(Q, p):
    return algebra_mod_p(from_quotient(Q), p)


def quotient(texts, cap=8):
    rels = [parse_poly(t, cap=cap) for t in texts]
    return hilbert(complete(rels, XY, cap))


def dim8_quotient():
    rels = relations_of(parse_poly("x^3 + y^3 + cyc(x y x y)", cap=9))
    return hilbert(complete(list(rels), XY, 9))


def vec(F, word):
    return F.basis_vec(F.index[word])


def test_from_quotient_structure():
    A = from_quotient(quotient(R1))
    assert A.dim == 9
    assert A.words[0] == "" and A.degrees == [0, 1, 1, 2, 2, 3, 3, 4, 5]
    xx = dense(A, A.table[(A.index["x"], A.index["x"])])
    assert xx[A.index["yyy"]] == -1 and sum(1 for c in xx if c) == 1
    assert validate(A)


def test_from_quotient_r2_differs_in_the_square():
    B = from_quotient(quotient(R2))
    xx = dense(B, B.table[(B.index["x"], B.index["x"])])
    assert xx[B.index["yyy"]] == -1 and xx[B.index["yyyy"]] == -1


def pairwise_table(Q):
    """Reference table: one normal form per pair of basis words."""
    f, words = Q.system.field, Q.basis_words
    table = {}
    for i, u in enumerate(words):
        for j, v in enumerate(words):
            p = normal_form(FreePoly.term(u + v, f.one, f, Q.system.cap),
                            Q.system)
            if not p.is_zero():
                table[(i, j)] = [p.coeff(w) for w in words]
    return table


def dense_table(F):
    return {pair: dense(F, row) for pair, row in F.table.items()}


GOLDENS = [("x^3 + y^3 + cyc(x y x y)", 8, 8),       # dim 8
           ("cyc(x^2 y) + y^4", 8, 9),               # 9A
           ("cyc(x^2 y) + y^4 + y^5", 8, 9),         # 9B
           ("cyc(x^2 y) + y^12", 28, 33),
           ("x^3 + cyc(x y^3) + y^5", 16, 32)]


@pytest.mark.parametrize("order", ["xy", "yx"])
@pytest.mark.parametrize("text, cap, dim", GOLDENS)
def test_from_quotient_matches_pairwise_normal_forms(text, cap, dim, order):
    mo = MonomialOrder(order)
    rels = relations_of(parse_poly(text, cap=cap), mo)
    Q = hilbert(complete(list(rels), mo, cap))
    assert Q.dimension == dim
    assert dense_table(from_quotient(Q)) == pairwise_table(Q)


def assert_relations_read_off(Q, mo):
    """table_relations of Q's table are the monic elements of its
    completed system, one each."""
    got = [frozenset(r.items()) for r in table_relations(from_quotient(Q))]
    want = {frozenset(g.monic(mo).terms.items()) for g in Q.system.elements}
    assert set(got) == want and len(got) == len(Q.system.elements)


# the shear images in yx precedence are left out: dim 32's alone takes
# 5 s to complete
@pytest.mark.parametrize("order, image", [("xy", False), ("yx", False),
                                          ("xy", True)],
                         ids=["xy", "yx", "xy-shear"])
@pytest.mark.parametrize("text, cap, dim", GOLDENS)
def test_relations_read_off_the_table_are_the_completed_system(
        text, cap, dim, order, image):
    mo = MonomialOrder(order)
    f = parse_poly(text, cap=cap)
    if image:
        f = substitute(f, Substitution.linear(-1, 2, 0, 1, cap=cap))
    Q = hilbert(complete(list(relations_of(f, mo)), mo, cap))
    assert Q.dimension == dim
    assert_relations_read_off(Q, mo)


def test_relations_read_off_random_finite_quotients():
    # over QQ, GF(5) and GF(7), both precedences and both modes, where
    # both letters are basis words (else the table cannot say what a
    # letter equals)
    rng = random.Random(20261019)
    kept = 0
    while kept < 120:
        field = rng.choice([QQ, GF(5), GF(7)])
        mo = MonomialOrder(rng.choice(["xy", "yx"]),
                           rng.choice(["local", "global"]))
        rels = [random_poly(rng, field, degrees=(1, 2, 3), cap=6)
                for _ in range(rng.choice((2, 3)))]
        Q = hilbert(complete(rels, mo, 6))
        if Q.finite and {"x", "y"} <= set(Q.basis_words):
            assert_relations_read_off(Q, mo)
            kept += 1


def test_from_quotient_matches_pairwise_normal_forms_over_gf3():
    rels = [parse_poly(t, GF(3), 9) for t in ("x^2 + 2 y x y", "y^2 + 2 x y x")]
    Q = hilbert(complete(rels, XY, 9))
    assert Q.dimension == 8
    assert dense_table(from_quotient(Q)) == pairwise_table(Q)


def test_global_mode_table_is_not_cut_at_the_cap():
    # yyy * yyy has degree 6 > cap 5, yet in global mode it reduces to
    # lower-degree words; a table that cuts it to zero fails to associate
    # at (y, yy, yyy) and five more triples
    rels = [parse_poly(t, cap=5) for t in R2]
    Q = hilbert(complete(rels, MonomialOrder(mode="global"), 5))
    F = from_quotient(Q)
    assert F.dim == 10
    i = F.index["yyy"]
    assert any(dense(F, F.table.get((i, i), {})))
    for a, b, c in itertools.product(range(F.dim), repeat=3):
        ab, bc = F.table.get((a, b), {}), F.table.get((b, c), {})
        assert F.mul(ab, F.basis_vec(c)) == F.mul(F.basis_vec(a), bc), \
            (F.words[a], F.words[b], F.words[c])


def test_reduce_mod_5_keeps_shape():
    A5 = reduce_mod_p(quotient(R1), 5)
    assert A5.field == GF(5) and A5.dim == 9
    xx = dense(A5, A5.table[(A5.index["x"], A5.index["x"])])
    assert xx[A5.index["yyy"]] == 4
    assert validate(A5)


def test_reduce_mod_2_collapses_signs():
    B2 = reduce_mod_p(quotient(R2), 2)
    ix, iy = B2.index["x"], B2.index["y"]
    assert B2.table[(ix, ix)][B2.index["yyy"]] == 1
    assert B2.table[(ix, ix)][B2.index["yyyy"]] == 1
    # anticommutativity becomes commutativity in characteristic two
    assert B2.table[(ix, iy)] == B2.table[(iy, ix)]


def test_reduce_mod_3_stores_no_vanishing_entry():
    # 9B under y -> 3y, where x x = -27 yyy - 81 yyyy: the 9 table
    # entries that are multiples of 27 vanish mod 3, and 6 rows with them
    rels = relations_of(parse_poly(
        "3 x x y + 3 x y x + 3 y x x + 81 y^4 + 243 y^5", cap=8))
    F = from_quotient(hilbert(complete(list(rels), XY, 8)))
    F3 = algebra_mod_p(F, 3)
    vanishing = [(pair, k) for pair, row in F.table.items()
                 for k, c in row.items() if not F3.field.coerce(c)]
    dead = [pair for pair, row in F.table.items()
            if all((pair, k) in vanishing for k in row)]
    assert len(vanishing) == 9 and len(dead) == 6
    assert not any(k in F3.table.get(pair, {}) for pair, k in vanishing)
    assert not any(pair in F3.table for pair in dead)
    assert validate(F3)
    assert algebra_from_json(F3.to_json()).table == F3.table


def test_reduce_rejects_bad_denominators():
    Q = quotient(("x y + y x", "x^2 + 1/2 y^3"))
    assert reduce_mod_p(Q, 3).dim == Q.dimension
    with pytest.raises(FieldError):
        reduce_mod_p(Q, 2)


def test_validate_catches_filtration_breaks():
    A = from_quotient(quotient(R1))
    bad = FiniteAlgebra(A.field, A.words, dict(A.table))
    row = dict(bad.table[(bad.index["x"], bad.index["y"])])
    row[bad.index["x"]] = 1
    bad.table[(bad.index["x"], bad.index["y"])] = row
    with pytest.raises(ValueError, match="filtration"):
        bad.check_shape()


def test_identity_is_found_first_on_self():
    A = reduce_mod_p(dim8_quotient(), 2)
    verdict = distinguish_algebras(A, A)
    assert verdict.status == "isomorphic"
    assert verdict.witness["x"] == {"x": "1"}
    assert verdict.witness["y"] == {"y": "1"}


def test_generator_swap_is_an_automorphism():
    A = reduce_mod_p(dim8_quotient(), 3)
    ok, detail = is_isomorphism(A, A, vec(A, "y"), vec(A, "x"))
    assert ok, detail


def test_verifier_rejects_non_generators():
    A = reduce_mod_p(dim8_quotient(), 3)
    ok, detail = is_isomorphism(A, A, vec(A, "x"), vec(A, "x"))
    assert not ok


def test_lift_budget_guard():
    # (p^2 - 1)(p^2 - p) invertible linear parts: 123120 at p = 19 run,
    # 267168 at p = 23 exceed the budget of 2^18 before any is tried
    A = reduce_mod_p(quotient(R1), 23)
    with pytest.raises(ResourceCapError, match="267168 .* 262144"):
        lifted_iso_search(A, A)
    A = reduce_mod_p(quotient(R1), 19)
    assert lifted_iso_search(A, A).status == "isomorphic"


def test_brute_r1_r2_mod_2_with_escalation():
    # the two-element field is too coarse to separate R1 from R2, by
    # exhaustion and by lifting; GF(3) does
    A = reduce_mod_p(quotient(R1), 2)
    B = reduce_mod_p(quotient(R2), 2)
    assert brute_reference(A, B) == "isomorphic"
    assert lifted_iso_search(A, B).status == "isomorphic"
    A = reduce_mod_p(quotient(R1), 3)
    B = reduce_mod_p(quotient(R2), 3)
    verdict = lifted_iso_search(A, B)
    assert verdict.status == "not_isomorphic"
    assert verdict.certificate["linear_parts"] == 48


def test_lifted_r1_r2_mod_5():
    A = reduce_mod_p(quotient(R1), 5)
    B = reduce_mod_p(quotient(R2), 5)
    verdict = lifted_iso_search(A, B)
    assert verdict.status == "not_isomorphic"
    assert verdict.certificate["linear_parts"] == 480
    assert verdict.certificate["field"] == "GF(5)"


def test_lifted_self_mod_3_identity():
    A = reduce_mod_p(quotient(R1), 3)
    verdict = lifted_iso_search(A, A)
    assert verdict.status == "isomorphic"
    assert verdict.witness["x"] == {"x": "1"}
    assert verdict.witness["y"] == {"y": "1"}


def permuted_within_degree(F, w1, w2):
    """Relabel two same-degree basis positions of a table."""
    i, j = F.index[w1], F.index[w2]
    assert F.degrees[i] == F.degrees[j]
    pi = list(range(F.dim))
    pi[i], pi[j] = j, i
    words = [F.words[pi[k]] for k in range(F.dim)]
    table = {}
    for (a, b), row in F.table.items():
        table[(pi.index(a), pi.index(b))] = {pi.index(k): c
                                             for k, c in row.items()}
    return FiniteAlgebra(F.field, words, table)


def test_lifted_finds_map_onto_permuted_copy():
    A = reduce_mod_p(quotient(R1), 5)
    B = permuted_within_degree(A, "yx", "yy")
    verdict = lifted_iso_search(A, B)
    assert verdict.status == "isomorphic"
    ok, detail = is_isomorphism(A, B, *witness_vectors(B, verdict.witness))
    assert ok, detail


def witness_vectors(B, witness):
    """The generator images of a witness document as sparse rows of B."""
    return [{B.index[label if label != "1" else ""]: B.field.coerce(int(c))
             for label, c in witness[letter].items()} for letter in "xy"]


def brute_reference(A, B):
    """Status of the plain exhaustive search over all radical generator
    images, in lexicographic order: the reference the lift search is
    compared with. A pair is kept when its degree-one parts are
    independent, A's relations vanish on it in B, and the induced map
    is bijective and multiplicative on every basis pair. Vectors are
    coordinate lists and products go through dense_mul, so nothing here
    shares the library's sparse product."""
    f = B.field
    rad = [[0, *c] for c in itertools.product(range(f.characteristic),
                                               repeat=B.dim - 1)]
    i, j = [k for k in range(B.dim) if B.degrees[k] == 1]

    def combination(coords, vecs):
        acc = [f.zero] * B.dim
        for c, vec in zip(coords, vecs):
            acc = [f.add(a, f.mul(c, v)) for a, v in zip(acc, vec)]
        return acc

    def found(vx, vy):
        images = {"": [f.one] + [f.zero] * (B.dim - 1)}

        def image(w):
            if w not in images:
                images[w] = dense_mul(B, vx if w[0] == "x" else vy,
                                      image(w[1:]))
            return images[w]

        for r in table_relations(A):
            if any(combination(r.values(), map(image, r))):
                return False
        imgs = [image(w) for w in A.words]
        rows = [{k: c for k, c in enumerate(v) if c} for v in imgs]
        if rank(rows, f) != B.dim:
            return False
        return all(dense_mul(B, imgs[a], imgs[b]) == combination(
            dense(A, A.table.get((a, b), {})), imgs)
            for a, b in itertools.product(range(A.dim), repeat=2))

    for vx in rad:
        for vy in rad:
            if (f.sub(f.mul(vx[i], vy[j]), f.mul(vx[j], vy[i]))
                    and found(vx, vy)):
                return "isomorphic"
    return "not_isomorphic"


def differential_pairs():
    """Seeded small pairs, with copies that swap two same-degree basis
    positions."""
    rng = random.Random(20240815)

    def swapped(F):
        by_degree = {}
        for w, d in zip(F.words, F.degrees):
            by_degree.setdefault(d, []).append(w)
        w1, w2 = rng.sample(rng.choice(
            [ws for ws in by_degree.values() if len(ws) > 1]), 2)
        return permuted_within_degree(F, w1, w2)

    d8, r1, r2 = (reduce_mod_p(Q, 2) for Q in (dim8_quotient(), quotient(R1),
                                               quotient(R2)))
    # y x, y^2, x^3 is the opposite algebra: same Hilbert series, but the
    # annihilators swap sides
    t3, t3op = (reduce_mod_p(quotient(texts, cap=5), 3)
                for texts in (("x y", "y^2", "x^3"), ("y x", "y^2", "x^3")))
    return [(d8, d8), (d8, swapped(d8)), (r1, r2), (r1, swapped(r2)),
            (r2, swapped(r1)), (t3, swapped(t3)), (t3, t3op),
            (t3op, swapped(t3))]


def test_lift_matches_brute_force_reference():
    statuses = []
    for A, B in differential_pairs():
        verdict = lifted_iso_search(A, B)
        assert verdict.status == brute_reference(A, B)
        if verdict.status == "isomorphic":
            ok, detail = is_isomorphism(A, B,
                                        *witness_vectors(B, verdict.witness))
            assert ok, detail
        statuses.append(verdict.status)
    assert "not_isomorphic" in statuses and "isomorphic" in statuses


@functools.lru_cache(maxsize=None)
def lift_algebras():
    """Rational tables of dim 8, 9A, 9B and 32, each also under a seeded
    shear x -> +-x + b y, y -> +-y, and of 9A and 9B under y -> 3y."""
    rng = random.Random(1)

    def table(f, cap):
        return from_quotient(hilbert(complete(list(relations_of(f)), XY,
                                              cap)))

    out = {}
    for name, (text, cap, _) in zip(("8", "9A", "9B", "32"),
                                    GOLDENS[:3] + GOLDENS[4:]):
        f = parse_poly(text, cap=cap)
        shear = Substitution.linear(
            rng.choice((1, -1)), rng.choice([b for b in range(-9, 10) if b]),
            0, rng.choice((1, -1)), cap=cap)
        out[name] = table(f, cap)
        out[name + "-img"] = table(substitute(f, shear), cap)
    y3 = Substitution.linear(1, 0, 0, 3, cap=8)
    for name, (text, _, _) in (("9A", GOLDENS[1]), ("9B", GOLDENS[2])):
        out[name + "-y3"] = table(substitute(parse_poly(text, cap=8), y3), 8)
    return out


LIFT_PAIRS = [(a, a) for a in ("8", "9A", "9B", "32")] + \
    [(a, a + "-img") for a in ("8", "9A", "9B", "32")] + \
    [("9A", "9B"), ("9A-img", "9B"), ("9B", "9B-y3")]


def invertible_linear_parts(p):
    return [u for u in itertools.product(range(p), repeat=4)
            if (u[0] * u[3] - u[1] * u[2]) % p]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_lift_matches_finite_difference_reference(p, monkeypatch):
    # the quadratic forms against a direct degree-2 evaluation on every
    # invertible linear part, the stage columns and right-hand sides
    # against finite differences of full relation evaluations at every
    # node, and the verdict and witness against a search built on both
    nodes, checked = [], []
    real_residuals, real_solve = isotest._residuals, isotest.solve

    def residuals_spy(rels, B, vx, vy, degree):
        nodes.append((vx, vy, degree))
        return real_residuals(rels, B, vx, vy, degree)

    def solve_spy(cols, labels, rhs, f):
        vx, vy, degree = nodes[-1]
        slots = [(letter, i) for letter in "xy" for i in range(B.dim)
                 if B.degrees[i] == degree - 1]
        assert (cols, rhs) == stage_system(rels, B, vx, vy, slots, degree)
        checked.append(degree)
        return real_solve(cols, labels, rhs, f)

    monkeypatch.setattr(isotest, "_residuals", residuals_spy)
    monkeypatch.setattr(isotest, "solve", solve_spy)
    statuses = []
    for a, b in LIFT_PAIRS:
        try:
            A, B = (algebra_mod_p(lift_algebras()[k], p) for k in (a, b))
        except FieldError:
            continue             # a denominator divisible by p, as for 32
        rels = table_relations(A)
        deg1 = [i for i in range(B.dim) if B.degrees[i] == 1]
        forms, _ = isotest._linearized(rels, B, deg1)
        passing = []
        for u in invertible_linear_parts(p):
            mono = [u[m] * u[n] for m in range(4) for n in range(m, 4)]
            direct = residuals(rels, B, *linear_images(B, *u), 2)
            assert any(sum(q * v for q, v in zip(form, mono)) % p
                       for form in forms) == bool(direct), (a, b, u)
            if not direct:
                passing.append(linear_images(B, *u))
        nodes.clear()
        verdict = lifted_iso_search(A, B)
        status, found = reference_lift(A, B, rels)
        assert verdict.status == status, (a, b)
        # the linear parts the search went on with, in the order tried
        entered = [[vx, vy] for vx, vy, degree in nodes if degree == 3]
        if status == "isomorphic":
            assert witness_vectors(B, verdict.witness) == list(found)
            assert entered == [list(v) for v in passing[:len(entered)]]
        else:
            assert verdict.certificate["linear_parts"] == found
            assert entered == [list(v) for v in passing]
        statuses.append(status)
    assert "isomorphic" in statuses and "not_isomorphic" in statuses
    assert len(set(checked)) > 2


def test_lift_refuses_a_table_that_breaks_the_filtration():
    # the linear shortcuts of the lift rest on check_shape; the global-
    # mode R2 table at cap 5 fails it, and the search used to answer
    # not_isomorphic with 480 linear parts on it against itself
    rels = [parse_poly(t, cap=5) for t in R2]
    F = algebra_mod_p(from_quotient(hilbert(complete(
        rels, MonomialOrder(mode="global"), 5))), 5)
    with pytest.raises(ValueError, match="drops below its filtration"):
        F.check_shape()
    with pytest.raises(ValueError, match="drops below its filtration"):
        lifted_iso_search(F, F)


def test_profile_matches_quotient_fingerprint():
    # the profile's graded part is the quotient's own Hilbert data
    Q = quotient(R1)
    prof = algebra_profile(from_quotient(Q))
    h = list(Q.hilbert[:Q.first_empty_degree + 1])
    assert prof["hilbert"] == h and prof["dimension"] == Q.dimension


DERIVATION_DIMS = {"8": 6, "9A": 8, "9B": 7}


@pytest.mark.parametrize("name", ["8", "8-img", "9A", "9A-img", "9A-y3",
                                  "9B", "9B-img", "9B-y3"])
def test_derivation_dim_matches_the_full_leibniz_system(name):
    # the 2n unknowns D(x), D(y) against all n^2 matrix entries of D; an
    # isomorphic image reads its source's value
    F = lift_algebras()[name]
    assert derivation_dim(F) == reference_derivation_dim(F)
    assert derivation_dim(F) == DERIVATION_DIMS[name.split("-")[0]]


def test_derivation_dim_pins_the_large_goldens():
    algebras = lift_algebras()
    assert derivation_dim(algebras["32"]) == 28
    assert derivation_dim(algebras["32-img"]) == 28
    text, cap, _ = GOLDENS[3]
    dim33 = from_quotient(hilbert(complete(
        list(relations_of(parse_poly(text, cap=cap))), XY, cap)))
    assert dim33.dim == 33 and derivation_dim(dim33) == 32


def test_derivation_dim_is_taken_over_the_algebras_own_field():
    # mod 3, y -> 3y is singular: the reduced image is another algebra,
    # whose derivations the full system counts as 11 against 9B's 8
    for name, want in (("9B", 8), ("9B-y3", 11)):
        F = algebra_mod_p(lift_algebras()[name], 3)
        assert derivation_dim(F) == reference_derivation_dim(F) == want


def test_brute_and_lifted_agree_on_self():
    A = reduce_mod_p(dim8_quotient(), 2)
    assert brute_reference(A, A) == "isomorphic"
    assert lifted_iso_search(A, A).status == "isomorphic"


def _count_by_enumeration(F):
    """Sizes of the annihilators and the center of a small GF(p) algebra,
    counted element by element from the table (the center against every
    basis word, not only the generators)."""
    f, n = F.field, F.dim

    def times(a, g, left):
        out = [f.zero] * n
        for i, c in enumerate(a):
            row = F.table.get((i, g) if left else (g, i))
            if c and row:
                for k, r in row.items():
                    out[k] = f.add(out[k], f.mul(c, r))
        return out

    counts = dict.fromkeys(("left", "right", "both", "center"), 0)
    for a in itertools.product(range(f.characteristic), repeat=n):
        a = [f.coerce(c) for c in a]
        ag = [times(a, g, True) for g in range(n)]
        ga = [times(a, g, False) for g in range(n)]
        left = not any(map(any, ag[1:]))
        right = not any(map(any, ga[1:]))
        counts["left"] += left
        counts["right"] += right
        counts["both"] += left and right
        counts["center"] += ag == ga
    return counts


@pytest.mark.parametrize("build, p", [
    (dim8_quotient, 2),
    # one-sided: y x times x is y x^2, but anything of positive degree
    # times y x is zero
    (lambda: quotient(("x y", "y^2", "x^3"), cap=5), 3),
])
def test_profile_matches_elementwise_counts(build, p):
    F = reduce_mod_p(build(), p)
    got = algebra_profile(F)
    counts = _count_by_enumeration(F)
    assert counts["left"] == p ** got["left_annihilator_dim"]
    assert counts["right"] == p ** got["right_annihilator_dim"]
    assert counts["both"] == p ** got["two_sided_annihilator_dim"]
    assert counts["center"] == p ** got["center_dim"]


def test_distinguish_by_rational_invariants():
    verdict = distinguish_algebras(from_quotient(dim8_quotient()),
                                   from_quotient(quotient(R1)))
    assert verdict.status == "not_isomorphic"
    assert verdict.certificate["field"] == "QQ"


def test_distinguish_r1_r2():
    verdict = distinguish_algebras(from_quotient(quotient(R1)),
                                   from_quotient(quotient(R2)))
    assert verdict.status == "not_isomorphic"
    assert verdict.certificate == {"invariant": "derivation_dim",
                                   "field": "QQ", "a": 8, "b": 7}


def test_distinguish_self():
    verdict = distinguish_algebras(from_quotient(quotient(R1)),
                                   from_quotient(quotient(R1)))
    assert verdict.status == "isomorphic"
    assert verdict.witness["x"] == {"x": "1"}


def test_distinguish_answers_the_zero_algebra_by_dimension():
    # FiniteAlgebra.hilbert raised "max() arg is an empty sequence" here,
    # and only the iso command answered the zero algebra
    Z = FiniteAlgebra(QQ, [], {})
    verdict = distinguish_algebras(Z, Z)
    assert verdict.status == "isomorphic"
    assert verdict.witness == {"x": {}, "y": {}}
    D8 = from_quotient(dim8_quotient())
    for A, B, dims in ((Z, D8, [0, 8]), (D8, Z, [8, 0])):
        verdict = distinguish_algebras(A, B)
        assert verdict.status == "not_isomorphic"
        assert verdict.certificate == {"invariant": "dimension",
                                       "field": "QQ", "a": dims[0],
                                       "b": dims[1]}
    Z5 = FiniteAlgebra(GF(5), [], {})
    assert distinguish_algebras(Z5, Z5).status == "isomorphic"
    with pytest.raises(ValueError):
        distinguish_algebras(Z, Z5)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_profile_and_lift_answer_the_zero_algebra(field):
    # algebra_profile raised from FiniteAlgebra.hilbert, and the lift
    # search over GF(7) refused the zero algebra for want of relations
    Z = FiniteAlgebra(field, [], {})
    assert Z.hilbert() == ()
    assert algebra_profile(Z) == {
        "hilbert": [0], "dimension": 0, "derivation_dim": 0,
        "left_annihilator_dim": 0, "right_annihilator_dim": 0,
        "two_sided_annihilator_dim": 0, "center_dim": 0}
    if not field.characteristic:
        return
    verdict = lifted_iso_search(Z, Z)
    assert verdict.status == "isomorphic"
    assert verdict.witness == {"x": {}, "y": {}}
    A = reduce_mod_p(quotient(R1), 7)
    for X, Y, dims in ((Z, A, [0, 9]), (A, Z, [9, 0])):
        verdict = lifted_iso_search(X, Y)
        assert verdict.status == "not_isomorphic"
        assert verdict.certificate == {"invariant": "dimension",
                                       "field": "GF(7)", "a": dims[0],
                                       "b": dims[1]}


def test_serialization_round_trip_fields():
    # the table is the whole algebra: the relations and name of a dim
    # document are annotations that cli adds
    A = reduce_mod_p(quotient(R1), 5)
    doc = A.to_json()
    assert sorted(doc) == ["basis", "degrees", "field", "table"]
    assert doc["field"] == "GF(5)"
    assert doc["basis"][0] == "1"
    assert len(doc["table"]) == len(A.table)
    assert algebra_from_json(doc).table == A.table


@pytest.mark.parametrize("key", ["basis", "degrees", "table"])
def test_algebra_from_json_names_a_missing_key(key):
    doc = from_quotient(hilbert(complete(list(
        relations_of(parse_poly("x^3 + y^3 + cyc(x y x y)", cap=9))),
        cap=9))).to_json()
    del doc[key]
    with pytest.raises(ValueError, match=repr(key)):
        algebra_from_json(doc)
