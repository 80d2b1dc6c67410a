"""Braces, trusses, filtrations, graded products, and the series check."""

import math
import random
from itertools import permutations, product as iproduct

import pytest

from potalg.brace import (FiniteBrace, FiniteTruss, Filtration,
                          _additive_span, _graded, _klein_braces,
                          associated_graded,
                          brace_from_nilpotent_ring, check_axioms,
                          check_brace, check_filtration, check_truss,
                          distributivity_series, enumerate_braces,
                          filtration_from_json, from_json, gamma_filtration,
                          pre_lie_defect)


def cyclic_tables(n, star_fn):
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    star = [[star_fn(a, b) % n for b in range(n)] for a in range(n)]
    return add, star


def brace_z9():
    return FiniteBrace(*cyclic_tables(9, lambda a, b: 3 * a * b))


def chain_z9():
    return Filtration([set(range(9)), {0, 3, 6}, {0}])


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


def ring_brace_2z8():
    elems = [0, 2, 4, 6]
    idx = {e: i for i, e in enumerate(elems)}
    add = [[idx[(a + b) % 8] for b in elems] for a in elems]
    mul = [[idx[(a * b) % 8] for b in elems] for a in elems]
    return brace_from_nilpotent_ring(add, mul), idx


def test_trivial_brace_is_valid():
    B = FiniteBrace(*cyclic_tables(5, lambda a, b: 0))
    assert check_brace(B)
    assert check_truss(FiniteTruss(B.add, B.star, [0] * 5))


def test_z9_three_ab_is_a_brace():
    assert check_brace(brace_z9())


def test_z4_projection_star_fails_left_distributivity():
    B = FiniteBrace(*cyclic_tables(4, lambda a, b: a))
    verdict = check_brace(B)
    assert not verdict
    assert "distributive" in verdict.reason
    assert verdict.witness == (1, 0, 0)


def test_z6_shift_is_a_truss_but_not_a_brace():
    add, star = cyclic_tables(6, lambda a, b: 2 * a)
    alpha = [(-2 * a) % 6 for a in range(6)]
    assert check_truss(FiniteTruss(add, star, alpha))
    assert not check_brace(FiniteBrace(add, star))


def test_truss_needs_associative_circle():
    add, star = cyclic_tables(3, lambda a, b: b)
    verdict = check_truss(FiniteTruss(add, star, [0, 0, 0]))
    assert not verdict and "associative" in verdict.reason


def test_z9_filtration_valid_and_short_chain_invalid():
    B = brace_z9()
    assert check_filtration(B, chain_z9())
    bad = check_filtration(B, Filtration([set(range(9)), {0}]))
    assert not bad and "escapes" in bad.reason
    assert bad.witness == (1, 1)


def test_filtration_must_cover_carrier_and_reach_zero():
    B = brace_z9()
    assert not check_filtration(B, Filtration([{0, 3, 6}, {0}]))
    assert not check_filtration(B, Filtration([set(range(9)), {0, 3, 6}]))


def test_alpha_must_sink_to_the_third_level():
    # table-level fixture isolating the alpha branch of the check
    add, star = cyclic_tables(9, lambda a, b: 0)
    T = FiniteTruss(add, star, [0, 3, 6, 0, 3, 6, 0, 3, 6])
    verdict = check_filtration(T, chain_z9())
    assert not verdict and "alpha" in verdict.reason


def test_degree_convention():
    filt = chain_z9()
    assert math.isinf(filt.degree(0))
    assert filt.degree(3) == 2
    assert filt.degree(1) == 1


def test_graded_of_z9():
    G = associated_graded(brace_z9(), chain_z9())
    assert G.component_orders() == (3, 3)
    one = G.cls(1, 1)
    assert G.product(1, one, 1, one) == G.cls(2, 3) != 0
    assert G.product(1, one, 2, G.cls(2, 3)) is None
    assert pre_lie_defect(G) == 0


def test_graded_of_trivial_brace():
    B = FiniteBrace(*cyclic_tables(4, lambda a, b: 0))
    G = associated_graded(B, Filtration([set(range(4)), {0}]))
    assert G.component_orders() == (4,)
    assert all(G.product(1, c1, 1, c2) is None
               for c1 in range(4) for c2 in range(4))


def test_graded_defaults_to_the_star_series():
    G = associated_graded(brace_z9())
    assert G.filtration.chain == chain_z9().chain
    assert G.component_orders() == (3, 3)


def test_axioms_follow_the_kind_of_structure():
    add, star = cyclic_tables(6, lambda a, b: 2 * a)
    T = FiniteTruss(add, star, [(-2 * a) % 6 for a in range(6)])
    B = FiniteBrace(add, star)
    assert (T.kind, B.kind) == ("truss", "brace")
    assert as_tuple(check_axioms(T)) == as_tuple(check_truss(T))
    assert as_tuple(check_axioms(B)) == as_tuple(check_brace(B))
    with pytest.raises(ValueError, match="^not a brace: star is not left "
                                         "distributive$"):
        associated_graded(B)
    T.alpha[1] = 0
    with pytest.raises(ValueError, match="^not a truss: truss axiom "
                                         "fails$"):
        associated_graded(T)


# Each table below has a valid filtration and fails its brace axioms, so
# associated_graded refuses it first; _graded, which builds the structure
# without checking the axioms, reaches each check of the graded product.
# On a verified brace or truss none of them can fail.
GRADED_REFUSALS = [
    (4, lambda a, b: 2 * b * (a == 3), [{0, 2}],
     "brace compatibility fails",
     "graded product depends on representatives"),
    (9, lambda a, b: 3 * (0, 1, 1)[a % 3] * b, [{0, 3, 6}],
     "brace compatibility fails", "graded product is not right additive"),
    (9, lambda a, b: 3 * (a % 3) * (0, 1, 1)[b % 3], [{0, 3, 6}],
     "star is not left distributive", "graded product is not left additive"),
]


@pytest.mark.parametrize("n,star_fn,levels,axiom,product", GRADED_REFUSALS)
def test_graded_refuses_a_table_that_is_not_a_brace(n, star_fn, levels,
                                                    axiom, product):
    B = FiniteBrace(*cyclic_tables(n, star_fn))
    filt = Filtration([set(range(n))] + levels + [{0}])
    assert check_filtration(B, filt)
    with pytest.raises(ValueError, match="^not a brace: %s$" % axiom):
        associated_graded(B, filt)
    with pytest.raises(ValueError, match="^%s$" % product):
        _graded(B, filt)


def test_pre_lie_defect_names_a_witness():
    # a * b = k[a mod 2][b mod 2] a b on Z/16 with its 2-power filtration:
    # not a brace, but its graded product is defined and biadditive. The
    # witness lists (degree, class) for the three associator entries
    k = [[2, 4], [0, 10]]
    B = FiniteBrace(*cyclic_tables(16, lambda a, b: k[a % 2][b % 2] * a * b))
    filt = Filtration([set(range(0, 16, 2 ** e)) for e in range(4)] + [{0}])
    assert check_filtration(B, filt)
    with pytest.raises(ValueError, match="^not a brace: star is not left "
                                         "distributive$"):
        associated_graded(B, filt)
    assert pre_lie_defect(_graded(B, filt)) == ((1, 1), (2, 1), (1, 1))


def test_ring_brace_2z8_matches_ring_graded():
    R, idx = ring_brace_2z8()
    assert R.order == 4
    assert R.times(idx[2], idx[2]) == idx[4]
    filt = gamma_filtration(R)
    assert [sorted(s) for s in filt.chain] == [[0, 1, 2, 3], [0, 2], [0]]
    G = associated_graded(R, filt)
    assert G.component_orders() == (2, 2)
    # the graded product is the ring's: [2]*[2] = [4] in degree two
    assert G.product(1, G.cls(1, idx[2]), 1, G.cls(1, idx[2])) == \
        G.cls(2, idx[4]) != 0


def test_ring_brace_3z9_is_trivial():
    elems = [0, 3, 6]
    idx = {e: i for i, e in enumerate(elems)}
    add = [[idx[(a + b) % 9] for b in elems] for a in elems]
    mul = [[idx[(a * b) % 9] for b in elems] for a in elems]
    B = brace_from_nilpotent_ring(add, mul)
    assert B.order == 3
    assert all(B.times(a, b) == 0 for a in range(3) for b in range(3))


def test_zero_ring_gives_trivial_brace():
    B = brace_from_nilpotent_ring([[0]], [[0]])
    assert B.order == 1 and check_brace(B)


def test_unit_ring_is_rejected():
    n = 4
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    with pytest.raises(ValueError):
        brace_from_nilpotent_ring(add, mul)


def upper_unitriangular_f2():
    # strictly upper triangular 3x3 over GF(2), coded as bits (p, q, r)
    def unpack(e):
        return e & 1, (e >> 1) & 1, (e >> 2) & 1

    def pack(p, q, r):
        return p | (q << 1) | (r << 2)

    add = [[a ^ b for b in range(8)] for a in range(8)]
    mul = []
    for a in range(8):
        p, q, r = unpack(a)
        row = []
        for b in range(8):
            p2, q2, r2 = unpack(b)
            row.append(pack(0, 0, p * q2))
        mul.append(row)
    return add, mul


def test_upper_unitriangular_matrices_form_a_brace():
    add, mul = upper_unitriangular_f2()
    B = brace_from_nilpotent_ring(add, mul)
    filt = gamma_filtration(B)
    assert filt.length == 3
    G = associated_graded(B, filt)
    assert G.component_orders() == (4, 2)
    assert pre_lie_defect(G) == 0


def test_series_on_right_distributive_examples_is_flat():
    B = brace_z9()
    for a, b, c in ((1, 2, 4), (5, 7, 8), (3, 6, 1)):
        out = distributivity_series(B, a, b, c, 3)
        assert out["direct"] == 0
        assert out["partial_sums"] == [0, 0, 0]
        assert out["exact"]


def test_first_non_right_distributive_golden():
    B, witness, filt = first_non_right_distributive(8)
    assert B.order == 8
    assert witness == (1, 1, 1)
    assert [sorted(s) for s in filt.chain] == \
        [[0, 1, 2, 3, 4, 5, 6, 7], [0, 2, 4, 6], [0, 4], [0]]
    out = distributivity_series(B, *witness, filt.length)
    assert out["direct"] == 4 and out["exact"]
    G = associated_graded(B, filt)
    assert G.component_orders() == (2, 2, 2)
    assert pre_lie_defect(G) == 0


def test_series_exact_for_all_triples_of_the_golden():
    B, _, filt = first_non_right_distributive(8)
    N = filt.length
    for a in range(B.order):
        for b in range(B.order):
            for c in range(B.order):
                assert distributivity_series(B, a, b, c, N)["exact"]


def test_enumeration_is_deterministic_and_verified():
    braces = list(enumerate_braces(8))
    assert len(braces) == 19
    orders = [B.order for B in braces]
    assert orders == sorted(orders)
    assert all(check_brace(B) for B in braces)


def test_degree_bound_on_all_filtered_examples():
    cases = [(brace_z9(), chain_z9())]
    for B in enumerate_braces(8):
        try:
            cases.append((B, gamma_filtration(B)))
        except ValueError:
            continue
    assert len(cases) > 10
    for B, filt in cases:
        assert check_filtration(B, filt)
        for a in range(1, B.order):
            for b in range(1, B.order):
                if not filt.degree(a) < filt.degree(b):
                    continue
                for c in range(1, B.order):
                    defect = B.minus(
                        B.times(B.plus(a, b), c),
                        B.plus(B.times(a, c), B.times(b, c)))
                    assert filt.degree(defect) > \
                        filt.degree(b) + filt.degree(c)


def test_graded_prelie_holds_on_all_filtered_examples():
    for B in enumerate_braces(8):
        try:
            filt = gamma_filtration(B)
        except ValueError:
            continue
        assert pre_lie_defect(associated_graded(B, filt)) == 0


def test_series_exact_at_chain_length_everywhere():
    rng = random.Random(20240815)
    for B in enumerate_braces(8):
        try:
            filt = gamma_filtration(B)
        except ValueError:
            continue
        for _ in range(40):
            a = rng.randrange(B.order)
            b = rng.randrange(B.order)
            c = rng.randrange(B.order)
            assert distributivity_series(B, a, b, c, filt.length)["exact"]


def test_json_round_trip():
    B = brace_z9()
    doc = B.to_json()
    again = from_json(doc)
    assert isinstance(again, FiniteBrace)
    assert again.add == B.add and again.star == B.star

    add, star = cyclic_tables(6, lambda a, b: 2 * a)
    T = FiniteTruss(add, star, [(-2 * a) % 6 for a in range(6)])
    loaded = from_json(T.to_json())
    assert isinstance(loaded, FiniteTruss) and loaded.alpha == T.alpha

    doc = dict(B.to_json(), filtration=[[0, 3, 6]])
    filt = filtration_from_json(doc, B)
    assert [sorted(s) for s in filt.chain] == [list(range(9)), [0, 3, 6],
                                               [0]]
    with pytest.raises(ValueError):
        filtration_from_json(dict(doc, filtration=[[0, 9]]), B)


def test_malformed_tables_are_rejected():
    with pytest.raises(ValueError):
        FiniteBrace([[0, 1], [1, 0]], [[0, 0]])
    with pytest.raises(ValueError):
        FiniteTruss([[0]], [[0]], [1])


# -- certificates against the exhaustive loops --------------------------------
#
# The ref_* functions are the plain triple loops that check_brace,
# check_truss and check_filtration ran before their laws were certified on
# additive generators. They are the reference: verdict, reason and witness
# must agree on every input, valid or corrupted.

def ref_group(B):
    n = B.order
    for a in range(n):
        if B.add[0][a] != a or B.add[a][0] != a:
            return (False, "0 is not the additive identity", (a,))
    for a in range(n):
        for b in range(n):
            if B.add[a][b] != B.add[b][a]:
                return (False, "addition is not commutative", (a, b))
            for c in range(n):
                if B.add[B.add[a][b]][c] != B.add[a][B.add[b][c]]:
                    return (False, "addition is not associative", (a, b, c))
    return None


def ref_circle(B):
    n = B.order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if B.circle(B.circle(a, b), c) != \
                        B.circle(a, B.circle(b, c)):
                    return (False, "circle is not associative", (a, b, c))
    return None


def ref_brace(B):
    n = B.order
    failure = ref_group(B)
    if failure:
        return failure
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if B.times(a, B.plus(b, c)) != \
                        B.plus(B.times(a, b), B.times(a, c)):
                    return (False, "star is not left distributive",
                            (a, b, c))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = B.times(B.circle(a, b), c)
                rhs = B.plus(B.plus(B.times(a, c), B.times(b, c)),
                             B.times(a, B.times(b, c)))
                if lhs != rhs:
                    return (False, "brace compatibility fails", (a, b, c))
    failure = ref_circle(B)
    if failure:
        return failure
    ident = next((e for e in range(n)
                  if all(B.circle(e, a) == a and B.circle(a, e) == a
                         for a in range(n))), None)
    if ident is None:
        return (False, "circle has no identity", None)
    for a in range(n):
        if not any(B.circle(a, x) == ident and B.circle(x, a) == ident
                   for x in range(n)):
            return (False, "circle inverse missing", (a,))
    return (True, "brace", None)


def ref_truss(T):
    n = T.order
    failure = ref_group(T) or ref_circle(T)
    if failure:
        return failure
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = T.times(a, T.plus(b, c))
                rhs = T.plus(T.plus(T.times(a, b), T.times(a, c)),
                             T.alpha[a])
                if lhs != rhs:
                    return (False, "truss axiom fails", (a, b, c))
    return (True, "truss", None)


def ref_filtration(B, filt):
    chain, m = filt.chain, filt.length
    if chain[0] != frozenset(range(B.order)):
        return (False, "chain must start at the whole carrier", None)
    if chain[-1] != frozenset((0,)):
        return (False, "chain must end at zero", None)
    for i in range(m - 1):
        if not chain[i + 1] <= chain[i]:
            return (False, "chain is not descending", (i + 1,))
    for i, level in enumerate(chain, start=1):
        for a in level:
            if B.neg[a] not in level:
                return (False, "level %d not closed under negation" % i,
                        (a,))
            for b in level:
                if B.plus(a, b) not in level:
                    return (False, "level %d not additively closed" % i,
                            (a, b))
    for i, level in enumerate(chain, start=1):
        for a in range(B.order):
            for b in range(B.order):
                ab = B.times(a, b)
                for u in level:
                    if B.minus(B.times(a, B.plus(b, u)), ab) not in level:
                        return (False, "level %d is not a right congruence "
                                "ideal" % i, (a, b, u))
                    if B.minus(B.times(B.plus(a, u), b), ab) not in level:
                        return (False, "level %d is not a left congruence "
                                "ideal" % i, (a, b, u))
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            target = chain[min(i + j, m) - 1]
            for a in chain[i - 1]:
                for b in chain[j - 1]:
                    if B.times(a, b) not in target:
                        return (False, "B_%d * B_%d escapes B_%d" %
                                (i, j, min(i + j, m)), (a, b))
    if isinstance(B, FiniteTruss):
        target = chain[min(3, m) - 1]
        for a in range(B.order):
            if B.alpha[a] not in target:
                return (False, "alpha escapes the third level", (a,))
    return (True, "filtration", None)


def as_tuple(verdict):
    return (verdict.ok, verdict.reason, verdict.witness)


def ring_tables(n):
    """The nilpotent ring 2Z/2n, index i standing for 2i."""
    return ([[(i + j) % n for j in range(n)] for i in range(n)],
            [[(2 * i * j) % n for j in range(n)] for i in range(n)])


def relabelled(tables, perm):
    out = []
    for table in tables:
        new = [[0] * len(perm) for _ in perm]
        for i, row in enumerate(table):
            for j, v in enumerate(row):
                new[perm[i]][perm[j]] = perm[v]
        out.append(new)
    return out


def corrupted(rng, tables, count):
    out = [[list(row) for row in table] for table in tables]
    n = len(out[0])
    for _ in range(count):
        table = rng.choice(out)
        i, j = rng.randrange(n), rng.randrange(n)
        table[i][j] = rng.choice([v for v in range(n) if v != table[i][j]])
    return out


def shifted_truss(rng, add, star):
    """Adds g(a) to row a of star; alpha = -g keeps the truss axiom."""
    n = len(add)
    shift = [rng.randrange(n) for _ in range(n)]
    neg = [row.index(0) for row in add]
    return FiniteTruss(add, [[add[v][shift[a]] for v in row]
                             for a, row in enumerate(star)],
                       [neg[g] for g in shift])


def random_chain(rng, B):
    levels = [frozenset(range(B.order))]
    for _ in range(rng.randrange(4)):
        members = sorted(levels[-1])
        if rng.random() < 0.15:
            level = frozenset(rng.sample(members,
                                         rng.randrange(1, len(members) + 1)))
            level |= {0}
        else:
            seed = rng.sample(members, min(len(members), rng.randrange(3)))
            level = levels[-1] & _additive_span(B, seed)
        levels.append(level)
    return Filtration(levels + [frozenset((0,))])


def differential_cases(rng):
    """(add, star) tables: enumerated and ring braces, each also corrupted,
    stars whose rows are random endomorphisms of a cyclic group or one
    random map repeated (a*b = f(b) meets the left congruence law on
    every level, rarely the right one), the non-abelian S3 as addition,
    and two braces whose circle is not a group."""
    cases = [(B.add, B.star) for B in enumerate_braces(8)]
    for n in (16, 32, 64):
        tables = ring_tables(n)
        rest = list(range(1, n))
        rng.shuffle(rest)
        cases += [tables, relabelled(tables, [0] + rest)]
    for add, star in list(cases):
        if 1 < len(add) <= 32:
            cases += [corrupted(rng, (add, star), k) for k in (1, 2)]
    for n, samples in ((2, 4), (3, 8), (4, 8), (6, 3), (8, 3), (9, 3),
                       (16, 3)):
        add, _ = cyclic_tables(n, lambda a, b: 0)
        for _ in range(samples):
            k = [0] + [rng.randrange(n) for _ in range(n - 1)]
            cases.append((add, [[k[a] * b % n for b in range(n)]
                                for a in range(n)]))
        f = [0] + [rng.randrange(n) for _ in range(n - 1)]
        cases.append((add, [list(f) for _ in range(n)]))
    perms = sorted(permutations(range(3)))
    s3 = [[perms.index(tuple(p[v] for v in q)) for q in perms] for p in perms]
    cases.append((s3, [[0] * 6 for _ in range(6)]))
    # lambda = 0 (a*b = -b): the circle a∘b = a has no identity; and
    # lambda_a = 1 + k[a] with lambda_2 = lambda_3 = 0 on Z/4: no inverse
    cases.append(cyclic_tables(5, lambda a, b: -b))
    cases.append(cyclic_tables(4, lambda a, b: (0, 2, 3, 3)[a] * b))
    return cases


def test_certificates_match_exhaustive_loops():
    rng = random.Random(20261018)
    reasons, mismatches = set(), []
    for add, star in differential_cases(rng):
        n = len(add)
        try:
            structures = [FiniteBrace(add, star)]
            if n < 64:
                structures += [
                    FiniteTruss(add, star, [0] * n),
                    FiniteTruss(add, star, [rng.randrange(n)
                                            for _ in range(n)]),
                    shifted_truss(rng, add, star)]
        except ValueError:
            continue  # a corrupted add table without additive inverses
        for S in structures:
            check, ref = ((check_truss, ref_truss)
                          if isinstance(S, FiniteTruss)
                          else (check_brace, ref_brace))
            chains = [random_chain(rng, S)
                      for _ in range(2 if n <= 16 else n < 64)]
            try:
                chains.append(gamma_filtration(S))
            except ValueError:
                pass
            pairs = [(as_tuple(check(S)), ref(S))]
            pairs += [(as_tuple(check_filtration(S, f)), ref_filtration(S, f))
                      for f in chains]
            mismatches += [(n, got, want) for got, want in pairs
                           if got != want]
            reasons.update(want[1].split(" B_")[0] for _, want in pairs)
    assert not mismatches, mismatches[:3]
    # every certificate is seen both passing and failing
    assert {"brace", "truss", "filtration", "addition is not associative",
            "star is not left distributive", "brace compatibility fails",
            "circle is not associative", "truss axiom fails",
            "circle has no identity", "circle inverse missing",
            "addition is not commutative",
            "level 2 is not a right congruence ideal",
            "level 2 is not a left congruence ideal"} <= reasons, reasons


def test_truss_circle_certificate_needs_c_zero():
    # c -> a∘c is affine, not additive, in c: this Z/2 truss meets the
    # circle law at the generator c = 1 and breaks it at c = 0
    add, _ = cyclic_tables(2, lambda a, b: 0)
    T = FiniteTruss(add, [[1, 1], [0, 1]], [1, 0])
    assert as_tuple(check_truss(T)) == ref_truss(T) == \
        (False, "circle is not associative", (0, 0, 0))


def test_pruned_lambda_search_matches_unpruned_enumeration():
    def unpruned_stars(max_order):
        for n in range(1, max_order + 1):
            if n == 1:
                yield [[0]]
                continue
            units = [u for u in range(1, n) if math.gcd(u, n) == 1]
            # a = 0 constraints read m[b] = m[b]: true for every tuple
            pairs = [(a, b) for a in range(1, n) for b in range(n)]
            for tail in iproduct(units, repeat=n - 1):
                m = (1,) + tail
                for a, b in pairs:
                    if m[(a + m[a] * b) % n] != m[a] * m[b] % n:
                        break
                else:
                    yield [[(m[a] * b - b) % n for b in range(n)]
                           for a in range(n)]
            if n == 4:
                yield from (B.star for B in _klein_braces())

    assert [B.star for B in enumerate_braces(10)] == \
        list(unpruned_stars(10))
