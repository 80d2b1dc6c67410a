"""The sparse row-reduction kernel against a plain dense Gauss-Jordan."""

import random
from fractions import Fraction
from math import gcd

import pytest

from potalg.fields import GF, QQ
from potalg.linalg import Echelon, integral, kernel, primitive, rank, solve

from helpers import FieldEchelon

FIELDS = [QQ, GF(5), GF(7)]


def dense_rref(mat, ncols, field):
    """Reference: reduced echelon rows and pivot columns, dense lists."""
    mat = [list(r) for r in mat]
    pivots = []
    for j in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(mat)) if mat[i][j]), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        inv = field.inv(mat[r][j])
        mat[r] = [field.mul(v, inv) for v in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][j]:
                c = mat[k][j]
                mat[k] = [field.sub(a, field.mul(c, b))
                          for a, b in zip(mat[k], mat[r])]
        pivots.append(j)
    return mat[:len(pivots)], pivots


def dense_solve(mat, rhs, ncols, field):
    """Reference for solve: greedy admission, zero free variables."""
    admitted, stalled = [], []
    for i, row in enumerate(mat):
        trial = admitted + [row + [rhs[i]]]
        if ncols in dense_rref(trial, ncols + 1, field)[1]:
            stalled.append(i)
        else:
            admitted = trial
    rows, pivots = dense_rref(admitted, ncols + 1, field)
    sol = [field.zero] * ncols
    for row, p in zip(rows, pivots):
        sol[p] = row[ncols]
    basis = []
    for j in (j for j in range(ncols) if j not in pivots):
        vec = [field.zero] * ncols
        vec[j] = field.one
        for row, p in zip(rows, pivots):
            vec[p] = field.neg(row[j])
        basis.append(vec)
    return sol, stalled, basis, rows, pivots


def scalar(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return rng.randrange(field.characteristic)


def random_system(rng, field):
    """Sparse rows, some of them combinations of others; the right-hand
    side is consistent half the time and arbitrary otherwise."""
    nrows, ncols = rng.randint(0, 9), rng.randint(1, 8)
    mat = []
    for _ in range(nrows):
        if mat and rng.random() < 0.3:
            a, b = rng.choice(mat), rng.choice(mat)
            s, t = scalar(rng, field), scalar(rng, field)
            mat.append([field.add(field.mul(s, x), field.mul(t, y))
                        for x, y in zip(a, b)])
        else:
            mat.append([scalar(rng, field) if rng.random() < 0.35
                        else field.zero for _ in range(ncols)])
    if rng.random() < 0.5:
        x = [scalar(rng, field) for _ in range(ncols)]
        rhs = [field.zero] * nrows
        for i, row in enumerate(mat):
            for a, b in zip(row, x):
                rhs[i] = field.add(rhs[i], field.mul(a, b))
    else:
        rhs = [scalar(rng, field) for _ in range(nrows)]
    return mat, rhs, ncols


def sparse(vec):
    return {i: c for i, c in enumerate(vec) if c}


def columns_of(mat, ncols):
    return [{i: row[j] for i, row in enumerate(mat) if row[j]}
            for j in range(ncols)]


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_kernel_matches_dense_reference(field):
    rng = random.Random("linalg:%s" % field)
    seen = {"stalled": 0, "deficient": 0}
    for _ in range(300):
        mat, rhs, ncols = random_system(rng, field)
        sol, stalled, basis, rows, pivots = dense_solve(mat, rhs, ncols,
                                                        field)
        assert rank(map(sparse, mat), field) == \
            len(dense_rref(mat, ncols, field)[1])
        got, got_stalled, reduced = solve(columns_of(mat, ncols),
                                          range(len(mat)), sparse(rhs), field)
        assert got == sol
        assert got_stalled == stalled
        assert kernel(reduced, ncols, field) == basis
        assert reduced == {p: sparse(row) for row, p in zip(rows, pivots)}
        assert all(v for row in reduced.values() for v in row.values())
        seen["stalled"] += bool(stalled)
        seen["deficient"] += len(pivots) < min(len(mat), ncols)
    assert seen["stalled"] > 20 and seen["deficient"] > 20


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_reduced_rows_do_not_depend_on_row_order(field):
    rng = random.Random("order:%s" % field)
    for _ in range(100):
        mat, _, ncols = random_system(rng, field)
        rows = [sparse(r) for r in mat]
        want = Echelon(field)
        for row in rows:
            want.add(row)
        rng.shuffle(rows)
        got = Echelon(field)
        for row in rows:
            got.add(row)
        assert got.reduced_rows() == want.reduced_rows()


BIG_FIELDS = [QQ, GF(5), GF(2147483647)]


def big_scalar(rng, field):
    if field is QQ:
        return Fraction(rng.randint(-10 ** 12, 10 ** 12),
                        rng.randint(1, 10 ** 6))
    return rng.randrange(field.characteristic)


def big_system(rng, field):
    """Up to 40 x 30, a third of the rows combinations of earlier ones,
    large numerators and denominators over QQ; the right-hand side is
    consistent half the time."""
    nrows, ncols = rng.randint(1, 40), rng.randint(1, 30)
    density = rng.choice((0.15, 0.4, 0.8))
    mat = []
    for _ in range(nrows):
        if mat and rng.random() < 0.35:
            row = [field.zero] * ncols
            for src in rng.sample(mat, min(len(mat), rng.randint(1, 3))):
                s = big_scalar(rng, field)
                row = [field.add(a, field.mul(s, b)) for a, b in zip(row, src)]
            mat.append(row)
        else:
            mat.append([big_scalar(rng, field) if rng.random() < density
                        else field.zero for _ in range(ncols)])
    if rng.random() < 0.5:
        x = [big_scalar(rng, field) for _ in range(ncols)]
        rhs = [field.zero] * nrows
        for i, row in enumerate(mat):
            for a, b in zip(row, x):
                rhs[i] = field.add(rhs[i], field.mul(a, b))
    else:
        rhs = [big_scalar(rng, field) for _ in range(nrows)]
    return mat, rhs, ncols


@pytest.mark.parametrize("field", BIG_FIELDS, ids=str)
def test_integer_kernel_matches_dense_reference_on_large_systems(field):
    rng = random.Random("big:%s" % field)
    seen = {"stalled": 0, "deficient": 0}
    for _ in range(12):
        mat, rhs, ncols = big_system(rng, field)
        sol, stalled, basis, rows, pivots = dense_solve(mat, rhs, ncols,
                                                        field)
        assert rank(map(sparse, mat), field) == \
            len(dense_rref(mat, ncols, field)[1])
        got, got_stalled, reduced = solve(columns_of(mat, ncols),
                                          range(len(mat)), sparse(rhs), field)
        assert got == sol
        assert got_stalled == stalled
        assert kernel(reduced, ncols, field) == basis
        assert reduced == {p: sparse(row) for row, p in zip(rows, pivots)}
        ech = Echelon(field)
        for row in mat:
            ech.add(sparse(row))
        want, want_pivots = dense_rref(mat, ncols, field)
        assert ech.reduced_rows() == {p: sparse(row)
                                      for row, p in zip(want, want_pivots)}
        seen["stalled"] += bool(stalled)
        seen["deficient"] += len(pivots) < min(len(mat), ncols)
    assert seen["stalled"] and seen["deficient"]


@pytest.mark.parametrize("field", BIG_FIELDS, ids=str)
def test_reduce_matches_field_arithmetic_reference(field):
    # the same pivots and the same reduced echelon form, as field
    # elements, as row reduction with pivot rows scaled to one in the
    # field itself; each probe row goes through add on copies of both,
    # so what is left of it after reduction is compared
    rng = random.Random("reduce:%s" % field)
    for _ in range(10):
        mat, _, ncols = big_system(rng, field)
        ech, ref = Echelon(field), FieldEchelon(field)
        for row in mat:
            ech.add(sparse(row))
            ref.add(sparse(row))
        assert ech.pivots.keys() == ref.pivots.keys()
        for _ in range(5):
            probe = sparse([big_scalar(rng, field) for _ in range(ncols)])
            e, r = Echelon(field), FieldEchelon(field)
            e.pivots, r.pivots = dict(ech.pivots), dict(ref.pivots)
            e.add(probe)
            r.add(probe)
            assert e.pivots.keys() == r.pivots.keys()
            assert e.reduced_rows() == r.reduced_rows()


@pytest.mark.parametrize("field", BIG_FIELDS, ids=str)
def test_stored_pivot_rows_are_integers(field):
    # over QQ primitive with a positive pivot entry, over GF(p) one at
    # the pivot: no Fraction is stored
    rng = random.Random("stored:%s" % field)
    for _ in range(20):
        mat, _, _ = big_system(rng, field)
        ech = Echelon(field)
        for row in mat:
            ech.add(sparse(row))
        for c, row in ech.pivots.items():
            assert all(type(v) is int and v for v in row.values())
            assert min(row) == c
            if field is QQ:
                assert row[c] > 0 and gcd(*row.values()) == 1
            else:
                assert row[c] == 1


@pytest.mark.parametrize("field", BIG_FIELDS, ids=str)
def test_primitive_row_does_not_depend_on_the_multiple(field):
    # over QQ any nonzero rational multiple, over GF(p) any unit multiple,
    # gives the same integer row: content out and a positive entry at c,
    # or one at c
    rng = random.Random("primitive:%s" % field)
    p = field.characteristic
    for _ in range(40):
        row = {}
        for _ in range(rng.randint(1, 8)):
            v = big_scalar(rng, field)
            if v:
                row[rng.randrange(30)] = v
        if not row:
            continue
        c = rng.choice(list(row))
        want = primitive(integral(row, p)[0], c, p)
        if p:
            assert want[c] == 1
        else:
            assert want[c] > 0 and gcd(*want.values()) == 1
        for _ in range(5):
            m = big_scalar(rng, field) or field.one
            multiple = {k: field.mul(m, v) for k, v in row.items()}
            assert primitive(integral(multiple, p)[0], c, p) == want
