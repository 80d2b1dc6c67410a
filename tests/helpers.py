"""Fixtures shared by several test modules; the library does not use them."""

import itertools

from potalg.fields import QQ
from potalg.freepoly import FreePoly


def random_poly(rng, field=QQ, degrees=(1, 2, 3), terms=3, cap=None,
                coeff_pool=(-2, -1, 1, 2, 3)) -> FreePoly:
    """Small random polynomial for property tests; deterministic in rng."""
    out = {}
    for _ in range(terms):
        d = rng.choice(degrees)
        w = "".join(rng.choice("xy") for _ in range(d))
        out[w] = field.coerce(rng.choice(coeff_pool))
    return FreePoly(field, out, cap)


def validate(F):
    """check_shape, then associativity on every basis triple of F."""
    F.check_shape()
    zero = F.zero_vec()
    for i, j, k in itertools.product(range(F.dim), repeat=3):
        left = F.mul(F.table.get((i, j), zero), F.basis_vec(k))
        right = F.mul(F.basis_vec(i), F.table.get((j, k), zero))
        if left != right:
            raise ValueError("associativity fails at (%d, %d, %d)"
                             % (i, j, k))
    return True
