"""Scripted reproductions of the headline computations.

Each report function recomputes a recorded count or structural claim
from scratch and returns a JSON-ready dict::

    {"theorem": name, "checks": [{"name": ..., "pass": ...}, ...], "pass": all}

The CLI exposes them under ``reproduce --theorem NAME``. Checks carry
enough measured data to audit the claim without rerunning by hand.
"""

import random
from fractions import Fraction

from .brace import (FiniteBrace, Filtration, associated_graded,
                    brace_from_nilpotent_ring, enumerate_braces,
                    gamma_filtration, pre_lie_defect, series_exact)
from .classify import classify_potential, dim_formula
from .fields import QQ
from .freepoly import FreePoly
from .isotest import distinguish_algebras, from_quotient
from .parsing import parse_poly
from .potential import cyclic_symmetrize, relations_of
from .quotient import hilbert
from .rewrite import complete

DEFAULT_SEED = 20240815
X3_TRIALS = 20

DIM8_TEXT = "x^3 + y^3 + cyc(x y x y)"
DIM9A_TEXT = "cyc(x^2 y) + y^4"
DIM9B_TEXT = "cyc(x^2 y) + y^4 + y^5"


def _check(name, ok, **data):
    entry = {"name": name, "pass": bool(ok)}
    entry.update(data)
    return entry


def _report(theorem, checks, **extra):
    doc = {"theorem": theorem, "checks": checks,
           "pass": all(c["pass"] for c in checks)}
    doc.update(extra)
    return doc


def _quotient(text, cap):
    F = parse_poly(text, QQ, cap)
    return hilbert(complete(list(relations_of(F)), cap=cap))


def dim8():
    """The smallest finite potential algebra: total dimension 8."""
    Q = _quotient(DIM8_TEXT, 8)
    rep = classify_potential(parse_poly(DIM8_TEXT, QQ, 8), 8)
    checks = [
        _check("dimension of the quotient is 8",
               Q.finite and Q.dimension == 8, measured=Q.dimension),
        _check("layer counts are 1+2+2+2+1",
               tuple(Q.hilbert[:5]) == (1, 2, 2, 2, 1)
               and sum(Q.hilbert) == 8, hilbert=list(Q.hilbert)),
        _check("classifier lands on the dim-8 representative",
               rep.representative == "dim8"
               and rep.canonical == parse_poly(
                   "x^3 + y^3 + x y x y + y x y x", QQ, 8),
               representative=rep.representative),
    ]
    return _report("dim8", checks)


def dim9():
    """Both nine-dimensional algebras, the y^6 cleanup, non-isomorphism."""
    checks = []
    quotients = []
    for text in (DIM9A_TEXT, DIM9B_TEXT):
        Q = _quotient(text, 8)
        quotients.append(Q)
        checks.append(_check(
            "%s has dimension 9 with layers 1+2+2+2+1+1" % text,
            Q.finite and Q.dimension == 9
            and tuple(Q.hilbert[:6]) == (1, 2, 2, 2, 1, 1),
            hilbert=list(Q.hilbert)))

    rep = classify_potential(parse_poly(DIM9B_TEXT + " + y^6", QQ, 8), 8)
    kills = [s.image_y.coeff("yyy") for s in rep.trail
             if s.image_y.coeff("yyy")]
    checks.append(_check(
        "y^6 tail removed by a single y -> y - y^3/4 stage",
        rep.representative == "9B"
        and rep.canonical == parse_poly(DIM9B_TEXT, QQ, 8)
        and kills == [Fraction(-1, 4)],
        representative=rep.representative,
        cubic_stage_coefficients=[str(c) for c in kills]))

    verdict = distinguish_algebras(from_quotient(quotients[0]),
                                   from_quotient(quotients[1]))
    checks.append(_check(
        "the two nine-dimensional algebras are not isomorphic",
        verdict.status == "not_isomorphic",
        certificate=verdict.certificate))
    return _report("dim9", checks)


def _grid_cells():
    # valuation pairs (n, k): k odd below 2n, or k = 2n exactly
    for n in range(4):
        ks = list(range(1, 2 * n, 2)) + [2 * n] if n else [0]
        for k in ks:
            if k <= 6:
                yield n, k


def cor1_grid():
    """Even tails match 3(2n+3), and every cell of the mixed grid matches
    dim_formula."""
    checks = []
    for n in range(4):
        d = 4 + 2 * n
        expected = 3 * (2 * n + 3)
        for tail in ("y^%d" % d, "2 y^%d" % d, "y^%d + y^%d" % (d, d + 2)):
            Q = _quotient("cyc(x^2 y) + " + tail, expected)
            checks.append(_check(
                "even tail %s gives dimension %d" % (tail, expected),
                Q.finite and Q.dimension == expected,
                n=n, measured=Q.dimension))

    grid = []
    for n, k in _grid_cells():
        predicted = dim_formula(n, k)
        if k == 2 * n:
            tail = "y^%d" % (4 + 2 * n)
        else:
            tail = "y^%d + y^%d" % (4 + k, 4 + 2 * n)
        Q = _quotient("cyc(x^2 y) + " + tail, predicted)
        measured = Q.dimension if Q.finite else None
        grid.append({"n": n, "k": k, "tail": tail,
                     "predicted": predicted, "measured": measured,
                     "matches": measured == predicted})
    # every cell must match; discrepancies lists the cells that do not
    checks.append(_check(
        "full (n, k) grid measured for k <= 6",
        len(grid) == 10 and all(g["matches"] for g in grid),
        entries=grid,
        discrepancies=[g for g in grid if not g["matches"]]))
    return _report("cor1-grid", checks)


def x3_bound(seed=DEFAULT_SEED):
    """Random tails over the x^3 class never drop below dimension 10."""
    rng = random.Random(seed)
    cap = 8
    checks = []
    for trial in range(X3_TRIALS):
        tail = FreePoly.zero(QQ, cap)
        for _ in range(4):
            w = "".join(rng.choice("xy") for _ in range(rng.randint(4, 6)))
            tail = tail + FreePoly.term(w, rng.randint(1, 3), QQ, cap)
        rep = classify_potential(
            parse_poly("x^3", QQ, cap) + cyclic_symmetrize(tail), cap)
        h = tuple(rep.hilbert) + (0, 0, 0, 0)
        dominates = all(h[i] >= t for i, t in enumerate((1, 2, 3, 4)))
        total = rep.dimension if rep.finite else rep.lower_bound
        checks.append(_check(
            "trial %02d: layer prefix dominates (1,2,3,4) and total >= 10"
            % trial,
            rep.cubic.label == "X3" and dominates
            and total is not None and total >= 10,
            hilbert_prefix=list(h[:4]), total=total))
    return _report("x3-bound", checks, seed=seed, trials=X3_TRIALS)


def _cyclic(n, star_fn):
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    star = [[star_fn(a, b) % n for b in range(n)] for a in range(n)]
    return add, star


def _subring_brace(m, modulus):
    # the ring m*Z/modulus, carrier index i standing for the value m*i
    n = modulus // m
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    star = [[(m * i * j) % n for j in range(n)] for i in range(n)]
    return brace_from_nilpotent_ring(add, star)


def _unitriangular_brace():
    # strictly upper triangular 3x3 over GF(2), coded as bits (p, q, r)
    add = [[a ^ b for b in range(8)] for a in range(8)]
    mul = [[((a & 1) * ((b >> 1) & 1)) << 2 for b in range(8)]
           for a in range(8)]
    return brace_from_nilpotent_ring(add, mul)


def _brace_fixtures():
    out = []
    for n in (2, 3, 4, 5):
        B = FiniteBrace(*_cyclic(n, lambda a, b: 0))
        out.append(("trivial Z/%d" % n, B,
                    Filtration([set(range(n)), {0}])))
    z9 = FiniteBrace(*_cyclic(9, lambda a, b: 3 * a * b))
    out.append(("Z/9 with a*b = 3ab", z9,
                Filtration([set(range(9)), {0, 3, 6}, {0}])))
    for label, m, modulus in (("2Z/8", 2, 8), ("3Z/9", 3, 9),
                              ("2Z/16", 2, 16), ("2Z/32", 2, 32)):
        B = _subring_brace(m, modulus)
        out.append(("ring %s" % label, B, gamma_filtration(B)))
    B = _unitriangular_brace()
    out.append(("ring U3(F2)", B, gamma_filtration(B)))
    for i, B in enumerate(enumerate_braces(8)):
        try:
            filt = gamma_filtration(B)
        except ValueError:
            continue
        out.append(("enumerated #%02d (order %d)" % (i, B.order), B, filt))
    return out


def _degree_bound_holds(B, filt):
    # each degree walks the chain, so it is read once per element
    deg = [filt.degree(a) for a in range(B.order)]
    for a in range(1, B.order):
        for b in range(1, B.order):
            if not deg[a] < deg[b]:
                continue
            for c in range(1, B.order):
                gap = B.minus(B.times(B.plus(a, b), c),
                              B.plus(B.times(a, c), B.times(b, c)))
                if not deg[gap] > deg[b] + deg[c]:
                    return False
    return True


def prelie():
    """Graded left symmetry, exact series, and the degree bound.

    A truss that passes its axioms and a filtration is a brace on the
    same tables, and no law on alpha is checked beyond the truss axiom
    (brace module docstring), so this reproduces the paper's graded
    theorem in its brace case. series_exact proves the series exact at all n^3 triples of each
    fixture, on c in {0} ∪ S once star is left distributive; the
    reported series_triples still counts those n^3 triples. The degree
    bound is a plain triple scan.
    """
    checks = []
    triples = 0
    for name, B, filt in _brace_fixtures():
        # associated_graded checks the axioms and the filtration first
        try:
            defect = pre_lie_defect(associated_graded(B, filt))
        except ValueError:
            defect = None
        triples += B.order ** 3
        checks.append(_check(
            name,
            defect == 0 and series_exact(B, filt.length)
            and _degree_bound_holds(B, filt),
            order=B.order, chain_length=filt.length))
    return _report("prelie", checks, series_triples=triples)


REPORTS = {"dim8": dim8, "dim9": dim9, "cor1-grid": cor1_grid,
           "x3-bound": x3_bound, "prelie": prelie}


def run(theorem, seed=None):
    """Dispatch one reproduction by name; seed only feeds data generation."""
    if theorem not in REPORTS:
        raise ValueError("unknown theorem %r; choose from %s"
                         % (theorem, ", ".join(sorted(REPORTS))))
    if theorem == "x3-bound":
        return x3_bound(DEFAULT_SEED if seed is None else seed)
    return REPORTS[theorem]()
