"""Cyclicization, the two derivative conventions, and relation extraction."""

import gc
import random
import time
from fractions import Fraction

import pytest

from potalg.fields import GF, QQ, FieldError
from potalg.freepoly import FreePoly, Substitution, substitute
from potalg.parsing import parse_poly
from potalg.potential import (cyclic_symmetrize, cyclicize,
                              derive_ginzburg, derive_simple,
                              is_cyclically_invariant, relations_of)
from potalg.words import MonomialOrder, all_words, rotations

from helpers import random_poly


def P(s, cap=None, field=QQ):
    return parse_poly(s, field, cap)


def test_cyclicize_golden():
    assert cyclicize(P("x^2 y")) == P("x^2 y + x y x + y x^2")
    assert cyclicize(P("x y")) == P("x y + y x")
    # rotations of a periodic word repeat and the multiplicity is kept
    assert cyclicize(P("x y x y")) == P("2 x y x y + 2 y x y x")
    assert cyclicize(FreePoly.zero()).is_zero()


def test_cyclicize_of_cyclicize_scales_by_degree():
    rng = random.Random(17)
    for _ in range(30):
        d = rng.choice([2, 3, 4, 5])
        w = "".join(rng.choice("xy") for _ in range(d))
        f = FreePoly.term(w)
        assert cyclicize(cyclicize(f)) == cyclicize(f).scale(QQ.coerce(d))


def test_symmetrize_fixes_invariants():
    rng = random.Random(23)
    for _ in range(30):
        f = random_poly(rng, degrees=(2, 3, 4), terms=4, cap=8)
        g = cyclic_symmetrize(f)
        assert is_cyclically_invariant(g)
        assert cyclic_symmetrize(g) == g
        if is_cyclically_invariant(f):
            assert g == f


def test_symmetrize_characteristic_guard():
    # small characteristics warn first, then dividing by p raises
    with pytest.warns(UserWarning), pytest.raises(FieldError):
        cyclic_symmetrize(parse_poly("x y x", GF(3)))
    with pytest.warns(UserWarning), pytest.raises(FieldError):
        cyclic_symmetrize(parse_poly("x y x y x", GF(5)))
    # two words in the rotation class, but the length 6 is 0 in GF(3)
    with pytest.warns(UserWarning), pytest.raises(FieldError):
        cyclic_symmetrize(parse_poly("x y x y x y", GF(3)))
    with pytest.warns(UserWarning):
        g = cyclic_symmetrize(parse_poly("x y", GF(5)))
    assert is_cyclically_invariant(g)


def test_invariance_predicate():
    assert is_cyclically_invariant(P("x y + y x"))
    assert is_cyclically_invariant(FreePoly.zero())
    assert not is_cyclically_invariant(P("x^2 y"))
    assert is_cyclically_invariant(P("x^3 + y^3 + 2 x y x y + 2 y x y x"))


def test_derive_simple_golden():
    assert derive_simple(P("x^2 y"), "x") == P("x y")
    assert derive_simple(P("x y + y x"), "x") == P("y")
    assert derive_simple(P("x y + y x"), "y") == P("x")
    assert derive_simple(P("y^3"), "x").is_zero()
    assert derive_simple(P("x"), "x") == P("1")


def test_derive_ginzburg_golden():
    assert derive_ginzburg(P("x^2 y"), "x") == P("x y + y x")
    assert derive_ginzburg(P("x^2 y"), "y") == P("x^2")
    assert derive_ginzburg(P("y"), "y") == P("1")
    assert derive_ginzburg(P("x^3"), "x") == P("3 x^2")


def test_ginzburg_is_simple_after_cyclicizing():
    # checked exhaustively word by word in low degree
    for d in range(1, 6):
        for w in all_words(d):
            f = FreePoly.term(w)
            for letter in "xy":
                assert derive_ginzburg(f, letter) == \
                    derive_simple(cyclicize(f), letter)


def test_potential_validation():
    with pytest.raises(ValueError):
        relations_of(P("1 + x y"))


def test_relations_of_golden():
    rx, ry = relations_of(P("cyc(x^2 y) + y^4", cap=8))
    assert rx == P("x y + y x")
    assert ry == P("x^2 + y^3")
    ra, rb = relations_of(P("x^3 + y^3 + cyc(x y x y)", cap=9))
    assert ra == P("x^2 + 2 y x y")
    assert rb == P("y^2 + 2 x y x")


def test_relations_of_are_monic():
    assert derive_simple(P("2 cyc(x^2 y)", cap=6), "x") == P("2 x y + 2 y x")
    assert relations_of(P("2 cyc(x^2 y)", cap=6)) == \
        (P("x y + y x"), P("x^2"))
    # the leading word depends on the order: y^2 leads under yx
    rx, _ = relations_of(P("2 cyc(x^2 y) + 4 x y^2", cap=6),
                         MonomialOrder("yx"))
    assert rx == P("1/2 x y + 1/2 y x + y^2")


def test_relations_of_leaves_out_zero_derivatives():
    # no warning either: filterwarnings = error would turn it into a failure
    assert relations_of(FreePoly.zero(QQ, 6)) == ()
    assert relations_of(P("x^3 + x^4", cap=6)) == (P("x^2 + x^3"),)
    assert relations_of(P("y x y", cap=6)) == (P("x y"),)


def ref_accumulate(field, pairs, cap):
    acc = {}
    for w, c in pairs:
        acc[w] = field.add(acc.get(w, field.zero), c)
    return FreePoly(field, acc, cap)


def ref_cyclicize(f):
    return ref_accumulate(f.field, [(w[i:] + w[:i], c)
                                    for w, c in f.terms.items()
                                    for i in range(len(w))], f.cap)


def ref_cyclic_symmetrize(f):
    F = f.field
    pairs = []
    for w, c in f.terms.items():
        if not w:
            continue
        share = F.div(c, F.coerce(len(w)))
        pairs += [(w[i:] + w[:i], share) for i in range(len(w))]
    return ref_accumulate(F, pairs, f.cap)


def ref_derive_simple(f, letter):
    return ref_accumulate(f.field, [(w[1:], c) for w, c in f.terms.items()
                                    if w[:1] == letter], f.cap)


def ref_derive_ginzburg(f, letter):
    return ref_accumulate(f.field, [(w[i + 1:] + w[:i], c)
                                    for w, c in f.terms.items()
                                    for i, ch in enumerate(w)
                                    if ch == letter], f.cap)


def ref_substitute(f, image_x, image_y, cap):
    F = f.field
    images = {"x": image_x, "y": image_y}
    pairs = []
    for w, c in f.terms.items():
        partial = [("", c)]
        for ch in w:
            partial = [(u + v, F.mul(a, b)) for u, a in partial
                       for v, b in images[ch].terms.items()
                       if cap is None or len(u) + len(v) <= cap]
        pairs += partial
    return ref_accumulate(F, pairs, cap)


def _same(got, want):
    assert got.field == want.field
    assert got.cap == want.cap
    assert got.terms == want.terms
    assert all(got.terms.values())


def _rotate_each_word(f, k):
    return FreePoly(f.field, {w[k % len(w):] + w[:k % len(w)] if w else w: c
                              for w, c in f.terms.items()}, f.cap)


# integer coefficients, and rational ones whose denominators are units
# in GF(7) apart from -3/7, which is kept to the rationals
INTEGER_POOL = (-2, -1, 1, 2, 3)
RATIONAL_POOLS = {QQ: (Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3), -2, 1),
                  GF(7): (Fraction(1, 2), Fraction(-3, 5), Fraction(5, 3),
                          -2, 1)}
PERIODIC = ("xxx", "xyxy", "yxyx", "xyxyxy", "yxyxyx")


def test_calculus_matches_word_by_word_reference():
    rng = random.Random(71)
    seen_cancel = 0
    # no word of length 7: averaging over GF(7) would divide by zero
    for field, degrees in ((QQ, (0, 1, 2, 3, 4, 5, 6, 9)),
                           (GF(7), (0, 1, 2, 3, 4, 5, 6, 8))):
        for pool in (INTEGER_POOL, RATIONAL_POOLS[field]):
            for cap in (None, 8):
                # one substitution kept warm across every call below
                wx = random_poly(rng, field, degrees=(1, 2, 3), terms=3,
                                 cap=cap, coeff_pool=pool)
                wy = random_poly(rng, field, degrees=(1, 2), terms=2,
                                 cap=cap, coeff_pool=pool)
                warm = Substitution(wx, wy, cap)
                for _ in range(20):
                    f = random_poly(rng, field, degrees=degrees, terms=6,
                                    cap=cap, coeff_pool=pool)
                    # same words, rotated and negated: cyclic sums cancel
                    g = f - _rotate_each_word(f, rng.randrange(1, 4))
                    periodic = FreePoly(field, {
                        w: field.coerce(rng.choice(pool))
                        for w in rng.sample(PERIODIC, 3)}, cap)
                    for h in (f, g, f + g.scale(field.coerce(2)),
                              f + periodic):
                        _same(cyclicize(h), ref_cyclicize(h))
                        _same(cyclic_symmetrize(h), ref_cyclic_symmetrize(h))
                        for letter in "xy":
                            _same(derive_simple(h, letter),
                                  ref_derive_simple(h, letter))
                            _same(derive_ginzburg(h, letter),
                                  ref_derive_ginzburg(h, letter))
                    seen_cancel += cyclicize(g).is_zero() and not g.is_zero()
                    ix = random_poly(rng, field, degrees=(1, 2, 3), terms=2,
                                     cap=cap, coeff_pool=pool)
                    iy = random_poly(rng, field, degrees=(1, 2), terms=2,
                                     cap=cap, coeff_pool=pool)
                    s = Substitution(ix, iy, cap)
                    for h in (f, g, periodic):
                        h = FreePoly(field, {w: c for w, c in h.terms.items()
                                             if len(w) <= 4}, cap)
                        _same(substitute(h, s), ref_substitute(h, ix, iy, cap))
                        _same(substitute(h, warm),
                              substitute(h, Substitution(wx, wy, cap)))
                        _same(substitute(h, warm),
                              ref_substitute(h, wx, wy, cap))
                    # the images of x y and y x agree when x and y map alike
                    t = Substitution(ix, ix, cap)
                    h = P("x y - y x", cap, field)
                    _same(substitute(h, t), ref_substitute(h, ix, ix, cap))
                    assert substitute(h, t).terms == {}
    assert seen_cancel > 40


def test_substitute_and_symmetrize_leave_no_reference_cycles():
    # a word-image cache that refers to itself lives until the cyclic
    # collector runs, which raises peak memory on long cleanups
    f = P("x^3 + 1/2 cyc(x y x y) - 3/7 x^2 y^3 + 2 x y x y x y", 10)
    ix, iy = P("x + 1/3 y^2 - x y x", 10), P("y - 2/5 x y", 10)
    gc.collect()
    gc.disable()
    try:
        substitute(f, Substitution(ix, iy, 10))
        cyclic_symmetrize(f)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_ginzburg_matches_the_word_by_word_formula_on_rotation_classes():
    # several rotations of one word, periodic words among them, with
    # coefficients that sometimes cancel over the class
    rng = random.Random(20261018)
    cancelled = 0
    for field in (QQ, GF(5), GF(7)):
        for cap in (None, 8):
            for _ in range(40):
                terms = {}
                for _ in range(rng.randrange(1, 4)):
                    root = "".join(rng.choice("xy")
                                   for _ in range(rng.randrange(1, 8)))
                    w = root * rng.choice((1, 1, 2))
                    distinct = sorted(set(rotations(w)))
                    rots = rng.sample(distinct,
                                      rng.randrange(1, len(distinct) + 1))
                    coeffs = [field.coerce(rng.choice((-3, -1, 1, 2, 5)))
                              for _ in rots]
                    if len(rots) > 1 and rng.random() < 0.3:
                        total = field.zero
                        for c in coeffs[:-1]:
                            total = field.add(total, c)
                        coeffs[-1] = field.neg(total)
                        cancelled += 1
                    terms.update(zip(rots, coeffs))
                f = FreePoly(field, terms, cap)
                for letter in "xy":
                    _same(derive_ginzburg(f, letter),
                          ref_derive_ginzburg(f, letter))
    assert cancelled > 20


def test_ginzburg_on_a_long_cyclic_word_is_quadratic():
    # every word of cyc(w) used to be derived on its own, |w|^3 letters
    # in all: 4 s for |w| = 1000 through the CLI
    f = P("cyc(x^500 y^500)")
    start = time.perf_counter()
    got = derive_ginzburg(f, "x")
    assert time.perf_counter() - start < 1.0
    assert got.terms == {"x" * (499 - i) + "y" * 500 + "x" * i:
                         QQ.coerce(1000) for i in range(500)}


def test_calculus_drops_cancelled_sums():
    assert derive_ginzburg(P("x y x - y x x"), "x") == FreePoly.zero()
    assert derive_ginzburg(P("x y x - y x x"), "x").terms == {}
    assert cyclicize(P("x y - y x")).terms == {}
    assert cyclic_symmetrize(P("x y - y x")).terms == {}
    # the constant term is dropped, not averaged over zero rotations
    assert cyclic_symmetrize(P("3 + x y", None, GF(7))) == \
        P("4 x y + 4 y x", None, GF(7))
    with pytest.raises(FieldError):
        cyclic_symmetrize(P("x^4 y^3", None, GF(7)))
