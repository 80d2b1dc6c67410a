"""Cubic normal forms, tail cleanup, dimension formulas, classification."""

import random
from fractions import Fraction

import pytest

from potalg import classify
from potalg.classify import (ClassificationReport, CleanupError,
                             classify_potential, cleanup_x2y, cleanup_x3y3,
                             cubic_class, dim_formula)
from potalg.fields import GF, FieldError, QQ
from potalg.freepoly import FreePoly, Substitution, substitute
from potalg.isotest import algebra_profile, from_quotient
from potalg.parsing import parse_poly, render
from potalg.potential import (cyclic_symmetrize, is_cyclically_invariant,
                              relations_of)
from potalg.quotient import hilbert
from potalg.rewrite import complete, oracle_dimension

from helpers import compose_trail

CAP = 8


def poly(text, cap=CAP):
    return parse_poly(text, QQ, cap)


# -- cubic_class --------------------------------------------------------

def test_cubic_canonical_inputs_get_identity():
    for text, label in (("x^3", "X3"),
                        ("cyc(x^2 y)", "X2Y"),
                        ("x^3 + y^3", "X3Y3")):
        cls = cubic_class(poly(text))
        assert cls.label == label
        assert render(cls.transform.image_x) == "x"
        assert render(cls.transform.image_y) == "y"
        assert cls.sigma == 1


def test_uncapped_cubic_class_needs_no_cap():
    # the normalizing transform is solved from its linear part on the
    # coefficients alone, so an uncapped body gets the identity, not
    # "an explicit cap is required"
    cls = cubic_class(parse_poly("x^3"))
    assert cls.label == "X3" and cls.sigma == 1
    assert cls.transform.cap is None
    assert render(cls.transform.image_x) == "x"
    assert render(cls.transform.image_y) == "y"


def test_cube_weights_assert_exactness():
    # x^3 + y^3 is no multiple of one cube, nor a sum of two cubes of
    # one line; both are internal failures, not user errors
    cubes = classify._cube_coeffs
    with pytest.raises(AssertionError):
        classify._weights((1, 0, 0, 1), [cubes((1, 0))])
    with pytest.raises(AssertionError):
        classify._weights((1, 0, 0, 0), [cubes((1, 0)), cubes((2, 0))])
    assert classify._weights((9, 0, 0, 2),
                             [cubes((1, 0)), cubes((0, 1))]) == [9, 2]


def test_cubic_triple_line_from_square():
    # abelianizes to (x + y)^3
    f = poly("x^3 + cyc(x^2 y) + cyc(x y^2) + y^3")
    cls = cubic_class(f)
    assert cls.label == "X3"
    work = substitute(f, cls.transform).scale(1 / cls.sigma)
    assert work == poly("x^3")


def test_cubic_double_line_scaled():
    cls = cubic_class(poly("4 cyc(x^2 y)"))
    assert cls.label == "X2Y" and cls.sigma == 1
    work = substitute(poly("4 cyc(x^2 y)"), cls.transform)
    assert work == poly("cyc(x^2 y)")


def test_cubic_distinct_lines_rational():
    f = poly("x^3 + x y y + y x y + y y x")
    cls = cubic_class(f)
    assert cls.label == "X3Y3" and cls.extension_required is None
    work = substitute(f, cls.transform).scale(1 / cls.sigma)
    assert work == poly("x^3 + y^3")


def test_cubic_quadratic_extension_reported():
    cls = cubic_class(poly("x^3 + 1/3 cyc(x^2 y) + y^3"))
    assert cls.label == "X3Y3"
    assert cls.extension_required == {"kind": "quadratic",
                                      "discriminant": "1488"}
    assert cls.transform is None


def test_cubic_cube_ratio_extension_reported():
    cls = cubic_class(poly("x^3 + 2 y^3"))
    assert cls.extension_required == {"kind": "cubic", "cube_ratio": "2"}


def test_cubic_large_rational_cube_ratio_splits():
    k = 10 ** 20 + 7
    f = poly("x^3 + %d y^3" % k ** 3)
    cls = cubic_class(f)
    assert cls.label == "X3Y3" and cls.extension_required is None
    work = substitute(f, cls.transform).scale(1 / cls.sigma)
    assert work == poly("x^3 + y^3")


def test_int_cbrt_is_exact():
    from potalg.classify import _int_cbrt
    k = 10 ** 20 + 7
    assert _int_cbrt(k ** 3) == k
    assert _int_cbrt(-k ** 3) == -k
    assert _int_cbrt(k ** 3 + 1) is None
    assert _int_cbrt(k ** 3 - 1) is None
    # zero, negatives and every small cube
    assert [n for n in range(-30, 1001) if _int_cbrt(n) is not None] == \
        [r ** 3 for r in range(-3, 11)]


def test_cubic_zero_abelianization_rejected():
    with pytest.raises(ValueError):
        cubic_class(poly("x y y - y x y"))


def test_cubic_zero_part_label():
    assert cubic_class(poly("cyc(x^2 y^2)")).label == "Zero"


def test_cubic_rejects_prime_field():
    with pytest.raises(FieldError):
        cubic_class(parse_poly("x^3", GF(5), CAP))


# -- cubic_class on cubics built from their lines -------------------------
#
# A binary form is its coefficient list on x^n, x^(n-1) y, ..., y^n, and
# the line p x + q y is [p, q]. Expected labels and obstructions below
# follow from how each cubic is built, not from the code under test.

def _form_product(*forms):
    out = [Fraction(1)]
    for f in forms:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _cubic_poly(coeffs):
    """The rotation-invariant noncommutative cubic abelianizing to coeffs."""
    words = (("xxx",), ("xxy", "xyx", "yxx"), ("xyy", "yxy", "yyx"), ("yyy",))
    terms = {w: c / len(ws) for c, ws in zip(coeffs, words) for w in ws if c}
    return FreePoly.from_terms(terms, QQ, 3)


def _det(l1, l2):
    return l1[0] * l2[1] - l1[1] * l2[0]


def _lines(rng, k):
    """k pairwise independent rational lines."""
    out = []
    while len(out) < k:
        l = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in "pq"]
        if any(l) and all(_det(l, m) for m in out):
            out.append(l)
    return out


def _is_cube(q):
    def int_cube(n):
        r = round(abs(n) ** (1 / 3))
        return any((r + e) ** 3 == abs(n) for e in (-1, 0, 1))
    return int_cube(q.numerator) and int_cube(q.denominator)


def _assert_normalizes(f, cls, label):
    normal = {"X3": "x^3", "X2Y": "cyc(x^2 y)", "X3Y3": "x^3 + y^3"}[label]
    work = substitute(f, cls.transform).scale(1 / cls.sigma)
    assert work == parse_poly(normal, QQ, 3)


def test_cubic_class_matches_construction():
    rng = random.Random(20261018)
    for _ in range(40):
        sigma = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
        l1, l2, l3 = _lines(rng, 3)
        # a triple line and a double line times another line
        for label, lines in (("X3", (l1, l1, l1)), ("X2Y", (l1, l1, l2))):
            f = _cubic_poly([sigma * c for c in _form_product(*lines)])
            cls = cubic_class(f)
            assert cls.label == label and cls.extension_required is None
            _assert_normalizes(f, cls, label)
        # l1^3 + r^3 l2^3 splits over QQ
        r = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 3))
        cubes = zip(_form_product(l1, l1, l1), _form_product(l2, l2, l2))
        f = _cubic_poly([sigma * (a + r ** 3 * b) for a, b in cubes])
        cls = cubic_class(f)
        assert cls.label == "X3Y3" and cls.extension_required is None
        _assert_normalizes(f, cls, "X3Y3")
        # three rational lines: a sum of two rational cubes has only one
        # rational line, so the split needs sqrt(-3); the discriminant is
        # -48 times that of the cubic, sigma^4 prod det(li, lj)^2
        f = _cubic_poly([sigma * c for c in _form_product(l1, l2, l3)])
        cls = cubic_class(f)
        delta = sigma ** 4 * (_det(l1, l2) * _det(l1, l3) * _det(l2, l3)) ** 2
        assert cls.label == "X3Y3" and cls.transform is None
        assert cls.extension_required == {"kind": "quadratic",
                                          "discriminant": str(-48 * delta)}


def test_cubic_class_reports_a_cube_ratio_from_construction():
    # l1^3 + 2 l2^3: the ratio of the two cubes is 2 or 1/2 up to the cube
    # of the scale that makes each line primitive, so never a cube
    rng = random.Random(7)
    for _ in range(20):
        l1, l2 = _lines(rng, 2)
        cubes = zip(_form_product(l1, l1, l1), _form_product(l2, l2, l2))
        cls = cubic_class(_cubic_poly([a + 2 * b for a, b in cubes]))
        assert cls.label == "X3Y3" and cls.transform is None
        assert cls.extension_required["kind"] == "cubic"
        ratio = Fraction(cls.extension_required["cube_ratio"])
        assert not _is_cube(ratio)
        assert _is_cube(ratio / 2) or _is_cube(ratio * 2)


# -- cleanup_x2y ---------------------------------------------------------

def test_cleanup_pure_quartic_tail():
    rec = ClassificationReport(poly("cyc(x^2 y) + y^4"))
    p, n, k = cleanup_x2y(rec)
    assert p[0] == 1 and not any(p[1:])
    assert (n, k) == (0, 0)
    assert rec.trail == [] and rec.projected_stages == 0


def test_cleanup_x4_tail_goes_infinite_regime():
    rec = ClassificationReport(poly("cyc(x^2 y) + x^4"))
    p, n, k = cleanup_x2y(rec)
    assert not any(p)
    assert n is None and k is None
    assert rec.canonical == poly("cyc(x^2 y)")


def test_cleanup_mixed_quartic_preserves_dimension():
    f = poly("cyc(x^2 y) + cyc(x^2 y^2)")
    rec = ClassificationReport(f)
    p, _, _ = cleanup_x2y(rec)
    assert rec.canonical.homogeneous_part(4) == poly("y^4").scale(p[0])
    before = oracle_dimension([r for r in relations_of(f)], CAP)
    after = oracle_dimension([r for r in relations_of(rec.canonical)], CAP)
    assert before == after


def test_cleanup_rejects_wrong_cubic():
    with pytest.raises(ValueError):
        cleanup_x2y(ClassificationReport(poly("x^3 + y^3 + y^4")))


def test_trail_substitutions_invert():
    rec = ClassificationReport(poly("cyc(x^2 y) + cyc(x^2 y^2)"))
    cleanup_x2y(rec)
    # by the formal inverse function theorem a substitution is
    # invertible through any cap exactly when its linear part is
    assert rec.trail
    for s in rec.trail:
        x, y = s.image_x, s.image_y
        assert x.coeff("x") * y.coeff("y") != x.coeff("y") * y.coeff("x")


# -- cleanup_x3y3 --------------------------------------------------------

def test_dim8_potential_is_fixed_point():
    f = poly("x^3 + y^3 + x y x y + y x y x")
    rec = ClassificationReport(f)
    assert cleanup_x3y3(rec) == 1
    assert rec.canonical == f and rec.trail == [] and rec.global_scale == 1
    assert all(e.get("skipped") for e in rec.stage_log)


def test_cleanup_x4_term_removed():
    rec = ClassificationReport(poly("x^3 + y^3 + cyc(x^4)"))
    assert cleanup_x3y3(rec) == 0
    assert rec.canonical == poly("x^3 + y^3")
    assert rec.trail


def test_cleanup_y4_term_removed_keeps_xyxy():
    f = poly("x^3 + y^3 + cyc(x y x y) + cyc(y^4)")
    rec = ClassificationReport(f)
    assert cleanup_x3y3(rec) == 1
    assert rec.canonical == poly("x^3 + y^3 + x y x y + y x y x")


# -- dim_formula ---------------------------------------------------------

def test_formula_goldens():
    assert dim_formula(0, 0) == 9
    assert dim_formula(1, 1) == 14
    assert dim_formula(1, 2) == 15


def test_grid_k_equals_2n_matches_engine():
    for n, cap in ((0, 8), (1, 12), (2, 16)):
        rep = classify_potential(poly("cyc(x^2 y) + y^%d" % (4 + 2 * n), cap),
                                 cap)
        assert rep.dimension == 3 * (2 * n + 3)
        assert rep.formula["predicted"] == rep.dimension


def test_formula_k_not_2n():
    rep = classify_potential(poly("cyc(x^2 y) + y^5 + y^6", 14), 14)
    assert (rep.formula["n"], rep.formula["k"]) == (1, 1)
    assert rep.dimension == rep.formula["predicted"] == 14


def test_formula_is_an_oracle_for_completion():
    # every pure-tail cell with n <= 10 (k odd below 2n, or k = 2n), at
    # cap dim_formula(n, k), then the six cells with n <= 2 under a
    # seeded invertible linear map, each at the smallest cap from the
    # potential's degree up that certifies finiteness
    def total(f, cap):
        Q = hilbert(complete(list(relations_of(f)), cap=cap))
        return Q.dimension if Q.finite else None

    def cells(top):
        for n in range(top + 1):
            for k in range(1, 2 * n, 2) if n else ():
                yield n, k, "y^%d + y^%d" % (4 + k, 4 + 2 * n)
            yield n, 2 * n, "y^%d" % (4 + 2 * n)

    assert len(list(cells(10))) == 66
    for n, k, tail in cells(10):
        predicted = dim_formula(n, k)
        assert total(poly("cyc(x^2 y) + " + tail, predicted),
                     predicted) == predicted, (n, k)
    rng = random.Random(20261020)
    for n, k, tail in cells(2):
        while True:
            a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
            if a * d - b * c:
                break
        for cap in range(4 + 2 * n, 15):
            phi = Substitution.linear(a, b, c, d, QQ, cap)
            dim = total(substitute(poly("cyc(x^2 y) + " + tail, cap), phi),
                        cap)
            if dim is not None:
                break
        assert dim == dim_formula(n, k), (n, k, (a, b, c, d), cap)


# -- classify_potential --------------------------------------------------

def test_classify_dim8():
    f = poly("x^3 + y^3 + x y x y + y x y x")
    rep = classify_potential(f, CAP)
    assert rep.dimension == 8 and rep.representative == "dim8"
    assert rep.hilbert[:5] == (1, 2, 2, 2, 1)
    assert rep.canonical == f
    composed = compose_trail(rep.trail, CAP)
    assert composed.image_x == poly("x")
    assert composed.image_y == poly("y")
    assert rep.projected_stages == 0


def test_classify_dim8_doubled_rotations():
    rep = classify_potential(poly("x^3 + y^3 + cyc(x y x y)"), CAP)
    assert rep.dimension == 8 and rep.representative == "dim8"
    assert rep.canonical.coeff("xyxy") == 1
    assert rep.global_scale == Fraction(1, 8)


def test_classify_9a():
    f = poly("cyc(x^2 y) + y^4")
    rep = classify_potential(f, CAP)
    assert rep.dimension == 9 and rep.representative == "9A"
    assert rep.canonical == f
    assert rep.truncated_above == 6


def test_classify_9b_kills_y6():
    rep = classify_potential(poly("cyc(x^2 y) + y^4 + y^5 + y^6"), CAP)
    assert rep.dimension == 9 and rep.representative == "9B"
    assert rep.canonical == poly("cyc(x^2 y) + y^4 + y^5")
    assert rep.truncated_above == 6
    kills = [s.image_y.coeff("yyy") for s in rep.trail
             if s.image_y.coeff("yyy")]
    assert kills == [Fraction(-1, 4)]


def test_classify_9b_after_square_scaling():
    rep = classify_potential(poly("cyc(x^2 y) + y^4 + 4 y^5"), CAP)
    assert rep.representative == "9B"
    assert rep.canonical == poly("cyc(x^2 y) + y^4 + y^5")
    assert rep.scaling_obstruction is None


def test_classify_scaling_obstruction():
    rep = classify_potential(poly("cyc(x^2 y) + y^4 + 2 y^5 + y^6"), CAP)
    assert rep.dimension == 9 and rep.representative is None
    assert rep.scaling_obstruction == {"square_class": "2"}


def test_classify_x3_lower_bound():
    rep = classify_potential(poly("x^3 + cyc(y^4)"), CAP)
    assert rep.cubic.label == "X3"
    assert rep.hilbert[:3] == (1, 2, 3) and rep.hilbert[3] >= 4
    assert rep.lower_bound is not None and rep.lower_bound >= 10
    assert rep.inconclusive


def test_classify_symmetrizes_lopsided_cubic():
    rep = classify_potential(poly("3 x x y + y^4"), CAP)
    assert rep.symmetrized_input
    assert rep.dimension == 9 and rep.representative == "9A"


def test_classify_odd_tail_not_finite():
    rep = classify_potential(poly("cyc(x^2 y) + y^5", 10), 10)
    assert rep.inconclusive and not rep.finite
    assert rep.growth == "bounded-constant"
    assert rep.formula["n"] is None and rep.formula["k"] == 1


def test_classify_scaled_x2y_end_to_end():
    rep = classify_potential(poly("4 cyc(x^2 y) + y^4"), CAP)
    assert rep.dimension == 9 and rep.representative == "9A"


def test_classify_extension_passthrough():
    rep = classify_potential(poly("x^3 + 2 y^3 + y^4"), CAP)
    assert rep.cubic.extension_required == {"kind": "cubic", "cube_ratio": "2"}
    assert rep.trail == []
    assert rep.canonical == poly("x^3 + 2 y^3 + y^4")


def test_classify_input_validation():
    with pytest.raises(ValueError):
        classify_potential(poly("x^2 + y^4"), CAP)
    with pytest.raises(ValueError):
        classify_potential(FreePoly.zero(QQ, CAP), CAP)
    with pytest.raises(FieldError):
        classify_potential(parse_poly("x^3", GF(5), CAP), CAP)


def test_literal_transport_when_not_projected():
    for text in ("cyc(x^2 y) + y^4",
                 "x^3 + y^3 + cyc(x y x y)",
                 "4 cyc(x^2 y) + y^4"):
        f = poly(text)
        rep = classify_potential(f, CAP)
        assert rep.projected_stages == 0
        carried = substitute(f, compose_trail(rep.trail, CAP))
        carried = carried.scale(1 / rep.global_scale)
        bound = rep.truncated_above or CAP
        assert carried.with_cap(bound) == rep.canonical.with_cap(bound)


def test_projected_transport_on_classes():
    f = poly("cyc(x^2 y) + y^4 + y^5 + y^6")
    rep = classify_potential(f, CAP)
    assert rep.projected_stages == 1
    carried = cyclic_symmetrize(substitute(f, compose_trail(rep.trail, CAP)))
    carried = carried.scale(1 / rep.global_scale)
    assert carried.with_cap(6) == rep.canonical.with_cap(6)


@pytest.mark.parametrize("text, stages, projected", [
    ("x^3 + y^3 + 2 cyc(x y x y) + cyc(x^2 y^3)", 6, 4),
    ("cyc(x^2 y) + y^4 + y^5 + y^6 + cyc(x y^2 x y)", 7, 4),
], ids=["X3Y3", "X2Y-9B"])
def test_window_stages_are_seen_by_the_tracer_hook(monkeypatch, text,
                                                    stages, projected):
    # wraps _window_stage as the benchmark's tracer does: called with
    # positional arguments, the stage log seventh, its last entry the
    # stage just run
    counts = {"stages": 0, "projected": 0}
    original = classify._window_stage

    def counted(*args):
        result = original(*args)
        counts["stages"] += 1
        counts["projected"] += bool(args[6][-1].get("projected"))
        return result

    monkeypatch.setattr(classify, "_window_stage", counted)
    rep = classify_potential(poly(text, 9), 9)
    assert counts == {"stages": stages, "projected": projected}
    assert rep.projected_stages == projected


def test_projected_stage_symmetrizes_once(monkeypatch):
    # word moves cannot reach x^2 y^2 alone, so the stage solves on
    # classes, and only the moved body is symmetrized
    calls = []
    monkeypatch.setattr(classify, "cyclic_symmetrize",
                        lambda f: calls.append(f) or cyclic_symmetrize(f))
    log = []
    classify._window_stage(poly("x^3 + y^3 + cyc(x y x y) + x^2 y^2"), CAP,
                           (4,), (2,), ["xyxy", "yxyx"], [], log)
    assert log[-1]["projected"] and len(calls) == 1


def test_class_stages_read_only_class_sums():
    # a stage that solves on classes gives a body and its cyclic
    # symmetrization the same body, free coordinates, trail and log entry
    rng = random.Random(20261020)
    stages = [("cyc(x^2 y)", (d,), (d - 2,), ["y" * d]) for d in (4, 5, 6)]
    stages += [("x^3 + y^3", (4,), (2,), ["xyxy", "yxyx"]),
               ("x^3 + y^3", (5,), (3,), []),
               ("x^3 + y^3", (5, 6), (3, 4), []),
               ("cyc(x^2 y)", (5, 6), (3,), ["yyyyy"])]
    projected = literal = 0
    for trial in range(120):
        cubic, window, moves, free = rng.choice(stages)
        body = poly(cubic)
        for _ in range(rng.randint(2, 5)):
            w = "".join(rng.choice("xy") for _ in range(rng.randint(4, 7)))
            c = Fraction(rng.choice((1, 2, 3, -1)), rng.choice((1, 2, 7)))
            body = body + FreePoly.term(w, c, QQ, CAP)
        runs = []
        for B in (body, cyclic_symmetrize(body)):
            trail, log = [], []
            out = classify._window_stage(B, CAP, window, moves, free, trail,
                                         log)
            runs.append((out, trail, log))
        if not all(log[-1].get("projected") for _, _, log in runs):
            continue
        projected += 1
        literal += not is_cyclically_invariant(body)
        assert runs[0] == runs[1], (render(body), window)
    assert projected >= 40 and literal >= 40, (projected, literal)


def test_report_serializes():
    rep = classify_potential(poly("cyc(x^2 y) + y^4 + y^5 + y^6"), CAP)
    doc = rep.to_json()
    assert doc["dimension"] == 9 and doc["representative"] == "9B"
    assert doc["truncated_above"] == 6
    assert doc["trail"], "trail must serialize"


# -- coordinate changes ---------------------------------------------------

# right-equivalent potentials have isomorphic Jacobi algebras; each map
# is invertible, and some have non-unit determinants or higher terms
NINE_MAPS = (("3 x", "-1/2 y"), ("2 x + y", "x + 3 y"), ("x + y^2", "y"),
             ("2 x + x y", "x + y + x^2"), ("x - 4 y", "5 y + y x y"))
TAIL_MAPS = (("3 x", "-1/2 y"), ("x + 2 y", "y"), ("x + y^2", "y"),
             ("-x - 4 y", "y"))


@pytest.mark.parametrize("text,cap,dim,name,maps", [
    ("x^3 + y^3 + cyc(x y x y)", 10, 8, "dim8", NINE_MAPS),
    ("cyc(x^2 y) + y^4", 10, 9, "9A", NINE_MAPS),
    ("cyc(x^2 y) + y^4 + y^5", 10, 9, "9B", NINE_MAPS),
    ("x^3 + cyc(x y^3) + y^5", 16, 32, None, TAIL_MAPS),
    ("cyc(x^2 y) + y^12", 28, 33, None, TAIL_MAPS),
])
def test_coordinate_changes_keep_the_algebra(text, cap, dim, name, maps):
    W = poly(text, cap)

    def algebra(f):
        Q = hilbert(complete(list(relations_of(f)), cap=cap))
        return Q.hilbert, algebra_profile(from_quotient(Q))

    expected = algebra(W)
    assert sum(expected[0]) == dim
    for images in maps:
        image = substitute(W, Substitution(*(poly(t, cap) for t in images),
                                           cap))
        assert algebra(image) == expected, images
        if name:
            rep = classify_potential(image, cap)
            assert rep.representative == name, images


# -- randomized properties ------------------------------------------------

def test_x3_random_tails_dominate_bound():
    rng = random.Random(20240803)
    words = [w for d in (4, 5) for w in
             ("".join(rng.choice("xy") for _ in range(d)),) * 3]
    for trial in range(10):
        tail = FreePoly.zero(QQ, CAP)
        for w in rng.sample(words, 4):
            tail = tail + FreePoly.term(w, rng.randint(1, 3), QQ, CAP)
        rep = classify_potential(poly("x^3") + cyclic_symmetrize(tail), CAP)
        assert rep.cubic.label == "X3"
        assert rep.hilbert[:3] == (1, 2, 3) and rep.hilbert[3] >= 4
        total = rep.dimension if rep.finite else rep.lower_bound
        assert total >= 10


def test_x3y3_degree4_slot_is_one_or_two():
    rng = random.Random(977)
    quartics = ["x^4", "y^4", "x y x y", "x^2 y^2", "x^3 y", "x y^3"]
    seen = set()
    for trial in range(8):
        picks = rng.sample(quartics, 2)
        f = poly("x^3 + y^3 + cyc(%s) + cyc(%s)" % tuple(picks), 7)
        rep = classify_potential(f, 7)
        h4 = rep.hilbert[4]
        seen.add(h4)
        assert h4 in (1, 2)
        if h4 == 1:
            assert rep.hilbert[5] == 0
    assert seen == {1, 2}
