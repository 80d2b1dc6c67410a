"""Truncated completion, normal forms, and the independent dimension oracle.

The running fixtures: R1 = {xy + yx, x^2 + y^3} and its perturbation
R2 = {xy + yx, x^2 + y^3 + y^4}. Both complete at cap 8 to the same four
leading words, and the quotient has total dimension 9.
"""

import hashlib
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from potalg.fields import GF, QQ, FieldError, ResourceCapError
from potalg.freepoly import FreePoly
from potalg.parsing import parse_poly, render
from potalg.potential import cyclic_symmetrize, relations_of
from potalg.rewrite import (RewriteSystem, ambiguities, complete,
                            normal_form, normal_words_by_degree,
                            oracle_dimension, s_polynomial, verify_complete)
from potalg.words import MonomialOrder

from helpers import (random_poly, reference_complete, reference_normal_form,
                     reference_oracle_dimension)

XY = MonomialOrder()


def P(s, cap=None, field=QQ):
    return parse_poly(s, field, cap)


def r1(cap=8, field=QQ):
    return [parse_poly("x y + y x", field, cap),
            parse_poly("x^2 + y^3", field, cap)]


def test_ambiguity_enumeration():
    ambs = ambiguities(RewriteSystem(r1(), XY, 8).leads, 8)
    assert [(a.kind, a.witness) for a in ambs] == \
        [("overlap", "xxy"), ("overlap", "xxx")]
    assert all(a.degree == 3 for a in ambs)


def test_s_polynomials_of_r1():
    R = RewriteSystem(r1(), XY, 8)
    by_witness = {a.witness: a for a in ambiguities(R.leads, 8)}

    def poly(terms):
        return FreePoly(QQ, {w: Fraction(c) for w, c in terms.items()}, 8)
    # integer terms; both rules here are monic, so no scale enters
    s_xxy = s_polynomial(by_witness["xxy"], R.rules, 8, 0)
    assert s_xxy == {"xyx": 1, "yyyy": -1}      # x y x - y^4
    assert normal_form(poly(s_xxy), R).is_zero()
    # the unresolved ambiguity that forces y^3 x into the basis
    s_xxx = s_polynomial(by_witness["xxx"], R.rules, 8, 0)
    assert normal_form(poly(s_xxx), R) == P("-2 y^3 x", cap=8)
    assert not verify_complete(R)


def test_complete_r1_golden():
    G = complete(r1(), XY, 8)
    assert [render(g, XY) for g in G.elements] == \
        ["x^2 + y^3", "x y + y x", "y^3 x", "y^6"]
    assert G.leads == ["xx", "xy", "yyyx", "yyyyyy"]
    assert G.complete_through == 2
    assert verify_complete(G)


def test_complete_accepts_any_iterable():
    # the relations are read once, so a generator gives the same basis
    G = complete(iter(r1()), XY, 8)
    assert G.to_json() == complete(r1(), XY, 8).to_json()


def test_complete_r2_golden():
    G = complete([P("x y + y x", cap=8), P("x^2 + y^3 + y^4", cap=8)], XY, 8)
    assert [render(g, XY) for g in G.elements] == \
        ["x^2 + y^3 + y^4", "x y + y x", "y^3 x", "y^6"]
    assert verify_complete(G)


def test_complete_potential_relations_golden():
    rels = relations_of(P("x^3 + y^3 + cyc(x y x y)", cap=9))
    G = complete(list(rels), XY, 9)
    assert [render(g, XY) for g in G.elements] == \
        ["x^2 + 2 y x y", "y^2 + 2 x y x", "x y x y - y x y x"]
    assert G.complete_through == 5


def test_complete_global_mode_golden():
    glo = MonomialOrder(mode="global")
    G = complete(r1(), glo, 8)
    assert [render(g, glo) for g in G.elements] == \
        ["x^3", "x^2 + y^3", "x y + y x"]
    assert G.leads == ["xxx", "yyy", "xy"]
    assert verify_complete(G)


def test_normal_form_goldens():
    G = complete(r1(), XY, 8)
    assert normal_form(P("x y + y x", cap=8), G).is_zero()
    assert normal_form(P("x^2", cap=8), G) == P("-y^3")
    assert normal_form(P("x^2 y", cap=8), G) == P("-y^4")
    assert normal_form(P("y^2 x", cap=8), G) == P("y^2 x")


def test_lead_finder_matches_a_plain_scan():
    from potalg.rewrite import _lead_finder

    def scan(word, leads):
        for i in range(len(word)):
            for gi, lw in enumerate(leads):
                if word.startswith(lw, i):
                    return i, gi
        return None

    rng = random.Random(5)

    def word(lo, hi):
        return "".join(rng.choice("xy") for _ in range(rng.randint(lo, hi)))

    for _ in range(500):
        leads = [word(0 if rng.random() < 0.05 else 1, 5)
                 for _ in range(rng.randint(0, 8))]
        if leads and rng.random() < 0.2:
            leads.append(rng.choice(leads))
        find = _lead_finder(leads)
        for _ in range(10):
            w = word(0, 12)
            assert find(w) == scan(w, leads)


def test_normal_form_is_linear_and_idempotent():
    G = complete(r1(), XY, 8)
    rng = random.Random(31)
    for _ in range(30):
        f = random_poly(rng, degrees=(1, 2, 3, 4), terms=4, cap=8)
        g = random_poly(rng, degrees=(1, 2, 3, 4), terms=4, cap=8)
        nf, ng = normal_form(f, G), normal_form(g, G)
        assert normal_form(f + g, G) == nf + ng
        assert normal_form(nf, G) == nf


# coefficients with real denominators, so the integer loop over QQ has to
# scale the pending terms; a pool value whose denominator is divisible by
# p is left out over GF(p)
NF_POOL = (Fraction(1, 2), Fraction(-3, 7), Fraction(5, 3), Fraction(-1),
           Fraction(2))


def _assert_field_coefficients(f):
    p = f.field.characteristic
    for c in f.terms.values():
        if p:
            assert type(c) is int and 0 < c < p
        else:
            assert isinstance(c, Fraction) and c != 0


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=str)
def test_normal_form_matches_fraction_reference(field):
    """The integer loop and the plain field loop give the same terms, on
    bases from complete() and on monic systems that are not interreduced,
    under both precedences and modes at caps 6-10."""
    rng = random.Random("normal-form-%s" % field.name)
    p = field.characteristic
    pool = tuple(c for c in NF_POOL if not p or c.denominator % p)
    modes = set()
    for trial in range(48):
        order = MonomialOrder(("xy", "yx")[trial % 2],
                              ("local", "global")[trial // 2 % 2])
        cap = 6 + trial % 5
        rels = [random_poly(rng, field, degrees=(1, 2, 3), terms=3, cap=cap,
                            coeff_pool=pool) for _ in range(rng.randint(1, 3))]
        rels = [r.monic(order) for r in rels if not r.is_zero()]
        if not rels:
            continue
        if trial // 4 % 2:
            system = complete(rels, order, cap)
        else:
            system = RewriteSystem(rels, order, cap)
        elements = list(system.elements)
        modes.add(trial // 4 % 2)
        for _ in range(6):
            f = random_poly(rng, field, degrees=tuple(range(cap + 2)),
                            terms=rng.randint(1, 8), coeff_pool=pool)
            if elements and rng.random() < 0.5:
                # an ideal member plus noise, so that sums cancel
                g = rng.choice(elements)
                u = random_poly(rng, field, degrees=(0, 1, 2), terms=2,
                                coeff_pool=pool)
                f = f + u * g
            got = normal_form(f, system)
            want = reference_normal_form(f, system)
            assert got.terms == want.terms
            assert got.cap == want.cap
            _assert_field_coefficients(got)
    assert modes == {0, 1}


@pytest.mark.parametrize("field", [QQ, GF(5), GF(7)], ids=str)
def test_complete_matches_field_arithmetic_reference(field):
    """complete() on integer rules and reference_complete() on monic
    FreePolys give the same JSON, under both precedences and modes at
    caps 5-8; a few relations carry a constant term."""
    rng = random.Random("complete-%s" % field.name)
    p = field.characteristic
    pool = tuple(c for c in NF_POOL if not p or c.denominator % p)
    for trial in range(40):
        order = MonomialOrder(("xy", "yx")[trial % 2],
                              ("local", "global")[trial // 2 % 2])
        cap = 5 + trial // 4 % 4
        rels = [random_poly(rng, field, terms=rng.randint(2, 4), cap=cap,
                            degrees=(0, 1, 2, 3) if rng.random() < 0.1
                            else (2, 3), coeff_pool=pool)
                for _ in range(rng.randint(1, 3))]
        rels = [r for r in rels if not r.is_zero()]
        if not rels:
            continue
        G = complete(rels, order, cap)
        assert G.to_json() == reference_complete(rels, order, cap).to_json()
        assert verify_complete(G)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_system_rebuilt_from_rendered_elements_has_the_same_rules(field):
    """A system built from the parsed elements of a gb document reads
    off exactly the rules complete() handed over: the round trip the
    benchmark's gb check rests on."""
    rng = random.Random("round-trip-%s" % field.name)
    p = field.characteristic
    pool = tuple(c for c in NF_POOL if not p or c.denominator % p)
    orders, fractions = set(), 0
    for trial in range(24):
        order = MonomialOrder(("xy", "yx")[trial % 2],
                              ("local", "global")[trial // 2 % 2])
        cap = 5 + trial // 4 % 3
        rels = [random_poly(rng, field, terms=rng.randint(2, 4), cap=cap,
                            degrees=(2, 3), coeff_pool=pool)
                for _ in range(rng.randint(1, 3))]
        rels = [r for r in rels if not r.is_zero()]
        if not rels:
            continue
        G = complete(rels, order, cap)
        doc = G.to_json()
        R = RewriteSystem((parse_poly(e, field) for e in doc["elements"]),
                          order, cap)
        assert R.rules == G.rules
        assert R.to_json() == doc
        orders.add((order.precedence, order.mode))
        fractions += not p and any(c.denominator > 1 for g in G.elements
                                   for c in g.terms.values())
    assert len(orders) == 4 and (p or fractions)


def test_ideal_members_reduce_to_zero():
    G = complete(r1(), XY, 8)
    rng = random.Random(41)
    words = ["", "x", "y", "xy", "yx", "xx", "yy"]
    for _ in range(40):
        g = r1()[rng.randrange(2)]
        u = FreePoly.term(rng.choice(words), cap=8)
        v = FreePoly.term(rng.choice(words), cap=8)
        assert normal_form(u * g * v, G).is_zero()


def test_complete_input_validation():
    with pytest.raises(ValueError):
        complete([FreePoly.zero(QQ, 8)], XY, 8)
    with pytest.raises(ValueError):
        complete([P("x^9", cap=12)], XY, 8)
    with pytest.raises(ValueError):
        complete([P("x^3 + y^4", cap=12)], XY, 2)


def test_empty_relations_give_the_free_algebra():
    G = complete([], XY, 6)
    assert G.elements == ()
    assert G.complete_through == 6
    assert oracle_dimension([], 6) == (1, 2, 4, 8, 16, 32, 64)


def test_a_unit_relation_leaves_no_normal_word():
    G = complete([P("1 + x", cap=6)], XY, 6)
    assert G.leads == [""]
    # "1" came back as 1: the lead finder passes over the empty word, and
    # nothing else matched it against a unit lead
    for text in ("x y", "3 x + y^6", "1", "2 - 3 y"):
        assert normal_form(P(text, cap=6), G).is_zero()
    assert normal_words_by_degree(G) == [[]] * 7


def test_a_unit_element_is_kept_once():
    # the empty-word defect above left copies of 1 in the basis, which
    # interreduction could not reduce against each other: this
    # global-mode basis came back as eight elements 1
    F = GF(11)
    rels = [P(t, cap=9, field=F) for t in (
        "4 x + 7 y x + 8 x^2 y + 6 x^2 y^2",
        "4 x + y x + 9 y^2 + 8 x^2 y^2", "9 + 2 y^2 x^2")]
    G = complete(rels, MonomialOrder(mode="global"), 9)
    assert [render(g) for g in G.elements] == ["1"] and G.leads == [""]


def test_normal_words_layers_golden():
    G = complete(r1(), XY, 8)
    layers = normal_words_by_degree(G)
    assert layers[:6] == [[""], ["x", "y"], ["yx", "yy"],
                          ["yyx", "yyy"], ["yyyy"], ["yyyyy"]]
    assert all(layer == [] for layer in layers[6:])


def test_oracle_golden_and_cap_guard():
    assert oracle_dimension(r1(), 8) == (1, 2, 2, 2, 1, 1, 0, 0, 0)
    rels = relations_of(P("x^3 + y^3 + cyc(x y x y)", cap=8))
    assert oracle_dimension(list(rels), 8) == (1, 2, 2, 2, 1, 0, 0, 0, 0)
    with pytest.raises(ResourceCapError):
        oracle_dimension(r1(), 13)


def test_oracle_agrees_with_completion_on_random_potentials():
    from potalg.quotient import hilbert
    rng = random.Random(77)
    for field, order in ((QQ, XY), (QQ, MonomialOrder("yx")), (GF(7), XY)):
        for _ in range(5):
            body = cyclic_symmetrize(random_poly(rng, field, degrees=(3, 4),
                                                 terms=3, cap=6))
            if body.is_zero():
                continue
            rels = [g for g in relations_of(body, order) if not g.is_zero()]
            if not rels:
                continue
            G = complete(rels, order, 6)
            assert verify_complete(G)
            assert hilbert(G).hilbert == oracle_dimension(rels, 6, order)


GOLDENS = [("x^3 + y^3 + cyc(x y x y)", 8), ("cyc(x^2 y) + y^4", 8),
           ("cyc(x^2 y) + y^4 + y^5", 8), ("cyc(x^2 y) + y^12", 28),
           ("x^3 + cyc(x y^3) + y^5", 16)]


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_oracle_matches_field_arithmetic_reference_on_goldens(field):
    # dim --oracle runs the oracle at cap min(cap, 8)
    for text, cap in GOLDENS:
        rels = [g for g in relations_of(P(text, cap, field))
                if not g.is_zero()]
        assert oracle_dimension(rels, min(cap, 8)) == \
            reference_oracle_dimension(rels, min(cap, 8), XY)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=str)
def test_oracle_matches_field_arithmetic_reference_on_random_pairs(field):
    rng = random.Random("oracle:%s" % field)
    pool = (-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-5, 3)) \
        if field is QQ else (1, 2, 3, 4)
    for _ in range(30):
        cap = rng.randint(2, 8)
        order = rng.choice((XY, MonomialOrder("yx")))
        # a linear term fills the closure, and the reference then takes
        # seconds at caps 7 and 8
        degrees = (1, 2, 3, 4) if cap <= 6 else (2, 3, 4)
        rels = [random_poly(rng, field, degrees=degrees, terms=3, cap=cap,
                            coeff_pool=pool) for _ in range(2)]
        assert oracle_dimension(rels, cap, order) == \
            reference_oracle_dimension(rels, cap, order)


def test_hilbert_is_precedence_independent():
    """Within a mode the counts cannot depend on the letter precedence.

    Across modes they genuinely differ: the local mode grades the
    power-series quotient, the global mode the polynomial one.
    """
    from potalg.quotient import hilbert
    for order in (XY, MonomialOrder("yx")):
        G = complete(r1(), order, 8)
        assert hilbert(G).hilbert == (1, 2, 2, 2, 1, 1, 0, 0, 0)
        assert oracle_dimension(r1(), 8, order) == (1, 2, 2, 2, 1, 1, 0, 0, 0)
    for order in (MonomialOrder(mode="global"), MonomialOrder("yx", "global")):
        G = complete(r1(), order, 8)
        assert hilbert(G).hilbert == (1, 2, 3, 2, 1, 0, 0, 0, 0)


def test_the_two_modes_quotient_differently():
    # x = x^2 telescopes to x = 0 in the closure but not in the plain ideal
    from potalg.quotient import hilbert
    rel = [P("x - x^2", cap=6)]
    loc = complete(rel, XY, 6)
    assert hilbert(loc).hilbert == (1, 1, 1, 1, 1, 1, 1)
    assert oracle_dimension(rel, 6) == (1, 1, 1, 1, 1, 1, 1)
    glo = complete(rel, MonomialOrder(mode="global"), 6)
    assert hilbert(glo).hilbert == (1, 2, 3, 5, 8, 13, 21)
    with pytest.raises(ValueError):
        oracle_dimension(rel, 6, MonomialOrder(mode="global"))


def test_completion_is_deterministic():
    a = complete(r1(), XY, 8)
    b = complete(list(reversed(r1())), XY, 8)
    assert [render(g, XY) for g in a.elements] == \
        [render(g, XY) for g in b.elements]


def test_completion_over_prime_field():
    F = GF(7)
    G = complete([parse_poly(t, F, 8) for t in ("x y + y x", "x^2 + y^3")],
                 XY, 8)
    assert G.leads == ["xx", "xy", "yyyx", "yyyyyy"]
    assert verify_complete(G)


# sha256 of the `gb` JSON for the growing support, as computed before the
# completion engine's fast path: any change to the engine must keep them.
# GENERIC is the support with the coefficients the grow benchmark draws
# at seed 1; its two digests were taken before completion kept its basis
# as integer rules.
GROW = "x^3 + cyc(x^2 y^2) + y^5 + cyc(x y x y^2)"
GENERIC = "2 x^3 + 1 cyc(x^2 y^2) + 6 y^5 + 7 cyc(x y x y^2)"


# each flags list starts with the potential
@pytest.mark.parametrize("flags, digest", [
    ([GROW, "--cap", "11"],
     "346a724c45e60cce94aa167e4acd056284907ccc03960c0170c47d5cf88180ae"),
    ([GROW, "--cap", "11", "--order", "yx"],
     "475bce036cba28af0ba3bbfc218f85fc2e26ee6c58877510f47759759bb87950"),
    ([GROW, "--cap", "9", "--mode", "global"],
     "809b12a288ceaf51d811482904342f66f1f14fe27812415dd0289a382705d1c0"),
    ([GENERIC, "--cap", "11", "--order", "xy"],
     "8f359eea66df39a98713d78a1979e5a4425b934958b1d1df97c4d50b7b606c3b"),
    ([GENERIC, "--cap", "11", "--order", "yx"],
     "a59ab26bfdeefcfe49a54310ce5f2d9ee4057869c29195b824810f19c09c4953"),
])
def test_growing_support_basis_is_pinned(flags, digest):
    from potalg.cli import main
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["gb", "--potential"] + flags) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_global_mode_denominators_are_pinned():
    """sha256 of a global-mode `gb` over QQ whose basis carries
    52-bit denominators, pinned before normal_form moved to integer
    numerators over a common denominator."""
    from potalg.cli import main
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert main(["gb", "--potential",
                     "x^3 + 9 cyc(x^2 y^2) + 4 y^5 + 4 cyc(x y x y^2)",
                     "--cap", "9", "--order", "yx", "--mode", "global"]) == 0
    assert "/3249918613389312" in buf.getvalue()
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == \
        "1578f1e1ba3f3e91034791ed7046b38d169fd990e16d7cf355e595e24cec2743"
