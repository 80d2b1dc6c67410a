"""Top-level acceptance gate: one printed pass/fail line per criterion.

Each test prints exactly one line labelling the criterion and then
asserts it, so a verbose run doubles as a checklist. Everything here
goes through public entry points (the CLI handlers, the report module,
and the package API); nothing reaches into internals.
"""

import io
import itertools
import json
import random
import time
from contextlib import redirect_stdout

from potalg import reproduce
from potalg.classify import classify_potential
from potalg.cli import main
from potalg.fields import QQ
from potalg.freepoly import FreePoly, Substitution, poly_mul, substitute
from potalg.isotest import (algebra_profile, distinguish_algebras,
                            from_quotient, is_isomorphism)
from potalg.parsing import parse_poly
from potalg.potential import (cyclic_symmetrize, cyclicize, derive_ginzburg,
                              derive_simple, is_cyclically_invariant,
                              relations_of)
from potalg.quotient import hilbert
from potalg.rewrite import complete, normal_form, oracle_dimension

from helpers import compose_trail

DIM8 = "x^3 + y^3 + cyc(x y x y)"
DIM9A = "cyc(x^2 y) + y^4"
DIM9B = "cyc(x^2 y) + y^4 + y^5"


def note(num, label, ok, detail=""):
    extra = " (%s)" % detail if detail else ""
    print("[%s] criterion %02d: %s%s" % ("PASS" if ok else "FAIL",
                                         num, label, extra))
    assert ok, "criterion %02d: %s%s" % (num, label, extra)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    text = buf.getvalue()
    return code, (json.loads(text) if text.startswith("{") else None), text


def quot(text, cap):
    F = parse_poly(text, QQ, cap)
    return hilbert(complete(list(relations_of(F)), cap=cap))


def test_criterion_01_dim8_golden_count():
    start = time.perf_counter()
    code, doc, _ = run_cli("dim", "--potential", DIM8, "--cap", "8")
    elapsed = time.perf_counter() - start
    ok = (code == 0 and doc["finite"] and doc["total"] == 8
          and doc["hilbert"][:5] == [1, 2, 2, 2, 1] and elapsed < 1.0)
    note(1, "dim on the eight-dimensional potential gives 1+2+2+2+1",
         ok, "%.2fs" % elapsed)


def test_criterion_02_dim9_golden_counts():
    ok, times = True, []
    for text in (DIM9A, DIM9B):
        start = time.perf_counter()
        code, doc, _ = run_cli("dim", "--potential", text, "--cap", "8")
        elapsed = time.perf_counter() - start
        times.append(elapsed)
        ok = ok and (code == 0 and doc["finite"] and doc["total"] == 9
                     and doc["hilbert"][:6] == [1, 2, 2, 2, 1, 1]
                     and elapsed < 1.0)
    note(2, "dim on both nine-dimensional potentials gives 1+2+2+2+1+1",
         ok, "%.2fs + %.2fs" % tuple(times))


def test_criterion_03_even_tail_grid():
    doc = reproduce.cor1_grid()
    grid = doc["checks"][-1]["entries"]
    mismatches = [g for g in grid if not g["matches"]]
    note(3, "even tails hit 3(2n+3); 10-cell valuation grid emitted",
         doc["pass"] and len(grid) == 10,
         "formula discrepancies: %d" % len(mismatches))


def test_criterion_04_cubic_lower_bound():
    doc = reproduce.x3_bound()
    note(4, "20 random x^3-class tails dominate (1,2,3,4), total >= 10",
         doc["pass"] and len(doc["checks"]) == 20)


def test_criterion_05_minimality():
    grid = reproduce.cor1_grid()["checks"][-1]["entries"]
    measured = [g["measured"] for g in grid]
    x2y_ok = min(measured) == 9 and 8 not in measured
    x3y3_dims = []
    for text in (DIM8, "x^3 + y^3 + x y x y + y x y x"):
        rep = classify_potential(parse_poly(text, QQ, 8), 8)
        x3y3_dims.append(rep.dimension if rep.finite else None)
    Q = quot("x^3 + y^3", 8)
    x3y3_dims.append(Q.dimension if Q.finite else None)
    x3y3_ok = 9 not in x3y3_dims and x3y3_dims[:2] == [8, 8]
    note(5, "no grid cell reaches 8; no two-cube case reaches 9",
         x2y_ok and x3y3_ok,
         "grid min %d; two-cube totals %s" % (min(measured), x3y3_dims))


def test_criterion_06_oracle_equivalence():
    goldens = (DIM8, "x^3 + y^3 + x y x y + y x y x", DIM9A, DIM9B,
               DIM9B + " + y^6")
    runs = 0
    ok = True
    for text in goldens:
        degree = parse_poly(text, QQ).max_degree()
        for cap in range(max(3, degree), 9):
            rels = list(relations_of(parse_poly(text, QQ, cap)))
            engine = hilbert(complete(list(rels), cap=cap)).hilbert
            ok = ok and tuple(engine) == tuple(oracle_dimension(rels, cap))
            runs += 1
    note(6, "rewrite-engine counts equal row-reduction oracle on goldens",
         ok and runs >= 20, "%d potential/cap pairs" % runs)


def test_criterion_07_nine_dimensional_pair_split():
    def relation_quotient(texts):
        rels = [parse_poly(t, QQ, 8) for t in texts]
        return hilbert(complete(rels, cap=8))

    QA = relation_quotient(("x y + y x", "x^2 + y^3"))
    QB = relation_quotient(("x y + y x", "x^2 + y^3 + y^4"))
    profiles_differ = (algebra_profile(from_quotient(QA))
                       != algebra_profile(from_quotient(QB)))
    verdict = distinguish_algebras(from_quotient(QA), from_quotient(QB))
    cert = verdict.certificate or {}
    ok = (verdict.status == "not_isomorphic" and profiles_differ
          and cert.get("field") == "QQ")
    note(7, "the two nine-dimensional algebras are not isomorphic",
         ok, "certificate: %s differs over %s, %s against %s"
         % (cert.get("invariant"), cert.get("field"), cert.get("a"),
            cert.get("b")))


def test_criterion_08_isomorphism_control():
    rng = random.Random(20240815)

    def random_sub(cap):
        while True:
            a, b, c, d = (rng.randint(-2, 2) for _ in range(4))
            if a * d - b * c:
                break
        fx = FreePoly.from_terms({"x": a, "y": b}, QQ, cap)
        fy = FreePoly.from_terms({"x": c, "y": d}, QQ, cap)
        if rng.random() < 0.5:
            w = "".join(rng.choice("xy") for _ in range(2))
            fx = fx + FreePoly.term(w, rng.randint(-1, 1), QQ, cap)
        return Substitution(fx, fy, cap)

    def to_vec(f, system, F):
        nf = normal_form(f, system)
        return {F.index[w]: c for w, c in nf.terms.items()}

    witnessed = 0
    for trial in range(10):
        cap = 8 if trial == 0 else 6
        g = substitute(parse_poly(DIM8, QQ, cap), random_sub(cap))
        rep = classify_potential(g, cap)
        if rep.representative != "dim8":
            break
        QA, QB = (hilbert(complete(list(relations_of(f)), cap=cap))
                  for f in (g, rep.canonical))
        if not (QA.finite and QA.dimension == 8):
            break
        A, B = from_quotient(QA), from_quotient(QB)
        t = compose_trail(rep.trail, cap)
        ok, _ = is_isomorphism(A, B,
                               to_vec(t.image_x, QB.system, B),
                               to_vec(t.image_y, QB.system, B))
        if not ok:
            break
        witnessed += 1
    note(8, "10 random coordinate changes classified back and witnessed",
         witnessed == 10, "%d/10 verified isomorphisms" % witnessed)


def test_criterion_09_euler_and_commutator_syzygies():
    rng = random.Random(20240815)
    x = FreePoly.term("x", 1, QQ, None)
    y = FreePoly.term("y", 1, QQ, None)
    euler_ok = commutator_ok = 0
    for trial in range(100):
        f = FreePoly.zero(QQ, None)
        for _ in range(rng.randint(3, 6)):
            w = "".join(rng.choice("xy") for _ in range(rng.randint(1, 6)))
            f = f + FreePoly.term(w, rng.choice((-3, -2, -1, 1, 2, 3)),
                                  QQ, None)
        if trial % 2 == 0:
            f = cyclic_symmetrize(f)
        if f.is_zero():
            continue
        dx, dy = derive_simple(f, "x"), derive_simple(f, "y")
        euler = f - poly_mul(x, dx) - poly_mul(y, dy)
        commutator = (x * dx - dx * x) + (y * dy - dy * y)
        euler_ok += euler.is_zero()
        commutator_ok += commutator.is_zero() == is_cyclically_invariant(f)
    note(9, "Euler recomposition exact; commutator vanishes iff cyclic",
         euler_ok == commutator_ok == 100,
         "%d/%d Euler, %d/%d commutator" % (euler_ok, 100,
                                            commutator_ok, 100))


def test_criterion_10_derivative_consistency():
    checked = 0
    ok = True
    for degree in range(1, 9):
        for letters in itertools.product("xy", repeat=degree):
            f = FreePoly.term("".join(letters), 1, QQ, None)
            rotated = cyclicize(f)
            for v in "xy":
                ok = ok and (derive_ginzburg(f, v)
                             == derive_simple(rotated, v))
                checked += 1
    note(10, "rotation-sum derivative equals first-letter rule on cyclicized"
             " words through degree 8", ok and checked == 1020,
         "%d word/variable pairs" % checked)


def test_criterion_11_left_symmetry_suite():
    doc = reproduce.prelie()
    note(11, "graded left symmetry, exact series, degree bound on all"
             " filtered fixtures", doc["pass"],
         "%d fixtures, %d series triples" % (len(doc["checks"]),
                                             doc["series_triples"]))


def test_criterion_12_byte_identical_output():
    ok = True
    for text in (DIM8, DIM9B):
        outs = [run_cli("dim", "--potential", text, "--cap", "8")[2]
                for _ in range(2)]
        ok = ok and outs[0] == outs[1]
    reruns = [run_cli("canon", "--potential", DIM9B + " + y^6",
                      "--cap", "8")[2] for _ in range(2)]
    ok = ok and reruns[0] == reruns[1]
    reports = [run_cli("reproduce", "--theorem", "cor1-grid")[2]
               for _ in range(2)]
    ok = ok and reports[0] == reports[1]
    note(12, "JSON output byte-identical across reruns", ok)
