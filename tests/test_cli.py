"""Command surface: one JSON document per run, meaningful exit codes."""

import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from potalg import brace as braces
from potalg import classify, cli, isotest, reproduce
from potalg.brace import MAX_LEVELS, MAX_ORDER, MAX_SERIES_TERMS, FiniteBrace
from potalg.cli import main
from potalg.fields import QQ
from potalg.parsing import (MAX_DEGREE, MAX_NESTING, MAX_TERMS, parse_poly,
                             render)

DIM8 = "x^3 + y^3 + cyc(x y x y)"
DIM9A = "cyc(x^2 y) + y^4"
DIM9B = "cyc(x^2 y) + y^4 + y^5"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    text = buf.getvalue()
    doc = json.loads(text) if text.startswith("{") else None
    return code, doc, text


def dim_file(tmp_path, text, name, cap="8"):
    code, _, raw = run_cli("dim", "--potential", text, "--cap", cap)
    assert code == 0
    path = tmp_path / name
    path.write_text(raw)
    return str(path)


def z9_brace_file(tmp_path, with_chain=True):
    add = [[(a + b) % 9 for b in range(9)] for a in range(9)]
    star = [[(3 * a * b) % 9 for b in range(9)] for a in range(9)]
    doc = FiniteBrace(add, star).to_json()
    if with_chain:
        doc["filtration"] = [[0, 3, 6]]
    path = tmp_path / "z9.json"
    path.write_text(json.dumps(doc))
    return str(path)


# -- derive ----------------------------------------------------------------

def test_derive_ginzburg_default():
    code, doc, _ = run_cli("derive", "--potential", DIM8)
    assert code == 0 and doc["mode"] == "ginzburg"
    assert doc["relations"] == {"x": "3 x^2 + 8 y x y",
                                "y": "3 y^2 + 8 x y x"}


def test_derive_simple_mode():
    code, doc, _ = run_cli("derive", "--potential", "x y", "--mode", "simple")
    assert code == 0
    assert doc["relations"] == {"x": "y", "y": "0"}


def test_derive_syntax_error_exits_2():
    code, doc, _ = run_cli("derive", "--potential", "x^^2")
    assert code == 2 and doc["error"] == "parse"


def test_deep_parenthesis_nesting_is_a_parse_error():
    # 400 levels used to exhaust the recursion limit and exit 3
    code, doc, text = run_cli("derive", "--potential",
                              "(" * 400 + "x^3" + ")" * 400)
    assert code == 2 and doc["error"] == "parse"
    assert str(MAX_NESTING) in doc["message"]
    assert text.count("{") == 1 and "Traceback" not in text
    code, doc, _ = run_cli("derive", "--potential",
                           "(" * MAX_NESTING + "x^3" + ")" * MAX_NESTING)
    assert code == 0 and doc["relations"]["x"] == "3 x^2"
    deep = MAX_NESTING + 1
    code, doc, _ = run_cli("derive", "--potential",
                           "cyc(" * deep + "x" + ")" * deep)
    assert code == 2 and str(MAX_NESTING) in doc["message"]


def test_long_words_without_a_cap_are_parse_errors():
    # the cyclic derivative is quadratic in the word length: x^300000
    # took 49 s and x^1000000 over two minutes
    for text in ("x^1000000", "x^9000 x^9000", "x^600 (y^300 + x) y^200",
                 "cyc(x^600 y^401)"):
        start = time.perf_counter()
        code, doc, text_out = run_cli("derive", "--potential", text)
        assert time.perf_counter() - start < 5, text
        assert code == 2 and doc["error"] == "parse", text
        assert str(MAX_DEGREE) in doc["message"]
        assert text_out.count("{") == 1
    code, doc, _ = run_cli("derive", "--potential", "x^%d" % MAX_DEGREE)
    assert code == 0 and doc["relations"]["x"] == \
        "%d x^%d" % (MAX_DEGREE, MAX_DEGREE - 1)
    # a cap cuts long words before they are built
    assert parse_poly("x^3 + y^1000000", QQ, 8) == parse_poly("x^3", QQ, 8)


def test_long_products_are_parse_errors():
    # (x + y) written k times expands to 2^k words: 17 factors took 10.7 s
    # and 66 MB in derive, and about 25 exhausted memory
    for cmd in (["derive"], ["gb", "--cap", "30"]):
        start = time.perf_counter()
        code, doc, text = run_cli(*cmd, "--potential", "(x + y)" * 25)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and doc["error"] == "parse"
        assert str(MAX_TERMS) in doc["message"]
        assert text.count("{") == 1
    # the last product of 13 binomials multiplies out 2^12 * 2 pairs
    assert len(parse_poly("(x + y)" * 13, QQ).terms) == 2 ** 13


# -- gb ----------------------------------------------------------------

def test_gb_from_relations():
    code, doc, _ = run_cli("gb", "--relations", "x y + y x, x^2 + y^3",
                           "--cap", "8")
    assert code == 0 and doc["command"] == "gb"
    assert doc["field"] == "QQ" and doc["cap"] == 8
    assert doc["elements"] and doc["leading_words"]


def test_gb_mode_changes_leading_words():
    local = run_cli("gb", "--relations", "x - x^2, y", "--cap", "6")[1]
    glob = run_cli("gb", "--relations", "x - x^2, y", "--cap", "6",
                   "--mode", "global")[1]
    assert "x" in local["leading_words"]
    assert "x" not in glob["leading_words"]


def test_gb_needs_a_source():
    code, doc, text = run_cli("gb", "--cap", "8")
    assert code == 2 and doc["error"] == "usage"
    assert "--potential --relations is required" in doc["message"]
    assert text.count("{") == 1


@pytest.mark.parametrize("argv, needle", [
    (["dim", "--bogus"], "--potential"),
    (["dim", "--potential", "x", "--bogus"], "unrecognized arguments"),
    (["dim", "--potential", "x", "--cap", "abc"], "invalid int value"),
    (["iso", "--a", "a", "--b", "b", "--strategy", "nope"], "invalid choice"),
    (["frobnicate"], "invalid choice"),
    ([], "required"),
    (["dim", "--potential", "x", "--workers", "2"],
     "unrecognized arguments: --workers"),
])
def test_usage_errors_write_one_document(argv, needle, capsys):
    code, doc, _ = run_cli(*argv)  # json.loads reads the whole stdout
    assert code == 2 and doc["error"] == "usage"
    assert needle in doc["message"]
    assert "usage:" in capsys.readouterr().err


def test_help_is_the_one_invocation_without_json():
    code, doc, text = run_cli("--help")
    assert code == 0 and doc is None and text.startswith("usage: potalg")
    code, doc, text = run_cli("gb", "--help")
    assert code == 0 and doc is None and "--relations" in text


# -- dim ----------------------------------------------------------------

def test_dim_golden_with_oracle():
    code, doc, _ = run_cli("dim", "--potential", DIM8, "--cap", "8",
                           "--oracle")
    assert code == 0 and doc["finite"] and doc["total"] == 8
    assert doc["hilbert"][:5] == [1, 2, 2, 2, 1]
    assert doc["oracle"]["agrees"]
    assert len(doc["algebra"]["basis"]) == 8


@pytest.mark.parametrize("text,cap,digest", [
    (DIM8, "8",
     "f81b6bd34f033d79fd235ed4ad7e1a9b1dd2a6b73b980c3448639ea32197696b"),
    (DIM9A, "8",
     "4d265b80378646ad1fadf3b54ee72c79440defeddbe72e7bc0bd9eba6557dd13"),
    (DIM9B, "8",
     "9f2619444e5dd4af256fba00bab35971e602ff38f19e3d5fdeeafa91ff9aa695"),
    ("cyc(x^2 y) + y^12", "28",
     "ab9c1c66de299f5dadae0a58d45cd49fb2fbe9ed3386321af5af30b8e58305c7"),
    ("x^3 + cyc(x y^3) + y^5", "16",
     "1f8fbb7dc321934a475695a48b43bee2284f6c188834443e2bfb8587f4cefac0"),
], ids=["8", "9A", "9B", "33", "32"])
def test_dim_oracle_bytes_are_pinned(text, cap, digest):
    # the table, the Hilbert data and the oracle counts are in these bytes
    code, _, raw = run_cli("dim", "--potential", text, "--cap", cap,
                           "--oracle")
    assert code == 0
    assert hashlib.sha256(raw.encode()).hexdigest() == digest


def test_dim_order_flag_round_trips():
    code, doc, _ = run_cli("dim", "--potential", DIM8, "--cap", "8",
                           "--order", "yx")
    assert code == 0 and doc["total"] == 8
    assert doc["order"]["precedence"] == "yx"


def test_dim_auto_extends_once():
    code, doc, _ = run_cli("dim", "--potential", "cyc(x^2 y) + y^6")
    assert code == 0 and doc["extended"] and doc["cap"] == 16
    assert doc["total"] == 15


def test_dim_infinite_case_has_no_algebra():
    code, doc, _ = run_cli("dim", "--potential", "cyc(x^2 y) + y^5",
                           "--cap", "10")
    assert code == 0 and not doc["finite"] and doc["total"] is None
    assert doc["growth"] == "bounded-constant" and "algebra" not in doc


@pytest.mark.parametrize("command", ["dim", "canon"])
def test_a_truncation_never_reads_finite_false(command):
    # cyc(x^2 y) + y^10 is 27-dimensional, but no degree through cap 12
    # is empty yet; a truncation cannot prove infinity, so finite is null
    code, doc, _ = run_cli(command, "--potential", "cyc(x^2 y) + y^10",
                           "--cap", "12")
    assert code == 0 and doc["finite"] is None
    assert doc["hilbert"] == [1] + [2] * 9 + [1] * 3
    assert doc["growth"] == "bounded-constant"


def test_dim_cap_below_degree_exits_2():
    code, doc, _ = run_cli("dim", "--potential", "y^8", "--cap", "4")
    assert code == 2 and doc["error"] == "config"


def test_dim_normal_words_over_the_letter_limit_exit_3():
    # the normal words of x^3 grow as the Fibonacci numbers: at cap 30
    # the enumeration held 498 MB, and higher caps exhausted memory
    start = time.perf_counter()
    code, doc, text = run_cli("dim", "--potential", "x^3", "--cap", "60")
    assert time.perf_counter() - start < 1
    assert code == 3 and doc["error"] == "resource"
    assert "through degree 23" in doc["message"]
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [
    ("dim", "--potential", "0"),
    ("dim", "--potential", "x - x"),
    ("gb", "--relations", "0, x", "--cap", "6"),
])
def test_zero_input_exits_2_with_one_document(argv):
    code, doc, text = run_cli(*argv)
    assert code == 2 and doc["error"] == "config"
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("command", ["dim", "gb"])
def test_a_zero_derivative_is_dropped_as_canon_drops_it(command):
    # d(x^3)/dy = 0: both used to exit 2 with "zero relation given to
    # complete()", while canon answered from the one relation 3 x^2
    code, doc, _ = run_cli(command, "--potential", "x^3", "--cap", "6")
    assert code == 0
    code, canon, _ = run_cli("canon", "--potential", "x^3", "--cap", "6")
    assert code == 0 and not canon["finite"]
    if command == "dim":
        assert not doc["finite"] and doc["hilbert"] == canon["hilbert"]
    else:
        assert doc["elements"] == ["x^2"]


@pytest.mark.parametrize("text", ["x", "x + y^3"])
def test_a_unit_relation_gives_the_zero_algebra(text):
    # dF/dx = 1 generates everything; the free algebra's counts were
    # reported, against the oracle, and "x" exited 2 on its zero dF/dy
    code, doc, _ = run_cli("dim", "--potential", text, "--cap", "6",
                           "--oracle")
    assert code == 0 and doc["finite"] and doc["total"] == 0
    assert doc["hilbert"] == [0] * 7 and doc["oracle"]["agrees"]
    assert doc["algebra"]["basis"] == []


@pytest.mark.parametrize("strategy", ["auto", "invariants", "lift"])
def test_iso_answers_the_zero_algebra_by_dimension(tmp_path, strategy):
    # the document that dim writes for a unit relation used to exit 2
    # ("basis must be a nonempty list"); it is answered by total dimension
    zero = dim_file(tmp_path, "x", "zero.json", cap="6")
    d8 = dim_file(tmp_path, DIM8, "d8.json", cap="9")
    flags = ["--strategy", strategy] + (["--field", "7"]
                                        if strategy == "lift" else [])
    code, doc, _ = run_cli("iso", "--a", zero, "--b", zero, *flags)
    assert code == 0 and doc["status"] == "isomorphic"
    assert doc["witness"] == {"x": {}, "y": {}}
    field = "GF(7)" if strategy == "lift" else "QQ"
    for a, b, dims in ((zero, d8, [0, 8]), (d8, zero, [8, 0])):
        code, doc, _ = run_cli("iso", "--a", a, "--b", b, *flags)
        assert code == 0 and doc["status"] == "not_isomorphic"
        cert = doc["certificate"]
        assert cert["invariant"] == "dimension" and cert["field"] == field
        assert [cert["a"], cert["b"]] == dims
    # it meets --field and the different-fields refusal as every other
    # algebra does, before it is answered by dimension
    doc = json.loads(Path(zero).read_text())
    doc["algebra"]["field"] = "GF(5)"
    zero5 = tmp_path / "zero5.json"
    zero5.write_text(json.dumps(doc))
    code, _, _ = run_cli("iso", "--a", zero, "--b", str(zero5),
                         "--strategy", strategy)
    assert code == 2
    code, doc, _ = run_cli("iso", "--a", zero, "--b", str(zero5),
                           "--strategy", strategy, "--field", "5")
    assert code == 0 and doc["status"] == "isomorphic"


def test_iso_lift_answers_rational_zero_algebras_without_a_field(tmp_path):
    # a zero algebra is answered from its basis before lift asks for a
    # finite field, and the answer names the algebras' own field
    zero = dim_file(tmp_path, "x", "zero.json", cap="6")
    d8 = dim_file(tmp_path, DIM8, "d8.json", cap="9")
    code, doc, _ = run_cli("iso", "--a", zero, "--b", zero,
                           "--strategy", "lift")
    assert code == 0 and doc["status"] == "isomorphic"
    assert doc["witness"] == {"x": {}, "y": {}}
    code, doc, _ = run_cli("iso", "--a", zero, "--b", d8,
                           "--strategy", "lift")
    assert code == 0 and doc["status"] == "not_isomorphic"
    assert doc["certificate"] == {"invariant": "dimension", "field": "QQ",
                                  "a": 0, "b": 8}


# -- canon ----------------------------------------------------------------

def test_canon_lands_on_9b():
    code, doc, _ = run_cli("canon", "--potential", DIM9B + " + y^6",
                           "--cap", "8")
    assert code == 0 and doc["command"] == "canon"
    assert doc["dimension"] == 9 and doc["representative"] == "9B"


DIRTY_TAIL = " + ".join("%d %s" % (i + 1, t) for i, t in enumerate(
    ("cyc(x^2 y^2)", "cyc(x y^4)", "cyc(x y x y^3)", "cyc(x^2 y x y)")))


@pytest.mark.parametrize("text,cap,digest", [
    # the two cliff potentials of the benchmark's canon workload
    ("x^3 + y^3 + 2 cyc(x y x y) + cyc(x^2 y^3)", "9",
     "45a35a10886709c85cd91784e8f40b75a2331bc5993efb0f8509468c1bb937d6"),
    ("cyc(x^2 y) + y^4 + y^5 + y^6 + cyc(x y^2 x y)", "9",
     "9503ea6d04db63dab5a5504658d8b5a9f491c7987a07c6a3ea67eba3bd3d6463"),
    # the same two at cap 12, where the cleanup stages dominate
    ("x^3 + y^3 + 2 cyc(x y x y) + cyc(x^2 y^3)", "12",
     "370244b860942a55cb7dc1ebf20513c66c5795932298e75c2e80be8d82831ce0"),
    ("cyc(x^2 y) + y^4 + y^5 + y^6 + cyc(x y^2 x y)", "12",
     "0c36ff352a1a0ee6a2f9b8cdd7b0a9136138c4a76faf26ca6c56db69414f839b"),
    # its dirty-tail support with coefficients 1..4
    ("cyc(x^2 y) + " + DIRTY_TAIL, "8",
     "69f21743438760a2fb4bf8a38bfbf67dec5416176e80637a7d4ed5850a184fe9"),
    ("x^3 + y^3 + " + DIRTY_TAIL, "8",
     "e74acbfb08e896f6b7ef039a792bfc252b3dcd063285365a2a362efe958aa9cf"),
])
def test_canon_bytes_are_pinned(text, cap, digest):
    # the trail, the moves and projected_stages are all in these bytes
    code, _, raw = run_cli("canon", "--potential", text, "--cap", cap)
    assert code == 0
    assert hashlib.sha256(raw.encode()).hexdigest() == digest


def test_canon_on_a_body_that_symmetrizes_away_is_inconclusive():
    # x y y and y x y are rotations of one word, so the symmetrized
    # potential is zero and has no relations to count
    code, doc, _ = run_cli("canon", "--potential", "x y y - y x y",
                           "--cap", "6")
    assert code == 0 and doc["inconclusive"] == "zero relations"
    assert doc["canonical"] == "0" and doc["finite"] is None
    assert doc["cubic"] == {"label": "Zero"}


def test_canon_on_the_dim8_potential_written_literally():
    # x y x y alone is not cyclically symmetric, and the degree-2 moves
    # keep c(xyxy) - c(yxyx); cleanup used to assert the two were equal
    code, doc, _ = run_cli("canon", "--potential", "x^3 + y^3 + x y x y",
                           "--cap", "6")
    assert code == 0 and doc["representative"] == "dim8"
    assert doc["canonical"] == "x^3 + y^3 + x y x y + y x y x"
    assert doc["projected_stages"] == 1


def test_canon_on_unequal_xyxy_and_yxyx_writes_one_document(capsys):
    rng = random.Random(20261020)
    pool = ("1", "2", "-1", "3", "1/2", "-5/3")
    codes = set()
    for _ in range(150):
        a, b = rng.sample(pool, 2)
        terms = [(a, "x y x y"), (b, "y x y x")] + [
            (rng.choice(pool), " ".join(rng.choice("xy") for _ in
                                        range(rng.randint(4, 6))))
            for _ in range(rng.randint(0, 3))]
        text = "x^3 + y^3" + "".join(
            (" - %s %s" % (c[1:], w)) if c[0] == "-" else " + %s %s" % (c, w)
            for c, w in terms)
        argv = ["canon", "--potential", text,
                "--cap", str(rng.randint(6, 10))]
        code, _, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, out, err)
        assert isinstance(json.loads(out), dict), (argv, out)
        codes.add(code)
    assert 0 in codes


CUBIC_HEADS = ("cyc(x^2 y)", "x^3", "x^3 + 2 y^3", "x^3 + x y^2",
               "x^2 y + y x^2 + x y x + y^3", "2 x^3 + 3 cyc(x^2 y)",
               "x^3 + 3 cyc(x y^2)", "")


def test_canon_is_total_on_every_cubic_class(capsys):
    # heads over the cubic classes, among them one that needs a cubic
    # and one that needs a quadratic extension, and no cubic at all,
    # with random tails of degree 4-6
    rng = random.Random(20261021)
    pool = ("1", "2", "-1", "3", "1/2", "-5/3")
    heads = set()
    for _ in range(150):
        head = rng.choice(CUBIC_HEADS)
        text = head
        for _ in range(rng.randint(1, 4)):
            c = rng.choice(pool)
            w = " ".join(rng.choice("xy") for _ in range(rng.randint(4, 6)))
            if rng.random() < 0.4:
                w = "cyc(%s)" % w
            text += (" - %s %s" % (c[1:], w)) if c[0] == "-" else \
                " + %s %s" % (c, w)
        text = text.lstrip(" +")
        argv = ["canon", "--potential", text,
                "--cap", str(rng.randint(6, 10))]
        code, _, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, out, err)
        assert isinstance(json.loads(out), dict), (argv, out)
        assert "Traceback" not in out + err, (argv, err)
        heads.add(head)
    assert heads == set(CUBIC_HEADS)


def test_canon_rejects_quadratic_input():
    code, doc, _ = run_cli("canon", "--potential", "x^2 + y^4")
    assert code == 2 and doc["error"] == "config"


def test_canon_over_the_cap_limit_exits_3():
    # every cleanup stage lists all words and moves of its window: at
    # cap 100 those lists grew for over a minute
    start = time.perf_counter()
    code, doc, text = run_cli("canon", "--potential", "x^3 + y^3",
                              "--cap", "100")
    assert time.perf_counter() - start < 1
    assert code == 3 and doc["error"] == "resource"
    assert doc["message"] == "classification cap 100 exceeds 20"
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- iso ----------------------------------------------------------------

def test_iso_auto_separates_the_nine_dimensional_pair(tmp_path):
    a = dim_file(tmp_path, DIM9A, "a.json")
    b = dim_file(tmp_path, DIM9B, "b.json")
    code, doc, _ = run_cli("iso", "--a", a, "--b", b)
    assert code == 0 and doc["status"] == "not_isomorphic"
    assert doc["certificate"] == {"invariant": "derivation_dim",
                                  "field": "QQ", "a": 8, "b": 7}


def test_iso_self_is_identity(tmp_path):
    a = dim_file(tmp_path, DIM9A, "a.json")
    code, doc, _ = run_cli("iso", "--a", a, "--b", a)
    assert code == 0 and doc["status"] == "isomorphic"


@pytest.mark.parametrize("a,b,flags,digest", [
    (DIM9A, DIM9B, [],
     "8e851694a30d0121f5654d4a925358e59096dc32f12273c6f6ddcf5496bfb4d7"),
    (DIM9A, DIM9B, ["--field", "7", "--strategy", "lift"],
     "9808ca3abd9039261ffa860cfc4b73a7219f3966e61c2ac6ef8f50b2079be975"),
    (DIM9A, DIM9B, ["--field", "13", "--strategy", "lift"],
     "319d090b011a801b4d2e5df6637017852e8ec403fb5d8146735f586cf259f328"),
    (DIM9A, DIM9B, ["--field", "19", "--strategy", "lift"],
     "a1868e4fc8f89fd649edc3244d30fc23402be8b8edfa80e29272c99d4ddf4b97"),
    (DIM8, DIM9A, ["--strategy", "invariants"],
     "796d5e1dc0a32526322a003593db615d8fdb97c1aaa99b91c8ed0be9850e8d6e"),
    (DIM9A, DIM9A, [],
     "1b8d9956455a0e3f0720b1b901ce975cea1c7100ea72da35011d7be877decb78"),
    (DIM8, DIM8, ["--field", "2", "--strategy", "lift"],
     "a0f5793d488aed899a83b10ab77ac2045e3b2d4d10c9ae81daf850409dce481d"),
], ids=["9A-9B-auto", "9A-9B-lift-gf7", "9A-9B-lift-gf13",
        "9A-9B-lift-gf19", "8-9A-invariants", "9A-self-auto",
        "8-self-lift-gf2"])
def test_iso_bytes_are_pinned(tmp_path, a, b, flags, digest):
    # the verdict, the witness and the certificate are all in these bytes
    fa = dim_file(tmp_path, a, "a.json")
    fb = dim_file(tmp_path, b, "b.json")
    code, _, raw = run_cli("iso", "--a", fa, "--b", fb, *flags)
    assert code == 0
    assert hashlib.sha256(raw.encode()).hexdigest() == digest


def test_iso_lift_names_dimension_with_the_field(tmp_path):
    # the lift search compares the basis entries of the profile, so it
    # names the invariant and the field as the other strategies do
    a = dim_file(tmp_path, DIM8, "a.json")
    b = dim_file(tmp_path, DIM9A, "b.json")
    code, doc, _ = run_cli("iso", "--a", a, "--b", b, "--field", "7",
                           "--strategy", "lift")
    assert code == 0 and doc["status"] == "not_isomorphic"
    assert doc["certificate"] == {"invariant": "dimension",
                                  "field": "GF(7)", "a": 8, "b": 9}


def test_iso_auto_leaves_agreeing_rational_profiles_open(tmp_path):
    # x -> 3x carries dim 8 to this image, whose tables have a
    # denominator 3; over QQ auto runs no finite-field search, and its
    # answer is the one invariants gives
    a = dim_file(tmp_path, DIM8, "a.json")
    b = dim_file(tmp_path, "27 x^3 + y^3 + 9 cyc(x y x y)", "b.json")
    for strategy in ("auto", "invariants"):
        code, doc, _ = run_cli("iso", "--a", a, "--b", b,
                               "--strategy", strategy)
        assert code == 0 and doc["status"] == "inconclusive"
        assert doc["certificate"] == {"profiles": "agree", "field": "QQ"}


def test_iso_auto_does_not_separate_9a_from_its_rescaled_image(tmp_path):
    # y -> 3y carries cyc(x^2 y) + y^4 to this image, so the two algebras
    # are isomorphic over QQ; over GF(3) the image degenerates
    a = dim_file(tmp_path, DIM9A, "a.json")
    b = dim_file(tmp_path, "3 cyc(x^2 y) + 81 y^4", "b.json")
    code, doc, _ = run_cli("iso", "--a", a, "--b", b)
    assert code == 0
    assert doc["status"] != "not_isomorphic"


def test_iso_lift_mod_2_self(tmp_path):
    a = dim_file(tmp_path, DIM8, "a.json")
    code, doc, _ = run_cli("iso", "--a", a, "--b", a, "--field", "2",
                           "--strategy", "lift")
    assert code == 0 and doc["status"] == "isomorphic"
    assert doc["witness"] is not None


def test_iso_lift_over_budget_exits_3(tmp_path):
    # GF(101) has 103020000 invertible linear parts; the search used to
    # try them all, for hours, under a budget that counted only nodes.
    # auto reaches the search only where the profiles agree, as for 9B
    # and its image under x -> x + y; derivation_dim separates 9A and 9B
    a = dim_file(tmp_path, DIM9A, "a.json")
    b = dim_file(tmp_path, DIM9B, "b.json")
    sheared = dim_file(tmp_path, "x x y + x y x + 2 x y y + y x x + "
                       "2 y x y + 2 y y x + 3 y^3 + y^4 + y^5", "c.json")
    for strategy, first, second in (("lift", a, b), ("auto", b, sheared)):
        start = time.perf_counter()
        code, doc, _ = run_cli("iso", "--a", first, "--b", second,
                               "--field", "101", "--strategy", strategy)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and doc["error"] == "resource"
        assert "103020000" in doc["message"] and "262144" in doc["message"]


def test_iso_brute_strategy_is_gone(tmp_path):
    a = dim_file(tmp_path, DIM8, "a.json")
    code, doc, text = run_cli("iso", "--a", a, "--b", a, "--field", "2",
                              "--strategy", "brute")
    assert code == 2 and doc["error"] == "usage"
    assert "invalid choice: 'brute'" in doc["message"]


def test_iso_invariants_strategy(tmp_path):
    a = dim_file(tmp_path, DIM8, "a.json")
    b = dim_file(tmp_path, DIM9A, "b.json")
    code, doc, _ = run_cli("iso", "--a", a, "--b", b,
                           "--strategy", "invariants")
    assert code == 0 and doc["status"] == "not_isomorphic"
    assert doc["certificate"]["invariant"] == "dimension"
    code, doc, _ = run_cli("iso", "--a", a, "--b", a,
                           "--strategy", "invariants")
    assert code == 0 and doc["status"] == "inconclusive"


def test_iso_auto_names_dimension_before_hilbert(tmp_path):
    # auto and invariants compare the profiles in one order: dimension,
    # hilbert, then the rest by name; auto used to name hilbert here
    a = dim_file(tmp_path, DIM8, "a.json")
    b = dim_file(tmp_path, DIM9A, "b.json")
    code, doc, _ = run_cli("iso", "--a", a, "--b", b)
    assert code == 0 and doc["status"] == "not_isomorphic"
    cert = doc["certificate"]
    assert cert["invariant"] == "dimension" and cert["field"] == "QQ"
    assert [cert["a"], cert["b"]] == [8, 9]


@pytest.mark.parametrize("strategy", ["auto", "lift", "invariants"])
def test_iso_on_two_fields_is_refused_alike(tmp_path, strategy):
    # auto and lift used to refuse in their own words, and lift on a
    # rational first algebra asked for a finite field
    a = dim_file(tmp_path, DIM8, "a.json")
    doc = json.loads(Path(a).read_text())
    doc["algebra"]["field"] = "GF(7)"
    b = tmp_path / "b.json"
    b.write_text(json.dumps(doc))
    for first, second in ((a, str(b)), (str(b), a)):
        code, doc, _ = run_cli("iso", "--a", first, "--b", second,
                               "--strategy", strategy)
        assert code == 2 and doc["error"] == "config"
        assert doc["message"] == ("the algebras live over different "
                                  "fields; pass --field to align them")


def test_iso_field_must_be_a_prime(tmp_path):
    # --field 0 is the characteristic of QQ, yet no prime field: it used
    # to leave rational algebras as they were and answer over QQ
    a = dim_file(tmp_path, DIM9A, "a.json")
    b = dim_file(tmp_path, DIM9B, "b.json")
    for field in ("0", "1", "9"):
        code, doc, _ = run_cli("iso", "--a", a, "--b", b, "--field", field)
        assert code == 2 and doc["error"] == "config"
        assert doc["message"] == "modulus %s is not prime" % field


def test_iso_lift_needs_a_finite_field(tmp_path):
    a = dim_file(tmp_path, DIM9A, "a.json")
    code, doc, _ = run_cli("iso", "--a", a, "--b", a, "--strategy", "lift")
    assert code == 2 and doc["error"] == "config"


def test_iso_missing_file_exits_2(tmp_path):
    a = dim_file(tmp_path, DIM9A, "a.json")
    code, doc, _ = run_cli("iso", "--a", a, "--b", str(tmp_path / "no.json"))
    assert code == 2 and doc["error"] == "config"


SUFFIX_CLOSED_ONLY = {
    "field": "QQ", "basis": ["1", "y", "xy"], "degrees": [0, 1, 2],
    "table": {"1,1": ["1", "0", "0"], "1,y": ["0", "1", "0"],
              "y,1": ["0", "1", "0"], "1,xy": ["0", "0", "1"],
              "xy,1": ["0", "0", "1"]}}


def swap_labels(alg, u, v):
    """Exchange the basis labels u and v in the table keys and the row
    positions of an algebra document: the same algebra under other
    names, whose labels are no longer the products of their letters."""
    i, j = alg["basis"].index(u), alg["basis"].index(v)
    rename = {u: v, v: u}
    table = {}
    for key, row in alg["table"].items():
        row = list(row)
        row[i], row[j] = row[j], row[i]
        table[",".join(rename.get(w, w) for w in key.split(","))] = row
    alg["table"] = table


@pytest.mark.parametrize("damage", [
    lambda alg: alg["table"]["x,x"].append("0"),      # row too long
    lambda alg: alg.update(table=[]),                 # table not an object
    lambda alg: alg["table"]["x,x"].pop(),            # row too short
    lambda alg: alg["degrees"].pop(),                 # degrees too short
    lambda alg: alg["table"].update({"x,q": alg["table"]["x,x"]}),
    lambda alg: alg["table"]["1,x"].reverse(),        # unit row broken
    lambda alg: alg["table"]["x,y"].__setitem__(1, "1"),  # filtration
    lambda alg: alg.update(field=7),                  # field not a name
    lambda alg: alg.update(field="GF(0_7)"),          # int() reads 7
    # table entries outside the grammar that to_str writes, each placed
    # at the top-degree coordinate of x x, which the filtration allows
    lambda alg: alg["table"]["x,x"].__setitem__(-1, None),
    lambda alg: alg["table"]["x,x"].__setitem__(-1, [1]),
    lambda alg: alg["table"]["x,x"].__setitem__(-1, "1/0"),
    lambda alg: alg["table"]["x,x"].__setitem__(-1, "1e999999999"),
    lambda alg: alg["table"]["x,x"].__setitem__(-1, 0.1),
    lambda alg: alg["table"]["x,x"].__setitem__(-1, True),
    lambda alg: (alg.update(field="GF(7)"),
                 alg["table"]["x,x"].__setitem__(-1, 2.7)),
    lambda alg: alg.update(basis=5),                  # basis not a list
    # a consistent basis and table over x and z: used to exit 4 from a
    # KeyError in the lift search
    lambda alg: alg.update(json.loads(json.dumps(
        {"basis": alg["basis"], "table": alg["table"]}).replace("y", "z"))),
    # closed under suffixes but not under prefixes: x is missing
    lambda alg: alg.clear() or alg.update(SUFFIX_CLOSED_ONLY),
    lambda alg: alg["degrees"].__setitem__(0, -1),    # not the word length
    # an empty basis is the zero algebra only with an empty table
    lambda alg: alg.update(basis=[], degrees=[]),
    lambda alg: alg.update(basis=[], degrees=[0], table={}),
], ids=["long-row", "table-list", "short-row", "short-degrees",
        "unknown-word", "unit-row", "filtration", "field-number",
        "field-underscore",
        "entry-null", "entry-list", "entry-zero-denominator",
        "entry-exponent", "entry-float", "entry-bool", "entry-float-gf7",
        "basis-number", "basis-letter", "basis-not-prefix-closed",
        "degree-negative", "basis-empty-table-full",
        "basis-empty-degrees-full"])
def test_iso_rejects_malformed_algebra_tables(tmp_path, damage):
    a = dim_file(tmp_path, DIM8, "a.json")
    doc = json.loads(Path(a).read_text())
    damage(doc["algebra"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    # --field 7 puts both sides over one field, so only reading bad.json
    # can refuse the run
    start = time.perf_counter()
    code, out, _ = run_cli("iso", "--a", a, "--b", str(bad), "--field", "7")
    assert time.perf_counter() - start < 1
    # run_cli parses the whole of stdout, so out is its one JSON document
    assert code == 2 and out["error"] == "config"


@pytest.mark.parametrize("flags", [[], ["--field", "7"]],
                         ids=["auto", "gf7"])
def test_iso_refuses_a_relabelled_basis(tmp_path, flags):
    # 9A with yx and yy relabelled is 9A again, but its labels no longer
    # say which word each basis vector is. As the first algebra it used
    # to be not_isomorphic to 9A from GF(3) under auto, and to exit 3
    # after 262,144 search nodes under --field 7
    a = dim_file(tmp_path, DIM9A, "a.json")
    doc = json.loads(Path(a).read_text())
    swap_labels(doc["algebra"], "yx", "yy")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli("iso", "--a", str(bad), "--b", a, *flags)
    assert code == 2 and out["error"] == "config"
    assert "'yx'" in out["message"]


def test_iso_reads_the_relations_off_the_table(tmp_path):
    # 9A's table carrying 9B's relations is still 9A: iso ignores the
    # relations that dim writes. Searching against the carried relations,
    # lift used to answer not_isomorphic by exhausting 2,016 linear parts
    a = dim_file(tmp_path, DIM9A, "a.json")
    b = dim_file(tmp_path, DIM9B, "b.json")
    doc = json.loads(Path(a).read_text())
    doc["algebra"]["relations"] = json.loads(
        Path(b).read_text())["algebra"]["relations"]
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(doc))
    code, out, _ = run_cli("iso", "--a", str(mixed), "--b", a,
                           "--field", "7", "--strategy", "lift")
    assert code == 0 and out["status"] == "isomorphic"


def test_iso_needs_no_relations(tmp_path):
    # the 9A-9B-lift-gf7 pin of test_iso_bytes_are_pinned, on documents
    # without the relations and name that dim adds; the lift search used
    # to refuse them for want of the defining relations
    paths = []
    for text, name in ((DIM9A, "a.json"), (DIM9B, "b.json")):
        doc = json.loads(Path(dim_file(tmp_path, text, name)).read_text())
        del doc["algebra"]["relations"], doc["algebra"]["name"]
        (tmp_path / name).write_text(json.dumps(doc))
        paths.append(str(tmp_path / name))
    code, _, raw = run_cli("iso", "--a", paths[0], "--b", paths[1],
                           "--field", "7", "--strategy", "lift")
    assert code == 0
    assert hashlib.sha256(raw.encode()).hexdigest() == \
        "9808ca3abd9039261ffa860cfc4b73a7219f3966e61c2ac6ef8f50b2079be975"


@pytest.mark.parametrize("content", [[1, 2], "str"])
def test_iso_file_that_is_not_an_object_exits_2(tmp_path, content):
    # used to exit 4 with "AttributeError: 'list' object has no attribute
    # 'get'"
    a = dim_file(tmp_path, DIM8, "a.json")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(content))
    code, out, text = run_cli("iso", "--a", str(bad), "--b", a)
    assert code == 2 and out["error"] == "config"
    assert "does not contain an algebra document" in out["message"]
    assert text.count("{") == 1


@pytest.mark.parametrize("key", ["basis", "degrees"])
def test_iso_missing_algebra_key_is_named(tmp_path, key):
    a = dim_file(tmp_path, DIM8, "a.json")
    doc = json.loads(Path(a).read_text())
    del doc["algebra"][key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run_cli("iso", "--a", a, "--b", str(bad))
    assert code == 2 and out["error"] == "config"
    assert repr(key) in out["message"]


def test_iso_one_generator_algebra_exits_2(tmp_path):
    # the identity shortcut looked up "y" and reached the user as
    # {"error": "config", "message": "'y'"} only because every KeyError
    # was caught
    doc = {"field": "QQ", "basis": ["1", "x"], "degrees": [0, 1],
           "relations": ["x^2", "y"],
           "table": {"1,1": ["1", "0"], "1,x": ["0", "1"],
                     "x,1": ["0", "1"], "x,x": ["0", "0"]}}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli("iso", "--a", str(path), "--b", str(path))
    assert code == 2 and out["error"] == "config"
    assert "two degree-one generators" in out["message"]


@pytest.mark.parametrize("command", ["iso", "brace"])
def test_deeply_nested_json_is_a_config_error(tmp_path, command):
    # the decoder's RecursionError used to be reported as a resource cap
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    if command == "iso":
        argv = ("iso", "--a", str(path), "--b", str(path))
    else:
        argv = ("brace", "check", "--input", str(path))
    code, out, text = run_cli(*argv)
    assert code == 2 and out["error"] == "config"
    assert "nests too deeply" in out["message"]
    assert text.count("{") == 1


@pytest.mark.parametrize("error", [RuntimeError("lost invariant"),
                                   KeyError("y")])
def test_runtime_and_key_errors_are_internal(monkeypatch, capsys, error):
    # main used to report any RuntimeError as a resource cap (exit 3) and
    # any KeyError as a configuration error (exit 2)
    def broken(args):
        raise error

    monkeypatch.setitem(cli.HANDLERS, "derive", broken)
    code, doc, text = run_cli("derive", "--potential", "x^3")
    assert code == 4 and doc["error"] == "internal"
    assert doc["message"].startswith(type(error).__name__ + ": ")
    assert text.count("{") == 1
    assert type(error).__name__ in capsys.readouterr().err


def test_one_parser_serves_a_process(tmp_path, monkeypatch, capsys):
    # errors and help mixed with valid runs print what a parser built
    # for each call prints, and main builds its parser once
    brace = z9_brace_file(tmp_path)
    gb = ["gb", "--potential", DIM8, "--cap", "8"]
    argvs = [["dim", "--cap", "x"], ["brace", "series", "--input", brace],
             gb, ["dim", "--potential", DIM8, "--cap", "8"],
             ["brace", "check", "--input", brace], ["gb", "--help"], gb]

    def outcomes():
        runs = [run_cli(*argv) for argv in argvs]
        return [(code, text) for code, _, text in runs], \
            capsys.readouterr().err

    with monkeypatch.context() as fresh:
        fresh.setattr(cli, "_parser", cli.build_parser)
        expected = outcomes()
    build, built = cli.build_parser, []

    def counted():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    monkeypatch.setattr(cli, "_parser",
                        functools.cache(cli._parser.__wrapped__))
    assert outcomes() == expected and len(built) == 1
    runs, err = expected
    assert [code for code, _ in runs] == [2, 2, 0, 0, 0, 0, 0]
    assert runs[-1] == runs[2] and err.startswith("usage: potalg dim")


LOADED = """
import contextlib, io, json, sys
from potalg.cli import build_parser, main
with contextlib.redirect_stdout(io.StringIO()):
    {run}
print(json.dumps(sorted(m for m in sys.modules if m.startswith("potalg"))))
"""


def modules_after(run):
    """The potalg modules loaded in a fresh interpreter after run."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", LOADED.format(run=run)],
                          capture_output=True, text=True, env=env, check=True)
    return set(json.loads(proc.stdout))


def test_building_the_parser_loads_only_fields():
    assert modules_after("build_parser()") == {
        "potalg", "potalg.cli", "potalg.fields"}


@pytest.mark.parametrize("argv, engine, absent", [
    (["gb", "--potential", DIM8, "--cap", "8"], "rewrite",
     {"brace", "isotest", "classify", "reproduce"}),
    (["brace", "check", "--input", "Z9"], "brace",
     {"rewrite", "freepoly", "isotest", "classify"}),
    (["iso", "--a", "9A", "--b", "9B"], "isotest",
     {"rewrite", "freepoly", "quotient", "brace", "classify"})],
    ids=["gb", "brace", "iso"])
def test_each_command_imports_only_what_it_runs(tmp_path, argv, engine,
                                                absent):
    files = {"Z9": lambda: z9_brace_file(tmp_path),
             "9A": lambda: dim_file(tmp_path, DIM9A, "9A.json"),
             "9B": lambda: dim_file(tmp_path, DIM9B, "9B.json")}
    argv = [files[a]() if a in files else a for a in argv]
    loaded = modules_after("assert main(%r) == 0" % argv)
    assert "potalg." + engine in loaded
    assert not loaded & {"potalg." + m for m in absent}


def test_parser_choices_are_the_library_lists():
    # cli writes them out so that building the parser loads neither module
    assert cli.STRATEGIES == isotest.STRATEGIES
    assert cli.THEOREMS == tuple(sorted(reproduce.REPORTS))


# -- brace ----------------------------------------------------------------

def test_brace_check_graded_prelie(tmp_path):
    path = z9_brace_file(tmp_path)
    code, doc, _ = run_cli("brace", "check", "--input", path)
    assert code == 0 and doc["structure"] == "brace"
    assert doc["axioms"]["ok"] and doc["filtration"]["ok"]

    code, doc, _ = run_cli("brace", "graded", "--input", path)
    assert code == 0 and doc["component_orders"] == [3, 3]
    assert doc["nonzero_products"]

    code, doc, _ = run_cli("brace", "prelie", "--input", path)
    assert code == 0 and doc["left_symmetric"] and doc["witness"] is None


def test_brace_check_runs_the_axioms_once(tmp_path, monkeypatch):
    # the axioms field and the filtration verdict share one axiom check,
    # on a brace and on a table that fails left distributivity
    calls = []
    check_axioms = braces.check_axioms
    monkeypatch.setattr(braces, "check_axioms",
                        lambda S: calls.append(S) or check_axioms(S))
    code, doc, _ = run_cli("brace", "check", "--input",
                           z9_brace_file(tmp_path))
    assert code == 0 and doc["filtration"]["ok"] and len(calls) == 1
    k = [[2, 4], [0, 10]]
    bad = cyclic_doc(16, lambda a, b: k[a % 2][b % 2] * a * b)
    bad["filtration"] = [list(range(0, 16, 2)), [0, 8]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, doc, _ = run_cli("brace", "check", "--input", str(path))
    assert code == 0 and len(calls) == 2
    assert doc["axioms"]["reason"] == "star is not left distributive"
    assert doc["filtration"] == {
        "ok": False, "reason": "not a brace: star is not left distributive"}


def test_brace_graded_falls_back_to_star_powers(tmp_path):
    path = z9_brace_file(tmp_path, with_chain=False)
    code, doc, _ = run_cli("brace", "graded", "--input", path)
    assert code == 0 and doc["component_orders"] == [3, 3]


def test_brace_prelie_refuses_the_witness_table_that_is_not_a_brace(
        tmp_path):
    # a * b = k[a mod 2][b mod 2] a b on Z/16 with its 2-power filtration
    # passes the filtration check, but it is not left distributive, so
    # prelie refuses it
    k = [[2, 4], [0, 10]]
    doc = cyclic_doc(16, lambda a, b: k[a % 2][b % 2] * a * b)
    doc["filtration"] = [list(range(0, 16, 2)), list(range(0, 16, 4)),
                         [0, 8]]
    code, doc = run_brace_doc(tmp_path, doc, "prelie")
    assert code == 2 and doc["error"] == "config"
    assert doc["message"] == "not a brace: star is not left distributive"


def test_brace_graded_refuses_a_product_that_depends_on_representatives(
        tmp_path):
    # the graded product of this table depends on representatives, but
    # the table fails compatibility first, and graded says so
    doc = cyclic_doc(4, lambda a, b: 0)
    doc["star"][3] = [0, 2, 0, 2]
    doc["filtration"] = [[0, 2]]
    code, doc = run_brace_doc(tmp_path, doc, "graded")
    assert code == 2 and doc["error"] == "config"
    assert doc["message"] == "not a brace: brace compatibility fails"


def test_brace_series(tmp_path):
    path = z9_brace_file(tmp_path)
    code, doc, _ = run_cli("brace", "series", "--input", path,
                           "--series-args", "1,2,4,3")
    assert code == 0 and doc["exact"] and doc["direct"] == 0
    assert doc["partial_sums"] == [0, 0, 0]

    code, doc, _ = run_cli("brace", "series", "--input", path)
    assert code == 2 and doc["error"] == "config"


def test_brace_series_rejects_out_of_range_arguments(tmp_path):
    path = z9_brace_file(tmp_path)
    for args in ("1,2,40,3", "1,-2,3,2", "1,2,3,-1"):
        code, doc, text = run_cli("brace", "series", "--input", path,
                                  "--series-args", args)
        assert code == 2 and doc["error"] == "config", args
        assert text.count("{") == 1 and "Traceback" not in text


def test_brace_series_length_is_bounded(tmp_path):
    path = z9_brace_file(tmp_path)
    code, doc, text = run_cli("brace", "series", "--input", path,
                              "--series-args", "1,2,4,1000000")
    assert code == 2 and doc["error"] == "config"
    assert str(MAX_SERIES_TERMS) in doc["message"]
    assert text.count("{") == 1 and len(text) < 1000
    code, doc, _ = run_cli("brace", "series", "--input", path,
                           "--series-args", "1,2,4,%d" % MAX_SERIES_TERMS)
    assert code == 0 and len(doc["partial_sums"]) == MAX_SERIES_TERMS


def ring_brace_doc(n, seed=None):
    """Adjoint brace of the ring 2Z/2n (index i standing for 2i) with its
    power filtration; a seed relabels every nonzero element."""
    perm = list(range(n))
    if seed is not None:
        rest = perm[1:]
        random.Random(seed).shuffle(rest)
        perm = [0] + rest
    add, star = [[0] * n for _ in range(n)], [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            add[perm[i]][perm[j]] = perm[(i + j) % n]
            star[perm[i]][perm[j]] = perm[2 * i * j % n]
    levels = [sorted(perm[i] for i in range(0, n, 2 ** k))
              for k in range(1, n.bit_length() - 1)]
    return {"order": n, "add": add, "star": star, "filtration": levels}


def cyclic_doc(n, star_fn, alpha=None):
    doc = {"order": n,
           "add": [[(a + b) % n for b in range(n)] for a in range(n)],
           "star": [[star_fn(a, b) % n for b in range(n)] for a in range(n)]}
    if alpha is not None:
        doc["alpha"] = alpha
    return doc


PINNED_BRACES = {
    "ring32": ring_brace_doc(32), "ring32-relabelled": ring_brace_doc(32, 1),
    "ring64": ring_brace_doc(64), "ring64-relabelled": ring_brace_doc(64, 9),
    # one failing brace per reason of check_brace after the group axioms
    "not-left-distributive": cyclic_doc(4, lambda a, b: a * b * b),
    "compatibility": cyclic_doc(3, lambda a, b: (0, 1, 0)[a] * b),
    "no-identity": cyclic_doc(5, lambda a, b: -b),
    "inverse-missing": cyclic_doc(4, lambda a, b: (0, 2, 3, 3)[a] * b),
    # a truss breaking the circle law at c = 0, and a brace whose alpha
    # breaks the truss axiom at a = 0
    "truss-circle": {"order": 2, "add": [[0, 1], [1, 0]],
                     "star": [[1, 1], [0, 1]], "alpha": [1, 0]},
    "truss-axiom": cyclic_doc(9, lambda a, b: 3 * a * b, [1] + [0] * 8),
}


# sha256 of stdout, as computed before check_brace dropped the circle
# re-check. A relabelled ring brace prints the same bytes as the plain one.
RING_ACTIONS = (["check"], ["graded"], ["prelie"], ["series", "--series-args"])
RING_DIGESTS = {
    ("ring32", "3,5,7,6"): (
        "878937be2c37eafbb266064c3f5cc9d785d62fa8c33396aef4cdfff2902f367a",
        "cb497a290941e9cfa6d507c027506832384dd28d92c75a58107c7be43cf2c14b",
        "599aaca9cb0fe0b2325da158fb73a0eefb7aad9526f0c0e4b5c4c3a5ef3d4e37",
        "fe4df0d733a02d7cbc90d99bbec0328c3adbd15e14b7650dd16852bdfdbe3795"),
    ("ring64", "9,17,33,7"): (
        "58605f15e2c5c61a1fe84687d12e42cd222300a748d5dafd84c24d7ea54c9701",
        "dd51ea61cb8f1ebb386bbb73025b7903e0db3cd1f0be8fea3f2e6badd4b045d0",
        "599aaca9cb0fe0b2325da158fb73a0eefb7aad9526f0c0e4b5c4c3a5ef3d4e37",
        "d6ba6b99c66aeed8d2cc4ae8c1904bb45066be4af7ddba6c997426f5af769c9b"),
}
FAILING_DIGESTS = {
    "not-left-distributive":
        "aa0368e2755ef09341bd4afd3bbef2f1a28577a608f7efd75cb9ea274cf34b75",
    "compatibility":
        "5297e7710265d15807693f01a7398611e1cc5c064d5f68ea26120768ca9f9fd2",
    "no-identity":
        "6552921bdbea98d1da1a7d763cf659f6c35cfc7a5752b3fa07eb0f90a72de11f",
    "inverse-missing":
        "056a63309597658d1724c4ed0b11d01c7772c9d3f0e66a8de9f9ee94063518a5",
    "truss-circle":
        "4288df09ef9921f1de18edf089f5672ef9da372427e9a528ee67d01564de134b",
    "truss-axiom":
        "5cdde3e8d28fdc6851042bc4fc918be6174210b7d6fcad0fec39d24486f4bf97",
}
BRACE_PINS = [
    (ring + tag, action + ([series] if action[0] == "series" else []), digest)
    for (ring, series), digests in RING_DIGESTS.items()
    for tag in ("", "-relabelled")
    for action, digest in zip(RING_ACTIONS, digests)
] + [(name, ["check"], digest) for name, digest in FAILING_DIGESTS.items()]
BRACE_PINS.append((
    None, ["reproduce", "--theorem", "prelie"],
    "47d381a16e4a9f241751c0fbb8add398f71ead57637e58699b5b37a05422bbbe"))


@pytest.mark.parametrize("name,argv,digest", BRACE_PINS)
def test_brace_bytes_are_pinned(tmp_path, name, argv, digest):
    # verdicts, reasons, witnesses, graded products and series are all in
    # these bytes
    if name is not None:
        path = tmp_path / "brace.json"
        path.write_text(json.dumps(PINNED_BRACES[name]))
        argv = ["brace", argv[0], "--input", str(path)] + argv[1:]
    code, _, raw = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(raw.encode()).hexdigest() == digest


@pytest.mark.parametrize("action", ["graded", "prelie"])
@pytest.mark.parametrize("name", sorted(FAILING_DIGESTS))
def test_brace_graded_and_prelie_refuse_what_check_fails(tmp_path, name,
                                                        action):
    path = tmp_path / "brace.json"
    path.write_text(json.dumps(PINNED_BRACES[name]))
    _, check, _ = run_cli("brace", "check", "--input", str(path))
    assert not check["axioms"]["ok"]
    code, out, _ = run_cli("brace", action, "--input", str(path))
    assert code == 2 and out["error"] == "config"
    assert out["message"] == "not a %s: %s" % (check["structure"],
                                               check["axioms"]["reason"])


def test_brace_invalid_axioms_is_a_computed_verdict(tmp_path):
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    star = [[a for _ in range(4)] for a in range(4)]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(FiniteBrace(add, star).to_json()))
    code, doc, _ = run_cli("brace", "check", "--input", str(path))
    assert code == 0 and not doc["axioms"]["ok"]
    assert "distributive" in doc["axioms"]["reason"]


def test_brace_malformed_file_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"order": 2}))
    code, doc, _ = run_cli("brace", "check", "--input", str(path))
    assert code == 2 and doc["error"] == "config"


Z2 = {"order": 2, "add": [[0, 1], [1, 0]], "star": [[0, 0], [0, 0]]}


def run_brace_doc(tmp_path, doc, action="check"):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, text = run_cli("brace", action, "--input", str(path))
    assert text.count("{") == 1 and "Traceback" not in text
    return code, out


def assert_config_error(tmp_path, doc, action="check"):
    code, out = run_brace_doc(tmp_path, doc, action)
    assert code == 2 and out["error"] == "config", out


def test_brace_document_must_be_an_object(tmp_path):
    assert_config_error(tmp_path, [Z2])


@pytest.mark.parametrize("key", ["order", "add", "star"])
def test_brace_missing_key_is_named(tmp_path, key):
    doc = {k: v for k, v in Z2.items() if k != key}
    code, out = run_brace_doc(tmp_path, doc)
    assert code == 2 and out["error"] == "config"
    assert repr(key) in out["message"]


def test_brace_order_must_be_an_integer(tmp_path):
    assert_config_error(tmp_path, dict(Z2, order="2"))


def test_brace_add_table_must_be_a_list(tmp_path):
    assert_config_error(tmp_path, dict(Z2, add=5))


def test_brace_filtration_must_be_a_list(tmp_path):
    assert_config_error(tmp_path, dict(Z2, filtration=7))


def test_brace_alpha_must_be_a_list(tmp_path):
    assert_config_error(tmp_path, dict(Z2, alpha=3))


def test_brace_graded_rejects_an_empty_carrier(tmp_path):
    assert_config_error(tmp_path, {"order": 0, "add": [], "star": []},
                        action="graded")


def test_brace_filtration_members_must_be_integers(tmp_path):
    # 1.5 and true were read through int() and got a verdict
    for member in (1.5, True):
        assert_config_error(tmp_path, dict(Z2, filtration=[[0, member]]))


def test_brace_filtration_above_the_level_limit_is_a_resource_cap(tmp_path):
    # 400 copies of the carrier used to take 4.7 s in `brace check`: the
    # filtration check is quadratic in the number of levels
    zero16 = {"order": 16, "add": [[(a + b) % 16 for b in range(16)]
                                   for a in range(16)],
              "star": [[0] * 16 for _ in range(16)]}
    carrier = list(range(16))
    for action in ("check", "graded", "prelie"):
        start = time.perf_counter()
        code, out = run_brace_doc(tmp_path, dict(
            zero16, filtration=[carrier] * 400), action)
        assert time.perf_counter() - start < 1.0
        assert code == 3 and out["error"] == "resource"
        assert "400" in out["message"] and str(MAX_LEVELS) in out["message"]
    path = tmp_path / "levels.json"
    path.write_text(json.dumps(dict(zero16,
                                    filtration=[carrier] * MAX_LEVELS)))
    code, out, _ = run_cli("brace", "check", "--input", str(path))
    assert code == 0 and out["filtration"]["ok"]


def test_brace_order_above_the_limit_is_a_resource_cap(tmp_path):
    # rejected before the tables are read, so their shape does not matter
    order = MAX_ORDER + 1
    code, out = run_brace_doc(tmp_path, {"order": order, "add": 5, "star": 5})
    assert code == 3 and out["error"] == "resource"
    assert str(order) in out["message"] and str(MAX_ORDER) in out["message"]


def random_brace_doc(rng):
    """A brace file of order 1-6: cyclic or random addition, a random or
    linear star, alpha on some, and a filtration block on some, its one
    level the multiples of a divisor or its levels drawn at random,
    rarely more of them than MAX_LEVELS."""
    n = rng.randint(1, 6)

    def table():
        return [[rng.randrange(n) for _ in range(n)] for _ in range(n)]

    k = [rng.randrange(n) for _ in range(n)]
    doc = {"order": n,
           "add": [[(a + b) % n for b in range(n)] for a in range(n)],
           "star": [[k[a] * b % n for b in range(n)] for a in range(n)]}
    if rng.random() < 0.4:
        doc["add"] = table()
    if rng.random() < 0.5:
        doc["star"] = table()
    if rng.random() < 0.3:
        doc["alpha"] = [rng.randrange(n) if rng.random() < 0.5 else 0
                        for _ in range(n)]
    draw = rng.random()
    if draw < 0.3:
        d = rng.choice([d for d in range(1, n + 1) if n % d == 0])
        doc["filtration"] = [list(range(0, n, d))]
    elif draw < 0.6:
        levels = rng.randrange(4 if rng.random() < 0.95 else 40)
        doc["filtration"] = [sorted(rng.sample(range(n), rng.randint(1, n)))
                             for _ in range(levels)]
    return doc


def test_brace_fuzz_writes_one_document(tmp_path, capsys):
    rng = random.Random(20261020)
    path = tmp_path / "doc.json"
    codes = set()
    for _ in range(1000):
        doc = random_brace_doc(rng)
        path.write_text(json.dumps(doc))
        argv = ["brace", rng.choice(("check", "graded", "prelie", "series")),
                "--input", str(path)]
        if rng.random() < 0.8:
            args = [rng.randrange(-1, doc["order"] + 1) for _ in range(3)]
            args.append(rng.randrange(-1, 6))
            argv += ["--series-args", ",".join(
                map(str, args[:rng.choice((3, 4, 4, 4, 5))]))]
        code, out, text = run_cli(*argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, doc, text, err)
        assert isinstance(json.loads(text), dict), (argv, doc, text)
        assert "Traceback" not in err, (argv, doc, err)
        codes.add((argv[1], code))
    assert codes >= {(action, code) for code in (0, 2) for action in
                     ("check", "graded", "prelie", "series")}, codes
    assert {code for _, code in codes} == {0, 2, 3}


FUZZ_TERMS = ("x^3", "y^3", "x^2 y", "x y x y", "y^4", "x y^3", "y^5",
              "cyc(x^2 y)", "cyc(x y x y)", "cyc(x y^2)", "(x + y) x y",
              "cyc((x - y) y^2)", "x y", "x", "x^0")
FUZZ_BROKEN = ("cyc(", "x^", "1/0", "cyc(x^0)", "x^-1", "z", "(x",
               "x + + y", "cyc()", "^2", "x^99999", "2 2", ")", "")
FUZZ_COEFFS = ("", "", "", "2 ", "-1 ", "1/2 ", "-5/3 ", "0 ")


def fuzz_expression(rng):
    """A sum of one to four terms of a small grammar; about a third of
    the sums carry one broken atom, and one in ten starts with a minus
    sign, which argparse reads as an option."""
    terms = [rng.choice(FUZZ_COEFFS) + rng.choice(FUZZ_TERMS)
             for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.35:
        terms[rng.randrange(len(terms))] = rng.choice(FUZZ_BROKEN)
    return ("-" if rng.random() < 0.1 else "") + " + ".join(terms)


def fuzz_argv(rng, command):
    argv = [command]
    if command == "gb" and rng.random() < 0.4:
        argv += ["--relations", ", ".join(
            fuzz_expression(rng) for _ in range(rng.randint(1, 3)))]
    else:
        argv += ["--potential", fuzz_expression(rng)]
    if command == "derive":
        argv += ["--mode", rng.choice(("simple", "ginzburg"))]
        return argv
    cap = rng.randint(0, 8)
    if command == "canon" and rng.random() < 0.05:
        cap = 21                       # above the classification limit
    argv += ["--cap", str(cap)]
    if command in ("gb", "dim"):
        argv += ["--order", rng.choice(("xy", "yx")),
                 "--mode", rng.choice(("local", "global"))]
    if command == "dim" and rng.random() < 0.3:
        argv.append("--oracle")
    return argv


def damage_algebra(rng, doc):
    """One wrong type or value in a dim document's algebra: an entry, a
    key, a basis word or a degree, or a dropped row."""
    alg = doc["algebra"]
    table, basis, degrees = alg["table"], alg["basis"], alg["degrees"]
    key = rng.choice(sorted(table))
    wrong = rng.choice((None, [1], "1/0", 0.1, True, 7, "x", "-3", "1/2",
                        {}, -1, "9" * 30))
    kind = rng.randrange(7)
    if kind == 0:
        table[key][rng.randrange(len(table[key]))] = wrong
    elif kind == 1:
        table[rng.choice(("x,q", "", "x,x,x", key.replace(",", "")))] = \
            table.pop(key)
    elif kind == 2:
        basis[rng.randrange(len(basis))] = rng.choice((wrong, "yy", "q"))
    elif kind == 3:
        degrees[rng.randrange(len(degrees))] = wrong
    elif kind == 4:
        del table[key]
    elif kind == 5:
        table[key].pop()
    else:
        alg[rng.choice(("basis", "degrees", "table", "field"))] = wrong


def test_cli_fuzz_writes_one_document(tmp_path, capsys, monkeypatch):
    # a damaged table can still load, and a lift search on it may walk
    # its whole node budget (28 s at the default); a small budget keeps
    # the run short and reaches the exit-3 path of the search
    monkeypatch.setattr(isotest, "_LIFT_BUDGET", 4096)
    rng = random.Random(20261021)
    docs = [json.loads(Path(dim_file(tmp_path, text, "%d.json" % i))
                       .read_text())
            for i, text in enumerate((DIM8, DIM9A, DIM9B))]
    runs = [("expr", rng.choice(("derive", "gb", "dim", "canon")))
            for _ in range(600)] + [("iso", "iso")] * 200
    codes = set()
    for kind, command in runs:
        if kind == "iso":
            paths = []
            for side in "ab":
                doc = json.loads(json.dumps(rng.choice(docs)))
                if rng.random() < 0.5:
                    damage_algebra(rng, doc)
                path = tmp_path / ("%s.json" % side)
                path.write_text(json.dumps(doc))
                paths.append(str(path))
            argv = ["iso", "--a", paths[0], "--b", paths[1],
                    "--strategy", rng.choice(cli.STRATEGIES)]
            field = rng.choice((None, 1, 2, 3, 4, 5, 7))
            if field is not None:
                argv += ["--field", str(field)]
        else:
            argv = fuzz_argv(rng, command)
        code, _, text = run_cli(*argv)
        err = capsys.readouterr().err
        assert code in (0, 2, 3), (argv, text, err)
        assert isinstance(json.loads(text), dict), (argv, text)
        assert "Traceback" not in err, (argv, err)
        codes.add((command, code))
    assert codes >= {(command, code) for code in (0, 2) for command in
                     ("derive", "gb", "dim", "canon", "iso")}, codes
    assert 3 in {code for _, code in codes}, codes


# -- reproduce -------------------------------------------------------------

@pytest.mark.parametrize("theorem",
                         ["dim8", "dim9", "cor1-grid", "x3-bound", "prelie"])
def test_reproduce_reports_pass(theorem):
    code, doc, _ = run_cli("reproduce", "--theorem", theorem)
    assert code == 0 and doc["theorem"] == theorem
    assert doc["pass"], [c["name"] for c in doc["checks"] if not c["pass"]]


@pytest.mark.parametrize("theorem,digest", [
    ("dim8",
     "a9f80cb9e4e853f270eb08aea8cb0ede02d56b1a1c15463e7aef111005c1458c"),
    ("dim9",
     "86085b4d322afe4bfd0cf9ae64f40bc305d5a9d747604fd6c105d965c13ba33b"),
    ("cor1-grid",
     "3c8cb38cb265125186a7c18b824d80b79438b5e1ba3034988bc83c7512d23c68"),
    ("x3-bound",
     "fa061217316014b24371d34e22ade1597b58fddeb129547600fe7b5dd579b8b5"),
    ("prelie",
     "47d381a16e4a9f241751c0fbb8add398f71ead57637e58699b5b37a05422bbbe"),
])
def test_reproduce_bytes_are_pinned(theorem, digest):
    code, _, raw = run_cli("reproduce", "--theorem", theorem)
    assert code == 0
    assert hashlib.sha256(raw.encode()).hexdigest() == digest


def test_reproduce_seed_only_changes_data():
    code, doc, _ = run_cli("reproduce", "--theorem", "x3-bound",
                           "--seed", "7")
    assert code == 0 and doc["pass"] and doc["seed"] == 7


def test_reproduce_unknown_theorem_exits_2():
    code, doc, _ = run_cli("reproduce", "--theorem", "nope")
    assert code == 2 and doc["error"] == "usage"
    assert "invalid choice: 'nope'" in doc["message"]


# -- output discipline -------------------------------------------------

def test_render_parse_round_trip_on_goldens():
    for text in (DIM8, DIM9A, DIM9B, "x^3 - 1/2 y^3 + 2 x y x",
                 "cyc(x^2 y) + y^4 + y^5 + y^6"):
        f = parse_poly(text, QQ, 8)
        assert parse_poly(render(f), QQ, 8) == f


def test_worker_count_does_not_change_bytes():
    # dim has no --workers any more: two reruns give the same bytes
    outs = [run_cli("dim", "--potential", DIM8, "--cap", "8")[2]
            for _ in range(2)]
    assert outs[0] == outs[1]


def test_internal_check_failure_exits_4(monkeypatch, capsys):
    # an AssertionError from a consistency check used to escape main as
    # a traceback with exit code 1
    def broken(*args):
        raise AssertionError("stage left 'xyxy' at 1")

    monkeypatch.setattr(classify, "classify_potential", broken)
    code, doc, text = run_cli("canon", "--potential", DIM8, "--cap", "8")
    assert code == 4 and doc["error"] == "internal"
    assert doc["message"] == "AssertionError: stage left 'xyxy' at 1"
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert "AssertionError" in capsys.readouterr().err


def random_document(rng, depth=0):
    """A JSON value: containers down to depth 4, tuples among the lists,
    and text with quotes, commas, escapes and non-ASCII letters."""
    texts = ["", "a", 'say "hi", then', "x^2 + y", "\u00e9t\u00e9", "\u03c0",
             "tab\tnew\nline", "back\\slash", "1,2", "{}", "[]"]
    kind = rng.randrange(10 if depth < 4 else 6)
    if kind == 0:
        return rng.choice(texts)
    if kind == 1:
        return rng.randint(-10 ** 20, 10 ** 20)
    if kind == 2:
        return rng.choice([0.1, -2.5, 1e300, 3.0, -0.0, 12345.678])
    if kind == 3:
        return rng.choice([None, True, False])
    if kind == 4:
        return rng.choice([[], {}, ()])
    if kind == 5:
        return [rng.choice(texts + [1, None, 2.5, True])
                for _ in range(rng.randint(1, 6))]
    if kind in (6, 7):
        return {rng.choice(texts) + str(rng.randrange(5)):
                random_document(rng, depth + 1)
                for _ in range(rng.randint(0, 5))}
    items = [random_document(rng, depth + 1) for _ in range(rng.randint(0, 5))]
    return tuple(items) if kind == 8 else items


def test_emitter_writes_the_bytes_of_json_dumps():
    rng = random.Random("emit")
    for _ in range(500):
        doc = random_document(rng)
        assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)
    deep = []
    for i in range(60):
        deep = {"level": [deep, i, (), {}], "x": None}
    assert cli._dumps(deep) == json.dumps(deep, indent=2, sort_keys=True)
    # keys that are not strings are converted as json converts them
    for doc in ({1: "a", 10: [None, 1.5], 2: {"b": ()}}, {None: 1},
                {True: [], False: {}}, {1.5: 0, 2: 1, -0.5: 2}):
        assert cli._dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        cli._dumps({(1, 2): 3})


def test_help_exits_zero():
    code, _, _ = run_cli("--help")
    assert code == 0


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "potalg", "derive", "--potential", "x^3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["relations"]["x"] == "3 x^2"
