"""Output checks for the benchmark's jobs.

Each check_* function returns a check for one job: a callable that takes
the job's parsed JSON output and returns None when it is right, or a
one-line reason. References never come from the timed code path: they
are the paper's dimensions, the row-reduction oracle, verify_complete on
the basis parsed back from the output, known isomorphism verdicts, the
Hilbert series of the input computed through ``dim``'s path, or brace
arithmetic done here on the tables the benchmark wrote.
"""

from potalg.fields import QQ
from potalg.parsing import parse_poly
from potalg.potential import relations_of
from potalg.quotient import hilbert
from potalg.rewrite import (RewriteSystem, complete, normal_words_by_degree,
                            oracle_dimension, verify_complete)
from potalg.words import MonomialOrder

ORACLE_CAP = 8

# Hilbert series of the paper's finite algebras (dim 8, 9A, 9B)
PAPER_HILBERT = {"8": [1, 2, 2, 2, 1], "9A": [1, 2, 2, 2, 1, 1],
                 "9B": [1, 2, 2, 2, 1, 1]}


def _flags(flags):
    opts = dict(zip(flags[::2], flags[1::2]))
    return (int(opts["--cap"]),
            MonomialOrder(opts.get("--order", "xy"), opts.get("--mode", "local")))


def check_gb(text, flags):
    """The basis reduces every ambiguity to zero, and its normal words
    match the oracle's counts through degree 8 (local orders only)."""
    cap, order = _flags(flags)

    def check(doc):
        if doc.get("cap") != cap or doc.get("order") != order.to_json():
            return "cap or order not echoed: %s %s" % (doc.get("cap"), doc.get("order"))
        elements = [parse_poly(e, QQ) for e in doc["elements"]]
        system = RewriteSystem(elements, order, cap)
        if not verify_complete(system):
            return "verify_complete fails on the returned basis"
        if order.mode == "local":
            rels = list(relations_of(parse_poly(text, QQ, ORACLE_CAP), order))
            oracle = list(oracle_dimension(rels, ORACLE_CAP, order))
            counts = [len(ws) for ws in normal_words_by_degree(system, ORACLE_CAP)]
            if counts != oracle:
                return "normal words %s, oracle %s" % (counts, oracle)
        return None
    return check


def check_dim(total, key, oracle):
    """Finite with the expected total, oracle agreement when asked for,
    and the paper's Hilbert series for the goldens and their images."""
    paper = PAPER_HILBERT.get(key.split("-")[0])

    def check(doc):
        if doc.get("finite") is not True or doc.get("total") != total:
            return "total %s, expected %d" % (doc.get("total"), total)
        if oracle and not doc["oracle"]["agrees"]:
            return "oracle disagrees: %s" % doc.get("oracle")
        if paper and doc["hilbert"][:len(paper) + 1] != paper + [0]:
            return "hilbert %s, expected %s" % (doc["hilbert"], paper)
        if len(doc["algebra"]["basis"]) != total:
            return "algebra basis has %d words" % len(doc["algebra"]["basis"])
        return None
    return check


def check_iso(truth):
    """A verdict may be inconclusive, never the opposite of the truth."""
    wrong = "not_isomorphic" if truth == "isomorphic" else "isomorphic"

    def check(doc):
        status = doc.get("status")
        if status not in ("isomorphic", "not_isomorphic", "inconclusive"):
            return "unknown status %r" % status
        if status == wrong:
            return "%s for a pair that is %s (certificate %s)" % (
                status, truth, doc.get("certificate"))
        return None
    return check


def check_canon(text, cap, representative):
    """The canonical form's Hilbert series equals the input's, and the
    cliff potentials land on their known representatives."""
    def check(doc):
        F = parse_poly(text, QQ, cap)
        want = list(hilbert(complete(list(relations_of(F)), cap=cap)).hilbert)
        if doc.get("hilbert") != want:
            return "hilbert %s, input has %s" % (doc.get("hilbert"), want)
        if representative and doc.get("representative") != representative:
            return "representative %s, expected %s" % (
                doc.get("representative"), representative)
        return None
    return check


def check_reproduce(theorem, seed):
    def check(doc):
        if doc.get("theorem") != theorem or doc.get("pass") is not True:
            failed = [c["name"] for c in doc.get("checks", []) if not c["pass"]]
            return "report does not pass: %s" % failed
        if seed is not None and doc.get("seed") != seed:
            return "seed %s not echoed" % doc.get("seed")
        return None
    return check


# -- braces ------------------------------------------------------------------

def subring_brace(n):
    """Adjoint brace of the nilpotent ring 2Z/2n, index i standing for 2i,
    with its filtration by multiples of 2, 4, ..., n/2 (n a power of 2)."""
    add = [[(i + j) % n for j in range(n)] for i in range(n)]
    star = [[(2 * i * j) % n for j in range(n)] for i in range(n)]
    levels, step = [], 2
    while step < n:
        levels.append(list(range(0, n, step)))
        step *= 2
    return {"order": n, "add": add, "star": star, "filtration": levels}


def check_brace_check(n):
    def check(doc):
        if doc.get("structure") != "brace" or doc.get("order") != n:
            return "structure %s of order %s" % (doc.get("structure"), doc.get("order"))
        if not doc["axioms"]["ok"] or not doc["filtration"]["ok"]:
            return "axioms %s, filtration %s" % (doc["axioms"], doc["filtration"])
        return None
    return check


def check_brace_graded(n):
    """Each quotient of the ring's power filtration has two elements."""
    want = [2] * (n.bit_length() - 1)

    def check(doc):
        if doc.get("component_orders") != want:
            return "component orders %s, expected %s" % (doc.get("component_orders"), want)
        return None
    return check


def check_brace_prelie():
    def check(doc):
        if doc.get("left_symmetric") is not True:
            return "graded product not left symmetric: %s" % doc.get("witness")
        return None
    return check


def check_brace_series(table, triple, terms):
    """(a+b)*c - (a*c + b*c) from the tables, and an exact series."""
    add, star = table["add"], table["star"]
    neg = {a: b for a, row in enumerate(add) for b, v in enumerate(row) if v == 0}
    a, b, c = triple
    direct = add[star[add[a][b]][c]][neg[add[star[a][c]][star[b][c]]]]

    def check(doc):
        if doc.get("triple") != list(triple) or len(doc.get("partial_sums", ())) != terms:
            return "triple %s with %s terms" % (doc.get("triple"), doc.get("terms"))
        if doc.get("direct") != direct or doc.get("exact") is not True:
            return "direct %s (expected %d), exact %s" % (
                doc.get("direct"), direct, doc.get("exact"))
        return None
    return check
