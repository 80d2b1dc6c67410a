"""Command line front end.

Every invocation writes exactly one JSON document to standard output,
with keys sorted so identical inputs produce byte-identical output.
Exit codes: 0 for a completed computation (including negative verdicts),
2 for parse or configuration errors, 3 when a resource cap is hit, 4 when
an internal check fails (a bug: one document on stdout, the traceback on
stderr).

main reuses one parser per process, built on its first call: parsing
keeps no state between calls, and usage errors and --help look up
sys.stderr and sys.stdout when they print. build_parser still returns a
new parser on every call.

Each command imports only what it runs; this module loads only fields.
So the --strategy and --theorem choices are written out, pinned by a
test to isotest.STRATEGIES and sorted(reproduce.REPORTS).
"""

import argparse
import functools
import json
import sys
import traceback
from json.encoder import encode_basestring_ascii

from .fields import CleanupError, FieldError, ParseError, ResourceCapError

DEFAULT_CAP = 12
EXTENDED_CAP = 16
STRATEGIES = ("auto", "lift", "invariants")
THEOREMS = ("cor1-grid", "dim8", "dim9", "prelie", "x3-bound")


def _parse_potential(text: str, cap=None):
    """The polynomial of an expression over QQ, cut at the cap if given.

    With a cap, a zero input and an input above the cap are ValueErrors.
    """
    from .parsing import parse_poly
    exact = parse_poly(text)
    if cap is None:
        return exact
    if exact.is_zero():
        raise ValueError("%r is zero: there is nothing to compute" % text)
    if exact.max_degree() > cap:
        raise ValueError("cap %d is below the potential degree %d"
                         % (cap, exact.max_degree()))
    return exact.with_cap(cap)


def _dumps(value, pad=""):
    """The text of json.dumps(value, indent=2, sort_keys=True).

    json.dumps lays out every item in Python generators once indent is
    set. Here a list of strings is joined in one call over the C string
    encoder, and ints are written directly; keys are sorted and converted
    as json does.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if type(value) is int:
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for k, v in sorted(value.items()):
            if not isinstance(k, str):
                if k is not None and not isinstance(k, (int, float)):
                    raise TypeError("%r cannot be a JSON key" % (k,))
                k = json.dumps(k)
            items.append(inner + encode_basestring_ascii(k) + ": "
                         + _dumps(v, inner))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if all(type(v) is str for v in value):
            parts = map(encode_basestring_ascii, value)
        else:
            parts = [_dumps(v, inner) for v in value]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    return json.dumps(value)


def _emit(doc) -> None:
    sys.stdout.write(_dumps(doc) + "\n")


def _monomial_order(args):
    from .words import MonomialOrder
    return MonomialOrder(args.order, args.mode)


def _cmd_derive(args):
    from .parsing import render
    from .potential import derive_ginzburg, derive_simple
    F = _parse_potential(args.potential)
    dfn = derive_simple if args.mode == "simple" else derive_ginzburg
    return {"command": "derive", "mode": args.mode, "potential": render(F),
            "relations": {"x": render(dfn(F, "x")),
                          "y": render(dfn(F, "y"))}}


def _cmd_gb(args):
    from .potential import relations_of
    from .rewrite import complete
    order = _monomial_order(args)
    if args.potential is not None:
        F = _parse_potential(args.potential, args.cap)
        rels = relations_of(F, order)
    else:
        rels = [_parse_potential(t.strip(), args.cap)
                for t in args.relations.split(",") if t.strip()]
        if not rels:
            raise ValueError("no relations given")
    doc = complete(rels, order, args.cap).to_json()
    doc["command"] = "gb"
    return doc


def _cmd_dim(args):
    from .isotest import from_quotient
    from .parsing import render
    from .potential import relations_of
    from .quotient import hilbert
    from .rewrite import complete, oracle_dimension
    order = _monomial_order(args)

    def build(cap):
        F = _parse_potential(args.potential, cap)
        rels = relations_of(F, order)
        return F, rels, hilbert(complete(rels, order, cap))

    cap = args.cap
    F, rels, Q = build(cap)
    extended = False
    # one automatic retry at a higher cap when the zero tail is short
    if (Q.finite and cap < EXTENDED_CAP
            and Q.first_empty_degree >= cap - 2):
        cap = EXTENDED_CAP
        F, rels, Q = build(cap)
        extended = True

    doc = {"command": "dim", "potential": render(F), "cap": cap,
           "extended": extended, "order": order.to_json(),
           "finite": Q.finite, "hilbert": list(Q.hilbert),
           "total": Q.dimension,
           "nilpotency_index": Q.first_empty_degree, "growth": Q.growth}
    if Q.finite:
        doc["algebra"] = dict(from_quotient(Q).to_json(),
                              name=args.potential, relations=list(
                                  map(render, Q.system.elements)))
    if args.oracle:
        oracle_cap = min(cap, 8)
        counts = oracle_dimension(rels, oracle_cap, order)
        doc["oracle"] = {
            "cap": oracle_cap, "per_degree": list(counts),
            "agrees": tuple(counts) == tuple(Q.hilbert[:oracle_cap + 1])}
    return doc


def _cmd_canon(args):
    from .classify import classify_potential
    F = _parse_potential(args.potential, args.cap)
    doc = classify_potential(F, args.cap).to_json()
    doc["command"] = "canon"
    return doc


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("%s nests too deeply to read" % path) from None


def _load_algebra(path):
    from .isotest import algebra_from_json
    doc = _read_json(path)
    inner = doc.get("algebra", doc) if isinstance(doc, dict) else doc
    if not isinstance(inner, dict) or "table" not in inner:
        raise ValueError("%s does not contain an algebra document" % path)
    return algebra_from_json(inner)


def _cmd_iso(args):
    from . import isotest
    A = _load_algebra(args.a)
    B = _load_algebra(args.b)
    if args.field is not None:
        A = isotest.algebra_mod_p(A, args.field)
        B = isotest.algebra_mod_p(B, args.field)

    doc = isotest.distinguish_algebras(A, B, args.strategy).to_json()
    doc["command"] = "iso"
    doc["strategy"] = args.strategy
    return doc


def _cmd_brace(args):
    from . import brace as braces
    doc = _read_json(args.input)
    structure = braces.from_json(doc)
    filt = None
    if doc.get("filtration") is not None:
        filt = braces.filtration_from_json(doc, structure)

    if args.action == "check":
        axioms = braces.check_axioms(structure)
        out = {"command": "brace", "action": "check",
               "structure": structure.kind, "order": structure.order,
               "axioms": axioms.to_json()}
        if filt is not None:
            out["filtration"] = braces._filtration_verdict(
                structure, filt, axioms).to_json()
        return out

    if args.action == "series":
        if not args.series_args:
            raise ValueError("series requires --series-args a,b,c,N")
        parts = [int(t) for t in args.series_args.split(",")]
        if len(parts) != 4:
            raise ValueError("--series-args wants exactly a,b,c,N")
        a, b, c, n = parts
        out = dict(braces.distributivity_series(structure, a, b, c, n))
        out.update({"command": "brace", "action": "series",
                    "triple": [a, b, c], "terms": n})
        return out

    # without a chain, graded and prelie fall back to the star powers
    G = braces.associated_graded(structure, filt)
    if args.action == "graded":
        out = G.to_json()
        out.update({"command": "brace", "action": "graded"})
        return out
    defect = braces.pre_lie_defect(G)
    return {"command": "brace", "action": "prelie",
            "left_symmetric": defect == 0,
            "witness": None if defect == 0 else [list(t) for t in defect]}


def _cmd_reproduce(args):
    from . import reproduce
    doc = reproduce.run(args.theorem, seed=args.seed)
    doc["command"] = "reproduce"
    return doc


HANDLERS = {"derive": _cmd_derive, "gb": _cmd_gb, "dim": _cmd_dim,
            "canon": _cmd_canon, "iso": _cmd_iso, "brace": _cmd_brace,
            "reproduce": _cmd_reproduce}


class UsageError(Exception):
    """A command line that argparse rejects."""


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that raises UsageError instead of exiting, so that main
    can report a bad command line as one JSON document. Subcommand
    parsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError("%s: %s" % (self.prog, message))


def _add_order_flags(sub):
    sub.add_argument("--order", choices=("xy", "yx"), default="xy",
                     help="variable precedence (default xy)")
    sub.add_argument("--mode", choices=("local", "global"), default="local",
                     help="leading-term convention (default local)")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="potalg",
        description="Two-generator potential algebras: derivatives, "
                    "rewriting, dimensions, classification, isomorphism, "
                    "and brace structures.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="cyclic partial derivatives")
    p.add_argument("--potential", required=True)
    p.add_argument("--mode", choices=("simple", "ginzburg"),
                   default="ginzburg")

    p = sub.add_parser("gb", help="complete a rewriting system")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--potential")
    src.add_argument("--relations", help="comma-separated expressions")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_order_flags(p)

    p = sub.add_parser("dim", help="normal-word dimension count")
    p.add_argument("--potential", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against exact row reduction")
    _add_order_flags(p)

    p = sub.add_parser("canon", help="canonical form and classification")
    p.add_argument("--potential", required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)

    p = sub.add_parser("iso", help="isomorphism verdict for two algebras")
    p.add_argument("--a", required=True, metavar="FILE")
    p.add_argument("--b", required=True, metavar="FILE")
    p.add_argument("--field", type=int,
                   help="reduce both algebras modulo this prime first")
    p.add_argument("--strategy", choices=STRATEGIES, default="auto")

    p = sub.add_parser("brace", help="brace and truss verdicts")
    p.add_argument("action", choices=("check", "graded", "prelie", "series"))
    p.add_argument("--input", required=True, metavar="FILE")
    p.add_argument("--series-args", metavar="a,b,c,N")

    p = sub.add_parser("reproduce", help="rerun a packaged computation")
    p.add_argument("--theorem", required=True, choices=THEOREMS)
    p.add_argument("--seed", type=int,
                   help="test-data seed (never affects core algorithms)")

    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except UsageError as exc:
        _emit({"error": "usage", "message": str(exc)})
        return 2
    except SystemExit as exc:
        # --help prints its text and exits 0
        return int(exc.code or 0)
    try:
        doc = HANDLERS[args.command](args)
    except ParseError as exc:
        _emit({"error": "parse", "message": str(exc)})
        return 2
    except (ResourceCapError, CleanupError) as exc:
        _emit({"error": "resource", "message": str(exc)})
        return 3
    except (FieldError, ValueError, OSError) as exc:
        _emit({"error": "config", "message": str(exc)})
        return 2
    except Exception as exc:
        traceback.print_exc()
        _emit({"error": "internal",
               "message": "%s: %s" % (type(exc).__name__, exc)})
        return 4
    _emit(doc)
    return 0
