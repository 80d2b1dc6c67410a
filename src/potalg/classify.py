"""Cubic normal forms and degree-by-degree potential cleanup.

The pipeline: classify the cubic part of a potential by the Hessian
covariant of its abelianization (a vanishing Hessian is a triple line, a
square one a double line, otherwise the cubic has three distinct lines),
move it to a normal form by an exact linear change of variables, then
strip unwanted higher-degree terms with substitutions x -> x + u,
y -> y + v. Every linear quantity, the cubic's line weights, cofactor
and change of variables as well as each degree's substitution, comes
from linalg.solve. Since x -> x + u sends a word a x b to a u b to first
order, a stage splits each body word of a length its moves read at
every letter once, and reads each move's column from the splits that
land in its degree window.

Every cleanup stage runs one solve, apply and re-check path on word
coordinates, and again on rotation-class coordinates only when the word
system stalls. A word solution keeps the trail a literal change of
variables, so composing it carries the input body to the canonical body
exactly through the cap. A class solution replaces the moved body by its
cyclic symmetrization, which is the classical computation on potentials
taken up to rotation. Every stage appends its substitution and its mode
to one ClassificationReport, which then takes the verdict; dimension
claims are always re-derived from the completed rewrite system of the
cleaned body, never from the trail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .fields import QQ, CleanupError, FieldError, ResourceCapError
from .freepoly import FreePoly, Substitution, abelianize_cubic, substitute
from .linalg import integral, primitive, solve
from .potential import (cyclic_symmetrize, cyclicize,
                        is_cyclically_invariant, relations_of)
from .quotient import hilbert
from .rewrite import complete
from .words import MonomialOrder, all_words, rotations

_XY = MonomialOrder()
_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# exact scalar helpers

def _rational_sqrt(q: Fraction):
    """sqrt(q) as a Fraction, or None when q is not a rational square."""
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _int_cbrt(n: int):
    """The integer cube root of n, or None when n is not a cube."""
    if n < 0:
        r = _int_cbrt(-n)
        return None if r is None else -r
    if n < 2:
        return n
    # Newton's step from above decreases to floor(n ** (1/3)) exactly
    r = 1 << -(-n.bit_length() // 3)
    while True:
        s = (2 * r + n // (r * r)) // 3
        if s >= r:
            break
        r = s
    return r if r * r * r == n else None


def _rational_cbrt(q: Fraction):
    rn, rd = _int_cbrt(q.numerator), _int_cbrt(q.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


# ---------------------------------------------------------------------------
# binary cubics (a, b, c, d) meaning a x^3 + b x^2 y + c x y^2 + d y^3

def _cube_coeffs(l):
    p, q = l
    return (p ** 3, 3 * p * p * q, 3 * p * q * q, q ** 3)


def _weights(target, columns):
    """The weights a_i with target = sum a_i columns[i], for coefficient
    tuples of one length, asserted exact and unique: one exact solve."""
    cols = [{i: c for i, c in enumerate(col) if c} for col in columns]
    rhs = {i: c for i, c in enumerate(target) if c}
    weights, stalled, reduced = solve(cols, range(len(target)), rhs, QQ)
    if stalled or len(reduced) < len(columns):
        raise AssertionError("the columns do not span the target exactly")
    return weights


def _primitive(p, q):
    """Scale a rational linear form to coprime integers, leading sign +."""
    row = {i: Fraction(c) for i, c in enumerate((p, q)) if c}
    if not row:
        raise ValueError("zero linear form")
    row = primitive(integral(row, 0)[0], min(row), 0)
    return (Fraction(row.get(0, 0)), Fraction(row.get(1, 0)))


def _hessian(cubic):
    a, b, c, d = cubic
    return (4 * (3 * a * c - b * b),
            4 * (9 * a * d - b * c),
            4 * (3 * b * d - c * c))


def _linear_sub(m, cap):
    (a, b), (c, d) = m
    return Substitution.linear(Fraction(a), Fraction(b),
                               Fraction(c), Fraction(d), QQ, cap)


def _normalizing_sub(m, cap):
    """The substitution T with m T = 1, for m's rows two independent
    lines: one exact solve per column of T."""
    t = [_weights(e, list(zip(*m))) for e in ((1, 0), (0, 1))]
    return _linear_sub(zip(*t), cap)


_CANONICAL_CUBICS = {
    "X3": lambda cap: FreePoly.term("xxx", 1, QQ, cap),
    "X2Y": lambda cap: cyclicize(FreePoly.term("xxy", 1, QQ, cap)),
    "X3Y3": lambda cap: (FreePoly.term("xxx", 1, QQ, cap) +
                         FreePoly.term("yyy", 1, QQ, cap)),
}


@dataclass
class CubicClass:
    """Line-pattern label of a cubic part with its normalizing transform.

    transform is a linear substitution T with (cubic part) o T equal to
    sigma times the labeled normal form, exactly. When the splitting
    needs an irrational quantity, transform stays None and
    extension_required describes the obstruction; the base field is never
    enlarged silently.
    """
    label: str                         # Zero | X3 | X2Y | X3Y3
    transform: object = None
    sigma: object = None
    extension_required: object = None

    def to_json(self):
        doc = {"label": self.label}
        if self.transform is not None:
            doc["transform"] = self.transform.to_json()
        if self.sigma is not None:
            doc["sigma"] = str(self.sigma)
        if self.extension_required is not None:
            doc["extension_required"] = self.extension_required
        return doc


def cubic_class(body) -> CubicClass:
    """Classify the degree-3 part by the lines of its abelianization f.

    The hessian covariant H of f tells them apart: H vanishes exactly
    when f is a cube of a line (X3); otherwise the discriminant of H is
    zero exactly when f is l1^2 l2 with l1 the double line of H (X2Y);
    otherwise f has three distinct lines (X3Y3) and the two lines of H
    split it into a sum of two cubes. One exact solve, _weights, gives
    the cube weights of the lines, the cofactor l2 (on l1^2 x, l1^2 y)
    and the transform T from M T = 1, M's rows the normal form's lines.
    The scale is folded into the transform for X2Y (sigma 1); for X3
    and X3Y3 sigma carries the leftover factor. An already-normal cubic
    part gets the identity transform.
    """
    if body.field != QQ:
        raise FieldError("cubic classification is implemented over QQ")
    cap = body.cap
    f3 = body.homogeneous_part(3)
    if f3.is_zero():
        return CubicClass("Zero")
    cubic = tuple(Fraction(v) for v in abelianize_cubic(f3))
    if not any(cubic):
        raise ValueError("cubic part abelianizes to zero; symmetrize the "
                         "potential first")
    A, B, C = _hessian(cubic)
    disc = B * B - 4 * A * C

    if not (A or B or C):
        # only a cube l^3 has a vanishing hessian; (a, b) is p^2 (p, 3q)
        a, b = cubic[:2]
        l = _primitive(a, b / 3) if a else _primitive(0, 1)
        [sigma] = _weights(cubic, [_cube_coeffs(l)])
        M = (l, (_ZERO, _ONE) if l[1] == 0 else (_ONE, _ZERO))
        return CubicClass("X3", _normalizing_sub(M, cap), sigma)

    if disc == 0:
        # the hessian of l1^2 l2 is a multiple of l1^2, zero if l2 ~ l1
        l1 = _primitive(2 * A, B) if A else _primitive(0, 1)
        sq = (l1[0] ** 2, 2 * l1[0] * l1[1], l1[1] ** 2)
        l2 = _weights(cubic, [sq + (0,), (0,) + sq])
        M = (l1, (l2[0] / 3, l2[1] / 3))
        return CubicClass("X2Y", _normalizing_sub(M, cap), _ONE)

    root = _rational_sqrt(disc)
    if root is None:
        return CubicClass("X3Y3", extension_required={
            "kind": "quadratic", "discriminant": str(disc)})
    if A != 0:
        l1 = _primitive(1, (B - root) / (2 * A))
        l2 = _primitive(1, (B + root) / (2 * A))
    else:
        l1, l2 = _primitive(0, 1), _primitive(B, C)
    l1, l2 = sorted((l1, l2), reverse=True)
    alpha, beta = _weights(cubic, [_cube_coeffs(l1), _cube_coeffs(l2)])
    croot = _rational_cbrt(beta / alpha)
    if croot is None:
        return CubicClass("X3Y3", extension_required={
            "kind": "cubic", "cube_ratio": str(beta / alpha)})
    M = (l1, (croot * l2[0], croot * l2[1]))
    return CubicClass("X3Y3", _normalizing_sub(M, cap), alpha)


# ---------------------------------------------------------------------------
# kill-substitution stages

def _effect_columns(body, moves, window, label):
    """First-order effect of each move on the window, one column per move.

    To first order, letter -> letter + u sends a body word w = a letter b
    to a u b with w's coefficient, once per occurrence of the letter (the
    cyclic-derivative identity of Derksen, Weyman and Zelevinsky). A move
    of degree r reads only the splits (a, b) of words of length d - r + 1
    for d in the window, so only body words of those lengths are split,
    each once, keyed by (letter, length of w); integral coefficients are
    summed as ints. label maps each window word to its row.
    """
    lengths = {d - len(u) + 1 for d in window for _, u in moves}
    splits = {}
    for w, c in body.terms.items():
        if len(w) in lengths:
            if c.denominator == 1:
                c = c.numerator
            for i, ch in enumerate(w):
                splits.setdefault((ch, len(w)), []).append(
                    (w[:i], w[i + 1:], c))
    columns = []
    for letter, u in moves:
        col = {}
        for d in window:
            for a, b, c in splits.get((letter, d - len(u) + 1), ()):
                row = label[a + u + b]
                col[row] = col.get(row, 0) + c
        columns.append({row: v for row, v in col.items() if v})
    return columns


def _gaps(body, label, held):
    """Nonzero negated coefficient sums per row outside held, over the
    window words label maps to a row; only the body's support is walked."""
    gaps = {}
    for w, c in body.terms.items():
        row = label.get(w)
        if row is not None and row not in held:
            gaps[row] = gaps.get(row, _ZERO) - c
    return {row: g for row, g in gaps.items() if g}


def _apply_moves(body, moves, coeffs, cap):
    images = {"x": {"x": _ONE}, "y": {"y": _ONE}}
    used = {}
    for (letter, u), c in zip(moves, coeffs):
        if not c:
            continue
        used["%s+%s" % (letter, u)] = str(c)
        image = images[letter]
        image[u] = image[u] + c if u in image else c
    if not used:
        return body, None, used
    s = Substitution(FreePoly(QQ, images["x"], cap),
                     FreePoly(QQ, images["y"], cap), cap)
    return substitute(body, s), s, used


def _classes(words):
    """Each word's rotation class, a sorted word tuple its class shares."""
    label = {}
    for w in words:
        if w not in label:
            cls = tuple(sorted(set(rotations(w))))
            label.update(dict.fromkeys(cls, cls))
    return label


def _window_stage(body, cap, window, move_degrees, free, trail, stage_log):
    """Solve move coefficients that empty the window but for free words.

    Every window word outside the list free must end at zero; the free
    words are residual coordinates, read back instead of constrained.
    The substitutions act to first order only inside the window (their
    quadratic terms land above it), so one exact linear solve settles the
    stage; the outcome is re-checked on the actually substituted body.
    The solve runs on word coordinates first and, only when that stalls,
    on rotation-class coordinates, where the moved body is replaced by
    its cyclic symmetrization and the classes that still stall are
    logged. The body is not symmetrized before that solve: class gaps
    and columns read only its class sums, which symmetrization keeps, and
    a substitution sends the rotations of a word to rotations of its
    image, of the same lengths, so it commutes with taking class sums
    under the cap.
    """
    words = [w for d in window for w in all_words(d)]
    moves = [(letter, u) for r in move_degrees for letter in "xy"
             for u in all_words(r)]
    for projected in (False, True):
        label = _classes(words) if projected else {w: w for w in words}
        held = {label[w] for w in free if w in label}
        rows = [r for r in dict.fromkeys(label.values()) if r not in held]
        rhs = _gaps(body, label, held)
        if not (rhs or projected):
            stage_log.append({"window": list(window), "skipped": True})
            break
        columns = _effect_columns(body, moves, window, label)
        sol, stalled, _ = solve(columns, rows, rhs, QQ)
        if stalled and not projected:
            continue
        body, s, used = _apply_moves(body, moves, sol, cap)
        if projected:
            body = cyclic_symmetrize(body)
        off = _gaps(body, label, held)
        left = set(off).difference(stalled)
        if left:
            raise AssertionError("stage left %s off target" % sorted(left))
        if s is not None:
            trail.append(s)
        entry = {"window": list(window), "projected": projected,
                 "moves": used}
        if stalled:
            entry["stalled"] = {r[0]: str(-off.get(r, _ZERO))
                                for r in stalled}
        stage_log.append(entry)
        break
    return body, {w: body.coeff(w) for w in free}


_OPTIONAL_KEYS = ("dimension", "representative", "formula", "lower_bound",
                  "inconclusive", "scaling_obstruction", "truncated_above")
"""Report fields that to_json writes only when they are set."""


@dataclass
class ClassificationReport:
    """One classification run: the body being cleaned, the trail of
    substitutions applied to it, the stage log and the global scale, then
    the verdict on the cleaned body.

    Every stage appends to the record: a window stage its substitution
    and log entry, a rescale its diagonal substitution, log entry and
    factor of the global scale. The body is canonical once the stages
    are done.
    """
    canonical: FreePoly = None
    trail: list = dc_field(default_factory=list)
    stage_log: list = dc_field(default_factory=list)
    global_scale: Fraction = _ONE
    cubic: CubicClass = None
    hilbert: tuple = ()
    finite: object = None
    dimension: object = None
    growth: str = ""
    representative: object = None      # dim8 | 9A | 9B | None
    formula: object = None             # {n, k, predicted} for pure tails
    lower_bound: object = None
    inconclusive: object = None
    scaling_obstruction: object = None
    symmetrized_input: bool = False
    truncated_above: object = None

    @property
    def projected_stages(self):
        return sum(1 for e in self.stage_log if e.get("projected"))

    @property
    def stalled_classes(self):
        """Representatives of the rotation classes the stages left."""
        return [w for e in self.stage_log for w in e.get("stalled", {})]

    def window_stage(self, window, move_degrees, free=()):
        """_window_stage on the body, keeping the free words; returns
        their coefficients."""
        self.canonical, coeffs = _window_stage(
            self.canonical, self.canonical.cap, window, move_degrees,
            free, self.trail, self.stage_log)
        return coeffs

    def rescale(self, t, powers):
        """x -> t^a x, y -> t^b y on the body, then division by t^e, for
        powers (a, b, e); t^e joins the global scale."""
        a, b, e = powers
        s = _linear_sub(((t ** a, _ZERO), (_ZERO, t ** b)),
                        self.canonical.cap)
        self.trail.append(s)
        self.stage_log.append({"rescale": str(t), "global_scale": str(t ** e)})
        self.canonical = substitute(self.canonical, s).scale(1 / t ** e)
        self.global_scale *= t ** e

    def require(self, expect, message):
        """Raise unless the body differs from expect on stalled classes
        only."""
        covered = {r for w in self.stalled_classes for r in rotations(w)}
        if any(w not in covered for w in (self.canonical - expect).terms):
            raise AssertionError(message)

    def to_json(self):
        from .parsing import render
        doc = {"cubic": self.cubic.to_json(),
               "hilbert": list(self.hilbert),
               "finite": self.finite,
               "growth": self.growth,
               "projected_stages": self.projected_stages,
               "symmetrized_input": self.symmetrized_input,
               "global_scale": str(self.global_scale)}
        if self.canonical is not None:
            doc["canonical"] = render(self.canonical)
        if self.trail:
            doc["trail"] = [s.to_json() for s in self.trail]
        for key in _OPTIONAL_KEYS:
            if getattr(self, key) is not None:
                doc[key] = getattr(self, key)
        if self.stalled_classes:
            doc["stalled_classes"] = list(self.stalled_classes)
        return doc


def _require_cubic(body, label):
    if body.homogeneous_part(3) != _CANONICAL_CUBICS[label](body.cap):
        raise ValueError("cleanup needs the %s cubic normal form" % label)


def cleanup_x2y(rec: ClassificationReport):
    """Reduce a potential with cubic part cyc(x^2 y) to a pure-y tail.

    Degree by degree every coefficient except the one on y^d is removed
    by solved substitutions, leaving cyc(x^2 y) + y^4 p(y) through the
    cap of the record's body; every stage appends to the record.
    Returns (p, n, k): p[j] multiplies y^(j+4), k is the valuation of p
    and n half the valuation of its even part, both None when the
    relevant part vanishes through the cap (the regime with no
    finiteness certificate) or when some class stalled outside the move
    span and the body is not a pure tail after all.
    """
    cap = rec.canonical.cap
    _require_cubic(rec.canonical, "X2Y")
    for d in range(4, cap + 1):
        rec.window_stage((d,), (d - 2,), ["y" * d])
    tail = [rec.canonical.coeff("y" * d) for d in range(4, cap + 1)]
    expect = _CANONICAL_CUBICS["X2Y"](cap)
    for j, c in enumerate(tail):
        if c:
            expect = expect + FreePoly.term("y" * (j + 4), c, QQ, cap)
    rec.require(expect, "cleanup left non-tail terms")
    if rec.stalled_classes:
        return tail, None, None
    k = next((j for j, c in enumerate(tail) if c), None)
    n_val = next((j for j, c in enumerate(tail) if c and j % 2 == 0), None)
    return tail, n_val // 2 if n_val is not None else None, k


def cleanup_x3y3(rec: ClassificationReport):
    """Reduce a potential with cubic part x^3 + y^3 to the quartic form.

    Stage one empties degree 4 except the rotation class of xyxy, whose
    coefficient beta is forced: no substitution move reaches that class
    at this degree. The moves keep c(xyxy) - c(yxyx); if it is not zero,
    the body is cyclically symmetrized, a projected step (the algebra
    reads class sums only). A nonzero beta is then rescaled to 1. Higher
    degrees are emptied afterwards, odd ones in single stages and even
    ones jointly with the odd degree below, which the even-degree kills
    disturb. When beta is zero the alternating classes at even degrees
    sit outside every move image and stay behind, recorded per stage as
    stalled. Every stage appends to the record; returns beta.
    """
    cap = rec.canonical.cap
    _require_cubic(rec.canonical, "X3Y3")
    res = rec.window_stage((4,), (2,), ["xyxy", "yxyx"])
    if res["yxyx"] != res["xyxy"]:
        rec.canonical = cyclic_symmetrize(rec.canonical)
        rec.stage_log.append({"symmetrized": True, "projected": True})
    beta = rec.canonical.coeff("xyxy")
    if beta and beta != 1:
        rec.rescale(1 / beta, (1, 1, 3))
        beta = _ONE
    for d in range(5, cap + 1):
        if d % 2:
            rec.window_stage((d,), (d - 2,))
        else:
            rec.window_stage((d - 1, d), (d - 3, d - 2))
    expect = _CANONICAL_CUBICS["X3Y3"](cap)
    if beta:
        expect = (expect + FreePoly.term("xyxy", beta, QQ, cap) +
                  FreePoly.term("yxyx", beta, QQ, cap))
    rec.require(expect, "cleanup left terms beyond the quartic form")
    return beta


def _normalize_dim9_tail(rec: ClassificationReport):
    """Scale the y^4 coefficient to 1 and kill y^6, leaving y^5 alone.

    Only potential terms of degree <= 6 matter here: a nine dimensional
    quotient has no words of degree 6, so relations coming from higher
    potential terms already lie in the ideal and the tail above degree 6
    is dropped rather than chased (exact removal of y^7 is impossible,
    the window moves conserve a mixed degree-6/7 class functional). The
    y^5 coefficient is untouchable by the window moves; when nonzero and
    a rational square it is scaled to 1 as well, otherwise its square
    class is reported as an obstruction rather than leaving the field.
    Every stage appends to the record; returns (t5, obstruction).
    """
    cap = rec.canonical.cap
    rec.canonical = rec.canonical.with_cap(6).with_cap(cap)
    rec.stage_log.append({"truncated_above": 6})
    t4 = rec.canonical.coeff("yyyy")
    if not t4:
        raise ValueError("tail normalization needs a nonzero y^4 term")
    if t4 != 1:
        rec.rescale(t4, (2, 1, 5))
    rec.window_stage((5, 6), (3,), ["yyyyy"])
    if rec.stage_log[-1].get("stalled"):
        raise CleanupError("the y^6 kill window stalled on %s"
                           % sorted(rec.stage_log[-1]["stalled"]))
    rec.canonical = rec.canonical.with_cap(6).with_cap(cap)
    t5 = rec.canonical.coeff("yyyyy")
    obstruction = None
    if t5 and t5 != 1:
        s_val = _rational_sqrt(1 / t5)
        if s_val is None:
            obstruction = {"square_class": str(t5)}
        else:
            rec.rescale(s_val, (3, 2, 8))
            t5 = rec.canonical.coeff("yyyyy")
            if t5 != 1:
                raise AssertionError("square scaling missed y^5")
    expect = (_CANONICAL_CUBICS["X2Y"](cap) +
              FreePoly.term("yyyy", _ONE, QQ, cap))
    if t5:
        expect = expect + FreePoly.term("yyyyy", t5, QQ, cap)
    if rec.canonical != expect:
        raise AssertionError("tail normalization left extra terms")
    return t5, obstruction


def dim_formula(n: int, k: int) -> int:
    """Predicted total dimension of the pure-tail family at (n, k)."""
    if k == 2 * n:
        return 3 * (2 * n + 3)
    return 4 * n + k + 9


def _verdict(body, cap, report):
    rels = relations_of(body)
    if not rels:
        report.inconclusive = "zero relations"
        return None
    Q = hilbert(complete(rels, _XY, cap))
    report.hilbert = Q.hilbert
    report.finite = Q.finite
    report.growth = Q.growth
    if Q.finite:
        report.dimension = Q.dimension
        report.inconclusive = None
    else:
        report.lower_bound = sum(Q.hilbert)
        report.inconclusive = "not finite within cap %d" % cap
    return Q


_MAX_CAP = 20
"""Largest cap classify_potential accepts: each cleanup stage lists every
word and every move of its window, so its cost grows about 4.5x per two
cap steps."""


def classify_potential(F, cap=12) -> ClassificationReport:
    """Full pipeline: cubic normal form, cleanup, completion, dimension.

    The body must start in degree 3. When its cubic part is not invariant
    under rotation the whole body is replaced by its cyclic symmetrization
    up front and the report says so; otherwise the body stays literal, and
    as long as no stage fell back to class coordinates the composed trail
    carries the input to the canonical body exactly through the cap (or
    through truncated_above when the nine dimensional tail normalization
    dropped algebra-irrelevant high terms). Dimensions come from the
    completed rewrite system of the cleaned body, cross-checked against
    the closed formula for pure tails.
    """
    if cap > _MAX_CAP:
        raise ResourceCapError("classification cap %d exceeds %d" %
                               (cap, _MAX_CAP))
    body = F.with_cap(cap)
    if body.field != QQ:
        raise FieldError("classification is implemented over QQ")
    if body.is_zero():
        raise ValueError("cannot classify the zero potential")
    if body.min_degree() < 3:
        raise ValueError("classification assumes the potential starts in "
                         "degree 3")
    symmetrized = False
    f3 = body.homogeneous_part(3)
    if not f3.is_zero() and not is_cyclically_invariant(f3):
        body = cyclic_symmetrize(body)
        symmetrized = True

    cls = cubic_class(body)
    report = ClassificationReport(body, cubic=cls,
                                  symmetrized_input=symmetrized)

    if cls.label == "Zero" or cls.extension_required is not None:
        _verdict(body, cap, report)
        return report

    work = substitute(body, cls.transform)
    if cls.sigma != 1:
        work = work.scale(1 / cls.sigma)
    if work.homogeneous_part(3) != _CANONICAL_CUBICS[cls.label](cap):
        raise AssertionError("cubic transform failed to normalize")
    report.canonical = work
    report.trail.append(cls.transform)
    report.global_scale = Fraction(cls.sigma)

    if cls.label == "X3":
        _verdict(work, cap, report)
        return report

    if cls.label == "X2Y":
        _, n, k = cleanup_x2y(report)
        report.formula = {"n": n, "k": k}
        if n is not None:
            report.formula["predicted"] = dim_formula(n, k)
        _verdict(report.canonical, cap, report)
        if n == 0 and k == 0 and report.dimension == 9:
            t5, report.scaling_obstruction = _normalize_dim9_tail(report)
            report.truncated_above = 6
            if not t5:
                report.representative = "9A"
            elif t5 == 1:
                report.representative = "9B"
            if (_verdict(report.canonical, cap, report)
                    and report.dimension != 9):
                raise AssertionError("tail normalization changed dimension")
        return report

    beta = cleanup_x3y3(report)
    _verdict(report.canonical, cap, report)
    if beta and report.dimension == 8 and not report.stalled_classes:
        report.representative = "dim8"
    return report
