"""Cubic normal forms and degree-by-degree potential cleanup.

The pipeline: classify the cubic part of a potential by the Hessian
covariant of its abelianization (a vanishing Hessian is a triple line, a
square one a double line, otherwise the cubic has three distinct lines),
move it to a normal form by an exact linear change of variables, then
strip unwanted higher-degree terms with substitutions x -> x + u,
y -> y + v whose coefficients are solved, degree by degree, from exact
linear systems. Since x -> x + u sends a word a x b to a u b to first
order, a stage splits every body word at every letter once and reads
each move's column from the splits that land in its degree window.

Every cleanup stage first tries the system on full word coordinates; a
solution there keeps the trail a literal change of variables, so composing
it carries the input body to the canonical body exactly through the cap.
When that system is infeasible the stage re-solves on cyclic-class
coordinates and replaces the body by its cyclic symmetrization, which is
the classical computation on potentials taken up to rotation. Reports
record which mode each stage used; dimension claims are always re-derived
from the completed rewrite system of the cleaned body, never from the
trail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .fields import QQ, FieldError
from .freepoly import FreePoly, Substitution, abelianize_cubic, substitute
from .linalg import integral, primitive, solve
from .potential import (cyclic_symmetrize, cyclicize,
                        is_cyclically_invariant, relations_of)
from .quotient import hilbert
from .rewrite import complete
from .words import MonomialOrder, all_words

_XY = MonomialOrder()
_ZERO = Fraction(0)
_ONE = Fraction(1)


class CleanupError(RuntimeError):
    """A cleanup stage had no exact solution in either coordinate system."""


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


def _combine_cubes(l1, a1, l2, a2):
    c1, c2 = _cube_coeffs(l1), _cube_coeffs(l2)
    return tuple(a1 * u + a2 * v for u, v in zip(c1, c2))


def _primitive(p, q):
    """Scale a rational linear form to coprime integers, leading sign +."""
    row = {i: Fraction(c) for i, c in enumerate((p, q)) if c}
    if not row:
        raise ValueError("zero linear form")
    row = primitive(integral(row, 0)[0], min(row), 0)
    return (Fraction(row.get(0, 0)), Fraction(row.get(1, 0)))


def _divide_by_linear(cubic, l):
    """Exact quadratic cofactor (A, B, C) of the cubic by the line l."""
    a, b, c, d = cubic
    p, q = l
    if p != 0:
        A = a / p
        B = (b - A * q) / p
        C = (c - B * q) / p
        if C * q != d:
            raise ValueError("linear form does not divide the cubic")
        return (A, B, C)
    if a != 0:
        raise ValueError("linear form does not divide the cubic")
    return (b / q, c / q, d / q)


def _divide_quadratic_by_linear(quad, l):
    A, B, C = quad
    p, q = l
    if p != 0:
        u = A / p
        v = (B - u * q) / p
        if v * q != C:
            raise ValueError("linear form does not divide the quadratic")
        return (u, v)
    if A != 0:
        raise ValueError("linear form does not divide the quadratic")
    return (B / q, C / q)


def _hessian(cubic):
    a, b, c, d = cubic
    return (4 * (3 * a * c - b * b),
            4 * (9 * a * d - b * c),
            4 * (3 * b * d - c * c))


def _solve_cube_pair(cubic, l1, l2):
    """alpha, beta with cubic = alpha l1^3 + beta l2^3, asserted exact."""
    c1, c2 = _cube_coeffs(l1), _cube_coeffs(l2)
    for i in range(4):
        for j in range(i + 1, 4):
            det = c1[i] * c2[j] - c1[j] * c2[i]
            if det:
                alpha = (cubic[i] * c2[j] - cubic[j] * c2[i]) / det
                beta = (c1[i] * cubic[j] - c1[j] * cubic[i]) / det
                if _combine_cubes(l1, alpha, l2, beta) != tuple(cubic):
                    raise AssertionError("cube-pair solve inconsistent")
                return alpha, beta
    raise AssertionError("cube lines are dependent")


def _invert_2x2(m):
    (a, b), (c, d) = m
    det = a * d - b * c
    if det == 0:
        raise FieldError("singular linear transform")
    return ((d / det, -b / det), (-c / det, a / det))


def _linear_sub(m, cap):
    (a, b), (c, d) = m
    return Substitution.linear(Fraction(a), Fraction(b),
                               Fraction(c), Fraction(d), QQ, cap)


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


def cubic_class(body, cap=None) -> CubicClass:
    """Classify the degree-3 part by the lines of its abelianization f.

    The hessian covariant H of f tells them apart: H vanishes exactly
    when f is a cube of a line (X3); otherwise the discriminant of H is
    zero exactly when f is l1^2 l2 with l1 the double line of H (X2Y);
    otherwise f has three distinct lines (X3Y3) and the two lines of H
    split it into a sum of two cubes. The scale is folded into the
    transform for X2Y (sigma 1); for X3 and X3Y3 sigma carries the
    leftover factor. An already-normal cubic part gets the identity
    transform.
    """
    if body.field != QQ:
        raise FieldError("cubic classification is implemented over QQ")
    if cap is None:
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
        l3 = _cube_coeffs(l)
        idx = next(i for i in range(4) if l3[i])
        sigma = cubic[idx] / l3[idx]
        if _combine_cubes(l, sigma, (_ZERO, _ZERO), _ZERO) != tuple(cubic):
            raise AssertionError("triple-line extraction lost exactness")
        comp = (_ZERO, _ONE) if l[1] == 0 else (_ONE, _ZERO)
        T = _linear_sub(_invert_2x2((l, comp)), cap)
        return CubicClass("X3", T, sigma)

    if disc == 0:
        # the hessian of l1^2 l2 is a multiple of l1^2
        l1 = _primitive(2 * A, B) if A else _primitive(0, 1)
        quad = _divide_by_linear(cubic, l1)
        l2 = _divide_quadratic_by_linear(quad, l1)
        M = (l1, (l2[0] / 3, l2[1] / 3))
        T = _linear_sub(_invert_2x2(M), cap)
        return CubicClass("X2Y", T, _ONE)

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
    alpha, beta = _solve_cube_pair(cubic, l1, l2)
    croot = _rational_cbrt(beta / alpha)
    if croot is None:
        return CubicClass("X3Y3", extension_required={
            "kind": "cubic", "cube_ratio": str(beta / alpha)})
    M = (l1, (croot * l2[0], croot * l2[1]))
    T = _linear_sub(_invert_2x2(M), cap)
    return CubicClass("X3Y3", T, alpha)


# ---------------------------------------------------------------------------
# kill-substitution stages

def _effect_columns(body, moves, window, label):
    """First-order effect of each move on the window, one column per move.

    To first order, letter -> letter + u sends a body word w = a letter b
    to a u b with w's coefficient, once per occurrence of the letter (the
    cyclic-derivative identity of Derksen, Weyman and Zelevinsky). Each
    split (a, b) of a body word is listed once, keyed by (letter, length
    of w); a move of degree r reads only the splits of words of length
    d - r + 1 for d in the window. label maps each window word to its row.
    """
    splits = {}
    for w, c in body.terms.items():
        for i, ch in enumerate(w):
            splits.setdefault((ch, len(w)), []).append((w[:i], w[i + 1:], c))
    columns = []
    for letter, u in moves:
        col = {}
        for d in window:
            for a, b, c in splits.get((letter, d - len(u) + 1), ()):
                row = label[a + u + b]
                col[row] = col.get(row, _ZERO) + c
        columns.append({row: v for row, v in col.items() if v})
    return columns


def _gaps(body, words, targets, label):
    """Nonzero target-minus-coefficient sums of the words, per row."""
    gaps = {}
    for w in words:
        row = label[w]
        gaps[row] = (gaps.get(row, _ZERO) + (targets.get(w) or _ZERO)
                     - body.coeff(w))
    return {row: g for row, g in gaps.items() if g}


def _move_list(move_degrees):
    moves = []
    for r in move_degrees:
        for letter in "xy":
            for u in all_words(r):
                moves.append((letter, u))
    return moves


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


def _window_stage(body, cap, window, move_degrees, targets, trail, stage_log):
    """Solve move coefficients so the window degrees match the target.

    targets maps words to wanted coefficients; words of a window degree
    absent from targets must end at zero, and a None value marks a free
    residual coordinate that is read back instead of constrained. The
    substitutions act to first order only inside the window (their
    quadratic terms land above it), so one exact linear solve settles the
    stage; the outcome is re-checked on the actually substituted body.
    Falls back to cyclic-class coordinates with re-symmetrization when
    word coordinates are infeasible.
    """
    free_words = {w for w, v in targets.items() if v is None}
    words = [w for d in window for w in all_words(d)]
    rows = [w for w in words if w not in free_words]
    word_of = {w: w for w in words}
    rhs = _gaps(body, rows, targets, word_of)
    if not rhs:
        stage_log.append({"window": list(window), "skipped": True})
        return body, {w: body.coeff(w) for w in free_words}

    moves = _move_list(move_degrees)
    columns = _effect_columns(body, moves, window, word_of)
    sol, stalled, _ = solve(columns, rows, rhs, QQ)
    if not stalled:
        body, s, used = _apply_moves(body, moves, sol, cap)
        left = _gaps(body, rows, targets, word_of)
        if left:
            raise AssertionError("stage left %s off target" % sorted(left))
        if s is not None:
            trail.append(s)
        stage_log.append({"window": list(window), "projected": False,
                          "moves": used})
        return body, {w: body.coeff(w) for w in free_words}

    # word coordinates are infeasible: re-solve on rotation classes, each
    # a sorted word tuple, listed in the order their first word is seen
    class_of, crows = {}, []
    for w in words:
        if w not in class_of:
            cls = tuple(sorted({w[i:] + w[:i] for i in range(len(w))}))
            class_of.update(dict.fromkeys(cls, cls))
            if not free_words.intersection(cls):
                crows.append(cls)
    members = [w for cls in crows for w in cls]
    body = cyclic_symmetrize(body)
    ccols = _effect_columns(body, moves, window, class_of)
    crhs = _gaps(body, members, targets, class_of)
    csol, stalled, _ = solve(ccols, crows, crhs, QQ)
    stalled = set(stalled)
    body, s, used = _apply_moves(body, moves, csol, cap)
    body = cyclic_symmetrize(body)
    off = _gaps(body, members, targets, class_of)
    leftover = {}
    for cls in crows:
        if cls in stalled:
            leftover[cls[0]] = str(-off.get(cls, _ZERO))
        elif cls in off:
            raise AssertionError("stage left class %s off target" % (cls,))
    if s is not None:
        trail.append(s)
    entry = {"window": list(window), "projected": True, "moves": used}
    if leftover:
        entry["stalled"] = leftover
    stage_log.append(entry)
    return body, {w: body.coeff(w) for w in free_words}


def _rescale(body, t, powers, cap, gscale, trail, stage_log):
    """The body under x -> t^a x, y -> t^b y, divided by t^e for powers
    (a, b, e), and gscale times t^e; the substitution joins the trail
    and the rescale the stage log."""
    a, b, e = powers
    s = _linear_sub(((t ** a, _ZERO), (_ZERO, t ** b)), cap)
    trail.append(s)
    stage_log.append({"rescale": str(t), "global_scale": str(t ** e)})
    return substitute(body, s).scale(1 / t ** e), gscale * t ** e


def _require_cubic(body, label):
    if body.homogeneous_part(3) != _CANONICAL_CUBICS[label](body.cap):
        raise ValueError("cleanup needs the %s cubic normal form" % label)


def _stall_info(stage_log):
    """Stalled class representatives and the words they cover."""
    reps = [w for e in stage_log for w in e.get("stalled", {})]
    allowed = set()
    for w in reps:
        allowed.update(w[i:] + w[:i] for i in range(len(w)))
    return reps, allowed


@dataclass
class CanonicalX2Y:
    """Pure-y tail of a cleaned double-line potential.

    p[j] multiplies y^(j+4); k is the valuation of p and n half the
    valuation of its even part, both None when the relevant part vanishes
    through the cap (the regime with no finiteness certificate) or when
    some class stalled outside the move span and the body is not a pure
    tail after all.
    """
    p: list
    n: object
    k: object
    trail: list
    body: FreePoly = None
    projected_stages: int = 0
    stalled: list = dc_field(default_factory=list)


def cleanup_x2y(F, cap=12) -> CanonicalX2Y:
    """Reduce a potential with cubic part cyc(x^2 y) to a pure-y tail.

    Degree by degree every coefficient except the one on y^d is removed
    by solved substitutions, leaving cyc(x^2 y) + y^4 p(y) through the
    cap. The trail collects the applied substitutions in order.
    """
    body = F.with_cap(cap)
    _require_cubic(body, "X2Y")
    trail, stage_log = [], []
    for d in range(4, cap + 1):
        body, _ = _window_stage(body, cap, (d,), (d - 2,),
                                {"y" * d: None}, trail, stage_log)
    tail = [body.coeff("y" * d) for d in range(4, cap + 1)]
    expect = _CANONICAL_CUBICS["X2Y"](cap)
    for j, c in enumerate(tail):
        if c:
            expect = expect + FreePoly.term("y" * (j + 4), c, QQ, cap)
    reps, covered = _stall_info(stage_log)
    diff = body - expect
    if any(w not in covered for w in diff.terms):
        raise AssertionError("cleanup left non-tail terms")
    k = next((j for j, c in enumerate(tail) if c), None)
    n_val = next((j for j, c in enumerate(tail) if c and j % 2 == 0), None)
    if reps:
        k = n_val = None
    projected = sum(1 for e in stage_log if e.get("projected"))
    return CanonicalX2Y(tail, n_val // 2 if n_val is not None else None,
                        k, trail, body, projected, reps)


def cleanup_x3y3(F, cap=12):
    """Reduce a potential with cubic part x^3 + y^3 to the quartic form.

    Stage one empties degree 4 except the rotation class of xyxy, whose
    coefficient beta is forced: no substitution move reaches that class
    at this degree. A nonzero beta is then rescaled to 1. Higher degrees
    are emptied afterwards, odd ones in single stages and even ones
    jointly with the odd degree below, which the even-degree kills
    disturb. When beta is zero the alternating classes at even degrees
    sit outside every move image and stay behind, recorded per stage as
    stalled. Returns (body, trail, beta, gscale, stage_log).
    """
    body = F.with_cap(cap)
    _require_cubic(body, "X3Y3")
    trail, stage_log = [], []
    gscale = _ONE
    body, res = _window_stage(body, cap, (4,), (2,),
                              {"xyxy": None, "yxyx": None}, trail, stage_log)
    beta = res["xyxy"]
    if res["yxyx"] != beta:
        raise AssertionError("the xyxy rotation class lost its symmetry")
    if beta and beta != 1:
        body, gscale = _rescale(body, 1 / beta, (1, 1, 3), cap, gscale,
                                trail, stage_log)
        beta = _ONE
    for d in range(5, cap + 1):
        if d % 2:
            body, _ = _window_stage(body, cap, (d,), (d - 2,), {},
                                    trail, stage_log)
        else:
            body, _ = _window_stage(body, cap, (d - 1, d), (d - 3, d - 2),
                                    {}, trail, stage_log)
    expect = _CANONICAL_CUBICS["X3Y3"](cap)
    if beta:
        expect = (expect + FreePoly.term("xyxy", beta, QQ, cap) +
                  FreePoly.term("yxyx", beta, QQ, cap))
    _, covered = _stall_info(stage_log)
    diff = body - expect
    if any(w not in covered for w in diff.terms):
        raise AssertionError("cleanup left terms beyond the quartic form")
    return body, trail, beta, gscale, stage_log


def _normalize_dim9_tail(body, cap):
    """Scale the y^4 coefficient to 1 and kill y^6, leaving y^5 alone.

    Only potential terms of degree <= 6 matter here: a nine dimensional
    quotient has no words of degree 6, so relations coming from higher
    potential terms already lie in the ideal and the tail above degree 6
    is dropped rather than chased (exact removal of y^7 is impossible,
    the window moves conserve a mixed degree-6/7 class functional). The
    y^5 coefficient is untouchable by the window moves; when nonzero and
    a rational square it is scaled to 1 as well, otherwise its square
    class is reported as an obstruction rather than leaving the field.
    Returns (body, trail, stage_log, t5, obstruction, gscale).
    """
    trail, stage_log = [], []
    gscale = _ONE
    body = body.with_cap(6).with_cap(cap)
    stage_log.append({"truncated_above": 6})
    t4 = body.coeff("yyyy")
    if not t4:
        raise ValueError("tail normalization needs a nonzero y^4 term")
    if t4 != 1:
        body, gscale = _rescale(body, t4, (2, 1, 5), cap, gscale, trail,
                                stage_log)
    body, _ = _window_stage(body, cap, (5, 6), (3,), {"yyyyy": None},
                            trail, stage_log)
    if stage_log[-1].get("stalled"):
        raise CleanupError("the y^6 kill window stalled on %s"
                           % sorted(stage_log[-1]["stalled"]))
    body = body.with_cap(6).with_cap(cap)
    t5 = body.coeff("yyyyy")
    obstruction = None
    if t5 and t5 != 1:
        s_val = _rational_sqrt(1 / t5)
        if s_val is None:
            obstruction = {"square_class": str(t5)}
        else:
            body, gscale = _rescale(body, s_val, (3, 2, 8), cap, gscale,
                                    trail, stage_log)
            t5 = body.coeff("yyyyy")
            if t5 != 1:
                raise AssertionError("square scaling missed y^5")
    expect = (_CANONICAL_CUBICS["X2Y"](cap) +
              FreePoly.term("yyyy", _ONE, QQ, cap))
    if t5:
        expect = expect + FreePoly.term("yyyyy", t5, QQ, cap)
    if body != expect:
        raise AssertionError("tail normalization left extra terms")
    return body, trail, stage_log, t5, obstruction, gscale


def dim_formula(n: int, k: int) -> int:
    """Predicted total dimension of the pure-tail family at (n, k)."""
    if k == 2 * n:
        return 3 * (2 * n + 3)
    return 4 * n + k + 9


@dataclass
class ClassificationReport:
    cubic: CubicClass
    canonical: object = None
    trail: list = dc_field(default_factory=list)
    hilbert: tuple = ()
    finite: object = None
    dimension: object = None
    growth: str = ""
    representative: object = None      # dim8 | 9A | 9B | None
    formula: object = None             # {n, k, predicted} for pure tails
    lower_bound: object = None
    inconclusive: object = None
    projected_stages: int = 0
    scaling_obstruction: object = None
    symmetrized_input: bool = False
    truncated_above: object = None
    stalled_classes: list = dc_field(default_factory=list)
    global_scale: Fraction = _ONE
    stage_log: list = dc_field(default_factory=list)

    def composed_trail(self, cap) -> Substitution:
        s = Substitution.identity(QQ, cap)
        for step in self.trail:
            s = s.then(step)
        return s

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
        if self.dimension is not None:
            doc["dimension"] = self.dimension
        if self.representative is not None:
            doc["representative"] = self.representative
        if self.formula is not None:
            doc["formula"] = dict(self.formula)
        if self.lower_bound is not None:
            doc["lower_bound"] = self.lower_bound
        if self.inconclusive is not None:
            doc["inconclusive"] = self.inconclusive
        if self.scaling_obstruction is not None:
            doc["scaling_obstruction"] = self.scaling_obstruction
        if self.truncated_above is not None:
            doc["truncated_above"] = self.truncated_above
        if self.stalled_classes:
            doc["stalled_classes"] = list(self.stalled_classes)
        return doc


def _verdict(body, cap, report):
    rels = [g for g in relations_of(body) if not g.is_zero()]
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

    cls = cubic_class(body, cap)
    report = ClassificationReport(cls, symmetrized_input=symmetrized)

    if cls.label == "Zero" or cls.extension_required is not None:
        report.canonical = body
        _verdict(body, cap, report)
        return report

    work = substitute(body, cls.transform)
    if cls.sigma != 1:
        work = work.scale(1 / cls.sigma)
    if work.homogeneous_part(3) != _CANONICAL_CUBICS[cls.label](cap):
        raise AssertionError("cubic transform failed to normalize")
    report.trail.append(cls.transform)
    report.global_scale = Fraction(cls.sigma)

    if cls.label == "X3":
        report.canonical = work
        _verdict(work, cap, report)
        return report

    if cls.label == "X2Y":
        canon = cleanup_x2y(work, cap)
        report.trail.extend(canon.trail)
        report.projected_stages = canon.projected_stages
        report.stalled_classes = list(canon.stalled)
        report.canonical = canon.body
        report.formula = {"n": canon.n, "k": canon.k}
        if canon.n is not None:
            report.formula["predicted"] = dim_formula(canon.n, canon.k)
        _verdict(canon.body, cap, report)
        if canon.n == 0 and canon.k == 0 and report.dimension == 9:
            (body9, trail2, log2, t5, obstruction,
             gscale9) = _normalize_dim9_tail(canon.body, cap)
            report.trail.extend(trail2)
            report.stage_log.extend(log2)
            report.global_scale *= gscale9
            report.projected_stages += sum(
                1 for e in log2 if e.get("projected"))
            report.canonical = body9
            report.scaling_obstruction = obstruction
            report.truncated_above = 6
            if not t5:
                report.representative = "9A"
            elif t5 == 1:
                report.representative = "9B"
            if _verdict(body9, cap, report) and report.dimension != 9:
                raise AssertionError("tail normalization changed dimension")
        return report

    body8, trail8, beta, gscale8, log8 = cleanup_x3y3(work, cap)
    report.trail.extend(trail8)
    report.stage_log.extend(log8)
    report.global_scale *= gscale8
    report.projected_stages = sum(1 for e in log8 if e.get("projected"))
    report.stalled_classes = _stall_info(log8)[0]
    report.canonical = body8
    _verdict(body8, cap, report)
    if beta and report.dimension == 8 and not report.stalled_classes:
        report.representative = "dim8"
    return report
