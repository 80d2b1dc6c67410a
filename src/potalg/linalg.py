"""Sparse exact row reduction, the one elimination routine of potalg.

Rows are dicts column -> nonzero field element; a row never holds a zero
entry. Columns are in their natural order and a row's pivot is its first
column. A stored pivot row holds no column before its pivot, so a row is
reduced by clearing pivot columns in ascending order, each exactly once.

The elimination runs on integers. Over QQ a row being reduced is kept
as integer numerators, up to a nonzero factor that no caller needs,
and a stored pivot row is primitive: its content is divided out and its
pivot entry is positive. Clearing a column whose entry is a, against a
pivot row whose pivot entry is P, multiplies the row by P / gcd(a, P)
and subtracts a / gcd(a, P) times the pivot row, so no step divides.
Over GF(p) rows are residues and pivot rows are one at the pivot.
Field elements are formed only where rows leave the kernel, in
reduced_rows, which scales rows to one at the pivot.
The two integer steps are module functions, shared with rewrite, whose
rules are primitive rows too: integral takes a row of field elements to
integers over one denominator, and primitive divides out the content
and fixes the sign (over GF(p): scales to one). Both loops are
fraction-free eliminations in the sense of Bareiss (Math. Comp. 1968).

The reduced echelon form of a row space is unique for a fixed column
order. Ranks, pivot columns, the solution with free variables at zero
and the kernel basis therefore do not depend on the order in which rows
are reduced against each other.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


def integral(row, p):
    """A new row of integer numerators over one common denominator D,
    and D; over GF(p) (p > 0) a copy of the residues, and 1."""
    if p:
        return dict(row), 1
    D = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (D // v.denominator)
            for c, v in row.items()}, D


def primitive(row, c, p):
    """The integer row scaled to one at c over GF(p); over QQ (p = 0),
    divided by its content with a positive entry at c. Every nonzero
    multiple of a row gives the same primitive row."""
    if p:
        if row[c] == 1:
            return row
        inv = pow(row[c], -1, p)
        return {k: v * inv % p for k, v in row.items()}
    g = gcd(*row.values())
    if row[c] < 0:
        g = -g
    return {k: v // g for k, v in row.items()}


class Echelon:
    """Incremental echelon form: one integer row per pivot column."""

    def __init__(self, field):
        self.p = field.characteristic
        self.pivots = {}

    def _clear(self, row, pivots):
        """Clear the columns of pivots in the integer row, in place, up
        to a nonzero factor; returns the row."""
        p = self.p
        heap = [c for c in row if c in pivots]
        heapify(heap)
        while heap:
            c = heappop(heap)
            a = row.pop(c, 0)
            if not a:
                continue
            piv = pivots[c]
            lead = piv[c]
            if lead != 1:
                g = gcd(a, lead)
                m = lead // g
                a //= g
                if m != 1:
                    for col in row:
                        row[col] *= m
            for col, v in piv.items():
                if col == c:
                    continue
                got = row.get(col)
                if got is None:
                    row[col] = -a * v % p if p else -a * v
                    if col in pivots:
                        heappush(heap, col)
                else:
                    s = got - a * v
                    if p:
                        s %= p
                    if s:
                        row[col] = s
                    else:
                        del row[col]
        return row

    def add(self, row):
        """Reduce row and store what is left, if anything."""
        self.add_integral(integral(row, self.p)[0])

    def add_integral(self, row):
        """add for a row of integer numerators over any common
        denominator (over GF(p): residues), reduced in place. Returns
        the new pivot column, or None when the row reduces to zero."""
        row = self._clear(row, self.pivots)
        if row:
            c = min(row)
            self.pivots[c] = primitive(row, c, self.p)
            return c

    def reduced_rows(self):
        """The reduced echelon form as {pivot: row}, one at each pivot.

        Rows are finished from the last pivot back; a finished row is
        zero at every other pivot column, so clearing a row against the
        finished rows clears each of its later pivot columns once and
        brings in no other.
        """
        done = {}
        for c in sorted(self.pivots, reverse=True):
            row = self.pivots[c]
            if any(k in done for k in row):
                row = primitive(self._clear(dict(row), done), c, self.p)
            done[c] = row
        if self.p:
            return {c: dict(row) for c, row in done.items()}
        return {c: {k: Fraction(v, row[c]) for k, v in row.items()}
                for c, row in done.items()}


def rank(rows, field):
    """Dimension of the span of the given sparse rows."""
    ech = Echelon(field)
    for row in rows:
        ech.add(row)
    return len(ech.pivots)


def solve(columns, rows, rhs, field):
    """Solve sum_j t_j columns[j] = rhs on the listed row labels.

    columns[j] and rhs map row labels to nonzero values; labels outside
    rows are ignored. Equations are admitted in listed order, and one
    that reduces to a bare right-hand side contradicts those before it:
    it is set aside as stalled. Returns (solution, stalled, reduced),
    where the solution solves every admitted equation with free
    variables at zero, and reduced is the reduced echelon form of the
    admitted equations, with the right-hand side in column len(columns).
    """
    n = len(columns)
    eqs = {r: {} for r in rows}
    for j, col in enumerate(columns):
        for r, v in col.items():
            eq = eqs.get(r)
            if eq is not None:
                eq[j] = v
    ech = Echelon(field)
    stalled = []
    for r in rows:
        eq = eqs[r]
        if rhs.get(r):
            eq[n] = rhs[r]
        if ech.add_integral(integral(eq, ech.p)[0]) == n:
            del ech.pivots[n]
            stalled.append(r)
    reduced = ech.reduced_rows()
    sol = [field.zero] * n
    for p, row in reduced.items():
        sol[p] = row.get(n, field.zero)
    return sol, stalled, reduced


def kernel(reduced, n, field):
    """Basis of the homogeneous solutions in n unknowns.

    One vector per free column, in ascending order: one there, zero at
    the other free columns, pivots read off the reduced rows.
    """
    basis = []
    for j in range(n):
        if j in reduced:
            continue
        vec = [field.zero] * n
        vec[j] = field.one
        for p, row in reduced.items():
            if j in row:
                vec[p] = field.neg(row[j])
        basis.append(vec)
    return basis
