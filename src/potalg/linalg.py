"""Sparse exact row reduction, the one elimination routine of potalg.

Rows are dicts column -> nonzero field element; a row never holds a zero
entry. Columns are ordered by an optional key (their natural order by
default) and a row's pivot is its first column. A stored pivot row holds
no column before its pivot, so a row is reduced by clearing pivot
columns in ascending order, each exactly once.

The elimination runs on integers. Over QQ a row being reduced is kept
as integer numerators over one common denominator D, and a stored pivot
row is primitive: its content is divided out and its pivot entry is
positive. Clearing a column whose entry is a, against a pivot row whose
pivot entry is P, multiplies the row and D by P / gcd(a, P) and
subtracts a / gcd(a, P) times the pivot row, so no step divides. Over
GF(p) rows are residues, pivot rows are one at the pivot and D stays 1.
Field elements are formed only where rows leave the kernel, in reduce
and reduced_rows; only reduced_rows scales rows to one at the pivot.
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

    def __init__(self, field, key=None):
        self.p = field.characteristic
        self.key = key
        self.pivots = {}

    def _clear(self, row, D, pivots):
        """Clear the columns of pivots in the integer row over D, in
        place; returns the row and its new denominator."""
        p, key = self.p, self.key
        heap = [c if key is None else (key(c), c) for c in row if c in pivots]
        heapify(heap)
        while heap:
            c = heappop(heap)
            if key is not None:
                c = c[1]
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
                    D *= m
                    for col in row:
                        row[col] *= m
            for col, v in piv.items():
                if col == c:
                    continue
                got = row.get(col)
                if got is None:
                    row[col] = -a * v % p if p else -a * v
                    if col in pivots:
                        heappush(heap, col if key is None else (key(col), col))
                else:
                    s = got - a * v
                    if p:
                        s %= p
                    if s:
                        row[col] = s
                    else:
                        del row[col]
        return row, D

    def reduce(self, row):
        """A copy of row with every pivot column cleared."""
        row, D = self._clear(*integral(row, self.p), self.pivots)
        if self.p:
            return row
        return {c: Fraction(v, D) for c, v in row.items()}

    def add(self, row):
        """Reduce row and store what is left, if anything."""
        self.add_integral(integral(row, self.p)[0])

    def add_integral(self, row):
        """add for a row of integer numerators over any common
        denominator (over GF(p): residues), reduced in place."""
        row = self._clear(row, 1, self.pivots)[0]
        if row:
            c = min(row, key=self.key)
            self.pivots[c] = primitive(row, c, self.p)

    def reduced_rows(self):
        """The reduced echelon form as {pivot: row}, one at each pivot.

        Rows are finished from the last pivot back; a finished row is
        zero at every other pivot column, so clearing a row against the
        finished rows clears each of its later pivot columns once and
        brings in no other.
        """
        done = {}
        for c in sorted(self.pivots, key=self.key, reverse=True):
            row = self.pivots[c]
            if any(k in done for k in row):
                row = primitive(self._clear(dict(row), 1, done)[0], c, self.p)
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
        eq = ech._clear(*integral(eq, ech.p), ech.pivots)[0]
        if not eq:
            continue
        c = min(eq)
        if c == n:
            stalled.append(r)
        else:
            ech.pivots[c] = primitive(eq, c, ech.p)
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
