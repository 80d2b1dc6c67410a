"""Sparse exact row reduction, the one elimination routine of potalg.

Rows are dicts column -> nonzero field element; a row never holds a zero
entry. Columns are ordered by an optional key (their natural order by
default) and a row's pivot is its first column. Pivot rows are scaled to
one at the pivot and hold no column before it, so a row is reduced by
clearing pivot columns in ascending order, each exactly once.

The reduced echelon form of a row space is unique for a fixed column
order. Ranks, pivot columns, the solution with free variables at zero
and the kernel basis therefore do not depend on the order in which rows
are reduced against each other.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush


class Echelon:
    """Incremental echelon form: one scaled row per pivot column."""

    def __init__(self, field, key=None):
        self.field = field
        self.key = key
        self.pivots = {}

    def _entry(self, col):
        return col if self.key is None else (self.key(col), col)

    def reduce(self, row):
        """A copy of row with every pivot column cleared."""
        f, pivots = self.field, self.pivots
        row = dict(row)
        heap = [self._entry(c) for c in row if c in pivots]
        heapify(heap)
        while heap:
            c = heappop(heap)
            if self.key is not None:
                c = c[1]
            a = row.pop(c, None)
            if a is None:
                continue
            for col, v in pivots[c].items():
                if col == c:
                    continue
                got = row.get(col)
                if got is None:
                    row[col] = f.neg(f.mul(a, v))
                    if col in pivots:
                        heappush(heap, self._entry(col))
                else:
                    s = f.sub(got, f.mul(a, v))
                    if s:
                        row[col] = s
                    else:
                        del row[col]
        return row

    def insert(self, row):
        """Store a reduced nonzero row, scaled, under its pivot."""
        f = self.field
        p = min(row, key=self.key)
        inv = f.inv(row[p])
        self.pivots[p] = {c: f.mul(v, inv) for c, v in row.items()}

    def add(self, row):
        """Reduce row and store what is left, if anything."""
        row = self.reduce(row)
        if row:
            self.insert(row)

    def reduced_rows(self):
        """The reduced echelon form as {pivot: row}.

        Rows are finished from the last pivot back; a finished row is
        zero at every other pivot column, so one pass over the original
        entries of each row clears them all.
        """
        f = self.field
        done = {}
        for p in sorted(self.pivots, key=self.key, reverse=True):
            row = self.pivots[p]
            new = dict(row)
            for c, a in row.items():
                if c == p or c not in done:
                    continue
                for col, v in done[c].items():
                    s = f.sub(new.get(col, f.zero), f.mul(a, v))
                    if s:
                        new[col] = s
                    else:
                        new.pop(col, None)
            done[p] = new
        return done


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
        eq = ech.reduce(eq)
        if not eq:
            continue
        if min(eq) == n:
            stalled.append(r)
        else:
            ech.insert(eq)
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
