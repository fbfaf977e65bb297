"""Exact linear programming on a fraction-free simplex tableau.

`SimplexTableau` decides { lam >= 0 : sum lam_j col_j = rhs } for columns
and a right-hand side of ints and Fractions, and optimizes linear
objectives over that set.  Phase 1 runs once; every objective warm-starts
phase 2 from the basis the previous one left.  The pivots are the
integer-preserving pivots of Edmonds (J. Res. NBS 71B, 1967) and Bareiss
(Math. Comp. 22, 1968), so the tableau holds Python ints and every
division is exact.  Each certificate is re-checked in Fraction against the
original columns before it is handed out; a failed re-check raises
TheoremViolation, never an `assert`, which `python -O` would strip.

The module imports only the error types, so a suite that runs LPs loads
neither the Smith form nor the chain complexes.  No floating point enters.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from cuspk.errors import (DimensionMismatch, PreconditionViolation,
                          TheoremViolation)


def _common_denominator(values, what: str) -> int:
    """The lcm of the denominators of values, each an int or a Fraction."""
    dens = set()
    for v in values:
        if type(v) is Fraction:
            dens.add(v.denominator)
        elif type(v) is not int:
            raise ValueError(f"{what} entry {v!r} is not an int or a Fraction")
    return lcm(*dens)


class SimplexTableau:
    """Integer simplex tableau over { lam >= 0 : sum lam_j col_j = rhs }.

    Construction runs phase 1 once, with one artificial column per row and
    Bland's rule, and sets status to "feasible" or "infeasible".  When
    infeasible, farkas holds y with y . col_j <= 0 for every column and
    y . rhs > 0, read from the reduced costs of the artificial columns.
    When feasible, the artificials are driven out of the basis, rows left
    without a pivot are dropped as redundant, and each optimize() call
    warm-starts phase 2 from the current feasible basis.  Every
    certificate is re-checked against the original columns before it is
    handed out.

    Invariant: the true tableau is T / D, where T is a list of rows of
    ints and D > 0 is the determinant of the current basis, up to sign.
    A pivot on the entry p = T[r][e] sets T'[i] = (p*T[i] - T[i][e]*T[r]) // D
    for every row i != r, keeps T[r] and sets D' = p, the new basis
    determinant.  By Cramer's rule D' times the new true tableau is
    integral, and that is what the numerator divided by D equals, so every
    division is exact.  When p < 0 (only while artificials are driven out
    after phase 1), every row is negated so that D stays positive and the
    ratio test and the signs of reduced costs read as in the true tableau.
    A dropped redundant row has an artificial basic variable, and
    expanding the determinant along that artificial's column shows that D
    is also the determinant of the basis of the rows that remain.  The
    reduced-cost row d of each solve is one more row over the same D and
    takes the same pivot.

    The input enters T multiplied by L, the lcm of every denominator of
    the columns and the rhs.  One factor for all rows keeps the solution
    set, and only rescales each artificial by L: the rows whose basic
    variable is an artificial scale by L, the phase-1 reduced costs of the
    real columns scale by L > 0, and the ratios of the ratio test compare
    entries of one row.  So Bland's rule takes the same pivots, lam is
    the same, and the Farkas y, the phase-1 prices of the artificial
    columns, is the same as on the unscaled data.
    """

    def __init__(self, columns, rhs):
        m, n = len(rhs), len(columns)
        for col in columns:
            if len(col) != m:
                raise DimensionMismatch("column length mismatch")
        self.columns, self.rhs = columns, rhs
        L = lcm(_common_denominator((x for col in columns for x in col), "column"),
                _common_denominator(rhs, "rhs"))
        flip = [-1 if rhs[i] < 0 else 1 for i in range(m)]
        # rows of the tableau: n real columns, m artificial columns, rhs
        self.T = []
        for i in range(m):
            s = flip[i] * L
            row = [col[i].numerator * (s // col[i].denominator) for col in columns]
            row += [1 if k == i else 0 for k in range(m)]
            row.append(rhs[i].numerator * (s // rhs[i].denominator))
            self.T.append(row)
        self.D = 1
        self.basis = [n + i for i in range(m)]
        # phase 1 costs 1 on each artificial and 0 on each real column
        d = [0] * (n + m + 1)
        for row in self.T:
            d = [x - v for x, v in zip(d, row)]
        d[n:n + m] = [0] * m
        if not self._solve(d):
            raise TheoremViolation("phase 1 is unbounded, but its objective "
                                   "is bounded below by 0")
        if any(row[-1] for b, row in zip(self.basis, self.T) if b >= n):
            self.status = "infeasible"
            # the price of artificial i is its cost 1 minus its reduced cost
            D = self.D
            y = [Fraction(D - d[n + i], D) * flip[i] for i in range(m)]
            if any(sum(y[i] * col[i] for i in range(m)) > 0 for col in columns):
                raise TheoremViolation("Farkas functional is positive on a column")
            if sum(y[i] * rhs[i] for i in range(m)) <= 0:
                raise TheoremViolation("Farkas functional is not positive on the rhs")
            self.farkas = y
            return
        self.status = "feasible"
        # artificials never re-enter, so their columns are dropped
        self.T = [row[:n] + row[-1:] for row in self.T]
        keep = []
        for i in range(m):
            if self.basis[i] >= n:
                pivot_col = next((j for j in range(n) if self.T[i][j] != 0), None)
                if pivot_col is None:
                    continue
                self._pivot(i, pivot_col)
            keep.append(i)
        self.T = [self.T[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]

    def _solve(self, d) -> bool:
        """Pivot by Bland's rule until no reduced cost d[j] (the last
        entry of d is the objective's) is negative; False if unbounded."""
        T, basis = self.T, self.basis
        ncols = len(d) - 1
        while True:
            enter = next((j for j in range(ncols) if d[j] < 0), -1)
            if enter < 0:
                return True
            # least ratio T[i][-1] / T[i][enter], compared cross-multiplied
            leave = -1
            for i, row in enumerate(T):
                a = row[enter]
                if a > 0:
                    if leave < 0:
                        leave = i
                        continue
                    lhs, rhs = row[-1] * T[leave][enter], T[leave][-1] * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave = i
            if leave < 0:
                return False
            self._pivot(leave, enter, d)

    def _pivot(self, leave, enter, d=None):
        T, D = self.T, self.D
        prow = T[leave]
        p = prow[enter]

        def step(row):
            f = row[enter]
            if f:
                return [(p * a - f * b) // D for a, b in zip(row, prow)]
            return row if p == D else [p * a // D for a in row]

        for i, row in enumerate(T):
            if i != leave:
                T[i] = step(row)
        if d is not None:
            d[:] = step(d)
        if p < 0:
            for i, row in enumerate(T):
                T[i] = [-a for a in row]
            p = -p
        self.D = p
        self.basis[leave] = enter

    def solution(self) -> list:
        """The current basic solution lam, re-checked against the columns."""
        if self.status != "feasible":
            raise PreconditionViolation("an infeasible tableau has no solution")
        lam = [Fraction(0)] * len(self.columns)
        for b, row in zip(self.basis, self.T):
            lam[b] = Fraction(row[-1], self.D)
        if any(v < 0 for v in lam):
            raise TheoremViolation("basic solution has a negative entry")
        used = [(v, col) for v, col in zip(lam, self.columns) if v]
        if any(sum(v * col[i] for v, col in used) != r
               for i, r in enumerate(self.rhs)):
            raise TheoremViolation("basic solution does not meet the rhs")
        return lam

    def optimize(self, objective, maximize=False):
        """Optimize objective . lam from the current feasible basis.

        Returns ("optimal", value, lam) or ("unbounded", None, None); the
        basis stays where phase 2 stopped, so the next call starts there.
        """
        if self.status != "feasible":
            raise PreconditionViolation("optimize() needs a feasible tableau; "
                                        "this one is infeasible (see farkas)")
        if len(objective) != len(self.columns):
            raise DimensionMismatch("objective length mismatch")
        scale = _common_denominator(objective, "objective")
        sign = -1 if maximize else 1
        cost = [c.numerator * (sign * scale // c.denominator) for c in objective]
        d = [self.D * c for c in cost] + [0]
        for b, row in zip(self.basis, self.T):
            if cost[b]:
                d = [x - cost[b] * v for x, v in zip(d, row)]
        if not self._solve(d):
            return "unbounded", None, None
        lam = self.solution()
        value = sum(o * v for o, v in zip(objective, lam))
        if value != sign * Fraction(-d[-1], self.D * scale):
            raise TheoremViolation("objective value of the solution differs "
                                   "from the tableau's")
        return "optimal", value, lam
