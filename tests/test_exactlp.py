"""Tests for cuspk.exactlp: the fraction-free tableau against the dense
Fraction tableau it replaced, and its input checks."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from cuspk.errors import PreconditionViolation, TheoremViolation
from cuspk.exactlp import SimplexTableau


class ReferenceTableau:
    """Dense Fraction tableau with Bland's rule, every reduced cost priced
    from the basis: the algorithm that SimplexTableau replaced, without
    its certificate re-checks."""

    def __init__(self, columns, rhs):
        m, n = len(rhs), len(columns)
        self.bases = []
        flip = [-1 if r < 0 else 1 for r in rhs]
        self.T = [[Fraction(col[i] * flip[i]) for col in columns]
                  + [Fraction(int(k == i)) for k in range(m)]
                  + [Fraction(rhs[i] * flip[i])] for i in range(m)]
        self.basis = [n + i for i in range(m)]
        cost = [0] * n + [1] * m
        assert self._solve(cost)
        if any(row[-1] for b, row in zip(self.basis, self.T) if b >= n):
            self.status = "infeasible"
            self.farkas = [self._price(cost, n + i) * flip[i] for i in range(m)]
            return
        self.status = "feasible"
        self.T = [row[:n] + row[-1:] for row in self.T]
        keep = []
        for i in range(m):
            if self.basis[i] >= n:
                j = next((j for j in range(n) if self.T[i][j]), None)
                if j is None:
                    continue
                self._pivot(i, j)
            keep.append(i)
        self.T = [self.T[i] for i in keep]
        self.basis = [self.basis[i] for i in keep]
        self.ncols = n

    def _price(self, cost, j):
        return sum(cost[b] * row[j] for b, row in zip(self.basis, self.T))

    def _solve(self, cost):
        T, basis = self.T, self.basis
        while True:
            enter = next((j for j in range(len(cost))
                          if cost[j] < self._price(cost, j)), -1)
            if enter < 0:
                return True
            leave, best = -1, None
            for i in range(len(T)):
                if T[i][enter] > 0:
                    ratio = T[i][-1] / T[i][enter]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        leave, best = i, ratio
            if leave < 0:
                return False
            self._pivot(leave, enter)

    def _pivot(self, leave, enter):
        T = self.T
        piv = T[leave][enter]
        prow = T[leave] = [v / piv for v in T[leave]]
        for i, row in enumerate(T):
            if i != leave and row[enter]:
                T[i] = [a - row[enter] * b for a, b in zip(row, prow)]
        self.basis[leave] = enter
        self.bases.append(tuple(self.basis))

    def solution(self):
        lam = [Fraction(0)] * self.ncols
        for b, row in zip(self.basis, self.T):
            lam[b] = row[-1]
        return lam

    def optimize(self, objective, maximize=False):
        cost = [-Fraction(c) if maximize else Fraction(c) for c in objective]
        if not self._solve(cost):
            return "unbounded", None, None
        lam = self.solution()
        return "optimal", sum(Fraction(o) * v for o, v in zip(objective, lam)), lam


class Recording(SimplexTableau):
    """SimplexTableau that logs its basis after every pivot."""

    def __init__(self, columns, rhs):
        self.bases = []
        super().__init__(columns, rhs)

    def _pivot(self, leave, enter, d=None):
        super()._pivot(leave, enter, d)
        self.bases.append(tuple(self.basis))


def assert_same_tableau(tab, ref, scale):
    """T / D is the reference tableau, up to the scaling by the common
    denominator L: rows with an artificial basic variable are L times
    theirs, and the artificial columns 1/L times theirs."""
    ncols = len(tab.columns)
    assert tab.D > 0
    assert len(tab.T) == len(ref.T)
    for b, row, ref_row in zip(tab.basis, tab.T, ref.T):
        s = scale if b >= ncols else 1
        expected = [s * v if j < ncols or j == len(ref_row) - 1 else s * v / scale
                    for j, v in enumerate(ref_row)]
        assert [Fraction(v, tab.D) for v in row] == expected


dyadic = st.builds(lambda k, e: Fraction(k, 1 << e), st.integers(-4, 4), st.integers(0, 3))


@st.composite
def lp_data(draw):
    rows = draw(st.integers(1, 3))
    ncols = draw(st.integers(1, 5))
    cols = draw(st.lists(st.lists(dyadic, min_size=rows, max_size=rows),
                         min_size=ncols, max_size=ncols))
    if draw(st.booleans()):
        # rhs from a non-negative combination, so the LP is feasible
        weights = draw(st.lists(st.integers(0, 2), min_size=ncols, max_size=ncols))
        rhs = [sum(w * col[i] for w, col in zip(weights, cols)) for i in range(rows)]
    else:
        rhs = draw(st.lists(dyadic, min_size=rows, max_size=rows))
    if draw(st.booleans()):
        # a multiple of a row, so one row becomes redundant
        k, f = draw(st.integers(0, rows - 1)), draw(dyadic)
        cols = [col + [f * col[k]] for col in cols]
        rhs = rhs + [f * rhs[k]]
    if draw(st.booleans()):
        # col - col = 0 is a recession direction, so some objectives are unbounded
        cols = cols + [[-v for v in cols[draw(st.integers(0, ncols - 1))]]]
    objectives = draw(st.lists(st.lists(dyadic, min_size=len(cols), max_size=len(cols)),
                               min_size=1, max_size=3))
    queries = draw(st.lists(st.tuples(st.integers(0, len(objectives) - 1), st.booleans()),
                            min_size=1, max_size=4))
    return cols, rhs, objectives, queries


@given(lp_data())
@settings(max_examples=200, deadline=None)
def test_matches_the_dense_fraction_tableau(data):
    cols, rhs, objectives, queries = data
    scale = lcm(*(v.denominator for v in rhs + [x for col in cols for x in col]))
    tab, ref = Recording(cols, rhs), ReferenceTableau(cols, rhs)
    assert tab.status == ref.status
    assert tab.bases == ref.bases
    assert tab.basis == ref.basis
    assert_same_tableau(tab, ref, scale)
    if ref.status == "infeasible":
        assert tab.farkas == ref.farkas
        return
    assert tab.solution() == ref.solution()
    for k, maximize in queries:
        assert tab.optimize(objectives[k], maximize) == ref.optimize(objectives[k], maximize)
        assert tab.bases == ref.bases
        assert_same_tableau(tab, ref, scale)


def test_negative_pivot_keeps_the_denominator_positive():
    # the artificial of row 1 stays basic at level 0 after phase 1 and is
    # driven out on the entry -1
    cols = [[1, 0], [0, -1]]
    tab, ref = Recording(cols, [1, 0]), ReferenceTableau(cols, [1, 0])
    assert tab.bases == ref.bases and tab.basis == [0, 1]
    assert_same_tableau(tab, ref, 1)
    assert tab.optimize([0, 1], maximize=True) == ("optimal", 0, [1, 0])


def test_optimize_on_an_infeasible_tableau_raises():
    tab = SimplexTableau([[1], [1]], [-1])
    assert tab.status == "infeasible"
    with pytest.raises(PreconditionViolation, match="infeasible"):
        tab.optimize([1, 0])
    with pytest.raises(PreconditionViolation, match="infeasible"):
        tab.solution()


@pytest.mark.parametrize("value", [1.5, True, "1"], ids=["float", "bool", "str"])
def test_non_exact_entry_rejected(value):
    with pytest.raises(ValueError, match="column entry"):
        SimplexTableau([[value], [1]], [1])
    with pytest.raises(ValueError, match="rhs entry"):
        SimplexTableau([[1], [1]], [value])
    tab = SimplexTableau([[1], [1]], [1])
    with pytest.raises(ValueError, match="objective entry"):
        tab.optimize([value, 0])


def add_D_to_rhs(tab, leave, d):
    tab.T[leave][-1] += tab.D


def add_D_to_prices(tab, leave, d):
    d[:-1] = [v + tab.D for v in d[:-1]]


@pytest.mark.parametrize("cols,rhs,corrupt,check", [
    ([[1, 0], [0, 1]], [1, 1], add_D_to_rhs, "does not meet the rhs"),
    ([[1, 2], [2, 1]], [1, -1], add_D_to_prices, "Farkas functional"),
], ids=["solution", "farkas"])
def test_a_corrupted_pivot_raises(monkeypatch, cols, rhs, corrupt, check):
    pivot = SimplexTableau._pivot
    calls = []

    def corrupted(self, leave, enter, d=None):
        pivot(self, leave, enter, d)
        if not calls:
            corrupt(self, leave, d)
        calls.append(leave)

    tab = SimplexTableau(cols, rhs)
    assert tab.status == ("infeasible" if corrupt is add_D_to_prices else "feasible")
    monkeypatch.setattr(SimplexTableau, "_pivot", corrupted)
    with pytest.raises(TheoremViolation, match=check):
        SimplexTableau(cols, rhs).solution()
    assert calls
