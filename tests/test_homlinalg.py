"""Tests for cuspk.homlinalg.

The Smith form is checked against an independent oracle: the k-th
determinant divisor (gcd of all k x k minors), which determines the
invariant factors as quotients D_k / D_{k-1}.  Homology examples are
hand-checkable complexes (circle, sphere, projective plane), and random
direct sums of Z and Z --d--> Z conjugated by unimodular matrices, whose
homology is known from the summands.  Construction, which checks d ∘ d = 0
only on the rows of a reduced complex, is checked against the full
products d_q d_{q+1} and the Smith forms of the unreduced boundaries.
"""

import functools
import itertools
import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cuspk import cyclicbar, homlinalg
from cuspk.cyclicbar import (connes_factor_bar, connes_factor_small,
                             relative_bar_complex, relative_cone)
from cuspk.errors import ComplexInvalid, DimensionMismatch, NotAChainMap
from cuspk.exactlp import SimplexTableau
from cuspk.homlinalg import (
    ChainComplex,
    HomologyEngine,
    HomologySummary,
    SparseIntMatrix,
    _annihilates,
    _coreduce,
    _replay,
    _snf_work_run,
    _SnfWork,
    feasibility_certificate,
    homology,
    lp_optimize,
    lp_separate,
    mapping_cone,
    smith_normal_form,
)
from cuspk.semigroup import Params, ell
from cuspk.simplicialx import build_sigma, x_complex


def from_entries(nrows, ncols, entries):
    """The matrix with the given {(row, column): value} entries; zero
    values leave no entry, and each row lists its columns in the order
    the entries give them."""
    rows = [{} for _ in range(nrows)]
    for (r, c), v in entries.items():
        if v:
            rows[r][c] = v
    return SparseIntMatrix(nrows, ncols, rows)


def from_dense(dense):
    ncols = len(dense[0]) if dense else 0
    return SparseIntMatrix(len(dense), ncols,
                           [{c: v for c, v in enumerate(row) if v} for row in dense])


def identity(n):
    return SparseIntMatrix(n, n, [{i: 1} for i in range(n)])


def diagonal(diag, nrows, ncols):
    return from_entries(nrows, ncols, {(i, i): d for i, d in enumerate(diag)})


def to_dense(M):
    return [[M._rows[r].get(c, 0) for c in range(M.ncols)] for r in range(M.nrows)]


def product(*factors):
    """The matrix product of the factors, left to right; the package
    multiplies no matrices, so the tests keep their own product."""
    out = factors[0]
    for M in factors[1:]:
        assert out.ncols == M.nrows
        rows = []
        for r in range(out.nrows):
            acc = {}
            for k, v in out._rows[r].items():
                for c, w in M._rows[k].items():
                    acc[c] = acc.get(c, 0) + v * w
            rows.append({c: v for c, v in acc.items() if v})
        out = SparseIntMatrix(out.nrows, M.ncols, rows)
    return out


def complex_of(basis, boundaries):
    """The complex with the given bases and d_q = boundaries[q]: the faces
    of a label are its column of the matrix of its degree, read against
    the basis one degree down.  Labels must differ across degrees."""
    column = {}
    for q, d in boundaries.items():
        for (r, c), v in entries(d):
            column.setdefault(basis[q][c], []).append((basis[q - 1][r], v))
    return ChainComplex(basis, lambda lbl: column.get(lbl, ()))


def boundaries_of(C):
    """The matrix of d_q at each degree q of C's basis."""
    return {q: C.boundary(q) for q in C.basis}


def entries(M):
    """((row, column), value) of each nonzero entry of M, row by row."""
    for r in range(M.nrows):
        for c, v in M._rows[r].items():
            yield (r, c), v


def chain_vector(C, q, chain):
    """The coordinate vector on the basis of C_q of a {label: coeff} chain."""
    index = {lbl: i for i, lbl in enumerate(C.basis.get(q, ()))}
    vec = [0] * C.dim(q)
    for lbl, coeff in chain.items():
        vec[index[lbl]] = coeff
    return vec


def add_row(dst, src, t):
    """dst += t * src on {index: value} dicts, dropping zeros."""
    for k, v in src.items():
        dst[k] = dst.get(k, 0) + t * v
        if not dst[k]:
            del dst[k]


def dense_transforms(log, order):
    """T and T^-1 from a Smith form's log, in its pivot-first order.

    T is U for a row log and V^-1 for a column log, the product of the
    logged row operations x[i] += t * x[j] ((r, r, -1) negates x[r]).
    Each operation is replayed on the rows of an identity matrix, which
    gives T, and, inverted, on the columns of another, which gives T^-1;
    T keeps its rows and T^-1 its columns in the order given.
    """
    n = len(order)
    rows = [{i: 1} for i in range(n)]
    cols = [{i: 1} for i in range(n)]
    it = iter(log)
    for i, j, t in zip(it, it, it):
        if i == j:
            rows[i] = {c: -v for c, v in rows[i].items()}
            cols[i] = {r: -v for r, v in cols[i].items()}
        else:
            add_row(rows[i], rows[j], t)   # T <- E T
            add_row(cols[j], cols[i], -t)  # T^-1 <- T^-1 E^-1
    inv = [{} for _ in range(n)]
    for c, i in enumerate(order):
        for r, v in cols[i].items():
            inv[r][c] = v
    return (SparseIntMatrix(n, n, [rows[i] for i in order]),
            SparseIntMatrix(n, n, inv))


class DenseTransformEngine(HomologyEngine):
    """HomologyEngine as it was with dense transforms, the oracle of the
    log engine: V^-1 d_{q+1} is a sparse product, generator i sums the
    columns of V on the kernel weighted by column i of U^-1, and
    coordinates are U V^-1 x by matrix-vector products.  The transforms
    are dense_transforms of the same Smith forms' logs."""

    def _data(self, q):
        if q in self._deg:
            return self._deg[q]
        C = self.C
        lower = smith_normal_form(C.boundary(q), transforms="right")
        Vinv, V = dense_transforms(lower.col_log, lower.order)
        r = lower.rank
        k = C.dim(q) - r
        image = product(Vinv, C.boundary(q + 1))
        assert not any(image._rows[i] for i in range(r))
        rel = smith_normal_form(SparseIntMatrix(
            k, image.ncols, [image._rows[i] for i in range(r, C.dim(q))]),
            transforms="left")
        U, Uinv = dense_transforms(rel.row_log, rel.order)
        orders = rel.diag + [0] * (k - rel.rank)
        keep = sorted(((i, o) for i, o in enumerate(orders) if o != 1),
                      key=lambda g: (g[1] == 0, g[1]))
        gens = []
        for i, order in keep:
            # column i of U^-1, on the kernel columns r.. of V
            u = {r + t: Uinv._rows[t][i] for t in range(k) if i in Uinv._rows[t]}
            gens.append((order, [sum(v * V._rows[row].get(c, 0) for c, v in u.items())
                                 for row in range(C.dim(q))]))
        data = {"Vinv": Vinv, "U": U, "rank_lower": r, "keep": keep,
                "generators": gens}
        self._deg[q] = data
        return data

    def coordinates(self, q, vec):
        assert not any(self.C.boundary(q).matvec(vec))
        data = self._data(q)
        full = data["Vinv"].matvec(vec)
        r = data["rank_lower"]
        assert not any(full[:r])
        y = data["U"].matvec(full[r:])
        return [y[i] % order if order else y[i] for i, order in data["keep"]]


def assert_engines_agree(C, degrees, cycles=()):
    """HomologyEngine and DenseTransformEngine give C the same generators
    in each degree, and the same coordinates to each generator and to each
    (degree, cycle) of cycles; returns the two engines."""
    eng, oracle = HomologyEngine(C), DenseTransformEngine(C)
    for q in degrees:
        gens = eng.generators(q)
        assert gens == oracle.generators(q)
        cycles = [*cycles, *((q, vec) for _, vec in gens)]
    for q, vec in cycles:
        assert eng.coordinates(q, vec) == oracle.coordinates(q, vec)
    return eng, oracle


def euler_characteristic(C):
    return sum((-1) ** q * C.dim(q) for q in C.basis)


def homology_euler_characteristic(summary):
    return sum((-1) ** q * r for q, (r, _) in summary.groups)


def engine_summary(C):
    """The homology of C read off the generators of HomologyEngine."""
    eng = HomologyEngine(C)
    return HomologySummary.of({q: eng.group(q) for q in C.basis})


def det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, v in enumerate(rows[0]):
        if v:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * v * det(minor)
    return total


def invariant_factors_oracle(dense):
    """Determinant-divisor oracle, independent of any elimination."""
    m = len(dense)
    n = len(dense[0]) if m else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                sub = [[dense[r][c] for c in cols] for r in rows]
                g = gcd(g, det(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def dense_matrices(max_dim=4, entries=st.integers(min_value=-6, max_value=6)):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda m: st.integers(min_value=1, max_value=max_dim).flatmap(
            lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=m, max_size=m)))


# no unit entries: the first pivot, and every pivot above 1, comes from the
# general phase of the elimination rather than the unit phase
NON_UNIT = st.sampled_from([0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9])


class TestSmithNormalForm:
    def test_frozen_example(self):
        M = from_dense([[4, 6], [0, 3]])
        assert smith_normal_form(M).diag == [1, 12]

    def test_zero_and_identity(self):
        assert smith_normal_form(from_entries(3, 2, {})).diag == []
        assert smith_normal_form(identity(4)).diag == [1, 1, 1, 1]

    @given(st.one_of(dense_matrices(), dense_matrices(entries=NON_UNIT)))
    @settings(max_examples=400, deadline=None)
    def test_matches_determinant_divisors(self, dense):
        M = from_dense(dense)
        assert smith_normal_form(M).diag == invariant_factors_oracle(dense)

    @given(st.one_of(dense_matrices(), dense_matrices(entries=NON_UNIT)))
    @settings(max_examples=300, deadline=None)
    def test_transforms_are_exact(self, dense):
        # the U of a left run's log and the V of a right run's diagonalize
        # M; both runs return the diagonal and split of the factor-only run,
        # since the matrix evolves the same way in every mode, and None for
        # the side they do not log
        M = from_dense(dense)
        left = smith_normal_form(M, transforms="left")
        right = smith_normal_form(M, transforms="right")
        U, Uinv = dense_transforms(left.row_log, left.order)
        Vinv, V = dense_transforms(right.col_log, right.order)
        assert product(U, M, V) == diagonal(left.diag, M.nrows, M.ncols)
        assert product(U, Uinv) == identity(M.nrows)
        assert product(Uinv, U) == identity(M.nrows)
        assert product(V, Vinv) == identity(M.ncols)
        assert product(Vinv, V) == identity(M.ncols)
        for i in range(len(left.diag) - 1):
            assert left.diag[i + 1] % left.diag[i] == 0
        factor_only = smith_normal_form(M)
        for one in (left, right):
            assert (one.diag, one.split) == (factor_only.diag, factor_only.split)
        assert (left.col_log, right.row_log) == (None, None)
        assert (factor_only.row_log, factor_only.col_log, factor_only.order) == \
            (None, None, None)
        # a log replayed in order applies T, and backwards T^-1
        for res, log, T, Tinv in ((left, left.row_log, U, Uinv),
                                  (right, right.col_log, Vinv, V)):
            x = [3 * i - 2 for i in range(T.nrows)]
            y = list(x)
            _replay(log, y)
            assert [y[i] for i in res.order] == T.matvec(x)
            z = [0] * T.nrows
            for i, j in enumerate(res.order):
                z[j] = x[i]
            _replay(log, z, backward=True)
            assert z == Tinv.matvec(x)

    @pytest.mark.parametrize("transforms", ["both", None, 2, True])
    def test_unknown_transforms_rejected(self, transforms):
        with pytest.raises(ValueError, match="transforms="):
            smith_normal_form(identity(2), transforms=transforms)


def holders(work, c):
    """The rows of the elimination state work that hold column c."""
    return [r for r, row in enumerate(work.rows) if c in row]


class CheckedWork(_SnfWork):
    """_SnfWork that checks its column index after every row operation
    and on every column read: each count is exact, cols[c] lists every row
    that holds c, and a read returns exactly those rows, each once."""

    def row_add(self, r1, r2, t):
        super().row_add(r1, r2, t)
        for c in range(self.n):
            assert self.count[c] == len(holders(self, c))
            assert set(holders(self, c)) <= set(self.cols[c])

    def column(self, c):
        held = super().column(c)
        assert sorted(held) == holders(self, c)
        return held


SPARSE = st.sampled_from([0, 0, 0, 0, 1, -1, 2, -2, 3])
ROW_OPS = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                             st.integers(-2, 2)), max_size=12)


class TestColumnIndex:
    @given(dense_matrices(max_dim=7, entries=SPARSE), ROW_OPS)
    @settings(max_examples=200, deadline=None)
    def test_counts_and_column_reads_are_exact(self, dense, ops):
        # arbitrary row operations, which cancel entries and re-add them,
        # then the elimination itself, in all three modes
        M = from_dense(dense)
        pivots = []
        for left, right in ((False, False), (True, False), (False, True)):
            work = CheckedWork(M, left, right)
            for r1, r2, t in ops:
                if r1 % M.nrows != r2 % M.nrows:
                    work.row_add(r1 % M.nrows, r2 % M.nrows, t)
            pivots.append(_snf_work_run(work))
            for c in range(M.ncols):
                assert work.count[c] == len(holders(work, c)) == 0
        assert pivots[0] == pivots[1] == pivots[2]


def coreduced_factors(M):
    """Ones for the coreduction pairs of M, then the invariant factors of
    the rows they leave; each pair is checked to be a unit entry alone in
    its column among the rows not yet taken."""
    rows = M._rows
    pairs, rest = _coreduce(rows, M.ncols)
    taken = set()
    for r, c in pairs:
        assert rows[r][c] in (1, -1)
        assert [i for i, row in enumerate(rows) if c in row and i not in taken] == [r]
        taken.add(r)
    assert sorted(taken | set(rest)) == list(range(M.nrows))
    assert not taken & set(rest)
    remainder = SparseIntMatrix(len(rest), M.ncols, [rows[r] for r in rest])
    return pairs, [1] * len(pairs) + smith_normal_form(remainder).diag


# sparse entries with units and non-units, so that pairs form, some
# single entries are no units, and the remainder is not empty
SPARSE = st.sampled_from([0, 0, 0, 1, -1, 1, 2, -2, 3])


class TestCoreduction:
    def test_cascade(self):
        # dropping row 0 leaves column 1 with one entry, then column 2
        M = from_dense([[1, 1, 1], [0, -1, 1], [0, 0, 1]])
        pairs, factors = coreduced_factors(M)
        assert pairs == [(0, 0), (1, 1), (2, 2)]
        assert factors == smith_normal_form(M).diag == [1, 1, 1]

    def test_cascade_stops_at_a_non_unit(self):
        # dropping row 0 leaves column 1 one entry, but it is 2, so the
        # remaining rows go to the Smith form
        M = from_dense([[1, 1, 0], [0, 2, 1], [0, 0, 3]])
        pairs, factors = coreduced_factors(M)
        assert pairs == [(0, 0)]
        assert factors == smith_normal_form(M).diag == [1, 1, 6]

    @given(dense_matrices(max_dim=6, entries=SPARSE))
    @settings(max_examples=300, deadline=None)
    def test_same_factors_as_the_whole_matrix(self, dense):
        M = from_dense(dense)
        assert coreduced_factors(M)[1] == smith_normal_form(M).diag


class TestOfMap:
    @staticmethod
    def of_map(rows, cols, images):
        return SparseIntMatrix.of_map(rows, cols, lambda lbl: images[lbl])

    def test_repeated_labels_add_up(self):
        M = self.of_map(["x", "y"], ["u"], {"u": [("x", 2), ("y", 1), ("x", 3)]})
        assert to_dense(M) == [[5], [1]]

    def test_zero_sum_leaves_no_entry(self):
        M = self.of_map(["x", "y"], ["u"], {"u": [("x", 1), ("y", 2), ("x", -1)]})
        assert M._rows[0] == {}
        assert M.nnz == 1

    def test_labels_outside_rows_are_dropped(self):
        M = self.of_map(["x", "y"], ["u", "v"],
                        {"u": [("z", 7), ("y", 1)], "v": [("w", 1)]})
        assert (M.nrows, M.ncols) == (2, 2)
        assert to_dense(M) == [[0, 0], [1, 0]]

    def test_rows_list_columns_in_increasing_order(self):
        rng = random.Random(7)
        for _ in range(50):
            rows = list(range(rng.randint(0, 6)))
            cols = list(range(rng.randint(0, 8)))
            images = {c: [(rng.randint(0, 7), rng.randint(-2, 2))
                          for _ in range(rng.randint(0, 5))] for c in cols}
            M = self.of_map(rows, cols, images)
            entries = {}
            for c in cols:
                for r, v in images[c]:
                    if r in rows:
                        entries[(r, c)] = entries.get((r, c), 0) + v
            assert M == from_entries(len(rows), len(cols), entries)
            for r in rows:
                assert list(M._rows[r]) == sorted(M._rows[r])


def circle_complex():
    # triangle boundary: vertices 0,1,2; edges 01, 02, 12
    basis = {0: ["v0", "v1", "v2"], 1: ["e01", "e02", "e12"]}
    d1 = from_dense([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    return complex_of(basis, {1: d1})


def sphere_complex():
    # boundary of the 3-simplex on vertices 0..3
    verts = list(range(4))
    basis = {q: list(itertools.combinations(verts, q + 1)) for q in range(3)}
    boundaries = {}
    for q in (1, 2):
        idx = {f: i for i, f in enumerate(basis[q - 1])}
        entries = {}
        for j, face in enumerate(basis[q]):
            for t in range(len(face)):
                sub = face[:t] + face[t + 1:]
                entries[(idx[sub], j)] = (-1) ** t
        boundaries[q] = from_entries(len(basis[q - 1]), len(basis[q]), entries)
    return complex_of(basis, boundaries)


def projective_plane_complex():
    # antipodal quotient of the icosahedron: 6 vertices, 15 edges, 10 faces
    triangles = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
                 (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6)]
    edges = sorted({tuple(sorted(e)) for t in triangles
                    for e in itertools.combinations(t, 2)})
    verts = sorted({v for t in triangles for v in t})
    basis = {0: verts, 1: edges, 2: triangles}
    eidx = {e: i for i, e in enumerate(edges)}
    vidx = {v: i for i, v in enumerate(verts)}
    d1 = {}
    for j, (u, v) in enumerate(edges):
        d1[(vidx[u], j)] = -1
        d1[(vidx[v], j)] = 1
    d2 = {}
    for j, t in enumerate(triangles):
        for pos in range(3):
            face = t[:pos] + t[pos + 1:]
            key = tuple(sorted(face))
            sgn = (-1) ** pos
            if face != key:
                sgn = -sgn
            d2[(eidx[key], j)] = d2.get((eidx[key], j), 0) + sgn
    boundaries = {1: from_entries(len(verts), len(edges), d1),
                  2: from_entries(len(edges), len(triangles), d2)}
    return complex_of(basis, boundaries)


def diagonal_complex(*diag):
    # C_1 -> C_0 with boundary diag(d_1, d_2, ...); H_0 = sum of Z/d_i
    n = len(diag)
    basis = {0: [f"x{i}" for i in range(n)], 1: [f"e{i}" for i in range(n)]}
    return complex_of(basis, {1: diagonal(diag, n, n)})


class TestHomology:
    def test_circle(self):
        assert homology(circle_complex()) == HomologySummary.of(
            {0: (1, ()), 1: (1, ())})

    def test_sphere(self):
        assert homology(sphere_complex()) == HomologySummary.of(
            {0: (1, ()), 2: (1, ())})

    def test_multiplication_by_two(self):
        basis = {0: ["x"], 1: ["y"]}
        d1 = from_dense([[2]])
        C = complex_of(basis, {1: d1})
        assert homology(C) == HomologySummary.of({0: (0, (2,))})

    def test_projective_plane(self):
        # RP^2 needs consistent orientations; the listed triangulation is
        # orientable-incoherent, so check the signature instead: H_0 = Z,
        # H_1 = Z/2, H_2 = 0
        summary = homology(projective_plane_complex())
        assert summary.group(0) == (1, ())
        assert summary.group(1) == (0, (2,))
        assert summary.group(2) == (0, ())

    def test_invalid_complex_rejected(self):
        basis = {0: ["a"], 1: ["b"], 2: ["c"]}
        d1 = from_dense([[1]])
        d2 = from_dense([[1]])
        with pytest.raises(ComplexInvalid):
            complex_of(basis, {1: d1, 2: d2})

    def test_euler_characteristic_agreement(self):
        for C in (circle_complex(), sphere_complex(), projective_plane_complex()):
            assert euler_characteristic(C) == \
                homology_euler_characteristic(homology(C))

    def test_engine_matches_fast_path(self):
        for C in (circle_complex(), sphere_complex(), projective_plane_complex(),
                  diagonal_complex(2, 3), diagonal_complex(4, 6)):
            assert engine_summary(C) == homology(C)
        for diag, torsion in (((2, 3), (6,)), ((4, 6), (2, 12))):
            C = diagonal_complex(*diag)
            eng = HomologyEngine(C)
            assert eng.group(0) == (0, torsion)
            gens = eng.generators(0)
            assert [order for order, _ in gens] == list(torsion)
            zero = [0] * len(gens)
            for i, (order, vec) in enumerate(gens):
                assert eng.coordinates(0, vec) == \
                    [int(j == i) for j in range(len(gens))]
                assert eng.coordinates(0, [order * v for v in vec]) == zero
            # the class of x_i has order d_i, and so must its coordinates
            for i, d in enumerate(diag):
                coords = eng.coordinates(0, chain_vector(C, 0, {f"x{i}": 1}))
                assert all(c < t for c, t in zip(coords, torsion))
                assert [t for t in range(1, d + 1)
                        if all(t * c % o == 0 for c, o in zip(coords, torsion))
                        ][0] == d

    def test_engine_tracks_only_the_transforms_it_reads(self):
        # generators and coordinates replay the column log of d_q and the
        # row log of the relation matrix, and nothing else
        for C in (projective_plane_complex(), diagonal_complex(4, 6)):
            eng = HomologyEngine(C)
            for q in C.basis:
                eng.coordinates(q, [0] * C.dim(q))
                data = eng._data(q)
                lower, rel = data["lower"], data["rel"]
                assert (lower.row_log, rel.col_log) == (None, None)
                assert None not in (lower.col_log, rel.row_log)

    def test_engine_matches_the_dense_transform_oracle(self):
        for C in (circle_complex(), sphere_complex(), projective_plane_complex(),
                  diagonal_complex(2, 3), diagonal_complex(4, 6)):
            # the cycles among the sums of one or two cells, torsion
            # classes included
            sums = [(q, chain_vector(C, q, dict.fromkeys(cells, 1)))
                    for q in C.basis for size in (1, 2)
                    for cells in itertools.combinations(C.basis[q], size)]
            assert_engines_agree(C, C.basis, [
                (q, vec) for q, vec in sums
                if not any(C.boundary(q).matvec(vec))])

    def test_engine_generators_are_cycles_with_right_orders(self):
        C = projective_plane_complex()
        eng = HomologyEngine(C)
        gens = eng.generators(1)
        assert len(gens) == 1
        order, vec = gens[0]
        assert order == 2
        assert not any(C.boundary(1).matvec(vec))
        assert eng.coordinates(1, vec) == [1]
        assert eng.coordinates(1, [2 * v for v in vec]) == [0]
        # the logs replay on copies: neither the vector passed in nor the
        # engine's generator moves
        assert eng.generators(1) == gens

    def test_engine_coordinates_free_generator(self):
        C = circle_complex()
        eng = HomologyEngine(C)
        (order, vec), = eng.generators(1)
        assert order == 0
        assert eng.coordinates(1, [3 * v for v in vec]) == [3]

    @pytest.mark.parametrize("make", [circle_complex, projective_plane_complex])
    def test_engine_coordinates_reject_a_non_cycle(self, make):
        # V^-1 x is nonzero on a pivot column exactly when d_q x != 0
        C = make()
        eng = HomologyEngine(C)
        for i in range(C.dim(1)):
            vec = [0] * C.dim(1)
            vec[i] = 1
            assert any(C.boundary(1).matvec(vec))
            with pytest.raises(ValueError, match="chain is not a cycle"):
                eng.coordinates(1, vec)
        with pytest.raises(DimensionMismatch):
            eng.coordinates(1, [0] * (C.dim(1) + 1))


def invariant_factors_of_cyclics(orders):
    """Invariant factors of a direct sum of cyclic groups Z/d (d > 1)."""
    by_prime: dict[int, list] = {}
    for d in orders:
        p = 2
        while d > 1:
            if d % p == 0:
                pw = 1
                while d % p == 0:
                    d //= p
                    pw *= p
                by_prime.setdefault(p, []).append(pw)
            p += 1
    longest = max((len(v) for v in by_prime.values()), default=0)
    factors = [1] * longest
    for powers in by_prime.values():
        for i, pw in enumerate(sorted(powers, reverse=True)):
            factors[longest - 1 - i] *= pw
    return tuple(factors)


def unimodular(rng, n):
    """A random n x n unimodular matrix P and its inverse, both dense."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    Pinv = [row[:] for row in P]
    for _ in range(rng.randint(0, 3 * n) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        t = rng.choice([-2, -1, 1, 2])
        # P <- (I + t e_ij) P and Pinv <- Pinv (I - t e_ij)
        P[i] = [a + t * b for a, b in zip(P[i], P[j])]
        for row in Pinv:
            row[j] -= t * row[i]
    return P, Pinv


ELEMENTARY = st.sampled_from([0, 1, 2, 3, 4, 6, 9])  # 0: a free Z


@st.composite
def conjugated_sums(draw):
    """A direct sum of Z and Z --d--> Z complexes, conjugated degreewise.

    Returns the complex and its homology, known from the summands.
    """
    top = draw(st.integers(0, 4))
    summands = draw(st.lists(st.tuples(st.integers(0, top), ELEMENTARY),
                             max_size=10))
    cells = {q: 0 for q in range(top + 1)}
    entries = {q: {} for q in range(top + 1)}
    free = dict.fromkeys(range(top + 1), 0)
    torsion = {q: [] for q in range(top + 1)}
    for q, d in summands:
        if d == 0 or q == top:
            free[q] += 1
            cells[q] += 1
            continue
        # Z in degree q + 1 --d--> Z in degree q
        entries[q + 1][(cells[q], cells[q + 1])] = d
        cells[q] += 1
        cells[q + 1] += 1
        if d > 1:
            torsion[q].append(d)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    change = {q: unimodular(rng, cells[q]) for q in cells}
    boundaries = {}
    for q in range(1, top + 1):
        d = from_entries(cells[q - 1], cells[q], entries[q])
        P = from_dense(change[q - 1][0])
        Pinv = from_dense(change[q][1])
        boundaries[q] = product(P, d, Pinv)
    basis = {q: [f"c{q}_{i}" for i in range(n)] for q, n in cells.items()}
    want = HomologySummary.of({q: (free[q], invariant_factors_of_cyclics(torsion[q]))
                               for q in cells})
    return complex_of(basis, boundaries), want


class TestReducedComplex:
    @given(conjugated_sums())
    @settings(max_examples=200, deadline=None)
    def test_random_complexes_match_their_summands(self, case):
        # conjugation mixes the d's, so the Smith forms take general-phase
        # steps and unit pivots after them, whose rows must not be dropped
        C, want = case
        assert homology(C) == want
        assert engine_summary(C) == want

    def test_invariant_factors_of_cyclics(self):
        assert invariant_factors_of_cyclics([]) == ()
        assert invariant_factors_of_cyclics([2, 3]) == (6,)
        assert invariant_factors_of_cyclics([4, 6, 9]) == (6, 36)


README_PAIRS = [Params(2, 3), Params(2, 5), Params(3, 4), Params(3, 5)]
MODELS = [("bar", p, m) for p in README_PAIRS for m in range(1, 11)] + \
    [("conjB", p, m) for p in README_PAIRS for m in range(1, 13)]


@functools.cache
def model_complex(kind, p, m):
    """The relative bar complex or the conjB gap complex at (p, m)."""
    if kind == "bar":
        return relative_bar_complex(p, m)
    return x_complex(build_sigma(p, m))


def reference_homology(C):
    """Homology from the Smith form of every unreduced boundary."""
    snf = {q: smith_normal_form(C.boundary(q))
           for q in set(C.basis) | {q + 1 for q in C.basis}}
    return HomologySummary.of({
        q: (C.dim(q) - snf[q].rank - snf[q + 1].rank,
            tuple(t for t in snf[q + 1].diag if t > 1)) for q in C.basis})


def failing_square(boundaries):
    """The least q with d_q d_{q+1} != 0, by full products, or None."""
    return min((q for q, d in boundaries.items()
                if q + 1 in boundaries and product(d, boundaries[q + 1]).nnz),
               default=None)


class TestConstructionOracle:
    @given(st.one_of(conjugated_sums().map(lambda case: case[0]),
                     st.sampled_from(MODELS).map(lambda key: model_complex(*key))),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_invalid_exactly_when_a_full_product_is_nonzero(self, C, data):
        assert homology(C) == reference_homology(C)
        boundaries = boundaries_of(C)
        degrees = sorted(q for q, d in boundaries.items() if d.nrows and d.ncols)
        if not degrees:
            return
        q = data.draw(st.sampled_from(degrees))
        d = boundaries[q]
        r = data.draw(st.integers(0, d.nrows - 1))
        c = data.draw(st.integers(0, d.ncols - 1))
        nonzero = dict(entries(d))
        nonzero[(r, c)] = nonzero.get((r, c), 0) + data.draw(
            st.sampled_from([-3, -2, -1, 1, 2, 3]))
        bounds = {**boundaries, q: from_entries(d.nrows, d.ncols, nonzero)}
        bad = failing_square(bounds)
        if bad is None:
            perturbed = complex_of(C.basis, bounds)
            assert homology(perturbed) == reference_homology(perturbed)
        else:
            with pytest.raises(ComplexInvalid, match=f"^d_{bad} ∘ d_{bad + 1} != 0$"):
                complex_of(C.basis, bounds)

    def test_models_are_valid(self):
        # the unperturbed models pass the full products too
        for key in MODELS:
            assert failing_square(boundaries_of(model_complex(*key))) is None


def annihilates_reference(rows, upper):
    """The d ∘ d check as it was, one dict per row."""
    for row in rows:
        acc = {}
        for c, v in row.items():
            for c2, w in upper._rows[c].items():
                acc[c2] = acc.get(c2, 0) + v * w
        if any(acc.values()):
            return False
    return True


@st.composite
def row_products(draw):
    """Rows against an upper matrix whose rows come in pairs u, -u, so a
    row with equal weights on a pair cancels there; the rest are free."""
    half = draw(st.integers(1, 3))
    ncols = draw(st.integers(1, 4))
    small = st.integers(-2, 2)
    upper = []
    for _ in range(half):
        u = {c: v for c in range(ncols) if (v := draw(small))}
        upper += [u, {c: -v for c, v in u.items()}]
    rows = []
    for _ in range(draw(st.integers(0, 5))):
        row = {}
        for k in range(half):
            v = draw(small)
            w = v if draw(st.booleans()) else draw(small)
            row.update({c: x for c, x in ((2 * k, v), (2 * k + 1, w)) if x})
        rows.append(row)
    return rows, SparseIntMatrix(2 * half, ncols, upper)


class TestAnnihilates:
    @given(row_products())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_dict_per_row_reference(self, case):
        # every prefix, so a failing row comes after cancelling ones and
        # before passing ones
        rows, upper = case
        for k in range(len(rows) + 1):
            assert _annihilates(rows[:k], upper) == \
                annihilates_reference(rows[:k], upper)

    def test_a_cancelling_row_does_not_hide_a_later_one(self):
        # the rows of d_2 reach the check in order: row 0's product with d_3
        # cancels in column 0, and row 1's, checked next, is 1 there
        d2 = from_dense([[1, 0, 1, 0], [0, 1, 0, 1]])
        d3 = from_dense([[1], [1], [-1], [0]])
        basis = {1: ["a0", "a1"], 2: ["b0", "b1", "b2", "b3"], 3: ["c0"]}
        with pytest.raises(ComplexInvalid, match="^d_2 ∘ d_3 != 0$"):
            complex_of(basis, {2: d2, 3: d3})

    def test_every_row_that_survives_the_drop_is_checked(self, monkeypatch):
        # every kept row reaches the check, the rows that the unit phase of
        # the elimination empties included
        checked = []
        real = homlinalg._annihilates

        def recorded(rows, upper):
            checked.append(len(rows))
            return real(rows, upper)

        monkeypatch.setattr(homlinalg, "_annihilates", recorded)
        C = relative_bar_complex(Params(2, 3), 5)
        assert checked == [C.dim(q - 1) - len(C.smith[q - 1].split)
                           for q in sorted(C.basis)
                           if q - 1 in C.basis and q + 1 in C.basis]
        assert len(checked) > 1

    def test_a_failing_product_on_a_dropped_row_is_found_on_a_kept_one(self):
        # d_2 ∘ d_3 is nonzero on both rows of d_2, and the split of d_1
        # drops one of them
        basis = {0: ["v"], 1: ["e1", "e2"], 2: ["f"], 3: ["g"]}
        d1 = from_dense([[1, 1]])
        d2 = from_dense([[1], [-1]])
        d3 = from_dense([[1]])
        with pytest.raises(ComplexInvalid, match="^d_2 ∘ d_3 != 0$"):
            complex_of(basis, {1: d1, 2: d2, 3: d3})


class TestFaceMaps:
    def test_construction_memory(self):
        # each d_q is dropped once its kept rows are taken, and those once
        # checked; the per-column sets of the Smith form peaked at 2.38 MiB
        tracemalloc.start()
        try:
            relative_bar_complex(Params(2, 3), 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_a_built_complex_keeps_no_matrix(self):
        # the Smith forms and the bases stay, the boundaries do not: 3.34 MiB
        # when the complex kept every d_q, 0.52 MiB without
        tracemalloc.start()
        try:
            bar = relative_bar_complex(Params(2, 3), 13)
            current = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert bar.basis and current < 1.5 * 2 ** 20

    def test_boundaries_are_rebuilt_identically(self):
        # the Connes signs depend on the pivots, so on the row key order
        p = Params(2, 3)
        for C in (model_complex("bar", p, 9), relative_cone(p, 11),
                  model_complex("conjB", p, 12)):
            for q in range(-1, max(C.basis) + 3):
                first, again = C.boundary(q), C.boundary(q)
                assert first == again
                assert [list(row.items()) for row in first._rows] == \
                    [list(row.items()) for row in again._rows]


# the README pairs' Connes statements with m <= 11, and (2, 3, 13)
CONNES_CELLS = [(p, m) for p in README_PAIRS for m in range(1, 12)
                if m % p.a and m % p.b] + [(Params(2, 3), 13)]


class TestEngineOracle:
    @pytest.mark.parametrize("p,m", CONNES_CELLS,
                             ids=lambda v: str(v) if isinstance(v, int) else f"{v.a},{v.b}")
    def test_bar_and_cone_match_the_dense_transform_oracle(self, p, m,
                                                           monkeypatch):
        # generators and coordinates in the degrees of the statement, and
        # both Connes values, sign included
        bar, cone = model_complex("bar", p, m), relative_cone(p, m)
        q = 2 * ell(p, m)
        factors = []
        # the statement reuses the engines that were compared on bar
        for engine in assert_engines_agree(bar, (q, q + 1)):
            monkeypatch.setattr(cyclicbar, "HomologyEngine",
                                lambda C: engine if C is bar else type(engine)(C))
            factors.append((connes_factor_bar(p, m, bar),
                            connes_factor_small(p, m, cone)))
        assert factors[0] == factors[1]

    def test_connes_factor_memory(self):
        # the logs replace U, U^-1, V and V^-1, which peaked at 14.4 MiB here
        p = Params(2, 3)
        bar = model_complex("bar", p, 13)
        tracemalloc.start()
        try:
            connes_factor_bar(p, 13, bar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_connes_statement_lifts_only_the_generators_it_reads(
            self, monkeypatch):
        # each generator read replays both logs backwards once; no other
        # backward replay runs, so the degree q+1 lifts nothing
        p = Params(2, 3)
        bar = model_complex("bar", p, 13)
        directions, read = [], []
        real_generators = HomologyEngine.generators

        def replay(log, x, backward=False):
            directions.append(backward)
            _replay(log, x, backward)

        def generators(eng, q):
            gens = real_generators(eng, q)
            read.extend(gens)
            return gens

        monkeypatch.setattr(homlinalg, "_replay", replay)
        monkeypatch.setattr(HomologyEngine, "generators", generators)
        connes_factor_bar(p, 13, bar)
        assert len(read) == 1
        assert directions.count(True) == 2 * len(read)

    def test_connes_factor_builds_each_boundary_once(self, monkeypatch):
        # d_q, d_{q+1} and d_{q+2}, each built once and kept by the engine;
        # rebuilt on every read they took 7 builds, four of them d_{q+1}
        p = Params(2, 3)
        bar = model_complex("bar", p, 13)
        built = []
        real = ChainComplex.boundary

        def counted(C, q):
            built.append(q)
            return real(C, q)

        monkeypatch.setattr(ChainComplex, "boundary", counted)
        connes_factor_bar(p, 13, bar)
        q = 2 * ell(p, 13)
        assert sorted(built) == [q, q + 1, q + 2]

    def test_connes_factor_multiplies_by_a_matrix_twice(self, monkeypatch):
        # the operator's image, and d_{q+1} on it for the statement's cycle
        # check; coordinates reads cycles off its own log, with no product
        p = Params(2, 3)
        bar = model_complex("bar", p, 13)
        calls = []
        real = SparseIntMatrix.matvec

        def counted(M, x):
            calls.append((M.nrows, M.ncols))
            return real(M, x)

        monkeypatch.setattr(SparseIntMatrix, "matvec", counted)
        connes_factor_bar(p, 13, bar)
        assert len(calls) == 2


def identity_map(lbl):
    yield lbl, 1


class TestMappingCone:
    def test_cone_of_identity_is_acyclic(self):
        for C in (circle_complex(), sphere_complex()):
            assert homology(mapping_cone(C, C, identity_map)) == HomologySummary.of({})

    @pytest.mark.parametrize("n,k", [(2, 0), (5, 3), (12, 1)])
    def test_cone_of_multiplication(self, n, k):
        A = ChainComplex({k: ["a"]}, lambda _: ())
        B = ChainComplex({k: ["b"]}, lambda _: ())
        cone = mapping_cone(A, B, lambda _: [("b", n)])
        assert homology(cone) == HomologySummary.of({k: (0, (n,))})

    def test_cone_euler_characteristic(self):
        C = sphere_complex()
        assert euler_characteristic(mapping_cone(C, C, identity_map)) == 0

    def test_chain_map_validation(self):
        # the cone's d ∘ d check is the chain-map check: e02 -> e02 + e12
        # does not commute with the circle's boundary
        C = circle_complex()
        bad = {"e02": [("e02", 1), ("e12", 1)]}
        with pytest.raises(NotAChainMap, match="do not commute"):
            mapping_cone(C, C, lambda lbl: bad.get(lbl, [(lbl, 1)]))

    def test_targets_outside_the_codomain_are_dropped(self):
        # a label in no basis, and one of the codomain's in another degree,
        # leave the cone of the identity as it is
        C = circle_complex()

        def stray(lbl):
            yield lbl, 1
            yield "nowhere", 5
            yield ("v0" if lbl[0] == "e" else "e01"), 7

        want, got = mapping_cone(C, C, identity_map), mapping_cone(C, C, stray)
        assert got.basis == want.basis
        for q in range(-1, 4):
            assert got.boundary(q) == want.boundary(q)
        assert homology(got) == HomologySummary.of({})


class TestLinearProgramming:
    def test_square_contains_origin(self):
        pts = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
        res = lp_separate(pts, (0, 0))
        assert res.kind == "combination"
        assert sum(res.coefficients) == 1

    def test_separator_found(self):
        pts = [(1, 0), (2, 1), (1, 1)]
        res = lp_separate(pts, (0, 0))
        assert res.kind == "separator"
        h, delta = res.functional, res.delta
        for p in pts:
            assert h[0] * p[0] + h[1] * p[1] >= delta
        assert delta > 0

    def test_boundary_point_is_inside(self):
        pts = [(0, 0), (2, 0), (0, 2)]
        res = lp_separate(pts, (1, 0))
        assert res.kind == "combination"

    def test_empty_point_set(self):
        res = lp_separate([], (1, 2))
        assert res.kind == "separator"

    @given(st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
                    min_size=1, max_size=8),
           st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
    @settings(max_examples=200, deadline=None)
    def test_certificates_verify(self, pts, target):
        # internal asserts in lp_separate re-check every certificate
        res = lp_separate(pts, target)
        assert res.kind in ("combination", "separator")

    def test_feasibility_certificate_infeasible(self):
        # x1 + x2 = -1 has no non-negative solution
        status, y = feasibility_certificate([[1], [1]], [-1])
        assert status == "infeasible"

    def test_lp_optimize_over_segment(self):
        # barycentric weights on {0, 1}: single constraint lam1 + lam2 = 1;
        # objective is the coordinate map, so max is 1 and min is 0
        cols = [[1], [1]]
        status, value, lam = lp_optimize(cols, [1], [0, 1], maximize=True)
        assert (status, value) == ("optimal", 1)
        status, value, lam = lp_optimize(cols, [1], [0, 1], maximize=False)
        assert (status, value) == ("optimal", 0)

    def test_lp_optimize_infeasible(self):
        status, value, lam = lp_optimize([[1], [1]], [-2], [1, 1])
        assert status == "infeasible"

    def test_lp_optimize_fractional_vertex(self):
        # max x + y over conv{(0,0),(1,0),(0,1)} with x = y enforced:
        # columns are (x_j, y_j, 1), extra row x - y = 0
        cols = [[0, 0, 1, 0], [1, 0, 1, 1], [0, 1, 1, -1]]
        status, value, lam = lp_optimize(cols, [Fraction(1, 2), Fraction(1, 2), 1, 0],
                                         [0, 1, 1], maximize=True)
        assert status == "optimal"
        assert value == 1

    def test_lp_optimize_unbounded(self):
        # lam1 - lam2 = 0 lets lam1 grow without bound
        cols = [[1], [-1]]
        assert lp_optimize(cols, [0], [1, 0], maximize=True) == ("unbounded", None, None)
        tab = SimplexTableau(cols, [0])
        assert tab.optimize([1, 0], maximize=True) == ("unbounded", None, None)
        # the basis stays feasible, so the next objective still solves
        status, value, lam = tab.optimize([1, 0])
        assert (status, value, lam) == ("optimal", 0, [0, 0])

    @given(st.lists(st.integers(-6, 6), min_size=1, max_size=7),
           st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_hull_optimum_is_extreme_point(self, values, copies):
        # barycentric weights on points with coordinate c_j; the equality
        # sum lam_j = 1 is repeated so that redundant rows get dropped
        cols = [[k for k in range(1, copies + 1)] for _ in values]
        rhs = list(range(1, copies + 1))
        tab = SimplexTableau(cols, rhs)
        assert tab.status == "feasible"
        assert tab.optimize(values, maximize=True)[1] == max(values)
        assert tab.optimize(values, maximize=False)[1] == min(values)
        assert lp_optimize(cols, rhs, values, maximize=True)[1] == max(values)
        assert lp_optimize(cols, rhs, values)[1] == min(values)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_warm_start_matches_fresh_tableau(self, data):
        rows = data.draw(st.integers(1, 3))
        ncols = data.draw(st.integers(1, 5))
        entry = st.integers(-3, 3)
        cols = data.draw(st.lists(st.lists(entry, min_size=rows, max_size=rows),
                                  min_size=ncols, max_size=ncols))
        # rhs from a non-negative combination, so the LP is feasible
        weights = data.draw(st.lists(st.integers(0, 2), min_size=ncols,
                                     max_size=ncols))
        rhs = [sum(w * col[i] for w, col in zip(weights, cols)) for i in range(rows)]
        objectives = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                                        min_size=1, max_size=3))
        queries = data.draw(st.permutations(
            [(k, sense) for k in range(len(objectives)) for sense in (True, False)]))
        tab = SimplexTableau(cols, rhs)
        assert tab.status == "feasible"
        for k, maximize in queries:
            fresh = SimplexTableau(cols, rhs).optimize(objectives[k], maximize)
            warm = tab.optimize(objectives[k], maximize)
            assert warm[:2] == fresh[:2]
