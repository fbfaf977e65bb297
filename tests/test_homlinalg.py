"""Tests for cuspk.homlinalg.

The Smith form is checked against an independent oracle: the k-th
determinant divisor (gcd of all k x k minors), which determines the
invariant factors as quotients D_k / D_{k-1}.  Homology examples are
hand-checkable complexes (circle, sphere, projective plane), and random
direct sums of Z and Z --d--> Z conjugated by unimodular matrices, whose
homology is known from the summands.  Construction, which checks d ∘ d = 0
only on spanning rows of a reduced complex, is checked against the full
products d_q @ d_{q+1} and the Smith forms of the unreduced boundaries.
"""

import functools
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cuspk.cyclicbar import relative_bar_complex
from cuspk.errors import ComplexInvalid, NotAChainMap
from cuspk.exactlp import SimplexTableau
from cuspk.errors import DimensionMismatch
from cuspk.homlinalg import (
    ChainComplex,
    HomologyEngine,
    HomologySummary,
    SparseIntMatrix,
    _coreduce,
    feasibility_certificate,
    homology,
    lp_optimize,
    lp_separate,
    mapping_cone,
    smith_normal_form,
)
from cuspk.semigroup import Params
from cuspk.simplicialx import build_sigma, x_complex


def from_dense(dense):
    nrows = len(dense)
    ncols = len(dense[0]) if nrows else 0
    return SparseIntMatrix(nrows, ncols, {(r, c): v for r, row in enumerate(dense)
                                          for c, v in enumerate(row) if v})


def identity(n):
    return SparseIntMatrix(n, n, {(i, i): 1 for i in range(n)})


def diagonal(diag, nrows, ncols):
    return SparseIntMatrix(nrows, ncols, {(i, i): d for i, d in enumerate(diag) if d})


def to_dense(M):
    return [[M.row(r).get(c, 0) for c in range(M.ncols)] for r in range(M.nrows)]


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
        assert smith_normal_form(SparseIntMatrix(3, 2)).diag == []
        assert smith_normal_form(identity(4)).diag == [1, 1, 1, 1]

    @given(st.one_of(dense_matrices(), dense_matrices(entries=NON_UNIT)))
    @settings(max_examples=400, deadline=None)
    def test_matches_determinant_divisors(self, dense):
        M = from_dense(dense)
        assert smith_normal_form(M).diag == invariant_factors_oracle(dense)

    @given(st.one_of(dense_matrices(), dense_matrices(entries=NON_UNIT)))
    @settings(max_examples=300, deadline=None)
    def test_transforms_are_exact(self, dense):
        # the U of a left run and the V of a right run diagonalize M; both
        # runs return the diagonal, split and spanning rows of the
        # factor-only run, since the matrix evolves the same way in every
        # mode, and None for the pair they do not track
        M = from_dense(dense)
        left = smith_normal_form(M, transforms="left")
        right = smith_normal_form(M, transforms="right")
        assert left.U @ M @ right.V == diagonal(left.diag, M.nrows, M.ncols)
        assert left.U @ left.Uinv == identity(M.nrows)
        assert left.Uinv @ left.U == identity(M.nrows)
        assert right.V @ right.Vinv == identity(M.ncols)
        assert right.Vinv @ right.V == identity(M.ncols)
        for i in range(len(left.diag) - 1):
            assert left.diag[i + 1] % left.diag[i] == 0
        factor_only = smith_normal_form(M)
        for one in (left, right):
            assert (one.diag, one.split, one.spanning) == \
                (factor_only.diag, factor_only.split, factor_only.spanning)
        assert (left.V, left.Vinv) == (None, None)
        assert (right.U, right.Uinv) == (None, None)

    @pytest.mark.parametrize("transforms", ["both", None, 2, True])
    def test_unknown_transforms_rejected(self, transforms):
        with pytest.raises(ValueError, match="transforms="):
            smith_normal_form(identity(2), transforms=transforms)

    @given(st.one_of(dense_matrices(), dense_matrices(entries=NON_UNIT)))
    @settings(max_examples=200, deadline=None)
    def test_spanning_rows_span_the_row_space(self, dense):
        # the spanning rows are rows of M, so equal rank means equal span
        M = from_dense(dense)
        res = smith_normal_form(M)
        sub = [dense[r] for r in res.spanning]
        assert len(set(res.spanning)) == len(res.spanning)
        assert (smith_normal_form(from_dense(sub)).rank if sub else 0) == res.rank


def coreduced_factors(M):
    """Ones for the coreduction pairs of M, then the invariant factors of
    the rows they leave; each pair is checked to be a unit entry alone in
    its column among the rows not yet taken."""
    rows = [M.row(r) for r in range(M.nrows)]
    pairs, rest = _coreduce(rows, M.ncols)
    taken = set()
    for r, c in pairs:
        assert rows[r][c] in (1, -1)
        assert [i for i, row in enumerate(rows) if c in row and i not in taken] == [r]
        taken.add(r)
    assert sorted(taken | set(rest)) == list(range(M.nrows))
    assert not taken & set(rest)
    remainder = SparseIntMatrix(len(rest), M.ncols, {
        (i, c): v for i, r in enumerate(rest) for c, v in rows[r].items()})
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


class TestConstructor:
    @pytest.mark.parametrize("value", [Fraction(1, 2), 2.7, True],
                             ids=["fraction", "float", "bool"])
    def test_non_int_entry_rejected(self, value):
        with pytest.raises(ValueError, match=r"entry \(0,0\)"):
            SparseIntMatrix(1, 1, {(0, 0): value})


class TestOfMap:
    @staticmethod
    def of_map(rows, cols, images):
        return SparseIntMatrix.of_map(rows, cols, lambda lbl: images[lbl])

    def test_repeated_labels_add_up(self):
        M = self.of_map(["x", "y"], ["u"], {"u": [("x", 2), ("y", 1), ("x", 3)]})
        assert to_dense(M) == [[5], [1]]

    def test_zero_sum_leaves_no_entry(self):
        M = self.of_map(["x", "y"], ["u"], {"u": [("x", 1), ("y", 2), ("x", -1)]})
        assert M.row(0) == {}
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
            assert M == SparseIntMatrix(len(rows), len(cols), entries)
            for r in rows:
                assert list(M.row(r)) == sorted(M.row(r))


def circle_complex():
    # triangle boundary: vertices 0,1,2; edges 01, 02, 12
    basis = {0: ["v0", "v1", "v2"], 1: ["e01", "e02", "e12"]}
    d1 = from_dense([[-1, -1, 0], [1, 0, -1], [0, 1, 1]])
    return ChainComplex(basis, {1: d1})


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
        boundaries[q] = SparseIntMatrix(len(basis[q - 1]), len(basis[q]), entries)
    return ChainComplex(basis, boundaries)


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
    boundaries = {1: SparseIntMatrix(len(verts), len(edges), d1),
                  2: SparseIntMatrix(len(edges), len(triangles), d2)}
    return ChainComplex(basis, boundaries)


def diagonal_complex(*diag):
    # C_1 -> C_0 with boundary diag(d_1, d_2, ...); H_0 = sum of Z/d_i
    n = len(diag)
    basis = {0: [f"x{i}" for i in range(n)], 1: [f"e{i}" for i in range(n)]}
    return ChainComplex(basis, {1: diagonal(diag, n, n)})


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
        C = ChainComplex(basis, {1: d1})
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
            ChainComplex(basis, {1: d1, 2: d2})

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
            for i, (order, chain) in enumerate(gens):
                assert eng.coordinates(0, chain) == \
                    [int(j == i) for j in range(len(gens))]
                multiple = {lbl: order * v for lbl, v in chain.items()}
                assert eng.coordinates(0, multiple) == zero
            # the class of x_i has order d_i, and so must its coordinates
            for i, d in enumerate(diag):
                coords = eng.coordinates(0, {f"x{i}": 1})
                assert all(c < t for c, t in zip(coords, torsion))
                assert [t for t in range(1, d + 1)
                        if all(t * c % o == 0 for c, o in zip(coords, torsion))
                        ][0] == d

    def test_engine_tracks_only_the_transforms_it_reads(self):
        # generators and coordinates read V, V^-1 of d_q and U, U^-1 of the
        # relation matrix, and nothing else
        for C in (projective_plane_complex(), diagonal_complex(4, 6)):
            eng = HomologyEngine(C)
            for q in C.basis:
                eng.coordinates(q, {})
                data = eng._data(q)
                lower, rel = data["lower"], data["rel"]
                assert (lower.U, lower.Uinv, rel.V, rel.Vinv) == (None,) * 4
                assert None not in (lower.V, lower.Vinv, rel.U, rel.Uinv)

    def test_engine_generators_are_cycles_with_right_orders(self):
        C = projective_plane_complex()
        eng = HomologyEngine(C)
        gens = eng.generators(1)
        assert len(gens) == 1
        order, chain = gens[0]
        assert order == 2
        vec = C.vector_from_chain(1, chain)
        assert not any(C.boundary(1).matvec(vec))
        assert eng.coordinates(1, chain) == [1]
        doubled = {lbl: 2 * v for lbl, v in chain.items()}
        assert eng.coordinates(1, doubled) == [0]

    def test_engine_coordinates_free_generator(self):
        C = circle_complex()
        eng = HomologyEngine(C)
        (order, chain), = eng.generators(1)
        assert order == 0
        tripled = {lbl: 3 * v for lbl, v in chain.items()}
        assert eng.coordinates(1, tripled) == [3]


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
        d = SparseIntMatrix(cells[q - 1], cells[q], entries[q])
        P = from_dense(change[q - 1][0])
        Pinv = from_dense(change[q][1])
        boundaries[q] = P @ d @ Pinv
    basis = {q: [f"c{q}_{i}" for i in range(n)] for q, n in cells.items()}
    want = HomologySummary.of({q: (free[q], invariant_factors_of_cyclics(torsion[q]))
                               for q in cells})
    return ChainComplex(basis, boundaries), want


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
    """The least q with d_q @ d_{q+1} != 0, by full products, or None."""
    return min((q for q, d in boundaries.items()
                if q + 1 in boundaries and not (d @ boundaries[q + 1]).is_zero()),
               default=None)


class TestConstructionOracle:
    @given(st.one_of(conjugated_sums().map(lambda case: case[0]),
                     st.sampled_from(MODELS).map(lambda key: model_complex(*key))),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_invalid_exactly_when_a_full_product_is_nonzero(self, C, data):
        assert homology(C) == reference_homology(C)
        degrees = sorted(q for q, d in C.boundaries.items() if d.nrows and d.ncols)
        if not degrees:
            return
        q = data.draw(st.sampled_from(degrees))
        d = C.boundaries[q]
        r = data.draw(st.integers(0, d.nrows - 1))
        c = data.draw(st.integers(0, d.ncols - 1))
        entries = dict(d.entries())
        entries[(r, c)] = entries.get((r, c), 0) + data.draw(
            st.sampled_from([-3, -2, -1, 1, 2, 3]))
        bounds = {**C.boundaries, q: SparseIntMatrix(d.nrows, d.ncols, entries)}
        bad = failing_square(bounds)
        if bad is None:
            perturbed = ChainComplex(C.basis, bounds)
            assert homology(perturbed) == reference_homology(perturbed)
        else:
            with pytest.raises(ComplexInvalid, match=f"^d_{bad} ∘ d_{bad + 1} != 0$"):
                ChainComplex(C.basis, bounds)

    def test_models_are_valid(self):
        # the unperturbed models pass the full products too
        for key in MODELS:
            assert failing_square(model_complex(*key).boundaries) is None


class TestMappingCone:
    def test_cone_of_identity_is_acyclic(self):
        for C in (circle_complex(), sphere_complex()):
            ident = {q: identity(C.dim(q)) for q in C.basis}
            assert homology(mapping_cone(C, C, ident)) == HomologySummary.of({})

    @pytest.mark.parametrize("n,k", [(2, 0), (5, 3), (12, 1)])
    def test_cone_of_multiplication(self, n, k):
        A = ChainComplex({k: ["a"]}, {})
        B = ChainComplex({k: ["b"]}, {})
        cone = mapping_cone(A, B, {k: from_dense([[n]])})
        assert homology(cone) == HomologySummary.of({k: (0, (n,))})

    def test_cone_euler_characteristic(self):
        C = sphere_complex()
        cone = mapping_cone(C, C, {q: identity(C.dim(q)) for q in C.basis})
        assert euler_characteristic(cone) == 0

    def test_chain_map_validation(self):
        # the cone's d ∘ d check is the chain-map check
        C = circle_complex()
        bad = {0: identity(3), 1: from_dense([[1, 0, 0], [0, 1, 0], [0, 1, 1]])}
        with pytest.raises(NotAChainMap, match="do not commute"):
            mapping_cone(C, C, bad)
        # a mis-sized map is caught before the cone is built
        with pytest.raises(DimensionMismatch, match="map at degree 1 is 2x2"):
            mapping_cone(C, C, {0: identity(3), 1: identity(2)})
        with pytest.raises(DimensionMismatch, match="map at degree 2 is 1x0"):
            mapping_cone(C, C, {2: SparseIntMatrix(1, 0)})


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
