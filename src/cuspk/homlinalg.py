"""Exact linear algebra over the integers and the rationals.

Provides the machinery every homology computation in the toolkit runs on:
sparse integer matrices, Smith normal form with the unimodular
transforms of one side, chain complexes with integral homology (ranks,
torsion and generator lifts) and mapping cones.  A cone takes its map as
degreewise matrices and needs no separate chain-map check: its own d ∘ d
check is that check.  The LP helpers at the end wrap the
simplex tableau of `cuspk.exactlp`, imported on first use, as `fractions`
is, so that the homology suites load neither.

The Smith form needs no divisibility repair: the elimination extracts
its pivots in an order where each divides the next (unit pivots first,
then each non-unit pivot only once it divides everything left), and
that order is the returned diagonal.

Homology runs on a reduced complex (Kaczynski, Mrozek and Ślusarek,
Comput. Math. Appl. 35 (1998); Sköldberg, Trans. AMS 358 (2006)).  Each
unit pivot of d_q pairs a cell of C_q with a cell of C_{q-1}, and the
pair splits off as a contractible summand, so its row of d_{q+1} can be
dropped before the Smith form of d_{q+1}.  This is exact for the unit
pivots taken before the elimination's first general-phase step (the
split of the result): until then every column operation adds a multiple
of the pivot column, so V^-1 differs from the identity only at pivot
rows, and d_q ∘ d_{q+1} = 0 makes those rows of V^-1 d_{q+1} vanish;
the other rows are the rows of d_{q+1}.  The first general-phase step
edits a column that may never become a pivot, so no later pivot is
dropped.

No floating point enters this module; torsion results are exact and the
LP certificates can be re-verified by direct substitution.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from cuspk.errors import (ComplexInvalid, DimensionMismatch, NotAChainMap,
                          TheoremViolation)


class SparseIntMatrix:
    """Immutable sparse integer matrix stored row-major."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows: int, ncols: int, entries=None):
        if nrows < 0 or ncols < 0:
            raise DimensionMismatch("negative dimensions")
        rows = [dict() for _ in range(nrows)]
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise DimensionMismatch(f"entry ({r},{c}) outside {nrows}x{ncols}")
                if type(v) is not int:
                    raise ValueError(f"entry ({r},{c}) = {v!r} is not an int")
                if v:
                    rows[r][c] = v
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows

    @classmethod
    def _from_rows(cls, nrows, ncols, rows):
        m = cls.__new__(cls)
        m.nrows, m.ncols, m._rows = nrows, ncols, rows
        return m

    @classmethod
    def of_map(cls, rows: list, cols: list, image) -> "SparseIntMatrix":
        """Matrix of a map between labelled bases.

        Column c holds image(cols[c]), an iterable of (label, coeff) pairs.
        Repeated labels add up, zero sums leave no entry, and labels outside
        rows are dropped: they span the subcomplex that a relative complex
        divides out.  Columns are filled in order, so each row lists its
        columns increasingly.
        """
        index = {lbl: i for i, lbl in enumerate(rows)}.get
        out = [{} for _ in rows]
        for c, lbl in enumerate(cols):
            for tgt, coeff in image(lbl):
                r = index(tgt)
                if r is not None:
                    # column c is the newest key of any row it enters, even
                    # after a zero sum removed it and a later term re-adds it
                    row = out[r]
                    v = row.get(c, 0) + coeff
                    if v:
                        row[c] = v
                    else:
                        row.pop(c, None)
        return cls._from_rows(len(rows), len(cols), out)

    def row(self, r: int) -> dict:
        return self._rows[r]

    def entries(self):
        for r, row in enumerate(self._rows):
            for c, v in row.items():
                yield (r, c), v

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self._rows)

    def __matmul__(self, other: "SparseIntMatrix") -> "SparseIntMatrix":
        if self.ncols != other.nrows:
            raise DimensionMismatch(f"{self.nrows}x{self.ncols} @ {other.nrows}x{other.ncols}")
        rows = []
        orows = other._rows
        for row in self._rows:
            acc: dict[int, int] = {}
            for c, v in row.items():
                for c2, v2 in orows[c].items():
                    acc[c2] = acc.get(c2, 0) + v * v2
            rows.append({c: v for c, v in acc.items() if v})
        return SparseIntMatrix._from_rows(self.nrows, other.ncols, rows)

    def matvec(self, x) -> list:
        if len(x) != self.ncols:
            raise DimensionMismatch("vector length != ncols")
        out = []
        for row in self._rows:
            out.append(sum(v * x[c] for c, v in row.items()))
        return out

    def column(self, c: int) -> dict:
        """Column c as {row: value}, nonzero entries only."""
        return {r: row[c] for r, row in enumerate(self._rows) if c in row}

    def is_zero(self) -> bool:
        return all(not row for row in self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and \
            self._rows == other._rows

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class SNFResult:
    """Invariant factors of M, and the transforms of one side.

    diag holds the nonzero invariant factors d_1 | d_2 | ... (positive).
    split holds the columns of the leading pivots, those taken before the
    first general-phase step (see the module docstring).
    A transform and its inverse are None when the run did not track that
    side (see smith_normal_form).
    """

    __slots__ = ("diag", "split", "U", "Uinv", "V", "Vinv")

    def __init__(self, diag: list, split: tuple = (),
                 U: SparseIntMatrix | None = None,
                 Uinv: SparseIntMatrix | None = None,
                 V: SparseIntMatrix | None = None,
                 Vinv: SparseIntMatrix | None = None) -> None:
        self.diag = diag
        self.split = split
        self.U = U
        self.Uinv = Uinv
        self.V = V
        self.Vinv = Vinv

    @property
    def rank(self) -> int:
        return len(self.diag)


class _SnfWork:
    """Mutable elimination state; transforms tracked in op-friendly layouts.

    left tracks U and U^-1 through the row operations, right tracks V and
    V^-1 through the column operations.
    """

    def __init__(self, matrix: SparseIntMatrix, left: bool, right: bool):
        self.m, self.n = matrix.nrows, matrix.ncols
        self.rows = [dict(row) for row in matrix._rows]
        self.cols: dict[int, set] = {}
        for r, row in enumerate(self.rows):
            for c in row:
                self.cols.setdefault(c, set()).add(r)
        self.left, self.right = left, right
        if left:
            self.U = [{i: 1} for i in range(self.m)]    # row-major
            self.Uic = [{i: 1} for i in range(self.m)]  # Uinv, column-major
        if right:
            self.Vc = [{i: 1} for i in range(self.n)]   # V, column-major
            self.Vir = [{i: 1} for i in range(self.n)]  # Vinv, row-major

    # -- primitive operations; every mutation of the matrix goes through these

    def row_add(self, r1: int, r2: int, t: int) -> None:
        # row r1 += t * row r2
        row2 = self.rows[r2]
        row1 = self.rows[r1]
        cols = self.cols
        for c, v in row2.items():
            nv = row1.get(c, 0) + t * v
            if nv:
                if c not in row1:
                    cols[c].add(r1)
                row1[c] = nv
            elif c in row1:
                del row1[c]
                cols[c].discard(r1)
        if self.left:
            u1, u2 = self.U[r1], self.U[r2]
            for c, v in u2.items():
                nv = u1.get(c, 0) + t * v
                if nv:
                    u1[c] = nv
                elif c in u1:
                    del u1[c]
            # Uinv: column r2 -= t * column r1
            c1, c2 = self.Uic[r1], self.Uic[r2]
            for rr, v in c1.items():
                nv = c2.get(rr, 0) - t * v
                if nv:
                    c2[rr] = nv
                elif rr in c2:
                    del c2[rr]

    def col_add(self, c1: int, c2: int, t: int) -> None:
        # col c1 += t * col c2; only a run that tracks V calls this
        rows = self.rows
        cols = self.cols
        for r in list(self.cols.get(c2, ())):
            v = rows[r][c2]
            nv = rows[r].get(c1, 0) + t * v
            if nv:
                if c1 not in rows[r]:
                    cols.setdefault(c1, set()).add(r)
                rows[r][c1] = nv
            elif c1 in rows[r]:
                del rows[r][c1]
                cols[c1].discard(r)
        v1, v2 = self.Vc[c1], self.Vc[c2]
        for rr, v in v2.items():
            nv = v1.get(rr, 0) + t * v
            if nv:
                v1[rr] = nv
            elif rr in v1:
                del v1[rr]
        # Vinv: row c2 -= t * row c1
        r1, r2 = self.Vir[c1], self.Vir[c2]
        for cc, v in r1.items():
            nv = r2.get(cc, 0) - t * v
            if nv:
                r2[cc] = nv
            elif cc in r2:
                del r2[cc]

    def row_negate(self, r: int) -> None:
        self.rows[r] = {c: -v for c, v in self.rows[r].items()}
        if self.left:
            self.U[r] = {c: -v for c, v in self.U[r].items()}
            self.Uic[r] = {rr: -v for rr, v in self.Uic[r].items()}


def _snf_work_run(work: _SnfWork):
    """Eliminate to diagonal form.

    Returns the (row, col, value) pivots in extraction order and the
    number of leading pivots taken before the first general-phase step.
    """
    rows, cols = work.rows, work.cols
    heap = [(len(row), r) for r, row in enumerate(rows) if row]
    heapq.heapify(heap)
    pivots = []
    split = None

    def push(r):
        if rows[r]:
            heapq.heappush(heap, (len(rows[r]), r))

    def pop_min_row(skip):
        # smallest-fill active row not in skip; lazy heap entries
        stash = []
        got = None
        while heap:
            nnz, r = heapq.heappop(heap)
            if not rows[r] or len(rows[r]) != nnz:
                if rows[r]:
                    heapq.heappush(heap, (len(rows[r]), r))
                continue
            if r in skip:
                stash.append((nnz, r))
                continue
            got = r
            break
        for item in stash:
            heapq.heappush(heap, item)
        return got

    def eliminate(r0, c0):
        v = rows[r0][c0]
        if v < 0:
            work.row_negate(r0)
            v = -v
        for r in list(cols[c0]):
            if r != r0:
                work.row_add(r, r0, -(rows[r][c0] // v))
        # with |v| == 1 all column entries clear exactly; then clear the row
        if all(r == r0 for r in cols[c0]):
            row = rows[r0]
            for c in list(row):
                if c == c0:
                    continue
                if work.right:
                    work.col_add(c, c0, -(row[c] // v))
                elif row[c] % v:
                    # column c0 holds only row r0, so the column operation
                    # is a reduction modulo v, which col_add does too
                    row[c] %= v
                else:
                    del row[c]
                    cols[c].discard(r0)
            return all(c == c0 for c in row)
        return False

    while True:
        skip = set()
        r0 = pop_min_row(skip)
        if r0 is None:
            break
        # prefer a unit pivot; hunt through rows by increasing fill
        unit = None
        while r0 is not None:
            best = None
            for c, v in rows[r0].items():
                if v == 1 or v == -1:
                    k = len(cols[c])
                    if best is None or k < best[0]:
                        best = (k, c)
            if best is not None:
                unit = (r0, best[1])
                break
            skip.add(r0)
            r0 = pop_min_row(skip)
        for r in skip:
            push(r)
        if unit is not None:
            r0, c0 = unit
            if not eliminate(r0, c0):
                raise TheoremViolation("a unit pivot did not clear its row "
                                       "and column")
            v = rows[r0].pop(c0)
            cols[c0].discard(r0)
            pivots.append((r0, c0, abs(v)))
            push(r0)
            continue
        # no unit entries anywhere: general phase on the smallest-magnitude
        # entry, rescanned after every step because a remainder may undercut it
        if split is None:
            split = len(pivots)
        while True:
            r0, c0, v0 = None, None, None
            for r, row in enumerate(rows):
                for c, v in row.items():
                    if v0 is None or abs(v) < v0:
                        r0, c0, v0 = r, c, abs(v)
            if not eliminate(r0, c0):
                continue
            # pivot isolated, so its row holds only v; extract it only once
            # it divides every remaining entry
            v = abs(rows[r0][c0])
            offender = next((r for r, row in enumerate(rows)
                             for w in row.values() if w % v), None)
            if offender is None:
                pivots.append((r0, c0, v))
                del rows[r0][c0]
                cols[c0].discard(r0)
                break
            work.row_add(r0, offender, 1)
        heap = [(len(row), r) for r, row in enumerate(rows) if row]
        heapq.heapify(heap)
    return pivots, len(pivots) if split is None else split


def smith_normal_form(matrix: SparseIntMatrix,
                      transforms: bool | str = False) -> SNFResult:
    """Smith normal form over the integers.

    transforms="left" returns U and U^-1, and transforms="right" V and
    V^-1, with U, V unimodular; the other pair is None.  Factor-only mode
    (False) skips all transform bookkeeping and is considerably faster; it
    returns the same invariant factors.

    The matrix evolves the same way in every mode, because a column
    operation of the elimination only reduces the pivot row modulo the
    pivot, and factor-only mode makes that reduction in place.  So a left
    run clears rows as cheaply as factor-only mode, and the U of a left run
    and the V of a right run satisfy U @ M @ V == D = diag(invariant
    factors) exactly.

    Every mode returns the pivots in the order the elimination extracts
    them, and that order already satisfies d_1 | d_2 | ...: every unit
    pivot is extracted before any other, and the general phase extracts a
    non-unit pivot v only once v divides every remaining entry.  Later row
    and column operations are integer combinations, so the remaining
    entries stay multiples of v and each later pivot is one of them.  No
    gcd/lcm repair of the diagonal is needed; the chain is re-checked.
    """
    if transforms not in (False, "left", "right"):
        raise ValueError(f"transforms={transforms!r}: expected False, 'left' "
                         f"or 'right'")
    left, right = transforms == "left", transforms == "right"
    work = _SnfWork(matrix, left, right)
    pivots, split = _snf_work_run(work)
    diag = [v for _, _, v in pivots]
    if any(b % a for a, b in zip(diag, diag[1:])):
        raise TheoremViolation(f"Smith diagonal {diag} is no divisibility chain")
    # move the pivots to the leading diagonal in extraction order
    U = Uinv = V = Vinv = None
    if left:
        row_order = _pivots_first([r for r, _, _ in pivots], work.m)
        U = SparseIntMatrix._from_rows(work.m, work.m, [work.U[r] for r in row_order])
        Uinv = _from_columns(work.m, [work.Uic[r] for r in row_order])
    if right:
        col_order = _pivots_first([c for _, c, _ in pivots], work.n)
        Vinv = SparseIntMatrix._from_rows(work.n, work.n, [work.Vir[c] for c in col_order])
        V = _from_columns(work.n, [work.Vc[c] for c in col_order])
    return SNFResult(diag, tuple(c for _, c, _ in pivots[:split]),
                     U, Uinv, V, Vinv)


def _pivots_first(pivots: list, n: int) -> list:
    """The pivot indices in extraction order, then the rest of range(n)."""
    taken = set(pivots)
    return pivots + [i for i in range(n) if i not in taken]


def _from_columns(n: int, columns: list) -> SparseIntMatrix:
    """The n x len(columns) matrix whose column j is the dict columns[j]."""
    rows = [{} for _ in range(n)]
    for j, col in enumerate(columns):
        for r, v in col.items():
            rows[r][j] = v
    return SparseIntMatrix._from_rows(n, len(columns), rows)


# ---------------------------------------------------------------------------
# chain complexes


class ChainComplex:
    """A bounded complex of free Z-modules with labelled bases.

    basis maps a degree q to the list of basis labels of C_q; boundaries
    maps q to the matrix of d_q : C_q -> C_{q-1} in those bases.  Degrees
    not present are zero.  Construction checks d ∘ d = 0.
    """

    def __init__(self, basis: dict, boundaries: dict):
        self.basis = {q: list(lbls) for q, lbls in basis.items() if lbls}
        self.boundaries = {}
        for q, mat in boundaries.items():
            want = (self.dim(q - 1), self.dim(q))
            if (mat.nrows, mat.ncols) != want:
                raise DimensionMismatch(
                    f"boundary at degree {q} is {mat.nrows}x{mat.ncols}, expected {want}")
            self.boundaries[q] = mat
        for q in list(self.boundaries):
            upper = self.boundaries.get(q + 1)
            if upper is not None and not (self.boundaries[q] @ upper).is_zero():
                raise ComplexInvalid(f"d_{q} ∘ d_{q + 1} != 0")

    def dim(self, q: int) -> int:
        return len(self.basis.get(q, ()))

    @property
    def degrees(self) -> list:
        return sorted(self.basis)

    def boundary(self, q: int) -> SparseIntMatrix:
        mat = self.boundaries.get(q)
        if mat is None:
            mat = SparseIntMatrix(self.dim(q - 1), self.dim(q))
        return mat

    def vector_from_chain(self, q: int, chain: dict) -> list:
        index = {lbl: i for i, lbl in enumerate(self.basis.get(q, ()))}
        vec = [0] * self.dim(q)
        for lbl, coeff in chain.items():
            if lbl not in index:
                raise KeyError(f"label {lbl!r} not in degree {q} basis")
            vec[index[lbl]] = coeff
        return vec

    def chain_from_vector(self, q: int, vec) -> dict:
        lbls = self.basis.get(q, ())
        return {lbls[i]: v for i, v in enumerate(vec) if v}


class HomologySummary(NamedTuple):
    """Homology groups by degree: degree -> (free rank, torsion orders).

    Torsion orders are > 1 and sorted by divisibility.  Degrees with
    trivial homology are omitted; equality ignores such degrees.
    """

    groups: tuple

    @classmethod
    def of(cls, mapping: dict) -> "HomologySummary":
        items = []
        for q, (r, tors) in sorted(mapping.items()):
            tors = tuple(t for t in tors if t > 1)
            if r or tors:
                items.append((q, (r, tors)))
        return cls(groups=tuple(items))

    def group(self, q: int) -> tuple:
        return dict(self.groups).get(q, (0, ()))

    def __str__(self) -> str:
        if not self.groups:
            return "0"
        parts = []
        for q, (r, tors) in self.groups:
            gens = ["Z"] * r + [f"Z/{t}" for t in tors]
            parts.append(f"H_{q}=" + "+".join(gens))
        return ", ".join(parts)


def _split_off(lower: SNFResult, upper: SparseIntMatrix) -> SparseIntMatrix:
    """The rows of upper = d_{q+1} outside the split of lower = SNF(d_q)."""
    drop = set(lower.split)
    return SparseIntMatrix._from_rows(
        upper.nrows - len(drop), upper.ncols,
        [row for i, row in enumerate(upper._rows) if i not in drop])


def homology(C: ChainComplex) -> HomologySummary:
    """Integral homology of C: ranks and torsion, no generators.

    H_q has free rank dim C_q - rank d_q - rank d_{q+1} and torsion the
    invariant factors > 1 of d_{q+1}: the factors of the inclusion of the
    image into the kernel are those of the matrix itself.  The Smith forms
    run by ascending degree on the reduced complex of the module docstring.
    """
    snf: dict[int, SNFResult] = {}
    for qq in sorted(set(C.basis) | {q + 1 for q in C.basis}):
        mat = C.boundary(qq)
        if qq - 1 in snf:
            mat = _split_off(snf[qq - 1], mat)
        snf[qq] = smith_normal_form(mat)
    out = {}
    for q in C.basis:
        r = C.dim(q) - snf[q].rank - snf[q + 1].rank
        out[q] = (r, tuple(t for t in snf[q + 1].diag if t > 1))
    return HomologySummary.of(out)


class HomologyEngine:
    """Homology with generator lifts and coordinates, degree by degree.

    Heavier than :func:`homology` because it tracks unimodular transforms;
    use it only at the degrees where explicit cycles are needed.  It tracks
    only the sides it reads: V and V^-1 of d_q, whose columns give the
    kernel, and U and U^-1 of the relations on the kernel.
    """

    def __init__(self, C: ChainComplex):
        self.C = C
        self._deg: dict[int, dict] = {}

    def _data(self, q: int) -> dict:
        if q in self._deg:
            return self._deg[q]
        C = self.C
        lower = smith_normal_form(C.boundary(q), transforms="right")
        r = lower.rank
        k = C.dim(q) - r  # kernel rank
        # image of d_{q+1} in the coordinates of V; d_q ∘ d_{q+1} = 0 forces
        # rows ..r-1 to vanish, and rows r.. are the relations on the kernel
        image = lower.Vinv @ C.boundary(q + 1)
        if any(image.row(i) for i in range(r)):
            raise ComplexInvalid("boundary image is not a cycle")
        B = SparseIntMatrix._from_rows(k, image.ncols, image._rows[r:])
        rel = smith_normal_form(B, transforms="left")
        # generator i is column i of U^-1 in the kernel basis, columns r..
        # of V; read only the kernel columns that some generator touches
        gens = []
        kernel = {}
        for i in range(k):
            order = rel.diag[i] if i < rel.rank else 0
            if order == 1:
                continue
            vec = [0] * C.dim(q)
            for t, cval in rel.Uinv.column(i).items():
                col = kernel.get(t)
                if col is None:
                    col = kernel[t] = lower.V.column(r + t)
                for rowi, kval in col.items():
                    vec[rowi] += cval * kval
            gens.append((order, vec))
        gens.sort(key=lambda g: (g[0] == 0, g[0]))
        data = {"lower": lower, "rel": rel, "rank_lower": r, "kernel_rank": k,
                "generators": gens}
        self._deg[q] = data
        return data

    def group(self, q: int) -> tuple:
        data = self._data(q)
        free = sum(1 for order, _ in data["generators"] if order == 0)
        tors = tuple(sorted(order for order, _ in data["generators"] if order > 1))
        return free, tors

    def generators(self, q: int) -> list:
        """List of (order, chain) pairs; order 0 means infinite."""
        data = self._data(q)
        return [(order, self.C.chain_from_vector(q, vec))
                for order, vec in data["generators"]]

    def coordinates(self, q: int, chain: dict) -> list:
        """Coordinates of a cycle in the generator basis of H_q.

        Torsion coordinates are reduced into [0, order).  Raises if the
        chain is not a cycle.
        """
        C = self.C
        vec = C.vector_from_chain(q, chain)
        if any(C.boundary(q).matvec(vec)):
            raise ValueError("chain is not a cycle")
        data = self._data(q)
        lower, rel = data["lower"], data["rel"]
        r, k = data["rank_lower"], data["kernel_rank"]
        coords_full = lower.Vinv.matvec(vec)
        if any(coords_full[:r]):
            raise TheoremViolation("cycle has image in nonkernel part")
        kc = coords_full[r:]
        y = rel.U.matvec(kc) if k else []
        # align with generators(): same (order, position) sort
        coords = []
        for i in range(k):
            order = rel.diag[i] if i < rel.rank else 0
            if order == 1:
                continue
            coords.append((order, y[i] % order if order else y[i]))
        coords.sort(key=lambda g: (g[0] == 0, g[0]))
        return [v for _, v in coords]


def mapping_cone(dom: ChainComplex, cod: ChainComplex, maps: dict) -> ChainComplex:
    """Cone(f)_q = A_{q-1} + B_q with d(a, b) = (-dA a, dB b - f a), for
    A = dom, B = cod and f_q = maps[q] : A_q -> B_q (0 where q is absent).

    Labels are ("dom", original label) for the shifted copy of the domain
    and ("cod", original label) for the codomain.  The convention makes
    cone(identity) acyclic and cone(Z --n--> Z in degree k) have homology
    Z/n in degree k.

    d(d(a, b)) = (dA dA a, dB dB b - (dB f - f dA) a), so the cone's own
    d ∘ d check is the chain-map check: it fails exactly when f does not
    commute with the boundaries, and raises NotAChainMap.  A map of the
    wrong shape raises DimensionMismatch.
    """
    A, B = dom, cod
    for q, f_q in maps.items():
        want = (B.dim(q), A.dim(q))
        if (f_q.nrows, f_q.ncols) != want:
            raise DimensionMismatch(f"map at degree {q} is {f_q.nrows}x{f_q.ncols},"
                                    f" expected {want}")
    degs = set(q + 1 for q in A.basis) | set(B.basis)
    basis = {}
    for q in degs:
        basis[q] = [("dom", lbl) for lbl in A.basis.get(q - 1, ())] + \
                   [("cod", lbl) for lbl in B.basis.get(q, ())]
    boundaries = {}
    for q in degs:
        na, nb = A.dim(q - 1), B.dim(q)
        rows_a, rows_b = A.dim(q - 2), B.dim(q - 1)
        entries = {}
        for (r, c), v in A.boundary(q - 1).entries():
            entries[(r, c)] = -v
        if q - 1 in maps:
            for (r, c), v in maps[q - 1].entries():
                entries[(rows_a + r, c)] = -v
        for (r, c), v in B.boundary(q).entries():
            entries[(rows_a + r, na + c)] = v
        boundaries[q] = SparseIntMatrix(rows_a + rows_b, na + nb, entries)
    try:
        return ChainComplex(basis, boundaries)
    except ComplexInvalid as exc:
        raise NotAChainMap(f"the maps do not commute with the boundaries: {exc}") from None


# ---------------------------------------------------------------------------
# exact rational linear programming


class SeparationResult(NamedTuple):
    """Outcome of a convex separation query.

    kind == "combination": coefficients are barycentric weights expressing
    the target as a convex combination of the points.
    kind == "separator": functional h and level delta with h.p >= delta
    for every point p and h.target < delta.
    """

    kind: str
    coefficients: tuple | None = None
    functional: tuple | None = None
    delta: Fraction | None = None


def feasibility_certificate(columns, rhs):
    """Exact feasibility of { lam >= 0 : sum lam_j col_j = rhs }.

    Returns ("feasible", lam) with an exact solution, or ("infeasible", y)
    with an exact Farkas functional: y . col_j <= 0 for all j, y . rhs > 0.
    Both certificates are re-verified before returning.
    """
    from cuspk.exactlp import SimplexTableau

    tab = SimplexTableau(columns, rhs)
    if tab.status == "infeasible":
        return "infeasible", tab.farkas
    return "feasible", tab.solution()


def lp_separate(points, target) -> SeparationResult:
    """Decide whether target lies in the convex hull of the points.

    Exact over the rationals.  Returns a convex combination when it does,
    and otherwise a separating functional (h, delta) with h.p >= delta for
    every point and h.target < delta.
    """
    from fractions import Fraction

    points = [list(map(Fraction, p)) for p in points]
    target = list(map(Fraction, target))
    d = len(target)
    for p in points:
        if len(p) != d:
            raise DimensionMismatch("point dimension mismatch")
    if not points:
        return SeparationResult(kind="separator",
                                functional=tuple([Fraction(0)] * d),
                                delta=Fraction(1))
    columns = [p + [Fraction(1)] for p in points]
    rhs = target + [Fraction(1)]
    status, data = feasibility_certificate(columns, rhs)
    if status == "feasible":
        lam = data
        if sum(lam) != 1:
            raise TheoremViolation("convex weights do not sum to 1")
        return SeparationResult(kind="combination", coefficients=tuple(lam))
    y = data
    g, gamma = y[:d], y[d]
    h = [-v for v in g]
    delta = gamma
    if any(sum(h[i] * p[i] for i in range(d)) < delta for p in points):
        raise TheoremViolation("separator puts a point below its level")
    if sum(h[i] * target[i] for i in range(d)) >= delta:
        raise TheoremViolation("separator does not put the target below its level")
    return SeparationResult(kind="separator", functional=tuple(h), delta=delta)


def lp_optimize(columns, rhs, objective, maximize=False):
    """Optimize objective . lam over { lam >= 0 : sum lam_j col_j = rhs }.

    Returns ("optimal", value, lam), ("infeasible", None, None) or
    ("unbounded", None, None).  Exact rational arithmetic throughout.
    """
    from cuspk.exactlp import SimplexTableau

    tab = SimplexTableau(columns, rhs)
    if tab.status == "infeasible":
        return "infeasible", None, None
    return tab.optimize(objective, maximize)
