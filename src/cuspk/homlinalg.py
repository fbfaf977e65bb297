"""Exact linear algebra over the integers and the rationals.

Provides the machinery every homology computation in the toolkit runs on:
sparse integer matrices, built from their row dicts or, by `of_map`, from
a map between labelled bases, Smith normal form with the unimodular
transforms of one side, chain complexes with integral homology (ranks,
torsion and generator lifts) and mapping cones.  A complex is a basis of
labels and a face map, the rule that gives the boundary of a label, and
it builds its boundary matrices from them; a cone takes its map on labels
too, and needs no separate chain-map check: its own d ∘ d check is that
check.  The LP helpers at the end (`lp_separate`, `lp_optimize`,
`feasibility_certificate` and `SeparationResult`) wrap the simplex
tableau of `cuspk.exactlp`, imported on first use, as `fractions` is, so
that the homology suites load neither.  Nothing under `src/` calls them;
they stay only as targets of `perfbench/tracer.py` until the next
benchmark change.

A transform is kept as the elimination's own operations, one flat log per
Smith form, never as a matrix: generators and coordinates need U, U^-1,
V and V^-1 on a few vectors only, and replaying the log applies each (the
product form of the inverse of the revised simplex method).  At (2,3),
m = 17 the Connes statement takes 7-10 s and its process peaks at 222 MB
VmHWM, where a set per column in the elimination's index took 9-11 s and
325 MB (2-vCPU Xeon, CPython 3.11.7, the bar complex built first).

The Smith form needs no divisibility repair: the elimination extracts
its pivots in an order where each divides the next (unit pivots first,
then each non-unit pivot only once it divides everything left), and
that order is the returned diagonal.

A complex is factored once, when it is built, on a reduced complex
(Kaczynski, Mrozek and Ślusarek, Comput. Math. Appl. 35 (1998);
Sköldberg, Trans. AMS 358 (2006)).  Each unit pivot of d_q pairs a cell
of C_q with a cell of C_{q-1}, and the pair splits off as a contractible
summand, so its row of d_{q+1} can be dropped before the Smith form of
d_{q+1}.  This is exact for the unit pivots taken before the
elimination's first general-phase step (the split of the result): until
then every column operation adds a multiple of the pivot column, so V^-1
differs from the identity only at pivot rows, and d_q ∘ d_{q+1} = 0 makes
those rows of V^-1 d_{q+1} vanish; the other rows are the rows of
d_{q+1}.  The first general-phase step edits a column that may never
become a pivot, so no later pivot is dropped.

Before the Smith form, the rows of d_q that survive the drop go through
a coreduction pass (Mrozek and Batko, Discrete Comput. Geom. 41 (2009)):
a column with a single entry, a unit, is a pivot that needs no row
operation, and clearing its row adds multiples of the pivot column only
to that row.  So these pivots are split pivots by the argument above;
the rows they leave go through smith_normal_form, and the split of d_q is
the paired columns followed by the split of that remainder.

d ∘ d = 0 is checked on a spanning set of rows of each d_q only, which is
exact.  A row of d_q emptied during the unit phase of the elimination is
a combination of the pivot rows, since each row operation of that phase
adds a multiple of a pivot row, so the coreduction rows, the unit-pivot
rows and the rows still nonzero when the general phase starts span every
row that survived the drop.  A dropped row lies in the span of the rows
kept: with V the column transform of the reduced d_{q-1}, the rows of
V^-1 d_q at its split vanish, the others are the kept rows of d_q, and V
is invertible.  That needs d_{q-1} ∘ d_q = 0, so the degrees run in
ascending order, each checked before the next drops rows, and a failing
complex names the least q with d_q ∘ d_{q+1} != 0.  Each row's product
accumulates in one dense list of the width of d_{q+1}, allocated once per
degree; only the columns the row reaches are read back, and a row that
passes leaves the list all zero, so nothing is reset.  The dict per row
it replaces took about 1.3 times as long on the checks of the prop51
cells of the README pairs, m <= 12.

`HomologyEngine` builds each boundary it reads once and keeps it for its
own life, which is one Connes statement: d_q, d_{q+1} and d_{q+2}, where
rebuilding on every read took seven builds.

No floating point enters this module; torsion results are exact and the
LP certificates can be re-verified by direct substitution.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import NamedTuple

from cuspk.errors import (ComplexInvalid, DimensionMismatch, NotAChainMap,
                          TheoremViolation)


class SparseIntMatrix:
    """Immutable sparse integer matrix stored row-major: rows[r] is the
    {column: value} dict of the nonzero entries of row r, kept as given."""

    __slots__ = ("nrows", "ncols", "_rows")

    def __init__(self, nrows: int, ncols: int, rows: list) -> None:
        self.nrows, self.ncols, self._rows = nrows, ncols, rows

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
        return cls(len(rows), len(cols), out)

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self._rows)

    def matvec(self, x) -> list:
        if len(x) != self.ncols:
            raise DimensionMismatch("vector length != ncols")
        out = []
        for row in self._rows:
            out.append(sum(v * x[c] for c, v in row.items()))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseIntMatrix):
            return NotImplemented
        return (self.nrows, self.ncols) == (other.nrows, other.ncols) and \
            self._rows == other._rows

    def __repr__(self) -> str:
        return f"SparseIntMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class SNFResult:
    """Invariant factors of M, and the elimination log of one side.

    diag holds the nonzero invariant factors d_1 | d_2 | ... (positive).
    split holds the columns of the leading pivots, those taken before the
    first general-phase step (see the module docstring).  spanning holds
    rows of M whose span contains every row of M: the rows of the leading
    pivots and the rows still nonzero at the first general-phase step.

    row_log ("left") and col_log ("right") are flat lists of (i, j, t), the
    row operations x[i] += t * x[j] ((r, r, -1) negates x[r]) in the order
    made.  Replayed in order (`_replay`), a row log applies U and a column
    log V^-1, and backwards U^-1 and V, where row i of U M V = D is row
    order[i] of the elimination and column j its column order[j]: the
    pivots in extraction order, then the rest.  None marks an untracked side.
    """

    __slots__ = ("diag", "split", "spanning", "row_log", "col_log", "order")

    def __init__(self, diag: list, split: tuple = (), spanning: tuple = (),
                 row_log: list | None = None, col_log: list | None = None,
                 order: list | None = None) -> None:
        self.diag = diag
        self.split = split
        self.spanning = spanning
        self.row_log = row_log
        self.col_log = col_log
        self.order = order

    @property
    def rank(self) -> int:
        return len(self.diag)


def _axpy(dst: dict, src: dict, t: int) -> None:
    """dst += t * src on sparse {index: value} dicts; zeros leave no key."""
    for k, v in src.items():
        nv = dst.get(k, 0) + t * v
        if nv:
            dst[k] = nv
        elif k in dst:
            del dst[k]


def _replay(log: list, x: list, backward: bool = False) -> None:
    """Apply the row operations of log to the vector x in place: in order,
    or, when backward, their inverses in reverse order."""
    it = reversed(log) if backward else iter(log)
    for a, j, b in zip(it, it, it):
        i, t = (b, -a) if backward else (a, b)
        if i == j:
            x[i] = -x[i]
        elif x[j]:
            x[i] += t * x[j]


class _SnfWork:
    """Mutable elimination state.  log takes the row operations of a "left"
    run, or the column operations of a "right" run as those of V^-1.

    The column index is two lists.  count[c] is the number of entries in
    column c, exact after every operation.  cols[c] lists every row that
    holds an entry in column c, and may also list a row twice or a row that
    has lost the entry: a row is appended when it gains the entry and
    removed only when `column` reads c, which keeps the rows that still
    hold c, once each.  Every pivot choice reads count, and only a pivot's
    column is read, so the pivots are those a set per column would give.
    A set takes 216 bytes for up to four entries and 45-85 bytes an entry
    past that, a list slot takes 8, and an entry that cancels costs no
    removal; at (2,3), m = 17 the working state of the Connes statement's
    Smith forms was most of its 325 MB peak with sets.
    """

    def __init__(self, matrix: SparseIntMatrix, left: bool, right: bool):
        self.m, self.n = matrix.nrows, matrix.ncols
        self.rows = [dict(row) for row in matrix._rows]
        self.cols: list[list] = [[] for _ in range(self.n)]
        for r, row in enumerate(self.rows):
            for c in row:
                self.cols[c].append(r)
        self.count = [len(rows) for rows in self.cols]
        self.left, self.right = left, right
        self.log = []

    def column(self, c: int) -> list:
        """The rows that hold an entry in column c, each once; cols[c] is
        compacted to them."""
        held = self.cols[c]
        if len(held) != self.count[c]:
            # every row that holds c is listed, so a list as long as the
            # count has no duplicate and no stale row
            rows = self.rows
            held = [r for r in dict.fromkeys(held) if c in rows[r]]
            self.cols[c] = held
        return held

    def row_add(self, r1: int, r2: int, t: int) -> None:
        # row r1 += t * row r2
        row2 = self.rows[r2]
        row1 = self.rows[r1]
        cols, count = self.cols, self.count
        for c, v in row2.items():
            nv = row1.get(c, 0) + t * v
            if nv:
                if c not in row1:
                    cols[c].append(r1)
                    count[c] += 1
                row1[c] = nv
            elif c in row1:
                del row1[c]
                count[c] -= 1
        if self.left and t:
            self.log += (r1, r2, t)

    def row_negate(self, r: int) -> None:
        self.rows[r] = {c: -v for c, v in self.rows[r].items()}
        if self.left:
            self.log += (r, r, -1)


def _snf_work_run(work: _SnfWork):
    """Eliminate to diagonal form.

    Returns the (row, col, value) pivots in extraction order, the
    number of leading pivots taken before the first general-phase step,
    and the rows still nonzero at that step.
    """
    rows, count = work.rows, work.count
    heap = [(len(row), r) for r, row in enumerate(rows) if row]
    heapq.heapify(heap)
    pivots = []
    split = None
    live = []

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
        # each operation adds a multiple of row r0 to a different row, so
        # they commute and the order of the column read changes nothing
        for r in work.column(c0):
            if r != r0:
                work.row_add(r, r0, -(rows[r][c0] // v))
        # with |v| == 1 all column entries clear exactly; then clear the row
        if count[c0] == 1:
            row = rows[r0]
            for c in list(row):
                if c == c0:
                    continue
                # column c0 holds only row r0, so column c -= t * column c0
                # reduces row r0 modulo v and changes nothing else; in V^-1
                # it is row c0 += t * row c
                t, rem = divmod(row[c], v)
                if work.right and t:
                    work.log += (c0, c, t)
                if rem:
                    row[c] = rem
                else:
                    del row[c]
                    count[c] -= 1
            return all(c == c0 for c in row)
        return False

    def extract(r0, c0):
        # the pivot's row and column are spent: nothing enters either again
        v = rows[r0][c0]
        rows[r0] = {}
        count[c0] = 0
        work.cols[c0] = []
        pivots.append((r0, c0, abs(v)))

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
                    k = count[c]
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
            extract(r0, c0)
            continue
        # no unit entries anywhere: general phase on the smallest-magnitude
        # entry, rescanned after every step because a remainder may undercut it
        if split is None:
            split = len(pivots)
            live = [r for r, row in enumerate(rows) if row]
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
                extract(r0, c0)
                break
            work.row_add(r0, offender, 1)
        heap = [(len(row), r) for r, row in enumerate(rows) if row]
        heapq.heapify(heap)
    return pivots, len(pivots) if split is None else split, live


def smith_normal_form(matrix: SparseIntMatrix,
                      transforms: bool | str = False) -> SNFResult:
    """Smith normal form over the integers.

    transforms="left" logs the row operations of the elimination, and
    transforms="right" its column operations, with the pivot-first order of
    that side (see SNFResult); no transform matrix is built.  Factor-only
    mode (False) logs nothing.

    The matrix evolves the same way in every mode, because a column
    operation of the elimination only reduces the pivot row modulo the
    pivot, and every mode makes that reduction in place.  So every mode
    takes the same pivots, and the U of a left run and the V of a right
    run satisfy U M V = D = diag(invariant factors) exactly.

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
    pivots, split, live = _snf_work_run(work)
    diag = [v for _, _, v in pivots]
    if any(b % a for a, b in zip(diag, diag[1:])):
        raise TheoremViolation(f"Smith diagonal {diag} is no divisibility chain")
    order = None
    if left or right:
        # the pivot rows (left) or columns (right) first, then the rest
        order = [p[0 if left else 1] for p in pivots]
        taken = set(order)
        order += [i for i in range(work.m if left else work.n) if i not in taken]
    lead = pivots[:split]
    return SNFResult(diag, tuple(c for _, c, _ in lead),
                     tuple(r for r, _, _ in lead) + tuple(live),
                     work.log if left else None, work.log if right else None,
                     order)


# ---------------------------------------------------------------------------
# chain complexes


class ChainComplex:
    """A bounded complex of free Z-modules with labelled bases.

    basis maps a degree q to the list of basis labels of C_q, and
    faces(label) yields the (label, coeff) pairs of the boundary of a
    label, as `SparseIntMatrix.of_map` reads them: labels outside the basis
    one degree down are dropped.  Degrees not present are zero.
    Construction builds each d_q once, by ascending degree, factors it on
    the reduced complex of the module docstring and keeps the result in
    smith[q]; it checks d ∘ d = 0 on the rows of each d_q that the
    factoring finds to span all of them, with only d_q and d_{q+1} built
    at a time.  No matrix is kept: boundary(q) builds d_q again from the
    labels, the same matrix every time, row key order included.
    """

    def __init__(self, basis: dict, faces):
        self.basis = {q: list(lbls) for q, lbls in basis.items() if lbls}
        self.faces = faces
        self.smith: dict[int, SNFResult] = {}
        split = ()
        upper = None
        for q in sorted(set(self.basis) | {q + 1 for q in self.basis}):
            # d_q is the previous degree's d_{q+1} when that was built
            mat, upper = upper, None
            if q not in self.basis or q - 1 not in self.basis:
                self.smith[q] = SNFResult([])
                split = ()
                continue
            if mat is None:
                mat = self.boundary(q)
            self.smith[q], spanning = _factor_reduced(mat, split)
            # d_q's last reader is done; spanning keeps only its own rows
            mat = None
            split = self.smith[q].split
            if q + 1 in self.basis:
                upper = self.boundary(q + 1)
                if not _annihilates(spanning, upper):
                    raise ComplexInvalid(f"d_{q} ∘ d_{q + 1} != 0")
            spanning = None

    def dim(self, q: int) -> int:
        return len(self.basis.get(q, ()))

    def boundary(self, q: int) -> SparseIntMatrix:
        return SparseIntMatrix.of_map(self.basis.get(q - 1, []),
                                      self.basis.get(q, []), self.faces)


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


def _coreduce(rows: list, ncols: int) -> tuple:
    """Coreduction pairs of the matrix with the given rows (Mrozek and
    Batko, Discrete Comput. Geom. 41 (2009)): while some column holds a
    single entry and it is +-1, pair the column with that entry's row and
    drop the row, which can leave further columns with a single entry.

    Returns the (row, column) pairs in the order taken and the indices of
    the rows left.  A column's entry count and the xor of its row indices
    name the row of a single entry, so no column sets are built.  Columns
    are taken first in, first out: which rows a pass leaves depends on the
    order, and last in, first out left the Smith forms of the bar complex
    at (2,3), m = 16 with 5.6 times the peak nonzeros (430410 to 77189).
    """
    count = [0] * ncols
    xor = [0] * ncols
    for r, row in enumerate(rows):
        for c in row:
            count[c] += 1
            xor[c] ^= r
    # a count only falls, so each column passes 1 at most once
    queue = deque(c for c in range(ncols) if count[c] == 1)
    alive = [True] * len(rows)
    pairs = []
    while queue:
        c = queue.popleft()
        if count[c] != 1:
            continue
        r = xor[c]
        if rows[r][c] not in (1, -1):
            continue
        alive[r] = False
        pairs.append((r, c))
        for c2 in rows[r]:
            count[c2] -= 1
            xor[c2] ^= r
            if count[c2] == 1:
                queue.append(c2)
    return pairs, [r for r, keep in enumerate(alive) if keep]


def _factor_reduced(mat: SparseIntMatrix, drop: tuple) -> tuple:
    """Smith form of d_q = mat outside the rows drop (the split of d_{q-1}),
    and rows of d_q whose span holds every row of d_q.

    Coreduction pairs come first, as unit pivots, and the rows they leave
    go through smith_normal_form.  The result's diagonal and split put the
    pairs before the remainder's, and the spanning rows are the pair rows
    and the remainder's spanning rows (see the module docstring).
    """
    drop = set(drop)
    rows = [row for i, row in enumerate(mat._rows) if i not in drop]
    pairs, rest = _coreduce(rows, mat.ncols)
    remainder = smith_normal_form(SparseIntMatrix(
        len(rest), mat.ncols, [rows[i] for i in rest]))
    spanning = [rows[r] for r, _ in pairs] + \
        [rows[rest[i]] for i in remainder.spanning]
    return SNFResult([1] * len(pairs) + remainder.diag,
                     tuple(c for _, c in pairs) + remainder.split), spanning


def _annihilates(rows: list, upper: SparseIntMatrix) -> bool:
    """Whether every row in rows, a {column: value} dict, times upper is zero.

    The products accumulate in one dense list of upper's width; a row reads
    back only the columns of the rows of upper it reached, and a row whose
    product is zero leaves the list all zero, so it is never reset.  The
    first nonzero ends the check."""
    urows = upper._rows
    acc = [0] * upper.ncols
    for row in rows:
        for c, v in row.items():
            for c2, w in urows[c].items():
                acc[c2] += v * w
        for c in row:
            for c2 in urows[c]:
                if acc[c2]:
                    return False
    return True


def homology(C: ChainComplex) -> HomologySummary:
    """Integral homology of C: ranks and torsion, no generators.

    H_q has free rank dim C_q - rank d_q - rank d_{q+1} and torsion the
    invariant factors > 1 of d_{q+1}: the factors of the inclusion of the
    image into the kernel are those of the matrix itself.  The Smith forms
    are those C took of its reduced boundary matrices when it was built.
    """
    out = {}
    for q in C.basis:
        lower, upper = C.smith[q], C.smith[q + 1]
        r = C.dim(q) - lower.rank - upper.rank
        out[q] = (r, tuple(t for t in upper.diag if t > 1))
    return HomologySummary.of(out)


class HomologyEngine:
    """Homology with generator lifts and coordinates, degree by degree.

    Heavier than :func:`homology` because it logs the operations of Smith
    forms; use it only at the degrees where explicit cycles are needed.  It
    logs only the sides it reads, the columns of d_q, whose V gives the
    kernel, and the rows of the relations on the kernel, and replays each
    log on the vectors it needs instead of building a transform.  Chains
    in and out are coordinate vectors on the basis of C_q, as
    `SparseIntMatrix.matvec` takes and returns them.  Each boundary it
    reads is built once, by `boundary`, and kept for the engine's life.
    """

    def __init__(self, C: ChainComplex):
        self.C = C
        self._deg: dict[int, dict] = {}
        self._boundaries: dict[int, SparseIntMatrix] = {}

    def boundary(self, q: int) -> SparseIntMatrix:
        """d_q of the complex, built on first use."""
        if q not in self._boundaries:
            self._boundaries[q] = self.C.boundary(q)
        return self._boundaries[q]

    def _data(self, q: int) -> dict:
        if q in self._deg:
            return self._deg[q]
        lower = smith_normal_form(self.boundary(q), transforms="right")
        r = lower.rank
        kernel = lower.order[r:]
        # V^-1 d_{q+1}, the column log replayed on the rows of d_{q+1}, a
        # row copied only when the log first writes to it; d_q ∘ d_{q+1} = 0
        # forces the pivot rows to vanish, and the kernel rows are the
        # relations on the kernel
        upper = self.boundary(q + 1)
        image = list(upper._rows)
        it = iter(lower.col_log)
        for i, j, t in zip(it, it, it):
            if image[j]:
                if image[i] is upper._rows[i]:
                    image[i] = dict(image[i])
                _axpy(image[i], image[j], t)
        if any(image[c] for c in lower.order[:r]):
            raise ComplexInvalid("boundary image is not a cycle")
        relations = SparseIntMatrix(len(kernel), upper.ncols,
                                    [image[c] for c in kernel])
        # the emptied pivot rows keep their dicts' tables; free them first
        image = None
        rel = smith_normal_form(relations, transforms="left")
        # the kept indices i of the relation diagonal (order != 1), torsion
        # by increasing order first, then the free ones
        orders = rel.diag + [0] * (len(kernel) - rel.rank)
        keep = sorted(((i, o) for i, o in enumerate(orders) if o != 1),
                      key=lambda g: (g[1] == 0, g[1]))
        data = {"lower": lower, "rel": rel, "kernel": kernel, "keep": keep}
        self._deg[q] = data
        return data

    def group(self, q: int) -> tuple:
        keep = self._data(q)["keep"]
        return (sum(1 for _, order in keep if order == 0),
                tuple(order for _, order in keep if order))

    def generators(self, q: int) -> list:
        """List of (order, vector) pairs; order 0 means infinite.

        The vectors are computed on the first call for q, not by `_data`: a
        Connes statement reads the generators of one of its two degrees.
        Generator i is V applied to U^-1 e_i, placed on the kernel columns.
        """
        data = self._data(q)
        if "generators" not in data:
            lower, rel, kernel = data["lower"], data["rel"], data["kernel"]
            gens = []
            for i, order in data["keep"]:
                z = [0] * len(kernel)
                z[rel.order[i]] = 1
                _replay(rel.row_log, z, backward=True)
                vec = [0] * self.C.dim(q)
                for t, v in enumerate(z):
                    vec[kernel[t]] = v
                _replay(lower.col_log, vec, backward=True)
                gens.append((order, vec))
            data["generators"] = gens
        return [(order, list(vec)) for order, vec in data["generators"]]

    def coordinates(self, q: int, vec) -> list:
        """Coordinates of the cycle vec in the generator basis of H_q: U V^-1
        applied to it, on the kernel columns.

        Torsion coordinates are reduced into [0, order).  Raises ValueError
        if vec is not a cycle: U d_q V = D holds for the logged operations,
        so d_q vec = 0 exactly when V^-1 vec is zero on the pivot columns,
        and no product with d_q is needed.  The logs are replayed on a
        copy, so vec is left as it is.
        """
        if len(vec) != self.C.dim(q):
            raise DimensionMismatch("vector length != dim C_q")
        data = self._data(q)
        lower, rel = data["lower"], data["rel"]
        vec = list(vec)
        _replay(lower.col_log, vec)
        if any(vec[c] for c in lower.order[:lower.rank]):
            raise ValueError("chain is not a cycle")
        y = [vec[c] for c in data["kernel"]]
        _replay(rel.row_log, y)
        y = [y[i] for i in rel.order]
        return [y[i] % order if order else y[i] for i, order in data["keep"]]


def mapping_cone(dom: ChainComplex, cod: ChainComplex, f) -> ChainComplex:
    """Cone(f)_q = A_{q-1} + B_q with d(a, b) = (-dA a, dB b - f a), for
    A = dom, B = cod and the chain map f given on labels: f(a) yields the
    (label, coeff) pairs of the image of a in B, in the degree of a.  A
    target outside B's basis in that degree is dropped, as `of_map` drops
    the faces outside a relative complex's basis.

    Labels are ("dom", original label) for the shifted copy of the domain
    and ("cod", original label) for the codomain.  The convention makes
    cone(identity) acyclic and cone(Z --n--> Z in degree k) have homology
    Z/n in degree k.

    d(d(a, b)) = (dA dA a, dB dB b - (dB f - f dA) a), so the cone's own
    d ∘ d check is the chain-map check: it fails exactly when f does not
    commute with the boundary maps, and raises NotAChainMap.
    """
    A, B = dom, cod
    basis = {}
    for q in set(q + 1 for q in A.basis) | set(B.basis):
        basis[q] = [("dom", lbl) for lbl in A.basis.get(q - 1, ())] + \
                   [("cod", lbl) for lbl in B.basis.get(q, ())]

    def faces(lbl):
        side, x = lbl
        if side == "cod":
            for y, c in B.faces(x):
                yield ("cod", y), c
            return
        for y, c in A.faces(x):
            yield ("dom", y), -c
        for y, c in f(x):
            yield ("cod", y), -c

    try:
        return ChainComplex(basis, faces)
    except ComplexInvalid as exc:
        raise NotAChainMap(f"the map and the boundary do not commute: {exc}") from None


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
