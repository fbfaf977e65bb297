"""Gap-type simplicial complexes on the cyclic group and quotient homology.

For a weight m the simplex spanned by C_m carries the subcomplex generated
by the faces all of whose cyclic gaps are representable.  The homology of
the quotient space is computed from the subcomplex alone: the simplex is
contractible, so the long exact sequence of the pair gives
H_q(simplex, subcomplex) = H~_{q-1}(subcomplex) over Z, torsion included,
and the augmented chain complex of the subcomplex, with its empty face in
degree 0, has exactly these groups.  The relative chain complex on the
faces outside the subcomplex, some 2^m of them, stays for the explicit
degree-2 generator of the rank-one regime, which is a relative chain.  The
module also houses the closed-form homology of the comparison space and
the fixed-point bijection for subgroups of C_m.  It compares spaces only:
the circle-level statement (Proposition 5.1) is checked in `cyclicbar`,
which this module does not import.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .errors import (DEFAULT_BUDGET, PreconditionViolation, ResourceBound,
                     TheoremViolation)
from .homlinalg import ChainComplex, HomologySummary, SparseIntMatrix, homology
from .semigroup import Params, ell, member_table, weights

# Faces are bitmasks over the exponents {0, ..., m-1}.  The budget
# DEFAULT_BUDGET caps the 2^m subsets of C_m; the gap subcomplex is built
# without visiting them, but weights past the budget stay refused.


def mask_vertices(mask: int) -> tuple[int, ...]:
    """Exponents of a face mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def vertices_mask(vertices) -> int:
    mask = 0
    for e in vertices:
        mask |= 1 << e
    return mask


def rotate_mask(mask: int, m: int, k: int = 1) -> int:
    """Add k to every exponent mod m."""
    k %= m
    full = (1 << m) - 1
    return ((mask << k) | (mask >> (m - k))) & full if k else mask


def vertex_gaps(vs: tuple, m: int) -> tuple[int, ...]:
    """Successive differences of ascending exponents, read cyclically.

    A single vertex has the one gap m; the gaps of any face sum to m.
    """
    if not vs:
        raise ValueError("empty face has no gaps")
    return tuple(vs[i + 1] - vs[i] for i in range(len(vs) - 1)) + (m - vs[-1] + vs[0],)


def cyclic_gaps(mask: int, m: int) -> tuple[int, ...]:
    """The cyclic gaps of a face mask."""
    return vertex_gaps(mask_vertices(mask), m)


class CmComplex:
    """A rotation-invariant simplicial complex on the vertex set C_m."""

    __slots__ = ("m", "faces")

    def __init__(self, m: int, faces: frozenset) -> None:
        self.m = m
        self.faces = faces

    def __len__(self) -> int:
        return len(self.faces)


def face_in_sigma(p: Params, m: int, mask: int) -> bool:
    """Whether every cyclic gap of the face is representable."""
    rep = member_table(p, m)
    return all(rep[g] for g in cyclic_gaps(mask, m))


@lru_cache(maxsize=None)
def build_sigma(p: Params, m: int, budget: int = DEFAULT_BUDGET) -> CmComplex:
    """The subcomplex of faces whose cyclic gaps all lie in the semigroup.

    Rotation-invariant and subset-closed by construction: rotating a face
    permutes its gaps, and dropping a vertex merges two gaps into their sum.
    Nonempty exactly when m itself is representable (single vertices).

    Faces grow by ascending vertices from their least vertex, and only
    faces are extended, so the search visits the faces and no other
    subset.  That loses no face: an extension keeps every interior gap of
    the prefix and splits its closing gap into gaps that sum to it, so
    when a gap of the prefix is not representable, some gap of every
    extension is not either, since a sum of members is a member.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if 1 << m > budget:
        raise ResourceBound(f"2^{m} subsets exceed the budget of {budget}")
    rep = member_table(p, m)
    faces = []
    if rep[m]:
        # (least vertex, mask, last vertex) of the faces still to extend
        stack = [(v, 1 << v, v) for v in range(m)]
        while stack:
            first, mask, last = stack.pop()
            faces.append(mask)
            stack.extend((first, mask | 1 << v, v) for v in range(last + 1, m)
                         if rep[v - last] and rep[m - v + first])
    return CmComplex(m=m, faces=frozenset(faces))


def _face_boundary(mask: int):
    """(face, sign) of the simplicial boundary of a face mask: dropping
    the i-th least vertex has sign (-1)^i."""
    return ((mask ^ (1 << e), -1 if i % 2 else 1)
            for i, e in enumerate(mask_vertices(mask)))


def _relative_complex(p: Params, m: int, degrees, budget: int) -> ChainComplex:
    """Chain complex of the quotient of the full simplex by the gap subcomplex.

    Degree-q basis: the (q+1)-element subsets of C_m outside the subcomplex.
    Boundary faces that land in the subcomplex are dropped.  Only the listed
    degrees are materialised, so generator checks at large m stay cheap.
    Over all degrees this has the homology of `x_complex`, from about 2^m
    faces instead of the subcomplex's.
    """
    degrees = sorted(degrees)
    cost = sum(comb(m, q + 1) for q in degrees)
    if cost > budget:
        raise ResourceBound(f"{cost} basis faces exceed the budget of {budget}")
    rep = member_table(p, m)

    def outside(vs):
        return not all(rep[g] for g in vertex_gaps(vs, m))

    basis = {q: sorted(vertices_mask(c) for c in combinations(range(m), q + 1)
                       if outside(c))
             for q in degrees}
    boundaries = {q: SparseIntMatrix.of_map(basis[q - 1], basis[q], _face_boundary)
                  for q in degrees if q - 1 in basis}
    return ChainComplex(basis, boundaries)


def x_complex(p: Params, m: int, budget: int = DEFAULT_BUDGET) -> ChainComplex:
    """Augmented chain complex of the gap subcomplex, graded by vertex count.

    The empty face (mask 0) sits in degree 0 and a face with q vertices in
    degree q, so H_q of this complex is the reduced homology of the gap
    subcomplex one degree down.  The full simplex on C_m is contractible,
    so the long exact sequence of the pair makes that the relative
    homology H_q of the simplex modulo the subcomplex, torsion included;
    `_relative_complex` computes the same groups from the faces outside.
    When m is not representable the subcomplex is empty and H_0 = Z.
    build_sigma checks m and the budget.
    """
    basis = {0: [0]}
    for mask in sorted(build_sigma(p, m, budget).faces):
        basis.setdefault(mask.bit_count(), []).append(mask)
    boundaries = {q: SparseIntMatrix.of_map(basis[q - 1], basis[q], _face_boundary)
                  for q in basis if q}
    return ChainComplex(basis, boundaries)


def x_homology(p: Params, m: int, budget: int = DEFAULT_BUDGET) -> HomologySummary:
    """Reduced homology of the quotient space at weight m."""
    return homology(x_complex(p, m, budget))


def expected_y_homology(p: Params, m: int) -> HomologySummary:
    """Closed-form reduced homology of the comparison space.

    Concentrated in a single degree determined by the lattice count and the
    divisibility of m by a and b.
    """
    a, b = p.a, p.b
    r = ell(p, m)
    if m % a == 0 and m % b == 0:
        return HomologySummary.of({2 * r + 2: ((a - 1) * (b - 1), ())})
    if m % a == 0:
        return HomologySummary.of({2 * r + 1: (a - 1, ())})
    if m % b == 0:
        return HomologySummary.of({2 * r + 1: (b - 1, ())})
    return HomologySummary.of({2 * r: (1, ())})


class ConjectureBReport(NamedTuple):
    """Homology comparison of the two candidate models at one weight.

    The agreement flag is evidence, not a verdict: matching groups are
    necessary for the conjectured equivalence but never sufficient.
    """

    a: int
    b: int
    m: int
    x_summary: HomologySummary
    y_summary: HomologySummary
    agree: bool


def conjecture_b_homology_check(p: Params, m: int,
                                budget: int = DEFAULT_BUDGET) -> ConjectureBReport:
    """Compare the quotient-space homology with the closed form of the
    comparison space.

    The comparison is recorded as evidence; callers surface a disagreement
    as a finding rather than an error.  The circle-level statement that
    the relative cyclic bar homology equals its closed form is
    Proposition 5.1, checked by `cyclicbar.ty_agreement_check`.
    """
    x = x_homology(p, m, budget)
    y = expected_y_homology(p, m)
    return ConjectureBReport(a=p.a, b=p.b, m=m, x_summary=x, y_summary=y,
                             agree=x == y)


def fixed_point_check(p: Params, m: int, s: int,
                      budget: int = DEFAULT_BUDGET) -> bool:
    """Verify the fixed-point description of the gap complex under C_s.

    Roots of order s: the s-th power map sends the C_s-fixed faces at
    weight m onto the full complex at weight t = m/s, and the inverse
    replicates each face across the s blocks of residues mod t.  Checks
    that the replication map is a bijection onto the fixed faces and that
    it repeats each gap sequence s times.  Returns True; a mismatch raises
    TheoremViolation.
    """
    if s < 1 or m % s != 0:
        raise PreconditionViolation("s must be a positive divisor of m")
    t = m // s
    sigma_t = build_sigma(p, t, budget)
    sigma_m = build_sigma(p, m, budget)
    fixed = {f for f in sigma_m.faces if rotate_mask(f, m, t) == f}
    lifted = set()
    for g in sigma_t.faces:
        lift = 0
        for block in range(s):
            lift |= g << (block * t)
        lifted.add(lift)
        if sorted(cyclic_gaps(lift, m)) != sorted(cyclic_gaps(g, t) * s):
            raise TheoremViolation(
                f"lift of face {bin(g)} at (a,b,m,s)=({p.a},{p.b},{m},{s}) "
                "does not repeat the gap sequence")
    if lifted != fixed:
        raise TheoremViolation(
            f"fixed faces at (a,b,m,s)=({p.a},{p.b},{m},{s}) are not the "
            f"lifts: {len(fixed)} fixed vs {len(lifted)} lifted")
    return True


def generator_cycle(p: Params, m: int, budget: int = DEFAULT_BUDGET) -> dict:
    """Explicit degree-2 cycle generating the top homology, rank-one case.

    Requires exactly one interior lattice point and m divisible by neither
    a nor b.  The chain is supported on the triangles (0, t1, t2) with
    t2 < m' and t2 - t1 congruent to l or -l mod m', signed by which
    congruence holds; triangles lying in the gap subcomplex vanish in the
    quotient and are omitted from the returned mask-to-sign mapping.

    Asserts that the chain is a cycle and that its class generates the
    degree-2 homology, which is checked to be free of rank one.
    """
    a, b = p.a, p.b
    if ell(p, m) != 1:
        raise PreconditionViolation(f"need exactly one interior weight, "
                                    f"got {ell(p, m)} at m={m}")
    if m % a == 0 or m % b == 0:
        raise PreconditionViolation("m must be divisible by neither a nor b")
    data = weights(p, m)
    if len(data.open_weights) != 1:
        raise TheoremViolation(f"ell = 1 but {len(data.open_weights)} open weights")
    entry = data.entries[data.open_weights[0]]
    mp, l = entry.m_prime, entry.l
    if not a <= l <= mp - b:
        raise TheoremViolation(f"l = {l} lies outside [{a}, {mp - b}]")
    chain = {}
    for t1 in range(1, mp):
        for t2 in range(t1 + 1, mp):
            diff = (t2 - t1) % mp
            if diff != l and diff != mp - l:
                continue
            mask = vertices_mask((0, t1, t2))
            if not face_in_sigma(p, m, mask):
                chain[mask] = 1 if diff == l else -1
    C = _relative_complex(p, m, (1, 2, 3), budget)
    vec = C.vector_from_chain(2, chain)
    if any(C.boundary(2).matvec(vec)):
        raise TheoremViolation(f"generator chain at (a,b,m)=({a},{b},{m}) "
                               "is not a cycle")
    if homology(C).group(2) != (1, ()):
        raise TheoremViolation(f"degree-2 homology at (a,b,m)=({a},{b},{m}) "
                               "is not free of rank one")
    # quotient by the chain: append it as an extra degree-3 column and
    # demand that degree-2 homology dies
    aug = dict(C.boundary(3).entries())
    extra = C.dim(3)
    for r, v in enumerate(vec):
        if v:
            aug[(r, extra)] = v
    basis = {1: C.basis[1], 2: C.basis[2], 3: list(C.basis[3]) + ["cycle"]}
    bounds = {2: C.boundary(2),
              3: SparseIntMatrix(C.dim(2), extra + 1, aug)}
    if homology(ChainComplex(basis, bounds)).group(2) != (0, ()):
        raise TheoremViolation(f"chain at (a,b,m)=({a},{b},{m}) does not "
                               "generate the degree-2 homology")
    return chain
