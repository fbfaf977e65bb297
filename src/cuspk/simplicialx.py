"""Gap-type simplicial complexes on the cyclic group and quotient homology.

For a weight m the simplex spanned by C_m carries the subcomplex generated
by the faces all of whose cyclic gaps are representable.  The homology of
the quotient space is computed from the subcomplex alone: the simplex is
contractible, so the long exact sequence of the pair gives
H_q(simplex, subcomplex) = H~_{q-1}(subcomplex) over Z, torsion included,
and the augmented chain complex of the subcomplex, with its empty face in
degree 0, has exactly these groups.  The explicit degree-2 generator of
the rank-one regime is a relative chain; the connecting map of the pair
checks it on the 2-skeleton of the subcomplex, with the quotient by its
boundary taken as a mapping cone.  The module also houses the
closed-form homology of the comparison space and the fixed-point
bijection for subgroups of C_m.  It compares spaces only: the
circle-level statement (Proposition 5.1) is checked in `cyclicbar`, which
this module does not import.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (DEFAULT_BUDGET, PreconditionViolation, ResourceBound,
                     TheoremViolation)
from .homlinalg import ChainComplex, HomologySummary, homology, mapping_cone
from .semigroup import (Params, ell, mask_vertices, member_table,
                        rotate_mask, weights)

# Faces are bitmasks over the exponents {0, ..., m-1}.  The budget
# DEFAULT_BUDGET caps the faces of Σ that build_sigma builds; every check
# here, generator_cycle's included, reads a Σ built that way, so the
# budget counts faces throughout.


def vertices_mask(vertices) -> int:
    mask = 0
    for e in vertices:
        mask |= 1 << e
    return mask


def cyclic_gaps(mask: int, m: int) -> tuple[int, ...]:
    """The cyclic gaps of a face mask: successive differences of its
    ascending exponents, read cyclically.

    A single vertex has the one gap m; the gaps of any face sum to m.
    """
    vs = mask_vertices(mask)
    if not vs:
        raise ValueError("empty face has no gaps")
    return tuple(vs[i + 1] - vs[i] for i in range(len(vs) - 1)) + (m - vs[-1] + vs[0],)


class CmComplex:
    """A rotation-invariant simplicial complex on the vertex set C_m."""

    __slots__ = ("m", "faces")

    def __init__(self, m: int, faces: frozenset) -> None:
        self.m = m
        self.faces = faces

    def __len__(self) -> int:
        return len(self.faces)


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
    rep = member_table(p, m)
    faces = []
    if rep[m]:
        # (least vertex, mask, last vertex) of the faces still to extend
        stack = [(v, 1 << v, v) for v in range(m)]
        while stack:
            first, mask, last = stack.pop()
            faces.append(mask)
            if len(faces) > budget:
                raise ResourceBound(f"the gap complex in weight {m} has more "
                                    f"than {budget} faces")
            stack.extend((first, mask | 1 << v, v) for v in range(last + 1, m)
                         if rep[v - last] and rep[m - v + first])
    return CmComplex(m=m, faces=frozenset(faces))


def _face_boundary(mask: int):
    """(face, sign) of the simplicial boundary of a face mask: dropping
    the i-th least vertex has sign (-1)^i.  The vertices are cleared as
    bits, lowest first, with the sign flipped after each."""
    bits, sign = mask, 1
    while bits:
        low = bits & -bits
        yield mask ^ low, sign
        bits ^= low
        sign = -sign


def x_complex(sigma: CmComplex) -> ChainComplex:
    """Augmented chain complex of the gap subcomplex sigma, graded by
    vertex count.

    The empty face (mask 0) sits in degree 0 and a face with q vertices in
    degree q, so H_q of this complex is the reduced homology of the gap
    subcomplex one degree down.  The full simplex on C_m is contractible,
    so the long exact sequence of the pair makes that the relative
    homology H_q of the simplex modulo the subcomplex, torsion included.
    When m is not representable the subcomplex is empty and H_0 = Z.
    The labels are the face masks and the face map is `_face_boundary`;
    the complex builds its boundary matrices from them.
    """
    basis = {0: [0]}
    for mask in sorted(sigma.faces):
        basis.setdefault(mask.bit_count(), []).append(mask)
    return ChainComplex(basis, _face_boundary)


def x_homology(sigma: CmComplex) -> HomologySummary:
    """Reduced homology of the quotient space of the gap subcomplex sigma."""
    return homology(x_complex(sigma))


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
                                sigma: CmComplex) -> ConjectureBReport:
    """Compare the quotient-space homology of sigma = build_sigma(p, m)
    with the closed form of the comparison space.

    The comparison is recorded as evidence; callers surface a disagreement
    as a finding rather than an error.  The circle-level statement that
    the relative cyclic bar homology equals its closed form is
    Proposition 5.1, checked by `cyclicbar.ty_agreement_check`.
    """
    x = x_homology(sigma)
    y = expected_y_homology(p, m)
    return ConjectureBReport(a=p.a, b=p.b, m=m, x_summary=x, y_summary=y,
                             agree=x == y)


def fixed_point_check(p: Params, s: int, sigma_m: CmComplex,
                      sigma_t: CmComplex) -> bool:
    """Verify the fixed-point description of the gap complex under C_s.

    sigma_m = build_sigma(p, m) and sigma_t = build_sigma(p, t) with
    m = s * t.  Roots of order s: the s-th power map sends the C_s-fixed
    faces at weight m onto the full complex at weight t, and the inverse
    replicates each face across the s blocks of residues mod t.  Checks
    that the replication map is a bijection onto the fixed faces and that
    it repeats each gap sequence s times: a lift starts at the least
    vertex of its face, so its cyclic gaps are the face's, in order, s
    times over.  Returns True; a mismatch raises TheoremViolation.
    """
    m, t = sigma_m.m, sigma_t.m
    if s < 1 or m != s * t:
        raise PreconditionViolation(f"s = {s} is no positive divisor of m = {m} "
                                    f"with quotient t = {t}")
    fixed = {f for f in sigma_m.faces if rotate_mask(f, m, t) == f}
    lifted = set()
    for g in sigma_t.faces:
        lift = 0
        for block in range(s):
            lift |= g << (block * t)
        lifted.add(lift)
        if cyclic_gaps(lift, m) != cyclic_gaps(g, t) * s:
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

    Builds the gap subcomplex once, with build_sigma under budget, and
    checks on it that the chain is a relative cycle whose class generates
    the degree-2 homology, which is checked to be free of rank one (see
    `_check_generator`).
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
    mp = entry.m_prime
    # The paper's l = a*s - b*r, for the solution of r*i' + s*j' = 1 with
    # 1 <= s <= i' and 0 <= -r <= j' - 1, satisfies l*n' = 1 mod m' and
    # a <= l <= a*i' + b*(j' - 1) = m' - b < m', so it is this inverse.
    l = pow(entry.n_prime, -1, mp)
    if not a <= l <= mp - b:
        raise TheoremViolation(f"l = {l} lies outside [{a}, {mp - b}]")
    sigma = build_sigma(p, m, budget)
    chain = {}
    for t1 in range(1, mp):
        for t2 in range(t1 + 1, mp):
            diff = (t2 - t1) % mp
            if diff != l and diff != mp - l:
                continue
            mask = vertices_mask((0, t1, t2))
            if mask not in sigma.faces:
                chain[mask] = 1 if diff == l else -1
    _check_generator(p, m, chain, sigma)
    return chain


def _check_generator(p: Params, m: int, chain: dict, sigma: CmComplex) -> None:
    """Raise TheoremViolation unless the triangle chain is a relative cycle
    of the simplex modulo sigma = build_sigma(p, m) whose class generates
    H_2 = Z.

    The simplex is contractible, so the connecting map takes H_2(simplex,
    sigma) onto H~_1(sigma), and sends a relative cycle to its simplicial
    boundary.  So the chain is a relative cycle exactly when every edge of
    its boundary lies in sigma, and it generates exactly when that edge
    cycle generates H~_1(sigma), which is H_2 of the augmented complex X
    of sigma's 2-skeleton, the faces of sigma with at most three vertices.
    The edge cycle generates exactly when H_2 of the quotient by it
    vanishes, and that quotient is the mapping cone of the map from Z in
    degree 2 to X that sends 1 to the edge cycle.
    """
    a, b = p.a, p.b
    skeleton = frozenset(f for f in sigma.faces if f.bit_count() <= 3)
    edges = {}
    for triangle, sign in chain.items():
        for edge, s in _face_boundary(triangle):
            edges[edge] = edges.get(edge, 0) + sign * s
    edges = {e: c for e, c in edges.items() if c}
    # the cone below drops an edge outside the skeleton without a word
    if not edges.keys() <= skeleton:
        raise TheoremViolation(f"generator chain at (a,b,m)=({a},{b},{m}) "
                               "is not a cycle")
    X = x_complex(CmComplex(m, skeleton))
    if homology(X).group(2) != (1, ()):
        raise TheoremViolation(f"degree-2 homology at (a,b,m)=({a},{b},{m}) "
                               "is not free of rank one")
    cone = mapping_cone(ChainComplex({2: ["cycle"]}, lambda _: ()), X,
                        lambda _: edges.items())
    if homology(cone).group(2) != (0, ()):
        raise TheoremViolation(f"chain at (a,b,m)=({a},{b},{m}) does not "
                               "generate the degree-2 homology")
