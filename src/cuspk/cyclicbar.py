"""Weight-graded cyclic homology models for the monoid ring of <a, b>.

Three routes to the same relative homology are implemented, so they can
be played against each other:

* the relative cyclic bar complex in weight m: normalized tuples
  (m_0, ..., m_q) with m_0 >= 0, interior entries >= 1 and total m,
  modulo the subcomplex of tuples all of whose entries lie in <a, b>.
  The complex is a cyclic set (Loday, Cyclic Homology, 1992, ch. 6-7),
  and it is built on cut points: a tuple is the set of q cuts
  0 <= c_1 < ... < c_q < m of Z/m with c_1 = m_0 and c_{i+1} - c_i = m_i,
  held as an int mask.  Face d_i (i < q) removes c_{i+1}, the cyclic face
  d_q removes c_q and rotates by m - c_q, and B sums the rotations that
  move each point of {0} + cuts to 0.  The masks are the basis labels;
  enumerated as combinations(range(m), q), they come in the sorted order
  of the tuples;

* a small curve-vs-line model: the Koszul-style complex on generators
  x, y, dx, dy and divided powers z^[r] of the relation (weight ab,
  degree 2), mapped to the two-term weight-m complex of a polynomial
  line by x -> t^a, y -> t^b; the relative homology is the mapping cone;

* a closed form assembled from up to four corner complexes indexed by
  the integral members of {m/ab, m/a, m/b, m}, each contributing Z in
  degrees 2l and 2l+1 with l = ell(a, b, m), glued as an iterated cone.

On top of the first two sit degree-raising Connes-type operators: the
cyclic B operator on the bar complex, and on the relative cone the de Rham
differential of the curve model beside t^m -> -m t^{m-1} dt on the line.
One routine pushes the generator of H_{2l} = Z through either operator
and reads the coefficient in the generator of H_{2l+1} = Z; it is +-m
whenever neither a nor b divides m.

Nothing here is cached: every builder returns a fresh model, and the
checks take the models they read as arguments.  `cli` builds the bar
complex and the relative cone once per prop51 cell and passes them to the
agreement check and to both Connes factors, so a cell's models live only
for that cell, and a sweep needs the memory of its largest cell, not the
sum over its weights.
"""

from __future__ import annotations

from itertools import combinations

from cuspk.errors import (DEFAULT_BUDGET, PreconditionViolation, ResourceBound,
                          TheoremViolation)
from cuspk.homlinalg import (
    ChainComplex,
    HomologyEngine,
    HomologySummary,
    SparseIntMatrix,
    homology,
    mapping_cone,
)
from cuspk.semigroup import Params, ell, member_table


def _bar_cells(p: Params, m: int, budget: int) -> dict:
    """Degree q -> cut masks of the relative basis, in the order of
    combinations(range(m), q); bit c of a mask is the cut c (see the
    module docstring).  Raises ResourceBound as soon as the masks pass
    budget."""
    if m < 1:
        raise ValueError("weight must be positive")
    member = member_table(p, m)
    bit = [1 << c for c in range(m)].__getitem__
    out: dict[int, list] = {}
    built = 0
    for q in range(m + 1):
        masks = []
        for c in combinations(range(m), q):
            # skip the cut sets whose every part lies in <a, b>
            prev = 0
            for x in c:
                if not member[x - prev]:
                    break
                prev = x
            else:
                if member[m - prev]:
                    continue
            masks.append(sum(map(bit, c)))
            built += 1
            if built > budget:
                raise ResourceBound(f"the bar complex in weight {m} has more "
                                    f"than {budget} cells")
        if masks:
            out[q] = masks
    return out


def relative_bar_complex(p: Params, m: int,
                         budget: int = DEFAULT_BUDGET) -> ChainComplex:
    """The relative bar complex in weight m, from one enumeration of its
    cells, of which it builds at most budget.  Its basis in degree q is the
    cut masks of the tuples (m_0, ..., m_q), m_0 >= 0, rest >= 1, summing
    to m and not entirely inside <a, b>, in the sorted order of the tuples.
    Face d_i (i < q) drops the cut c_{i+1} with sign (-1)^i; the cyclic
    face d_q drops the top cut c_q and rotates the rest by m - c_q.  A
    cell of degree 0 has no cut and no face.

    The faces are bit arithmetic on the mask: d_0, d_1, ... clear its set
    bits from the lowest up, flipping the sign each time, and the cyclic
    face shifts the rest up by m - c_q, which wraps no cut since every
    one lies below c_q."""
    basis = _bar_cells(p, m, budget)

    def faces(mask):
        if not mask:
            return
        bits, sign = mask, 1
        while bits:
            low = bits & -bits
            yield mask ^ low, sign
            bits ^= low
            sign = -sign
        top = mask.bit_length() - 1
        yield (mask ^ (1 << top)) << (m - top), sign

    return ChainComplex(basis, faces)


def connes_matrix(bar: ChainComplex, m: int, q: int) -> SparseIntMatrix:
    """The cyclic operator B : C_q -> C_{q+1} on the relative bar complex
    `bar` in weight m.

    B(x) = sum_i (-1)^{qi} (0, x_i, ..., x_q, x_0, ..., x_{i-1}); terms
    with a unit in an interior slot are degenerate and dropped, which
    kills everything when x_0 = 0.  On cut sets: the i-th term rotates
    the points {0, c_1, ..., c_q} so that the i-th of them sits at 0.
    Bitwise, the term of the cut c = c_i shifts the points from c up down
    by c and those below c up by m - c, and the cuts are read lowest bit
    first.
    """
    sign = -1 if q & 1 else 1

    def image(mask):
        if mask & 1:
            return
        points = mask | 1
        yield points, 1
        bits, s = mask, sign
        while bits:
            low = bits & -bits
            c = low.bit_length() - 1
            yield (points >> c) | ((points & (low - 1)) << (m - c)), s
            bits ^= low
            s *= sign

    return SparseIntMatrix.of_map(bar.basis.get(q + 1, []), bar.basis.get(q, []),
                                  image)


# ---------------------------------------------------------------------------
# small model


def _monomial(p: Params, w: int):
    """The unique (i, j) with ai + bj = w, 0 <= i < b, j >= 0, if any."""
    if w < 0:
        return None
    i = (w * pow(p.a, -1, p.b)) % p.b
    j, rem = divmod(w - p.a * i, p.b)
    if rem:
        raise TheoremViolation(f"{w} - {p.a}*{i} is not a multiple of {p.b}")
    return (i, j) if j >= 0 else None


def _reduce_x(p: Params, i: int, j: int) -> tuple:
    """Rewrite x^i y^j into the basis range 0 <= i < b using x^b = y^a."""
    if i >= p.b:
        return i - p.b, j + p.a
    return i, j


def curve_basis(p: Params, m: int) -> dict:
    """Degree -> labels (i, j, ex, ey, r) of weight ai+bj+a*ex+b*ey+ab*r = m."""
    if m < 1:
        raise ValueError("weight must be positive")
    out: dict[int, list] = {}
    for r in range(m // (p.a * p.b) + 1):
        for ex in (0, 1):
            for ey in (0, 1):
                w = m - p.a * ex - p.b * ey - p.a * p.b * r
                mono = _monomial(p, w)
                if mono is None:
                    continue
                deg = ex + ey + 2 * r
                out.setdefault(deg, []).append((mono[0], mono[1], ex, ey, r))
    return {q: sorted(lbls) for q, lbls in sorted(out.items())}


def _koszul_image(p: Params, lbl: tuple) -> dict:
    """Peeling one divided power off z^[r] multiplies by the relation
    differential b x^{b-1} dx - a y^{a-1} dy."""
    i, j, ex, ey, r = lbl
    if r == 0:
        return {}
    out: dict[tuple, int] = {}
    if (ex, ey) == (0, 0):
        xi, xj = _reduce_x(p, i + p.b - 1, j)
        out[(xi, xj, 1, 0, r - 1)] = p.b
        out[(i, j + p.a - 1, 0, 1, r - 1)] = -p.a
    elif (ex, ey) == (1, 0):
        out[(i, j + p.a - 1, 1, 1, r - 1)] = p.a
    elif (ex, ey) == (0, 1):
        xi, xj = _reduce_x(p, i + p.b - 1, j)
        out[(xi, xj, 1, 1, r - 1)] = p.b
    return out


def _de_rham_image(p: Params, lbl: tuple) -> dict:
    """The degree-raising de Rham operator of the small model."""
    i, j, ex, ey, r = lbl
    out: dict[tuple, int] = {}
    if (ex, ey) == (0, 0):
        if i >= 1:
            out[(i - 1, j, 1, 0, r)] = i + p.b * r
        if j >= 1:
            out[(i, j - 1, 0, 1, r)] = j
    elif (ex, ey) == (1, 0):
        if j >= 1:
            out[(i, j - 1, 1, 1, r)] = -j
    elif (ex, ey) == (0, 1):
        if i >= 1:
            out[(i - 1, j, 1, 1, r)] = i + p.b * r
    return out


def small_complex_curve(p: Params, m: int) -> ChainComplex:
    return ChainComplex(curve_basis(p, m), lambda lbl: _koszul_image(p, lbl).items())


def small_complex_line(p: Params, m: int) -> ChainComplex:
    if m < 1:
        raise ValueError("weight must be positive")
    return ChainComplex({0: [("t", m)], 1: [("dt", m - 1)]}, lambda _: ())


def parametrization_map(p: Params, m: int):
    """f : curve model -> line model in weight m, as a map on labels:
    x^i y^j -> t^m, the dx and dy one-forms -> a resp. b times t^{m-1} dt,
    everything else -> 0."""
    def image(lbl):
        _, _, ex, ey, r = lbl
        if r or (ex and ey):
            return
        if ex or ey:
            yield ("dt", m - 1), p.a if ex else p.b
        else:
            yield ("t", m), 1

    return image


def relative_cone(p: Params, m: int) -> ChainComplex:
    """The cone of the parametrization; building it checks that f is a
    chain map (see `mapping_cone`)."""
    return mapping_cone(small_complex_curve(p, m), small_complex_line(p, m),
                        parametrization_map(p, m))


def cone_de_rham_matrix(p: Params, cone: ChainComplex, q: int) -> SparseIntMatrix:
    """The de Rham operator of the relative cone from degree q to q + 1:
    d_R on the curve block and t^m -> -m t^{m-1} dt on the line block.  The
    sign makes it anticommute with the cone boundary, since d_R f = f d_R."""
    basis = cone.basis

    def image(lbl):
        side, x = lbl
        if side == "dom":
            for y, c in _de_rham_image(p, x).items():
                yield ("dom", y), c
        elif x[0] == "t":
            w = x[1]
            yield ("cod", ("dt", w - 1)), -w

    return SparseIntMatrix.of_map(basis.get(q + 1, []), basis.get(q, []), image)


# ---------------------------------------------------------------------------
# expected answer, two ways


def _corner_complex(tag: int, low: int, high: int) -> ChainComplex:
    return ChainComplex({low: [("x", tag)], high: [("y", tag)]}, lambda _: ())


def _zero_complex() -> ChainComplex:
    return ChainComplex({}, lambda _: ())


def _corner_map(tag: int, ratio: int):
    """x -> x and y -> ratio * y into the corner complex tagged tag."""
    def image(lbl):
        letter, _tag = lbl
        yield (letter, tag), 1 if letter == "x" else ratio

    return image


def _induced_cone_map(coeff_by_letter: dict, retag: dict):
    """Blockwise map cone(W->U) -> cone(V->Z) from an exactly commuting
    square; labels are (side, (letter, tag))."""
    def image(lbl):
        side, (letter, _tag) = lbl
        yield (side, (letter, retag[side])), coeff_by_letter[letter]

    return image


def expected_ty_homology(p: Params, m: int) -> HomologySummary:
    """The predicted relative homology in weight m.

    Closed form: with l = ell(a, b, m), the answer is Z in degrees 2l and
    2l+1 when neither a nor b divides m, Z/a (resp. Z/b) in degree 2l+1
    when exactly a (resp. b) divides m, and 0 when ab divides m.  The
    same groups are recomputed as an iterated mapping cone over the
    corners {m/ab, m/a, m/b, m} and the two answers are compared.
    """
    if m < 1:
        raise ValueError("weight must be positive")
    a, b = p.a, p.b
    l = ell(p, m)
    if m % a == 0 and m % b == 0:
        closed = HomologySummary.of({})
    elif m % a == 0:
        closed = HomologySummary.of({2 * l + 1: (0, (a,))})
    elif m % b == 0:
        closed = HomologySummary.of({2 * l + 1: (0, (b,))})
    else:
        closed = HomologySummary.of({2 * l: (1, ()), 2 * l + 1: (1, ())})

    low, high = 2 * l, 2 * l + 1
    Z = _corner_complex(m, low, high)
    W = _corner_complex(m // (a * b), low, high) if m % (a * b) == 0 else _zero_complex()
    U = _corner_complex(m // a, low, high) if m % a == 0 else _zero_complex()
    V = _corner_complex(m // b, low, high) if m % b == 0 else _zero_complex()
    top = mapping_cone(W, U, _corner_map(m // a, b))
    bot = mapping_cone(V, Z, _corner_map(m, b))
    # vertical maps multiply y by a; the square commutes exactly since ab = ba
    induced = _induced_cone_map({"x": 1, "y": a},
                                {"dom": m // b if m % b == 0 else 0, "cod": m})
    cone_answer = homology(mapping_cone(top, bot, induced))
    if cone_answer != closed:
        raise TheoremViolation(f"iterated cone gives {cone_answer}, the closed "
                               f"form {closed} at (a,b,m)=({a},{b},{m})")
    return closed


def ty_agreement_check(p: Params, m: int, bar: ChainComplex,
                       cone: ChainComplex) -> HomologySummary:
    """Assert the bar model `bar` = relative_bar_complex(p, m), the small
    cone model `cone` = relative_cone(p, m) and the closed form agree in
    weight m; returns the common answer."""
    want = expected_ty_homology(p, m)
    got = homology(bar)
    if got != want:
        raise TheoremViolation(
            f"bar homology {got} != expected {want} at (a,b,m)=({p.a},{p.b},{m})")
    small = homology(cone)
    if small != want:
        raise TheoremViolation(
            f"cone homology {small} != expected {want} at (a,b,m)=({p.a},{p.b},{m})")
    return want


# ---------------------------------------------------------------------------
# Connes operator factor


def _require_nondivisible(p: Params, m: int) -> None:
    if m % p.a == 0 or m % p.b == 0:
        raise PreconditionViolation(
            f"the factor statement needs a and b both prime to m, got ({p.a},{p.b},{m})")


def _operator_factor(C: ChainComplex, op: SparseIntMatrix, q: int, name: str,
                     m: int) -> int:
    """Push the generator of H_q(C) = Z through op : C_q -> C_{q+1} and
    return its coefficient in the generator of H_{q+1}(C) = Z; it must be
    +-m.  An image that is no cycle breaks the operator's anticommutation
    with the boundary."""
    eng = HomologyEngine(C)
    for d in (q, q + 1):
        if eng.group(d) != (1, ()):
            raise TheoremViolation(
                f"H_{d} = {eng.group(d)} is not infinite cyclic as required")
    ((_, g),) = eng.generators(q)
    image = op.matvec(g)
    if any(eng.boundary(q + 1).matvec(image)):
        raise TheoremViolation(f"{name} image is not a cycle in degree {q + 1}")
    (c,) = eng.coordinates(q + 1, image)
    if abs(c) != m:
        raise TheoremViolation(f"{name} factor {c}, expected +-{m}")
    return c


def connes_factor_bar(p: Params, m: int, bar: ChainComplex) -> int:
    """Apply the cyclic B operator to the generator of H_{2l} of the
    relative bar complex `bar` = relative_bar_complex(p, m) and express it
    in the generator of H_{2l+1}; the coefficient must be +-m."""
    _require_nondivisible(p, m)
    q = 2 * ell(p, m)
    return _operator_factor(bar, connes_matrix(bar, m, q), q,
                            "cyclic operator", m)


def connes_factor_small(p: Params, m: int, cone: ChainComplex) -> int:
    """Same factor, read off `cone` = relative_cone(p, m), the relative cone
    of the small model.

    The cone de Rham operator takes the generator of H_{2l}(cone) to +-m
    times the generator of H_{2l+1}(cone), for every l = ell(a, b, m).  At
    l = 0 the weight is a gap, the curve model is empty in degrees below
    1, and the operator is t^m -> -m t^{m-1} dt on the line block.  For
    l >= 1 the line model is 0 in degrees 2l and 2l+1, so H_{2l}(cone) is
    the kernel of f_* on H_{2l-1}(curve), H_{2l+1}(cone) is H_{2l}(curve),
    and the operator is d_R on the curve block.  It anticommutes with the
    cone boundary because d_R f = f d_R, so it maps cycles to cycles.

    In degree 2l+1 the cone is Z with zero boundary, so every image there
    is a cycle and `_operator_factor`'s cycle check is only a guard.
    Proof: with m prime to a and b, m = ai + bj has no solution with i = 0
    or j = 0, so it has exactly l solutions with i, j >= 0, and so has
    m - a - b.  Subtracting ab removes one solution (the one with j < a)
    while there is one, so m - ab*l is no member of the semigroup and, for
    l >= 1, m - a - b - ab*(l-1) has exactly one solution.  Hence curve
    degree 2l has no label x^i y^j z^[l] and, for l >= 1, exactly one
    label x^i y^j dx dy z^[l-1]; the line block reaches cone degree 2l+1
    only at l = 0, with t^{m-1} dt.  The boundary of the one label
    vanishes: dx dy times a one-form is 0, f is 0 in curve degrees >= 2,
    and the line model has no boundary.
    """
    _require_nondivisible(p, m)
    q = 2 * ell(p, m)
    return _operator_factor(cone, cone_de_rham_matrix(p, cone, q), q,
                            "de Rham", m)
