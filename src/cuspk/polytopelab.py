"""Stunted regular cyclic polytopes and certified convexity checks.

The vertex data of every polytope here is exact integer combinatorics:
residues e mod m standing for the point (zeta_m^(e*n))_n indexed by the
weight set.  Geometry appears only in the convexity tests.  The origin
check (c1) runs one exact simplex tableau over {h : h . v >= 1 for every
dyadic midpoint approximation v of a vertex}.  When it is feasible, the
l1-least such h is a candidate separating functional; when it is
infeasible, its Farkas functional is an exact convex combination of the
midpoints at the origin.

Every vertex coordinate is cos or sin of 2*pi*k/m for one of m residues
k, so one table per (m, bits) holds them all (_root_table).  Each value
is an integer C with a proven error bound E at the scale 2^-shift, shift
= bits plus at least 32 guard bits: pi from Machin's formula in
fixed-point integers, an exact octant reduction on the rational k/m, and
Taylor series on [0, pi/4] whose truncation and tail errors are counted
term by term (Brent and Zimmermann, Modern Computer Arithmetic, 2010,
ch. 4).  The midpoints are the nearest multiples of 2^-bits, which the
table adds guard bits to decide.  The certificate is exact over the
boxes [C - E, C + E]: the separator's margin, the least h . v over the
boxes of the vertices, is a rational that must be > 0, and the
combination's image must lie within 2^-(bits//2) of the origin in every
coordinate.  The witness of a separator thus holds its margin as an
exact rational; no report row shows it, because HOLDS rows carry no
witness.  No floating point enters.

Both checks certify one polytope per orbit of the dihedral group of Z/m,
which acts on exponents by e -> s*e + g with s = +-1 and maps the
polytopes of q_union onto each other.  Each orbit is built from one
necklace (_orbits): a polytope is the set of partial sums of a cyclic
word of a- and b-increments, a translate keeps the word, and the
reflection reads it backwards with the same counts of a and b, so at the
same weight.  The translation e -> e + g multiplies coordinate n by
zeta_m^(g*n), a rotation in each coordinate plane, and the reflection
e -> -e is complex conjugation.  Both are real linear isometries that
fix the origin, so the origin lies in one member of an orbit exactly
when it lies in all of them.  Both are also Q-linear automorphisms of
Q(zeta_m) (multiplication by a root of unity, and the Galois
automorphism zeta -> zeta^-1), so they carry the power-basis LP of one
member onto that of another.  The unit action e -> u*e for other units
u is not used: it is a Galois automorphism but no isometry, and it does
not preserve real convex geometry.  conv{1, zeta_5^2, zeta_5^3} contains
the origin, while its image under u = 2, conv{1, zeta_5^4, zeta_5}, does
not.

The divisor summand checks (c2/c3) run an exact LP in the power-basis
coordinates of Q(zeta_m) and report precision_bits 0.  Asking every
power-basis coordinate outside the summand to vanish asks all Galois
conjugates of those coordinates to vanish together.  A point with
rational weights does that automatically, but the real polytopes also
have points with irrational weights, so the LP decides a stronger,
cyclotomic form of the statement: a feasible LP exhibits real
intersection points, while an infeasible one does not by itself prove
that the real polytope misses the summand.  Whether the two forms agree
is open.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import NamedTuple

from .errors import (DEFAULT_PRECISION, FAILS_CANDIDATE, HOLDS, MAX_PRECISION,
                     UNDECIDED, UNSUPPORTED, PreconditionViolation,
                     TheoremViolation)
from .exactlp import SimplexTableau
from .semigroup import Params, bezout, is_member, weights


class Verdict(NamedTuple):
    """Outcome of one conjecture statement at one weight.

    HOLDS carries a verification witness (a certified separator, the
    exact intersection points, or the edge coverage).  FAILS_CANDIDATE
    carries the data that pinned the violation; for the interval-based
    origin check this is a candidate, not a certified refutation.
    UNDECIDED invites a retry at higher precision.
    """

    status: str
    precision_bits: int
    witness: object = None


class ExponentPolytope(NamedTuple):
    """Convex hull of the points (zeta_m^(e*n))_n for e in the exponent set."""

    m: int
    weights: tuple
    vertex_exponents: tuple


def _necklaces(alpha: int, beta: int, a: int, b: int) -> list:
    """Distinct cyclic words with alpha a-increments and beta b-increments."""
    slots = alpha + beta
    seen = set()
    for apos in combinations(range(slots), alpha):
        word = [b] * slots
        for i in apos:
            word[i] = a
        canon = min(tuple(word[k:] + word[:k]) for k in range(slots))
        seen.add(canon)
    return sorted(seen)


def _images(exps, m: int) -> dict:
    """{sorted s*e + g (mod m) for e in exps: (s, g)}, each image with its
    first (s, g) in the order s = 1, -1 and g = 0, ..., m - 1: the loop
    runs backwards, so the first overwrites the others."""
    return {tuple(sorted((s * e + g) % m for e in exps)): (s, g)
            for s in (-1, 1) for g in range(m - 1, -1, -1)}


def _orbits(p: Params, m: int) -> list:
    """The polytopes of q_union, grouped into orbits of the dihedral group.

    A polytope is the set of partial sums of one period of a cyclic word
    of alpha a-increments and beta b-increments, alpha = d*m - b*n and
    beta = a*n - c*m at a closed weight n, so a*alpha + b*beta = m.  The
    translates of a necklace's partial sums and of its reversal's are its
    orbit: e -> e + g keeps the word, and e -> -e reads it backwards, which
    keeps alpha, beta and n.  Returns one list per orbit of (exponents, s,
    g), exponents = {s*e + g : e in rep} (mod m) with (s, g) as in _images,
    for the least member rep.  Members and orbits are sorted.
    """
    data = weights(p, m)
    placed = set()
    out = []
    for n in data.closed_weights:
        for word in _necklaces(data.entries[n].i, data.entries[n].j, p.a, p.b):
            if sum(word) != m:
                raise TheoremViolation(f"necklace {word} does not sum to m={m}")
            sums = [0]
            for step in word[:-1]:
                sums.append(sums[-1] + step)
            if tuple(sums) not in placed:
                members = _images(min(_images(sums, m)), m)
                placed.update(members)
                out.append(sorted((E, s, g) for E, (s, g) in members.items()))
    return sorted(out)


def q_union(p: Params, m: int) -> list:
    """The polytopes whose union is the image of the gap subcomplex.

    One entry per distinct vertex-exponent set across all weights, in
    sorted order; empty exactly when m is not representable, since the
    admissible weight interval contains an integer if and only if m =
    a*u + b*v has a non-negative solution.
    """
    J = weights(p, m).closed_weights
    return sorted(ExponentPolytope(m=m, weights=J, vertex_exponents=E)
                  for orbit in _orbits(p, m) for E, _, _ in orbit)


# ---------------------------------------------------------------------------
# exact root-of-unity enclosures


def _arctan_inv(x: int, prec: int) -> tuple:
    """(A, err) with |arctan(1/x) * 2^prec - A| < err, for an integer x >= 2.

    The powers p_n = floor(p_(n-1) / x^2), from p_0 = floor(2^prec / x),
    fall short of t_n = 2^prec / x^(2n+1) by d_n in [0, 2): d_0 < 1 and
    d_n < d_(n-1) / x^2 + 1 <= d_(n-1) / 4 + 1.  Each term floor(p_n /
    (2n+1)) then falls short of t_n / (2n+1) by less than 3, so the N terms
    summed before p_N = 0 carry less than 3N.  The tail of the alternating
    series, whose terms decrease, is at most t_N / (2N+1) <= d_N < 2.
    """
    power = (1 << prec) // x
    x2 = x * x
    total = n = 0
    while power:
        term = power // (2 * n + 1)
        total += -term if n % 2 else term
        power //= x2
        n += 1
    return total, 3 * n + 2


def _machin_pi(prec: int) -> tuple:
    """(Pi, err) with |pi * 2^prec - Pi| < err, from Machin's formula
    pi = 16 arctan(1/5) - 4 arctan(1/239)."""
    a5, e5 = _arctan_inv(5, prec)
    a239, e239 = _arctan_inv(239, prec)
    return 16 * a5 - 4 * a239, 16 * e5 + 4 * e239


def _cos_sin(X: int, prec: int) -> list:
    """(cos, err) and (sin, err) of phi = X / 2^prec for 0 <= X < 2^prec:
    each value times 2^prec is within err of the integer.

    Each Taylor series steps its terms by t_(n+1) = floor(floor(t_n * X^2
    / 4^prec) / D), which is floor(t_n * X^2 / (D * 4^prec)), with D =
    (2n+1)(2n+2) for cos and (2n+2)(2n+3) for sin, from the exact t_0 =
    2^prec resp. X.  The shortfall d_n of t_n below the true term T_n is
    then in [0, 2): d_(n+1) < d_n * phi^2 / D + 1 <= d_n / 2 + 1, as
    phi < 1 and D >= 2.  The N terms summed before t_N = 0 carry less than
    2N, and the tail of the alternating series, whose terms decrease, is
    at most T_N = d_N < 2.
    """
    x2 = X * X
    out = []
    for term, first in ((1 << prec, 1), (X, 2)):
        total = n = 0
        while term:
            total += -term if n % 2 else term
            j = 2 * n + first
            term = (term * x2 >> 2 * prec) // (j * (j + 1))
            n += 1
        out.append((total, 2 * n + 2))
    return out


def _octant_boxes(m: int, prec: int) -> list:
    """cos and sin of 2*pi*k/m for k < m, each as a (C, E) pair with the
    value times 2^prec in [C - E, C + E].

    Write 4k = q*m + r with 0 <= r < m: the angle is q quarter turns plus
    (pi/2) * r/m.  With a = min(r, m - r), phi = pi*a / (2m) lies in
    [0, pi/4]; for r > m/2 the angle past the quarter turns is pi/2 - phi,
    which swaps cos and sin, and each quarter turn maps (cos, sin) to
    (-sin, cos).  These steps are exact on the rational k/m, so a box
    carries the error of phi alone.  X = floor(Pi * a / (2m)) is off from
    phi * 2^prec by less than err_pi * a / (2m) + 1, and cos and sin are
    1-Lipschitz, so E adds that bound to the error of _cos_sin.  Its
    phi = X / 2^prec is below pi/4 + err_pi / 2^prec < 1, as err_pi is
    about 12 * prec.  At a = 0 the values 1 and 0 are exact.
    """
    pi, err_pi = _machin_pi(prec)
    reduced = {0: ((1 << prec, 0), (0, 0))}
    out = []
    for k in range(m):
        q, r = divmod(4 * k, m)
        a = min(r, m - r)
        if a not in reduced:
            slack = -(-err_pi * a // (2 * m)) + 1
            reduced[a] = tuple((v, err + slack) for v, err in
                               _cos_sin(pi * a // (2 * m), prec))
        cos, sin = reduced[a]
        if 2 * r > m:
            cos, sin = sin, cos
        for _ in range(q):
            cos, sin = (-sin[0], sin[1]), cos
        out.append((cos, sin))
    return out


class _RootTable(NamedTuple):
    """cos and sin of 2*pi*k/m for k < m (see _root_table).

    boxes[k] holds a (C, E) pair for each of cos and sin: the value times
    2^shift lies in [C - E, C + E].  midpoints[k] holds the nearest
    multiples of 2^-bits to the two values, as Fractions.
    """

    shift: int
    boxes: tuple
    midpoints: tuple


@lru_cache(maxsize=None)
def _root_table(m: int, bits: int) -> _RootTable:
    """Exact integer enclosures of the m-th roots of unity, bits >= 1.

    The boxes are at scale 2^-(bits + g), with g = 32 guard bits, and 32
    more until every box decides its midpoint: both ends of [C - E, C + E]
    round half up to the same multiple of 2^-bits.  Then every point of the
    box rounds to it, the true value included, and the true value is no
    tie: a tie is a rational with denominator 2^(bits+1), and by Niven's
    theorem the only rational values of cos and sin at rational multiples
    of pi are 0, +-1/2 and +-1.  So the midpoint is the nearest multiple of
    2^-bits.  The loop ends, because E grows only linearly in bits + g.
    """
    if bits < 1:
        raise PreconditionViolation("dyadic midpoints need bits >= 1")
    guard = 32
    while True:
        boxes = _octant_boxes(m, bits + guard)
        half = 1 << (guard - 1)
        ends = [[((c - e + half) >> guard, (c + e + half) >> guard)
                 for c, e in pair] for pair in boxes]
        if all(lo == hi for pair in ends for lo, hi in pair):
            break
        guard += 32
    midpoints = tuple(tuple(Fraction(lo, 1 << bits) for lo, _ in pair)
                      for pair in ends)
    return _RootTable(shift=bits + guard, boxes=tuple(boxes),
                      midpoints=midpoints)


def _midpoint_vertex(m: int, e: int, ws, bits: int) -> list:
    """Nearest multiples of 2^-bits to the coordinates of the vertex with
    exponent e, flattened to reals."""
    mids = _root_table(m, bits).midpoints
    return [x for n in ws for x in mids[(e * n) % m]]


def _vertex_boxes(table: _RootTable, m: int, e: int, ws) -> list:
    """The (C, E) boxes of the coordinates of the vertex with exponent e."""
    return [box for n in ws for box in table.boxes[(e * n) % m]]


def _separate_origin(Q: ExponentPolytope, bits: int):
    """Certify that the origin avoids one polytope.

    One exact simplex tableau decides {h : h . v >= 1 for every dyadic
    midpoint v of a vertex}, with h split into positive and negative
    parts and one surplus per vertex.  When it is feasible, the l1-least
    such h is the candidate separator; the l1 objective keeps h as small
    as the midpoints allow, so rounding noise in a lower-dimensional hull
    cannot pass for a huge separator.  When it is infeasible, the Farkas
    functional y >= 0 of the tableau has sum y_i v_i = 0 and sum y_i > 0,
    so y / sum y is an exact convex combination of the midpoints at the
    origin.  Returns ("holds", witness), ("candidate", witness) or
    ("undecided", note).  The separator and the combination are exact
    rational data, and so are their bounds over the boxes of _root_table
    that hold the true vertices: the least h . v (the margin) and the
    largest |sum_i lam_i v_i| in any coordinate (the norm bound).
    """
    m, ws, exps = Q.m, Q.weights, Q.vertex_exponents
    table = _root_table(m, bits)
    mids = [_midpoint_vertex(m, e, ws, bits) for e in exps]
    npts, dim = len(mids), len(mids[0])
    plus = [[v[j] for v in mids] for j in range(dim)]
    minus = [[-x for x in col] for col in plus]
    surplus = [[-1 if k == i else 0 for k in range(npts)] for i in range(npts)]
    tab = SimplexTableau(plus + minus + surplus, [1] * npts)
    if tab.status == "feasible":
        status, _, lam = tab.optimize([1] * (2 * dim) + [0] * npts)
        if status != "optimal":
            raise TheoremViolation("the l1 norm is bounded below, but its "
                                   f"LP is {status}")
        h = [lam[j] - lam[dim + j] for j in range(dim)]
        # h . v over a box is least where each coordinate sits at the end
        # that h weighs down; all in units of 1 / (den * 2^shift)
        den = lcm(*(v.denominator for v in h))
        scaled = [v.numerator * (den // v.denominator) for v in h]
        low = min(sum(w * c - abs(w) * err for w, (c, err)
                      in zip(scaled, _vertex_boxes(table, m, e, ws)))
                  for e in exps)
        if low > 0:
            return "holds", {"vertices": list(exps),
                             "functional": [str(v) for v in h],
                             "margin": str(Fraction(low, den << table.shift))}
        return "undecided", {"vertices": list(exps),
                             "reason": "separator margin not certified"}
    # the midpoints place the origin in their hull; bound the true image
    # of the exact convex combination, in units of 1 / (den * 2^shift)
    total = sum(tab.farkas)
    coefficients = [y / total for y in tab.farkas]
    den = lcm(*(c.denominator for c in coefficients))
    terms = [(c.numerator * (den // c.denominator),
              _vertex_boxes(table, m, e, ws))
             for c, e in zip(coefficients, exps) if c]
    worst = max(abs(sum(w * boxes[j][0] for w, boxes in terms))
                + sum(abs(w) * boxes[j][1] for w, boxes in terms)
                for j in range(dim))
    bound = Fraction(worst, den << table.shift)
    if bound < Fraction(1, 1 << (bits // 2)):
        return "candidate", {"vertices": list(exps),
                             "coefficients": [str(v) for v in coefficients],
                             "norm_bound": str(bound)}
    return "undecided", {"vertices": list(exps),
                         "reason": "combination not pinned to the origin"}


def check_c1(p: Params, m: int, precision: int = DEFAULT_PRECISION) -> Verdict:
    """Statement one: the union polytope avoids the origin.

    Vacuous for non-representable m, where the union is empty.  Runs one
    certification pass per dihedral orbit at the given precision; see
    escalate for the doubling driver.  The orbit maps are real isometries
    fixing the origin, so a certified separator of the representative
    decides its whole orbit: every other member gets the witness entry
    {"vertices", "representative", "translate", "reflect"}, meaning
    vertices = {s*e + translate : e in representative} (mod m) with
    s = -1 exactly when reflect, and the witness keeps one entry per
    polytope in sorted exponent order.  Where the representative is not
    certified, each member is checked on its own, because interval
    outcomes depend on the dyadic data of each polytope; the first
    candidate in that order, or else every unresolved polytope, is
    reported.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not is_member(p, m):
        return Verdict(HOLDS, 0, witness={"vacuous": "m is not representable"})
    ws = weights(p, m).closed_weights
    outcomes = {}
    for (rep, _, _), *others in _orbits(p, m):
        state, detail = _separate_origin(ExponentPolytope(m, ws, rep),
                                         precision)
        outcomes[rep] = state, detail
        for E, s, g in others:
            if state == "holds":
                outcomes[E] = state, {"vertices": list(E),
                                      "representative": list(rep),
                                      "translate": g, "reflect": s < 0}
            else:
                outcomes[E] = _separate_origin(ExponentPolytope(m, ws, E),
                                               precision)
    separators = []
    undecided = []
    for E in sorted(outcomes):
        state, detail = outcomes[E]
        if state == "candidate":
            return Verdict(FAILS_CANDIDATE, precision, witness=detail)
        if state == "undecided":
            undecided.append(detail)
        else:
            separators.append(detail)
    if undecided:
        return Verdict(UNDECIDED, precision, witness={"unresolved": undecided})
    return Verdict(HOLDS, precision, witness={"separators": separators})


def escalate(check, p: Params, m: int, start: int = DEFAULT_PRECISION,
             cap: int = MAX_PRECISION) -> Verdict:
    """Run an interval check, doubling the precision while it is undecided."""
    bits = start
    while True:
        verdict = check(p, m, precision=bits)
        if verdict.status != UNDECIDED or bits >= cap:
            return verdict
        bits = min(2 * bits, cap)


# ---------------------------------------------------------------------------
# exact cyclotomic arithmetic


def _polydiv_exact(num: list, den: list) -> list:
    """Exact division of integer polynomials, ascending coefficients."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    if den[dd] != 1:
        raise PreconditionViolation("the divisor must be monic")
    out = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = num[k + dd]
        out[k] = c
        if c:
            for i in range(dd + 1):
                num[k + i] -= c * den[i]
    if any(num):
        raise TheoremViolation("polynomial division is not exact")
    return out


@lru_cache(maxsize=None)
def _cyclotomic(m: int) -> tuple:
    """Coefficients of the m-th cyclotomic polynomial, ascending."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _polydiv_exact(poly, list(_cyclotomic(d)))
    return tuple(poly)


@lru_cache(maxsize=None)
def _zeta_powers(m: int) -> tuple:
    """zeta_m^j for 0 <= j < m as integer vectors in the power basis."""
    phi = _cyclotomic(m)
    deg = len(phi) - 1
    rows = []
    row = [1] + [0] * (deg - 1)
    for _ in range(m):
        rows.append(tuple(row))
        row = [0] + row
        lead = row.pop()
        if lead:
            row = [row[k] - lead * phi[k] for k in range(deg)]
    return tuple(rows)


def _summand_hit(exps, m: int, others: list, n0: int, roots: dict):
    """The summand LP of one polytope.

    Returns (None, None) when no point of the polytope has vanishing
    coordinates outside the summand, (je, None) when those points pin
    the summand coordinate to the root zeta_m^je, and (None, witness)
    when they do not pin it to a root.
    """
    table = _zeta_powers(m)
    deg = len(table[0])
    columns = []
    for e in exps:
        col = []
        for n in others:
            col.extend(table[(e * n) % m])
        col.append(1)
        columns.append(col)
    rhs = [0] * (deg * len(others)) + [1]
    tab = SimplexTableau(columns, rhs)
    if tab.status == "infeasible":
        return None, None
    point = []
    for k in range(deg):
        objective = [table[(e * n0) % m][k] for e in exps]
        s_hi, hi, _ = tab.optimize(objective, maximize=True)
        s_lo, lo, _ = tab.optimize(objective, maximize=False)
        if not s_hi == s_lo == "optimal":
            raise TheoremViolation("the summand coordinate of a polytope is "
                                   f"bounded, but its LPs are {s_hi}/{s_lo}")
        if hi != lo:
            return None, {
                "vertices": list(exps), "coordinate": k,
                "spread": [str(lo), str(hi)],
                "reason": "intersection with the summand is not a point"}
        point.append(hi)
    hit = next((je for je in roots if list(table[je]) == point), None)
    if hit is None:
        return None, {
            "vertices": list(exps), "point": [str(v) for v in point],
            "reason": "intersection point is not a root of the summand"}
    return hit, None


def _summand_hits(orbits: list, m: int, others: list, n0: int, roots: dict):
    """The summand LP of every polytope, solved once per dihedral orbit.

    The member s*e + g of an orbit (see _orbits) has the representative's
    LP up to a Q-linear automorphism of Q(zeta_m), which maps a pinned
    root zeta_m^je to zeta_m^(s*je + g*n0).  Returns (hits, None), where
    hits maps the exponents of every polytope whose LP is feasible to the
    root exponent it pins, or (None, witness) for the first representative
    whose LP does not pin a root.  That representative is its orbit's
    least member, and every member of an orbit fails with it, so its
    witness is the one a check of every polytope in sorted exponent order
    reports.
    """
    hits = {}
    for orbit in orbits:
        je, failure = _summand_hit(orbit[0][0], m, others, n0, roots)
        if failure is not None:
            return None, failure
        if je is not None:
            for E, s, g in orbit:
                hits[E] = (s * je + g * n0) % m
    return hits, None


def _divisor_statement(p: Params, m: int, div: int):
    """Exact check that the union meets one divisor summand in its roots.

    div is a or b; the summand is the weight c*m/a resp. d*m/b.  For each
    polytope the points with vanishing coordinates outside the summand
    form a rational LP; when feasible, the image in the summand is pinned
    coordinate by coordinate and compared exactly against the div-th
    roots of unity.  The LP runs once per dihedral orbit (_summand_hits),
    and each root is witnessed by the first polytope in sorted exponent
    order that reaches it.  Returns a status and a witness dictionary.
    """
    a, b = p.a, p.b
    bz = bezout(p)
    n0 = bz.c * m // a if div == a else bz.d * m // b
    data = weights(p, m)
    J = data.closed_weights
    if n0 not in data.entries:
        raise TheoremViolation(f"summand weight {n0} is not a closed weight")
    others = [n for n in J if n != n0]
    roots = {(k * (m // div)) % m: k for k in range(div)}
    hits, failure = _summand_hits(_orbits(p, m), m, others, n0, roots)
    if failure is not None:
        return FAILS_CANDIDATE, failure
    found = {}
    for E in sorted(hits):
        found.setdefault(roots[hits[E]], list(E))
    missing = sorted(set(roots.values()) - set(found))
    if missing:
        return FAILS_CANDIDATE, {"missing_roots": missing,
                                 "reason": "roots of the summand not reached"}
    return HOLDS, {"summand_weight": n0,
                   "intersections": {str(k): found[k] for k in sorted(found)}}


def check_c2_c3(p: Params, m: int) -> dict:
    """Statements two and three, whichever divisibilities apply.

    For each of a and b that divides m, decides whether the union meets
    that divisor summand exactly in its roots of unity: every polytope
    whose LP is feasible pins a single point that is a root, and every
    root is reached.  The LP works in power-basis coordinates of
    Q(zeta_m), so it asks all Galois conjugates of the coordinates
    outside the summand to vanish together; its equivalence with the
    statement about the real polytopes is open.  One LP per dihedral
    orbit decides the orbit exactly: the member s*e + g has the
    representative's LP transformed by multiplication with powers of
    zeta_m and, for s = -1, by the automorphism zeta -> zeta^-1, and both
    are Q-linear bijections of Q(zeta_m), so feasibility and pinning
    carry over and the pinned root moves by e -> s*e + g*n0.  The unit
    action is not used, because c1 and the real form of this statement
    need isometries (see the module docstring).

    Returns one exact Verdict (precision_bits 0) per divisor of m among a
    and b, keyed "c2" for a and "c3" for b; raises PreconditionViolation
    when neither divides m.
    """
    out = {}
    for stmt, div in (("c2", p.a), ("c3", p.b)):
        if m % div == 0:
            status, detail = _divisor_statement(p, m, div)
            out[stmt] = Verdict(status, 0, witness=detail)
    if not out:
        raise PreconditionViolation("neither a nor b divides m")
    return out


def check_c4(p: Params, m: int) -> Verdict:
    """Statement four: the polygon boundary lies inside the union.

    Supported exactly in the one-weight case, where the hull is a regular
    polygon and an edge is covered precisely when both endpoints appear
    in a common polytope; coverage is then pure residue arithmetic.  A
    missed edge here is an exact violation, still reported as
    FAILS_CANDIDATE for uniformity.
    """
    if m % p.a == 0 or m % p.b == 0:
        raise PreconditionViolation("m must be divisible by neither a nor b")
    if not is_member(p, m):
        return Verdict(HOLDS, 0, witness={"vacuous": "m is not representable"})
    data = weights(p, m)
    J = data.closed_weights
    if len(J) != 1:
        return Verdict(UNSUPPORTED, 0,
                       witness={"reason": f"hull has dimension {2 * len(J)}",
                                "weights": list(J)})
    entry = data.entries[J[0]]
    mp_, np_ = entry.m_prime, entry.n_prime
    if mp_ < 3:
        raise TheoremViolation("the hull is not full-dimensional in the plane")
    coverage = {}
    for Q in q_union(p, m):
        ks = {(e * np_) % mp_ for e in Q.vertex_exponents}
        for k in ks:
            if (k + 1) % mp_ in ks:
                coverage.setdefault(k, list(Q.vertex_exponents))
    missing = sorted(set(range(mp_)) - set(coverage))
    if missing:
        return Verdict(FAILS_CANDIDATE, 0,
                       witness={"missing_edges": missing,
                                "reason": "boundary edges not covered"})
    return Verdict(HOLDS, 0,
                   witness={"edges": {str(k): coverage[k] for k in sorted(coverage)}})


def run_conjecture_checks(p: Params, m: int,
                          precision: int = DEFAULT_PRECISION,
                          cap: int = MAX_PRECISION) -> dict:
    """All statements applicable at this weight, keyed c1 through c4."""
    out = {"c1": escalate(check_c1, p, m, start=precision, cap=cap)}
    if m % p.a and m % p.b:
        out["c4"] = check_c4(p, m)
        return out
    out.update(check_c2_c3(p, m))
    return out
