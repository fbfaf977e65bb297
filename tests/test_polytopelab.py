import json
from fractions import Fraction
from math import gcd

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from cuspk import polytopelab
from cuspk.errors import PreconditionViolation
from cuspk.polytopelab import (FAILS_CANDIDATE, HOLDS, UNDECIDED, UNSUPPORTED,
                               ExponentPolytope, Verdict,
                               _cyclotomic, _midpoint_vertex, _necklaces,
                               _orbits, _root_table, _separate_origin,
                               _summand_hit, _summand_hits, _zeta_powers,
                               check_c1, check_c2_c3, check_c4, escalate,
                               q_union, run_conjecture_checks)
from cuspk.semigroup import Params, bezout, is_member, weights

P23 = Params(2, 3)
P25 = Params(2, 5)
P34 = Params(3, 4)


def index_functions(p, m, weight):
    """(word, exponents) of every index function of the weight: each
    necklace once per starting residue g0, the enumeration that _orbits
    replaced."""
    entry = weights(p, m).entries[weight]
    out = []
    for word in _necklaces(entry.i, entry.j, p.a, p.b):
        for g0 in range(m):
            exps = [g0]
            for step in word[:-1]:
                exps.append((exps[-1] + step) % m)
            out.append((word, tuple(exps)))
    return out


def oracle_orbits(p, m):
    """The polytopes of every index function, deduplicated and sorted, then
    regrouped into dihedral orbits by looking up the 2m images of each
    representative, as (exponents, s, g) triples."""
    sets = sorted({tuple(sorted(exps))
                   for n in weights(p, m).closed_weights
                   for _, exps in index_functions(p, m, n)})
    placed = set()
    out = []
    for rep in sets:
        if rep in placed:
            continue
        orbit = []
        for s in (1, -1):
            for g in range(m):
                image = tuple(sorted((s * e + g) % m for e in rep))
                assert image in sets
                if image not in placed:
                    placed.add(image)
                    orbit.append((image, s, g))
        out.append(sorted(orbit))
    return out


def cyclic_gaps(exps, m):
    return [y - x for x, y in zip(exps, exps[1:])] + [exps[0] + m - exps[-1]]


class TestIndexFunctions:
    def test_pentagon_weight(self):
        # the one weight 3 has alpha = beta = 1: one orbit of five
        # translates, each of its reflections one of them
        assert _orbits(P23, 5) == [[((0, 2), 1, 0), ((0, 3), 1, 3),
                                    ((1, 3), 1, 1), ((1, 4), 1, 4),
                                    ((2, 4), 1, 2)]]

    def test_single_increment(self):
        assert _orbits(P23, 2) == [[((0,), 1, 0), ((1,), 1, 1)]]

    def test_endpoint_weight_is_pure_a(self):
        # weight c*m/a has beta = 0, so its word is a repeated
        data = weights(P23, 8)
        [pure] = [data.entries[n] for n in data.closed_weights
                  if data.entries[n].j == 0]
        assert pure.i == 4
        orbits = [o for o in _orbits(P23, 8) if len(o[0][0]) == pure.i]
        assert orbits == [[((0, 2, 4, 6), 1, 0), ((1, 3, 5, 7), 1, 1)]]
        assert all(cyclic_gaps(E, 8) == [2] * 4 for E, _, _ in orbits[0])

    def test_word_content(self):
        # the cyclic gaps of every member are alpha a-steps and beta
        # b-steps of the weight whose word has its length, summing to m
        for m in (5, 6, 8, 12):
            data = weights(P23, m)
            counts = {e.i + e.j: (e.i, e.j) for e in
                      (data.entries[n] for n in data.closed_weights)}
            assert len(counts) == len(data.closed_weights)
            for orbit in _orbits(P23, m):
                for E, _, _ in orbit:
                    alpha, beta = counts[len(E)]
                    gaps = cyclic_gaps(E, m)
                    assert sorted(gaps) == [2] * alpha + [3] * beta
                    assert sum(gaps) == m


class TestQUnion:
    def test_pentagon(self):
        polys = q_union(P23, 5)
        assert [q.vertex_exponents for q in polys] == [
            (0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]
        assert all(q.weights == (3,) for q in polys)

    def test_gap_weight_empty(self):
        assert q_union(P23, 1) == []

    def test_two_weights(self):
        polys = q_union(P23, 6)
        assert [q.vertex_exponents for q in polys] == [
            (0, 2, 4), (0, 3), (1, 3, 5), (1, 4), (2, 5)]
        assert all(q.weights == (3, 4) for q in polys)


@st.composite
def pair_and_weight(draw):
    a = draw(st.integers(2, 6))
    b = draw(st.integers(a + 1, 9).filter(lambda b: gcd(a, b) == 1))
    return Params(a, b), draw(st.integers(1, 20))


@st.composite
def planar_exponent_set(draw):
    m = draw(st.integers(1, 12))
    return m, tuple(sorted(draw(st.sets(st.integers(0, m - 1), min_size=1))))


def _direct_status(outcomes):
    # the verdict of certifying every polytope on its own, in q_union order
    states = [state for state, _ in outcomes]
    if "candidate" in states:
        return FAILS_CANDIDATE
    return UNDECIDED if "undecided" in states else HOLDS


class TestDihedralOrbits:
    @given(pair_and_weight())
    @settings(max_examples=60, deadline=None)
    def test_q_union_is_closed(self, pm):
        p, m = pm
        sets = {frozenset(Q.vertex_exponents) for Q in q_union(p, m)}
        for S in sets:
            for s in (1, -1):
                for g in range(m):
                    assert frozenset((s * e + g) % m for e in S) in sets

    @pytest.mark.parametrize("p", [P23, P25, P34, Params(3, 5), Params(2, 7),
                                   Params(4, 5)])
    def test_orbits_match_the_oracle(self, p):
        for m in range(1, 31):
            expected = oracle_orbits(p, m)
            assert _orbits(p, m) == expected, m
            assert [Q.vertex_exponents for Q in q_union(p, m)] == \
                sorted(E for orbit in expected for E, _, _ in orbit), m

    @pytest.mark.parametrize("p", [P23, P34])
    def test_orbit_verdicts_match_every_polytope(self, p):
        for m in range(1, 13):
            polys = q_union(p, m)
            direct = [_separate_origin(Q, 128) for Q in polys]
            v = check_c1(p, m, precision=128)
            assert v.status == _direct_status(direct), m
            if polys and v.status == HOLDS:
                got = v.witness["separators"]
                assert len(got) == len(polys)
                for entry, (_, detail) in zip(got, direct):
                    if "functional" in entry:
                        assert entry == detail
            if m % p.a and m % p.b:
                continue
            verdicts = check_c2_c3(p, m)
            bz = bezout(p)
            for key, div, n0 in (("c2", p.a, bz.c * m // p.a),
                                 ("c3", p.b, bz.d * m // p.b)):
                if m % div:
                    continue
                others = [n for n in weights(p, m).closed_weights if n != n0]
                roots = {(k * (m // div)) % m: k for k in range(div)}
                direct = {}
                found = {}
                for Q in polys:
                    je, failure = _summand_hit(Q.vertex_exponents, m, others,
                                               n0, roots)
                    assert failure is None, (m, key, Q)
                    if je is not None:
                        direct[Q.vertex_exponents] = je
                        found.setdefault(str(roots[je]), list(Q.vertex_exponents))
                assert _summand_hits(_orbits(p, m), m, others, n0, roots) == \
                    (direct, None)
                assert verdicts[key].status == HOLDS
                assert verdicts[key].witness["intersections"] == \
                    dict(sorted(found.items()))

    def test_summand_hits_follow_the_reflection(self, monkeypatch):
        # no summand LP on the conjC grid pins a root moved by e -> -e, so
        # stand in a chiral orbit in Z/7 whose "LP" pins the centroid
        # 3^-1 * sum(E): it moves under e -> s*e + g as a root with n0 = 1
        m, n0 = 7, 1
        rep = (0, 1, 3)
        members = {}
        for s in (1, -1):
            for g in range(m):
                image = tuple(sorted((s * e + g) % m for e in rep))
                members.setdefault(image, (s, g))
        assert len(members) == 2 * m and min(members) == rep
        orbit = sorted((E, s, g) for E, (s, g) in members.items())

        def centroid(exps, *args):
            return 5 * sum(exps) % m, None

        monkeypatch.setattr(polytopelab, "_summand_hit", centroid)
        roots = {j: j for j in range(m)}
        hits, failure = _summand_hits([orbit], m, [], n0, roots)
        assert failure is None
        assert hits == {E: centroid(E)[0] for E in members}

    @pytest.mark.parametrize("p,m", [(P23, 5), (P23, 12), (P25, 14), (P34, 12)])
    def test_transferred_witnesses_map_representatives(self, p, m):
        v = check_c1(p, m)
        assert v.status == HOLDS
        entries = v.witness["separators"]
        assert [e["vertices"] for e in entries] == \
            [list(Q.vertex_exponents) for Q in q_union(p, m)]
        certified = [e for e in entries if "functional" in e]
        reps = {tuple(e["vertices"]) for e in certified}
        assert len(certified) < len(entries)
        for e in entries:
            if "functional" in e:
                continue
            assert tuple(e["representative"]) in reps
            s = -1 if e["reflect"] else 1
            image = sorted((s * x + e["translate"]) % m
                           for x in e["representative"])
            assert image == e["vertices"]
        # each representative's functional is positive on its vertices, by
        # mpmath's interval arithmetic at 128 bits in a context of its own
        ws = weights(p, m).closed_weights
        iv = type(mpmath.iv)()
        iv.prec = 128
        for e in certified:
            h = [iv.mpf(f.numerator) / iv.mpf(f.denominator)
                 for f in map(Fraction, e["functional"])]
            for x in e["vertices"]:
                dot = iv.mpf(0)
                for k, n in enumerate(ws):
                    angle = 2 * iv.pi * ((x * n) % m) / m
                    dot += h[2 * k] * iv.cos(angle)
                    dot += h[2 * k + 1] * iv.sin(angle)
                assert dot.a > 0


# cos and sin of 2*pi*k/m from mpmath, the test-only oracle, at this many
# bits: 64 and more beyond every precision the root table is tested at
ORACLE_BITS = 1024 + 128


@pytest.fixture(scope="module")
def root_oracle():
    """(cos, sin) of 2*pi*k/m for k < m <= 60, each an integer V within
    2^-1100 of the value times 2^ORACLE_BITS."""
    out = {}
    with mpmath.workprec(ORACLE_BITS):
        for m in range(1, 61):
            for k in range(m):
                angle = 2 * mpmath.pi * k / m
                out[m, k] = tuple(int(mpmath.nint(mpmath.ldexp(v, ORACLE_BITS)))
                                  for v in (mpmath.cos(angle), mpmath.sin(angle)))
    return out


class TestRootTable:
    @pytest.mark.parametrize("bits", [8, 64, 128, 256, 1024])
    def test_boxes_hold_the_roots_and_midpoints_are_nearest(self, root_oracle,
                                                             bits):
        # all in units of 2^-ORACLE_BITS; the oracle is off by under
        # 2^-1100, so a box may miss it by the larger slack 2^-(bits+64)
        slack = 1 << (ORACLE_BITS - bits - 64)
        half = 1 << (ORACLE_BITS - bits - 1)
        for m in range(1, 61):
            table = _root_table(m, bits)
            up = ORACLE_BITS - table.shift
            assert up >= 64
            for k in range(m):
                for V, (c, err), mid in zip(root_oracle[m, k], table.boxes[k],
                                            table.midpoints[k]):
                    assert ((c - err) << up) - slack <= V
                    assert V <= ((c + err) << up) + slack
                    M = mid * (1 << bits)
                    assert M.denominator == 1
                    nearest = M.numerator << (ORACLE_BITS - bits)
                    assert abs(V - nearest) < half, (m, k, bits)

    @pytest.mark.parametrize("bits", [8, 128, 1024])
    def test_no_box_is_wider_than_the_mpmath_interval(self, bits):
        # the certification sums exactly over the boxes, so narrower boxes
        # than the intervals it replaced keep every HOLDS verdict
        iv = type(mpmath.iv)()
        iv.prec = bits
        for m in range(1, 31):
            table = _root_table(m, bits)
            for k in range(m):
                angle = 2 * iv.pi * k / m
                for x, (_, err) in zip((iv.cos(angle), iv.sin(angle)),
                                       table.boxes[k]):
                    with mpmath.workprec(2 * bits + 64):
                        width = mpmath.mpf(x.b) - mpmath.mpf(x.a)
                        assert mpmath.ldexp(2 * err, -table.shift) <= width

    def test_nearest_midpoint_where_double_rounding_misses(self):
        # sin(2*pi*14/15) * 2^64 has the fractional part 0.50114; rounding
        # it to bits + 8 = 72 bits first, then to an integer, rounds down
        cos, sin = _midpoint_vertex(15, 14, (1,), 64)
        assert sin == Fraction(-7502966760219034614, 1 << 64)
        assert cos == Fraction(16851939256832928277, 1 << 64)

    def test_guard_bits_grow_until_every_midpoint_is_decided(self, monkeypatch):
        # boxes that are too wide at the first guard get 32 more bits
        real = polytopelab._octant_boxes
        seen = []

        def blurred(m, prec):
            seen.append(prec)
            boxes = real(m, prec)
            if len(seen) > 1:
                return boxes
            return [tuple((c, err << 40) for c, err in pair) for pair in boxes]

        monkeypatch.setattr(polytopelab, "_octant_boxes", blurred)
        table = polytopelab._root_table.__wrapped__(7, 64)
        assert seen == [96, 128]
        assert table.shift == 128
        assert table.midpoints == _root_table(7, 64).midpoints

    def test_rejects_bits_below_one(self):
        with pytest.raises(PreconditionViolation):
            _root_table(5, 0)


class TestOriginCheck:
    def test_pentagon_holds(self):
        v = check_c1(P23, 5, precision=128)
        assert v.status == HOLDS
        assert v.precision_bits == 128
        assert len(v.witness["separators"]) == 5

    def test_one_interior_weight_holds(self):
        assert check_c1(P23, 12, precision=128).status == HOLDS

    @given(planar_exponent_set())
    @example((4, (0, 2)))
    @example((3, (0, 1, 2)))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_planar_gap_oracle(self, mE):
        # with the one weight 1 the polytope is conv{zeta_m^e : e in E} in
        # the plane; it misses the origin exactly when the points lie in an
        # open half-plane, that is when two cyclically consecutive exponents
        # are more than m/2 apart
        m, E = mE
        gap = max((E[(i + 1) % len(E)] - E[i]) % m or m for i in range(len(E)))
        Q = ExponentPolytope(m=m, weights=(1,), vertex_exponents=E)
        state, detail = _separate_origin(Q, 128)
        assert state == ("holds" if 2 * gap > m else "candidate")
        if state == "candidate":
            lam = [Fraction(c) for c in detail["coefficients"]]
            assert all(v >= 0 for v in lam) and sum(lam) == 1
            mids = [_midpoint_vertex(m, e, (1,), 128) for e in E]
            assert [sum(c * v[j] for c, v in zip(lam, mids))
                    for j in range(2)] == [0, 0]

    @pytest.mark.parametrize("E,state", [((0, 2), "holds"),
                                         ((0, 1, 2), "candidate")])
    def test_box_radii_enter_the_certificate(self, monkeypatch, E, state):
        # with every coordinate only known to within +-1, h . v - |h|_1 <= 0
        # bounds the margin and sum lam_i = 1 the norm, so neither is proven
        Q = ExponentPolytope(m=3, weights=(1,), vertex_exponents=E)
        assert _separate_origin(Q, 128)[0] == state
        real = _root_table(3, 128)
        radius = 1 << real.shift
        wide = polytopelab._RootTable(
            shift=real.shift, midpoints=real.midpoints,
            boxes=tuple(tuple((c, radius) for c, _ in pair)
                        for pair in real.boxes))
        monkeypatch.setattr(polytopelab, "_root_table", lambda *args: wide)
        assert _separate_origin(Q, 128)[0] == "undecided"

    def test_starting_precision_suffices(self):
        # an unnormalised separator follows the dyadic rounding noise of a
        # lower-dimensional hull and escalates (3, 4, 20) to 256 bits
        for m in range(1, 25):
            if is_member(P34, m):
                v = check_c1(P34, m, precision=128)
                assert (v.status, v.precision_bits) == (HOLDS, 128), m

    def test_vacuous(self):
        v = check_c1(P23, 1)
        assert v.status == HOLDS
        assert v.precision_bits == 0
        assert "vacuous" in v.witness

    @pytest.mark.parametrize("m", [2, 5, 8])
    def test_monotone_in_precision(self, m):
        lo = check_c1(P23, m, precision=64)
        hi = check_c1(P23, m, precision=256)
        if lo.status != UNDECIDED and hi.status != UNDECIDED:
            assert lo.status == hi.status

    def test_json_round_trip(self):
        # cli writes the witness of a verdict that does not hold into its
        # report; every witness must survive JSON unchanged
        for m in (2, 5, 7, 12):
            for verdict in run_conjecture_checks(P23, m).values():
                assert json.loads(json.dumps(verdict.witness)) == verdict.witness


class TestSummandChecks:
    def test_degenerate_a_case(self):
        v = check_c2_c3(P23, 2)
        assert set(v) == {"c2"}
        assert v["c2"].status == HOLDS
        assert v["c2"].precision_bits == 0
        assert sorted(v["c2"].witness["intersections"]) == ["0", "1"]

    @pytest.mark.parametrize("m", [4, 8, 10])
    def test_a_divides(self, m):
        v = check_c2_c3(P23, m)
        assert set(v) == {"c2"}
        assert v["c2"].status == HOLDS
        assert len(v["c2"].witness["intersections"]) == 2

    def test_b_divides(self):
        v = check_c2_c3(P23, 9)
        assert set(v) == {"c3"}
        assert v["c3"].status == HOLDS
        assert len(v["c3"].witness["intersections"]) == 3

    def test_both_divide(self):
        v = check_c2_c3(P23, 6)
        assert set(v) == {"c2", "c3"}
        assert all(verdict.status == HOLDS for verdict in v.values())

    def test_precondition(self):
        with pytest.raises(PreconditionViolation):
            check_c2_c3(P23, 5)


class TestEdgeCoverage:
    def test_pentagon(self):
        v = check_c4(P23, 5)
        assert v.status == HOLDS
        assert len(v.witness["edges"]) == 5

    @pytest.mark.parametrize("p,m", [(P23, 7), (P34, 7), (P25, 9)])
    def test_rank_one_holds(self, p, m):
        assert check_c4(p, m).status == HOLDS

    def test_higher_dimension_unsupported(self):
        v = check_c4(P23, 11)
        assert v.status == UNSUPPORTED
        assert v.precision_bits == 0

    def test_vacuous(self):
        assert check_c4(P23, 1).status == HOLDS

    def test_precondition(self):
        with pytest.raises(PreconditionViolation):
            check_c4(P23, 6)


class TestExactHelpers:
    def test_cyclotomic_polynomials(self):
        assert _cyclotomic(1) == (-1, 1)
        assert _cyclotomic(2) == (1, 1)
        assert _cyclotomic(6) == (1, -1, 1)
        assert _cyclotomic(12) == (1, 0, -1, 0, 1)

    def test_powers_sum_to_zero(self):
        for m in (2, 3, 5, 6, 12):
            rows = _zeta_powers(m)
            deg = len(rows[0])
            assert [sum(r[k] for r in rows) for k in range(deg)] == [0] * deg

    def test_projection_steps(self):
        # multiplying a vertex exponent by a weight steps by j' and -i'
        for p in (P23, P25, P34):
            for m in range(1, 20):
                data = weights(p, m)
                for n, e in data.entries.items():
                    assert (p.a * n - e.j) % m == 0
                    assert (p.b * n + e.i) % m == 0
                    assert e.q == gcd(m, n) == gcd(e.i, e.j)


class TestDriver:
    def test_statement_selection(self):
        assert set(run_conjecture_checks(P23, 5)) == {"c1", "c4"}
        assert set(run_conjecture_checks(P23, 6)) == {"c1", "c2", "c3"}
        assert set(run_conjecture_checks(P23, 8)) == {"c1", "c2"}
        assert set(run_conjecture_checks(P23, 9)) == {"c1", "c3"}

    def test_small_sweep_all_hold(self):
        for m in range(1, 11):
            for key, verdict in run_conjecture_checks(P23, m, cap=256).items():
                assert verdict.status in (HOLDS, UNSUPPORTED), (m, key)

    def test_escalation_stops_at_cap(self):
        # a decided verdict comes back untouched whatever the cap
        v = escalate(check_c1, P23, 5, start=64, cap=128)
        assert v.status == HOLDS
        assert v.precision_bits in (64, 128)

    def test_summand_rows_carry_the_bare_detail(self, monkeypatch):
        # c2/c3 verdicts come from check_c2_c3, one per divisor statement;
        # the status is the verdict's, not repeated inside the witness
        def fake(p, m, div):
            if div == p.a:
                return FAILS_CANDIDATE, {"missing_roots": [1], "reason": "r"}
            return HOLDS, {"summand_weight": 1, "intersections": {}}

        monkeypatch.setattr(polytopelab, "_divisor_statement", fake)
        out = run_conjecture_checks(P23, 6)
        assert out["c2"] == Verdict(FAILS_CANDIDATE, 0,
                                    witness={"missing_roots": [1], "reason": "r"})
        assert out["c3"] == Verdict(HOLDS, 0,
                                    witness={"summand_weight": 1, "intersections": {}})
