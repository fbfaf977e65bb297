from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_homlinalg import chain_vector

import cuspk.simplicialx as sx
from cuspk.errors import (DEFAULT_BUDGET, PreconditionViolation, ResourceBound,
                          TheoremViolation)
from cuspk.homlinalg import ChainComplex, HomologySummary, homology
from cuspk.semigroup import Params, ell, is_member, member_table
from cuspk.simplicialx import (CmComplex, build_sigma,
                               conjecture_b_homology_check, cyclic_gaps,
                               expected_y_homology, fixed_point_check,
                               generator_cycle, mask_vertices, rotate_mask,
                               vertices_mask, x_complex, x_homology)

P23 = Params(2, 3)
P25 = Params(2, 5)
P34 = Params(3, 4)
P35 = Params(3, 5)


def pair_id(p):
    return f"{p.a},{p.b}"


def H(mapping):
    return HomologySummary.of(mapping)


def fixed_points(p, m, s):
    return fixed_point_check(p, s, build_sigma(p, m), build_sigma(p, m // s))


def faces_as_tuples(cx):
    return sorted(mask_vertices(f) for f in cx.faces)


def check_invariants(cx):
    """Assert subset closure and rotation invariance, exhaustively."""
    for f in cx.faces:
        if rotate_mask(f, cx.m) not in cx.faces:
            raise AssertionError(f"face {bin(f)} breaks rotation invariance")
        if f.bit_count() > 1:
            # dropping one vertex at a time reaches every subset
            for e in mask_vertices(f):
                if f ^ (1 << e) not in cx.faces:
                    raise AssertionError(f"face {bin(f)} breaks subset closure")


def face_in_sigma(p, m, mask):
    """Whether every cyclic gap of the face is representable: the brute-force
    oracle of build_sigma's pruned search."""
    rep = member_table(p, m)
    return all(rep[g] for g in cyclic_gaps(mask, m))


def _relative_complex(p, m, degrees, budget):
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
        return not all(rep[g] for g in cyclic_gaps(vertices_mask(vs), m))

    basis = {q: sorted(vertices_mask(c) for c in combinations(range(m), q + 1)
                       if outside(c))
             for q in degrees}
    return ChainComplex(basis, sx._face_boundary)


class TestMasks:
    def test_vertices_round_trip(self):
        assert mask_vertices(0b10110) == (1, 2, 4)
        assert vertices_mask((1, 2, 4)) == 0b10110

    def test_rotation(self):
        assert rotate_mask(0b00011, 5, 1) == 0b00110
        assert rotate_mask(0b10001, 5, 1) == 0b00011
        assert rotate_mask(0b10001, 5, 0) == 0b10001

    def test_gaps(self):
        assert cyclic_gaps(vertices_mask((0, 2)), 5) == (2, 3)
        assert cyclic_gaps(vertices_mask((3,)), 7) == (7,)
        with pytest.raises(ValueError):
            cyclic_gaps(0, 5)

    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_gaps_sum_to_m_and_rotate(self, m, data):
        mask = data.draw(st.integers(min_value=1, max_value=(1 << m) - 1))
        assert sum(cyclic_gaps(mask, m)) == m
        rot = rotate_mask(mask, m, data.draw(st.integers(0, 2 * m)))
        assert sorted(cyclic_gaps(rot, m)) == sorted(cyclic_gaps(mask, m))
        assert rot.bit_count() == mask.bit_count()


class TestSigma:
    def test_pentagon(self):
        cx = build_sigma(P23, 5)
        assert faces_as_tuples(cx) == [
            (0,), (0, 2), (0, 3), (1,), (1, 3), (1, 4),
            (2,), (2, 4), (3,), (4,)]
        assert not any(f.bit_count() == 3 for f in cx.faces)

    def test_gap_weight_empty(self):
        assert len(build_sigma(P23, 1)) == 0

    def test_two_vertices(self):
        assert faces_as_tuples(build_sigma(P23, 2)) == [(0,), (1,)]

    @pytest.mark.parametrize("p", [P23, P35])
    def test_nonempty_iff_member(self, p):
        for m in range(1, 13):
            assert (len(build_sigma(p, m)) > 0) == is_member(p, m)

    @pytest.mark.parametrize("p", [P23, P25])
    def test_closure_and_rotation(self, p):
        for m in range(1, 13):
            check_invariants(build_sigma(p, m))

    @pytest.mark.parametrize("p", [Params(a, b) for b in range(3, 9)
                                   for a in range(2, b) if gcd(a, b) == 1],
                             ids=pair_id)
    def test_face_predicate_matches_complex(self, p):
        # the pruned search against the filter over every subset of C_m,
        # empty subcomplexes (m not representable, such as m = 1) included
        for m in range(1, 15):
            brute = {mask for mask in range(1, 1 << m) if face_in_sigma(p, m, mask)}
            assert build_sigma(p, m).faces == brute

    def test_budget(self):
        # Σ(2,3,8) has 46 faces
        with pytest.raises(ResourceBound, match="^the gap complex in weight 8 "
                           "has more than 45 faces$"):
            build_sigma(P23, 8, budget=45)

    @pytest.mark.parametrize("p", [P23, P25, P34, P35], ids=pair_id)
    def test_budget_is_the_face_count(self, p):
        # a budget of exactly the faces builds, one less raises
        faces = sum(1 for mask in range(1, 1 << 12) if face_in_sigma(p, 12, mask))
        assert len(build_sigma(p, 12, budget=faces)) == faces
        with pytest.raises(ResourceBound):
            build_sigma(p, 12, budget=faces - 1)

    def test_invariant_checker_rejects_junk(self):
        broken = CmComplex(m=4, faces=frozenset({0b0011}))
        with pytest.raises(AssertionError):
            check_invariants(broken)


class TestXHomology:
    @pytest.mark.parametrize("m,want", [
        (1, {0: (1, ())}),
        (2, {1: (1, ())}),
        (5, {2: (1, ())}),
        (6, {2: (2, ())}),
    ])
    def test_frozen_small_weights(self, m, want):
        assert x_homology(build_sigma(P23, m)) == H(want)

    @pytest.mark.parametrize("p", [P23, P25, P34, P35, Params(2, 7), Params(3, 7),
                                   Params(4, 5)], ids=pair_id)
    def test_matches_the_relative_complex(self, p):
        # the gap subcomplex's augmented complex against the faces outside it
        for m in range(1, 13):
            want = homology(_relative_complex(p, m, range(m), DEFAULT_BUDGET))
            assert x_homology(build_sigma(p, m)) == want
        # m = 1 is not representable: the subcomplex is empty
        assert x_homology(build_sigma(p, 1)) == H({0: (1, ())})

    def test_euler_characteristic_consistent(self):
        for m in range(1, 10):
            sigma = build_sigma(P25, m)
            C = x_complex(sigma)
            chi = sum((-1) ** q * C.dim(q) for q in C.basis)
            assert chi == sum((-1) ** q * r for q, (r, _) in x_homology(sigma).groups)

    @pytest.mark.parametrize("p", [P23, P34])
    def test_concentration_and_free_top(self, p):
        for m in range(1, 11):
            summary = x_homology(build_sigma(p, m))
            assert all(q <= m - 1 for q, _ in summary.groups)
            rank, torsion = summary.group(m - 1)
            assert torsion == ()

    def test_budget(self):
        # past the budget no complex is built, so no homology is taken
        with pytest.raises(ResourceBound):
            x_homology(build_sigma(P23, 25, budget=1000))


class TestExpectedY:
    @pytest.mark.parametrize("p,m,want", [
        (P23, 2, {1: (1, ())}),
        (P23, 5, {2: (1, ())}),
        (P23, 6, {2: (2, ())}),
        (P23, 9, {3: (2, ())}),
        (P34, 12, {2: (6, ())}),
        (P25, 7, {2: (1, ())}),
    ])
    def test_closed_form(self, p, m, want):
        assert expected_y_homology(p, m) == H(want)


class TestConjectureB:
    def test_agreement_sweep(self):
        for m in range(1, 11):
            report = conjecture_b_homology_check(P23, m, build_sigma(P23, m))
            assert report.agree
            assert report.x_summary == x_homology(build_sigma(P23, m))
            assert report.y_summary == expected_y_homology(P23, m)

    def test_space_level_mismatch_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(sx, "expected_y_homology",
                            lambda p, m: H({0: (7, ())}))
        report = conjecture_b_homology_check(P23, 5, build_sigma(P23, 5))
        assert report.agree is False


class TestFixedPoints:
    def test_order_three_on_six(self):
        assert fixed_points(P23, 6, 3)
        fixed = [f for f in build_sigma(P23, 6).faces
                 if rotate_mask(f, 6, 2) == f]
        assert len(build_sigma(P23, 2)) == len(fixed) == 2

    def test_order_two_on_ten(self):
        assert fixed_points(P23, 10, 2)

    @pytest.mark.parametrize("p", [P23, P34])
    def test_all_divisors(self, p):
        for m in range(1, 11):
            for s in range(1, m + 1):
                if m % s == 0:
                    assert fixed_points(p, m, s)

    def test_identity_subgroup(self):
        assert fixed_points(P35, 9, 1)

    def test_gap_sequence_is_compared_in_order(self, monkeypatch):
        # reversed gaps keep their multiset; the face {0, 2} of Σ_5 has the
        # gaps (2, 3), no palindrome, so its lift's (2, 3, 2, 3) read
        # backwards is no longer the sequence repeated twice
        real = sx.cyclic_gaps
        monkeypatch.setattr(sx, "cyclic_gaps", lambda mask, w:
                            real(mask, w)[::-1] if w == 10 else real(mask, w))
        with pytest.raises(TheoremViolation, match="does not repeat the gap sequence"):
            fixed_points(P23, 10, 2)

    def test_non_divisor_rejected(self):
        with pytest.raises(PreconditionViolation):
            fixed_points(P23, 6, 4)
        # sigma_t must be the complex at weight m/s
        with pytest.raises(PreconditionViolation):
            fixed_point_check(P23, 2, build_sigma(P23, 6), build_sigma(P23, 2))


# generator chains with one defect each, which the check must reject
MUTANTS = {
    "sign flipped": lambda chain: {**chain, min(chain): -chain[min(chain)]},
    "doubled": lambda chain: {k: 2 * v for k, v in chain.items()},
    "triangle dropped": lambda chain: {k: v for k, v in chain.items()
                                       if k != min(chain)},
}
# the check's three ways to reject a chain, by the end of its message
REJECTIONS = ("is not a cycle", "is not free of rank one",
              "does not generate the degree-2 homology")


def connecting_verdict(p, m, chain):
    """The rejection that generator_cycle's check gives a chain, or None."""
    try:
        sx._check_generator(p, m, chain, build_sigma(p, m))
    except TheoremViolation as exc:
        return next(r for r in REJECTIONS if str(exc).endswith(r))
    return None


def relative_verdicts(p, m, chains):
    """The same verdicts on the relative complex of the pair in degrees
    1-3: a relative cycle, H_2 = Z, and generation, checked by appending
    the chain as a degree-3 column that must kill H_2."""
    C = _relative_complex(p, m, (1, 2, 3), DEFAULT_BUDGET)
    free = homology(C).group(2) == (1, ())
    out = []
    for chain in chains:
        vec = chain_vector(C, 2, chain)
        if any(C.boundary(2).matvec(vec)):
            out.append(REJECTIONS[0])
            continue
        if not free:
            out.append(REJECTIONS[1])
            continue
        basis = {1: C.basis[1], 2: C.basis[2], 3: C.basis[3] + ["cycle"]}
        aug = ChainComplex(basis, lambda lbl: chain.items() if lbl == "cycle"
                           else sx._face_boundary(lbl))
        killed = homology(aug).group(2) == (0, ())
        out.append(None if killed else REJECTIONS[2])
    return out


class TestGeneratorCycle:
    def test_pentagon_chain(self):
        chain = generator_cycle(P23, 5)
        assert {mask_vertices(k): v for k, v in chain.items()} == {
            (0, 1, 3): 1, (0, 2, 4): 1, (0, 1, 4): -1}

    def test_seven_drops_collapsed_triangles(self):
        # (0,2,4) and (0,3,5) have all gaps representable and vanish
        chain = generator_cycle(P23, 7)
        assert {mask_vertices(k): v for k, v in chain.items()} == {
            (0, 1, 3): 1, (0, 4, 6): 1, (0, 1, 6): -1}

    def test_three_four_seven(self):
        chain = generator_cycle(P34, 7)
        assert {mask_vertices(k): v for k, v in chain.items()} == {
            (0, 1, 4): 1, (0, 2, 5): 1, (0, 3, 6): 1,
            (0, 1, 5): -1, (0, 2, 6): -1}

    def test_shared_divisor_weight(self):
        # m' = 7 < m = 14, so the triangles sit inside the first half
        chain = generator_cycle(P34, 14)
        assert len(chain) == 4
        assert set(chain.values()) <= {1, -1}
        assert all(max(mask_vertices(k)) < 7 for k in chain)

    @pytest.mark.parametrize("p,m", [(P25, 9), (P35, 16)])
    def test_more_weights(self, p, m):
        chain = generator_cycle(p, m)
        assert chain and set(chain.values()) <= {1, -1}

    @pytest.mark.parametrize("m", [6, 11, 12])
    def test_preconditions(self, m):
        with pytest.raises(PreconditionViolation):
            generator_cycle(P23, m)

    @pytest.mark.parametrize("mutant", MUTANTS)
    @pytest.mark.parametrize("p,m", [(P23, 5), (P34, 7), (P35, 16)],
                             ids=["2,3,5", "3,4,7", "3,5,16"])
    def test_mutants_are_rejected(self, p, m, mutant):
        # a flipped sign or a dropped triangle leaves an edge of the boundary
        # outside sigma; the doubled chain is twice the generator
        at = f"(a,b,m)=({p.a},{p.b},{m})"
        want = {"sign flipped": f"generator chain at {at} is not a cycle",
                "doubled": f"chain at {at} does not generate the degree-2 homology",
                "triangle dropped": f"generator chain at {at} is not a cycle"}
        chain = MUTANTS[mutant](generator_cycle(p, m))
        with pytest.raises(TheoremViolation) as exc:
            sx._check_generator(p, m, chain, build_sigma(p, m))
        assert str(exc.value) == want[mutant]

    def test_relative_complex_gives_the_same_verdicts(self):
        # acceptance test 06's grid, on the generator and its mutants: the
        # connecting map against the relative complex of the pair
        ran = 0
        for p in (P23, P25, P34, P35):
            for m in range(1, 4 * p.a * p.b + 1):
                if m % p.a == 0 or m % p.b == 0 or ell(p, m) != 1:
                    continue
                chain = generator_cycle(p, m)
                chains = [chain] + [mutate(chain) for mutate in MUTANTS.values()]
                verdicts = [connecting_verdict(p, m, c) for c in chains]
                assert verdicts[0] is None and None not in verdicts[1:]
                assert relative_verdicts(p, m, chains) == verdicts
                ran += 1
        assert ran == 2 + 4 + 6 + 8

    def test_budget_counts_the_faces_of_sigma(self):
        # Σ(2,3,5) has 10 faces, which generator_cycle builds once
        assert generator_cycle(P23, 5, budget=10)
        with pytest.raises(ResourceBound, match="^the gap complex in weight 5 "
                           "has more than 9 faces$"):
            generator_cycle(P23, 5, budget=9)
