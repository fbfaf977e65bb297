"""Witt vector tests.

The operator image tables over F_p are checked against an independent
oracle that computes V, F and restriction directly with the integral Witt
addition/Frobenius polynomials (lift to Z, apply, reduce mod p) and then
converts to orbit coordinates by table lookup against multiples of the
Teichmuller unit.  The package builds the V and restriction tables; the
F table, which no K-group needs, lives here, so that check tests witt_F
modulo p.  The cokernels are checked against the Smith form of the
stacked matrix that the tables describe.
"""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_homlinalg import from_entries

import cuspk.wittlab as wittlab
from cuspk.errors import IntegralityViolation, TheoremViolation
from cuspk.homlinalg import smith_normal_form
from cuspk.semigroup import Params, TruncationSet, divide_set, truncation_S
from cuspk.wittlab import (
    AbelianMap,
    GhostWittElement,
    cokernel_factors,
    ghost,
    profile,
    relative_k_group,
    restriction,
    unghost,
    verschiebung,
    witt_F,
    witt_V,
    witt_add,
    witt_mul,
    witt_neg,
    witt_restrict,
)


def divisors_set(n):
    return TruncationSet(d for d in range(1, n + 1) if n % d == 0)


def teichmuller(S, a):
    """[a] = (a, 0, 0, ...); its ghost coordinates are (a^n)_n."""
    return GhostWittElement.of(S, {1: a} if 1 in S else {})


def witt_zero(S):
    return GhostWittElement.of(S, {})


def verschiebung_on(S, n, prime):
    """V_n : W_{S/n}(F_p) -> W_S(F_p) as an image table."""
    return verschiebung(profile(divide_set(S, n), prime), profile(S, prime), n)


def restriction_on(S, T, prime):
    """R^S_T : W_S(F_p) -> W_T(F_p) as an image table, T inside S."""
    assert T.members <= S.members
    return restriction(profile(S, prime), profile(T, prime))


def frobenius_on(S, n, prime):
    """F_n : W_S(F_p) -> W_{S/n}(F_p) on p-typical coordinates.

    The orbit e of S with n' | e and e*p^v still relevant maps to orbit
    e/n' of S/n by reduction; everything else is annihilated.
    """
    v, n_prime = wittlab._split_prime(n, prime)
    dom_prof = profile(S, prime)
    cod_prof = profile(divide_set(S, n), prime)
    image = []
    for e, ln in dom_prof.orbits:
        target = None
        if e % n_prime == 0 and ln > v:
            i = cod_prof.index(e // n_prime)
            assert cod_prof.orbits[i][1] == ln - v
            target = (i, 1)
        image.append(target)
    return AbelianMap(dom=dom_prof.orders, cod=cod_prof.orders, image=tuple(image))


class UncheckedSet:
    """A stand-in for a TruncationSet that skips the closure check, for
    feeding the orbit code a set no constructor would accept."""

    def __init__(self, members):
        self.members = frozenset(members)

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)


def witt_scale(k, x):
    """k * x via ghost coordinates (k an integer)."""
    gx = ghost(x)
    return unghost(x.S, {n: k * v for n, v in gx.items()})


def random_element(rng, S, lo=-3, hi=3):
    return GhostWittElement.of(S, {n: rng.randint(lo, hi) for n in S})


def apply(mp, vec):
    """The image of a vector of residues under an AbelianMap, unreduced."""
    out = [0] * len(mp.cod)
    for x, target in zip(vec, mp.image):
        if target is not None:
            out[target[0]] += target[1] * x
    return out


# --- independent F_p oracle ------------------------------------------------

def reduce_mod(x, p):
    return GhostWittElement.of(x.S, {n: v % p for n, v in x.coords})


def ptypical_table(p, n):
    """coords tuple of k*[1] in W_{{1,p,...,p^{n-1}}}(F_p) -> k."""
    S = TruncationSet(p ** i for i in range(n))
    table = {}
    acc = witt_zero(S)
    for k in range(p ** n):
        key = tuple(v for _, v in reduce_mod(acc, p).coords)
        table[key] = k
        acc = reduce_mod(witt_add(acc, teichmuller(S, 1)), p)
    return table


def orbit_coords(S, p, x):
    """Map x in W_S(F_p) to its orbit coordinates {e: residue mod p^{n_e}}.

    The e-component is the p-typical part of F_e(x), identified with an
    integer residue through k <-> k*[1].
    """
    out = {}
    for e, n_e in profile(S, p).orbits:
        fe = witt_F(S, e, x)
        ptyp = witt_restrict(TruncationSet(p ** i for i in range(n_e)), fe)
        key = tuple(v for _, v in reduce_mod(ptyp, p).coords)
        out[e] = ptypical_table(p, n_e)[key]
    return out


class TestProfiles:
    def test_frozen_examples(self):
        S = truncation_S(Params(2, 3), 0)
        assert profile(S, 2).orbits == ((1, 3), (3, 2))
        assert profile(S, 2).orders == (8, 4)
        assert profile(S, 5).orbits == ((1, 1), (2, 1), (3, 1), (4, 1), (6, 1))
        S1 = truncation_S(Params(2, 3), 1)
        assert profile(S1, 2).orbits == ((1, 4), (3, 3), (5, 2), (7, 1), (9, 1))

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 60))
    def test_length_is_cardinality(self, p, n):
        S = divisors_set(n)
        assert profile(S, p).length == len(S)

    def test_orbit_length_sum_checked(self):
        # {2, 4} lacks the divisor 1: no 2-orbit starts in it, so the
        # orbit lengths sum to 0, not 2
        with pytest.raises(TheoremViolation, match="orbit lengths sum to 0"):
            profile(UncheckedSet({2, 4}), 2)


class TestOperatorMatrices:
    def test_verschiebung_frozen(self):
        S = truncation_S(Params(2, 3), 0)
        V2 = verschiebung_on(S, 2, 2)
        assert V2.dom == (4, 2) and V2.cod == (8, 4)
        assert V2.image == ((0, 2), (1, 2))
        V3 = verschiebung_on(S, 3, 2)
        assert V3.dom == (4,) and V3.cod == (8, 4)
        assert V3.image == ((1, 3),)

    def test_frobenius_after_verschiebung_is_n(self):
        S = divisors_set(24)
        for p in (2, 3, 5):
            for n in (2, 3, 4, 6, 8, 12):
                comp = frobenius_on(S, n, p).compose(verschiebung_on(S, n, p))
                dom = comp.dom
                assert comp.cod == dom
                for j, target in enumerate(comp.image):
                    i, v = target or (j, 0)
                    if i != j:
                        # an off-diagonal coefficient must vanish
                        assert v % dom[i] == 0
                        v = 0
                    assert (v - n) % dom[j] == 0

    def test_restriction_annihilates_verschiebung(self):
        p = Params(2, 3)
        S = truncation_S(p, 1)
        T = TruncationSet(m for m in S if m % 2 and m % 3)
        for prime in (2, 3, 5, 7):
            R = restriction_on(S, T, prime)
            assert R.compose(verschiebung_on(S, 2, prime)).is_zero()
            assert R.compose(verschiebung_on(S, 3, prime)).is_zero()

    @pytest.mark.parametrize("prime,n", [(2, 2), (2, 3), (2, 6), (3, 3), (3, 2), (5, 4)])
    def test_verschiebung_matches_witt_polynomials(self, prime, n):
        S = divisors_set(12)
        Sn = divide_set(S, n)
        V = verschiebung_on(S, n, prime)
        rng = random.Random(1000 + 7 * prime + n)
        for _ in range(8):
            x = reduce_mod(random_element(rng, Sn, 0, prime - 1), prime)
            lhs = orbit_coords(S, prime, reduce_mod(witt_V(S, n, x), prime))
            xc = orbit_coords(Sn, prime, x)
            prof_d = profile(Sn, prime)
            prof_c = profile(S, prime)
            vec = [xc[e] for e, _ in prof_d.orbits]
            img = apply(V, vec)
            for i, (e, n_e) in enumerate(prof_c.orbits):
                assert lhs[e] % prime ** n_e == img[i] % prime ** n_e

    @pytest.mark.parametrize("prime,n", [(2, 2), (2, 3), (2, 6), (3, 3), (3, 4), (5, 2)])
    def test_frobenius_matches_witt_polynomials(self, prime, n):
        S = divisors_set(12)
        Sn = divide_set(S, n)
        F = frobenius_on(S, n, prime)
        rng = random.Random(2000 + 7 * prime + n)
        for _ in range(8):
            x = reduce_mod(random_element(rng, S, 0, prime - 1), prime)
            lhs = orbit_coords(Sn, prime, reduce_mod(witt_F(S, n, x), prime))
            xc = orbit_coords(S, prime, x)
            vec = [xc[e] for e, _ in profile(S, prime).orbits]
            img = apply(F, vec)
            for i, (e, n_e) in enumerate(profile(Sn, prime).orbits):
                assert lhs[e] % prime ** n_e == img[i] % prime ** n_e

    def test_restriction_matches_witt_polynomials(self):
        S = divisors_set(12)
        T = divisors_set(6)
        for prime in (2, 3):
            R = restriction_on(S, T, prime)
            rng = random.Random(3000 + prime)
            for _ in range(6):
                x = reduce_mod(random_element(rng, S, 0, prime - 1), prime)
                lhs = orbit_coords(T, prime, reduce_mod(witt_restrict(T, x), prime))
                vec = [orbit_coords(S, prime, x)[e] for e, _ in profile(S, prime).orbits]
                img = apply(R, vec)
                for i, (e, n_e) in enumerate(profile(T, prime).orbits):
                    assert lhs[e] % prime ** n_e == img[i] % prime ** n_e

    def test_verschiebung_target_length_checked(self):
        # the profile of S/2 passed as that of S/3: orbit 1 of S/2 has
        # length 2, but V_3 sends it to orbit 3 of S, of length 3
        S = divisors_set(12)
        with pytest.raises(TheoremViolation, match="wrong length"):
            verschiebung(profile(divide_set(S, 2), 2), profile(S, 2), 3)

    def test_malformed_table_raises(self):
        with pytest.raises(ValueError, match="length"):
            AbelianMap(dom=(4, 2), cod=(8,), image=((0, 2),))
        # a generator of order 4 cannot go to 3, which has order 8 in Z/8
        with pytest.raises(ValueError, match="not a homomorphism"):
            AbelianMap(dom=(4,), cod=(8, 4), image=((0, 3),))
        # there is no codomain generator 1
        with pytest.raises(ValueError, match="not a homomorphism"):
            AbelianMap(dom=(4,), cod=(8,), image=((1, 2),))


class TestRelativeKGroups:
    def test_frozen_small_groups(self):
        assert relative_k_group(Params(2, 3), 5, 0).invariant_factors == (5,)
        assert relative_k_group(Params(2, 3), 2, 0).invariant_factors == (2,)
        assert relative_k_group(Params(2, 3), 3, 0).invariant_factors == (3,)
        assert relative_k_group(Params(2, 3), 5, 2).invariant_factors == (5, 25)
        assert relative_k_group(Params(2, 3), 7, 2).invariant_factors == (7, 49)
        assert relative_k_group(Params(2, 3), 5, 4).invariant_factors == (5, 5, 5, 25)
        assert relative_k_group(Params(3, 4), 5, 0).invariant_factors == (5, 25)

    def test_odd_and_negative_degrees_vanish(self):
        for q in (-2, -1, 1, 3, 5):
            res = relative_k_group(Params(2, 3), 5, q)
            assert res.invariant_factors == () and res.length == 0

    def test_perfect_field_flag(self):
        assert relative_k_group(Params(2, 3), 2, 2).perfect_field_only
        assert relative_k_group(Params(2, 3), 3, 2).perfect_field_only
        assert not relative_k_group(Params(2, 3), 5, 2).perfect_field_only
        assert relative_k_group(Params(3, 5), 5, 0).perfect_field_only

    def test_length_formula_sweep(self):
        # the function itself raises TheoremViolation on any mismatch
        for (a, b) in [(2, 3), (2, 5), (3, 4), (3, 5)]:
            for prime in (2, 3, 5, 7):
                for r in range(3):
                    res = relative_k_group(Params(a, b), prime, 2 * r)
                    assert res.length == (2 * r + 1) * (a - 1) * (b - 1) // 2

    def test_identification_with_w_t_checked(self, monkeypatch):
        real = wittlab.cokernel_factors
        monkeypatch.setattr(wittlab, "cokernel_factors",
                            lambda orders, maps: real(orders, maps)[:-1])
        with pytest.raises(TheoremViolation, match="differ from W_T orders"):
            relative_k_group(Params(2, 3), 5, 2)

    def test_length_formula_checked(self, monkeypatch):
        # S(a, b, r+1) in place of S(a, b, r) passes every check but the
        # length, which is (2r+3)(a-1)(b-1)/2
        monkeypatch.setattr(wittlab, "truncation_S",
                            lambda p, r: truncation_S(p, r + 1))
        with pytest.raises(TheoremViolation, match="length 3 != expected 1"):
            relative_k_group(Params(2, 3), 5, 0)


def stacked_snf_factors(orders, maps):
    """Invariant factors (> 1) of the cokernel via the Smith form of the
    stacked matrix [diag(orders) | maps...], built from the image tables."""
    n = len(orders)
    entries = {(i, i): d for i, d in enumerate(orders)}
    col = n
    for mp in maps:
        for c, target in enumerate(mp.image):
            if target is not None:
                entries[(target[0], col + c)] = target[1]
        col += len(mp.dom)
    diag = smith_normal_form(from_entries(n, col, entries)).diag
    assert len(diag) == n
    return [d for d in diag if d > 1]


COPRIME_PAIRS = [(a, b) for b in range(3, 8) for a in range(2, b)
                 if gcd(a, b) == 1]


class TestCokernel:
    @given(st.sampled_from(COPRIME_PAIRS), st.sampled_from([2, 3, 5, 7, 11]),
           st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_matches_stacked_smith_form(self, pair, prime, r):
        S = truncation_S(Params(*pair), r)
        orders = profile(S, prime).orders
        maps = [verschiebung_on(S, n, prime) for n in pair]
        assert cokernel_factors(orders, maps) == stacked_snf_factors(orders, maps)

    def test_orders_of_two_primes_raise(self):
        # Z/2 + Z/3 is cyclic of order 6; the row gcds 2 and 3 are no chain
        zero = AbelianMap(dom=(), cod=(2, 3), image=())
        with pytest.raises(ValueError, match="divisibility chain"):
            cokernel_factors((2, 3), [zero])


class TestGhostArithmetic:
    def test_teichmuller_ghost(self):
        S = divisors_set(12)
        g = ghost(teichmuller(S, 2))
        assert g == {n: 2 ** n for n in [1, 2, 3, 4, 6, 12]}

    def test_frozen_sum_and_product(self):
        S = TruncationSet([1, 2])
        s = witt_add(teichmuller(S, 2), teichmuller(S, 3))
        assert s.coords == ((1, 5), (2, -6))
        m = witt_mul(teichmuller(S, 2), teichmuller(S, 3))
        assert m.coords == ((1, 6), (2, 0))

    def test_frobenius_of_teichmuller(self):
        S = divisors_set(8)
        assert witt_F(S, 2, teichmuller(S, 3)) == teichmuller(divide_set(S, 2), 9)

    def test_operators_reject_x_on_the_wrong_set(self):
        S = divisors_set(12)
        with pytest.raises(ValueError, match="^x must live on S/n$"):
            witt_V(S, 2, teichmuller(S, 2))     # S/2 = {1, 2, 3, 6}
        with pytest.raises(ValueError, match="^x must live on S/n$"):
            witt_V(S, 2, teichmuller(divide_set(S, 3), 2))
        with pytest.raises(ValueError, match="^x must live on S$"):
            witt_F(S, 2, teichmuller(divide_set(S, 2), 2))
        with pytest.raises(ValueError, match="^x must live on S$"):
            witt_F(divide_set(S, 2), 3, teichmuller(S, 2))

    def test_unghost_integrality_violation(self):
        S = TruncationSet([1, 2])
        with pytest.raises(IntegralityViolation):
            unghost(S, {1: 0, 2: 1})

    @given(st.sampled_from([6, 8, 12, 24, 30]), st.integers(0, 10 ** 6))
    @settings(max_examples=60)
    def test_ghost_round_trip(self, n, seed):
        S = divisors_set(n)
        x = random_element(random.Random(seed), S)
        assert unghost(S, ghost(x)) == x

    def test_ring_axioms_seeded(self):
        S = divisors_set(24)
        rng = random.Random(42)
        for _ in range(40):
            x, y, z = (random_element(rng, S) for _ in range(3))
            assert witt_add(x, y) == witt_add(y, x)
            assert witt_mul(x, y) == witt_mul(y, x)
            assert witt_add(witt_add(x, y), z) == witt_add(x, witt_add(y, z))
            assert witt_mul(witt_mul(x, y), z) == witt_mul(x, witt_mul(y, z))
            assert witt_mul(x, witt_add(y, z)) == witt_add(witt_mul(x, y), witt_mul(x, z))
            assert witt_add(x, witt_neg(x)) == witt_zero(S)
            assert witt_mul(x, teichmuller(S, 1)) == x

    def test_operator_identities_seeded(self):
        S = divisors_set(24)
        rng = random.Random(99)
        pairs = [(2, 3), (2, 2), (3, 4), (2, 12), (4, 6), (3, 8)]
        for _ in range(25):
            for m, n in pairs:
                x = random_element(rng, S)
                # F_m F_n = F_mn
                a1 = witt_F(divide_set(S, n), m, witt_F(S, n, x))
                assert a1 == witt_F(S, m * n, x)
                # V_n V_m = V_nm
                y = random_element(rng, divide_set(S, m * n))
                b1 = witt_V(S, n, witt_V(divide_set(S, n), m, y))
                assert b1 == witt_V(S, n * m, y)
                # F_n V_n = n
                z = random_element(rng, divide_set(S, n))
                assert witt_F(S, n, witt_V(S, n, z)) == witt_scale(n, z)
                # projection formula x * V_n(y) = V_n(F_n(x) * y)
                w = random_element(rng, divide_set(S, n))
                lhs = witt_mul(x, witt_V(S, n, w))
                rhs = witt_V(S, n, witt_mul(witt_F(S, n, x), w))
                assert lhs == rhs
            m, n = 2, 3
            # F_m V_n = V_n F_m for coprime m, n
            u = random_element(rng, divide_set(S, n))
            lhs = witt_F(divide_set(S, n), m, u)
            lhs = witt_V(divide_set(S, m), n, lhs)
            assert lhs == witt_F(S, m, witt_V(S, n, u))
