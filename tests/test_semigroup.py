"""Tests for cuspk.semigroup.

Expected values marked as frozen below were produced by the brute-force
oracles in this file, which enumerate representations directly and never
touch the interval-counting code under test.
"""

import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from cuspk.semigroup import (
    BezoutPair,
    Params,
    TruncationSet,
    bezout,
    divide_set,
    ell,
    is_member,
    truncation_S,
    weights,
)


def canonical_rs(i_prime: int, j_prime: int) -> tuple[int, int]:
    """Oracle: the solution of r*i' + s*j' = 1 with 1 <= s <= i' and
    0 <= -r <= j' - 1, for coprime i', j' >= 1 (the paper's choice)."""
    s = pow(j_prime, -1, i_prime) or i_prime
    r = (1 - s * j_prime) // i_prime
    assert r * i_prime + s * j_prime == 1
    assert 1 <= s <= i_prime and 0 <= -r <= j_prime - 1
    return r, s


def ell_brute(a: int, b: int, m: int) -> int:
    """Oracle: enumerate positive representations m = a*i + b*j."""
    count = 0
    i = 1
    while a * i < m:
        rest = m - a * i
        if rest % b == 0 and rest // b >= 1:
            count += 1
        i += 1
    return count


def member_brute(a: int, b: int, m: int) -> bool:
    """Oracle: enumerate non-negative representations."""
    if m < 0:
        return False
    for i in range(m // a + 1):
        if (m - a * i) % b == 0:
            return True
    return False


def coprime_pairs(max_b=12):
    return [(a, b) for a in range(2, max_b) for b in range(a + 1, max_b + 1)
            if math.gcd(a, b) == 1]


pair_st = st.sampled_from(coprime_pairs())


def lacks_divisor(members, m):
    """Oracle: m has a divisor outside members, by a scan of 1..m."""
    return any(m % d == 0 and d not in members for d in range(1, m + 1))


def divisor_closure(members):
    return {d for m in members for d in range(1, m + 1) if m % d == 0}


# random subsets of {1..60}; closed_st closes them up under divisors, since
# few random subsets are closed, and near_closed_st drops one member of a
# closed set again, so that a single divisor is missing
subset_st = st.sets(st.integers(1, 60), max_size=20)
closed_st = subset_st.map(divisor_closure)
near_closed_st = closed_st.filter(bool).flatmap(
    lambda c: st.sampled_from(sorted(c)).map(lambda d: c - {d}))


class TestParams:
    def test_rejects_bad_pairs(self):
        for a, b in [(1, 2), (3, 3), (4, 2), (2, 4), (6, 9)]:
            with pytest.raises(ValueError):
                Params(a, b)

    def test_accepts_coprime(self):
        assert Params(2, 3).a == 2


class TestBezout:
    @pytest.mark.parametrize("a,b,c,d", [
        (2, 3, 1, 2),
        (3, 5, 1, 2),
        (2, 5, 1, 3),
        (3, 4, 2, 3),
    ])
    def test_canonical_values(self, a, b, c, d):
        assert bezout(Params(a, b)) == BezoutPair(c, d)

    @given(pair_st)
    def test_defining_identity(self, ab):
        a, b = ab
        bz = bezout(Params(a, b))
        assert a * bz.d - b * bz.c == 1
        assert 1 <= bz.c < a


class TestEll:
    def test_frozen_values(self):
        p = Params(2, 3)
        assert ell(p, 5) == 1
        assert ell(p, 6) == 0
        assert ell(p, 12) == 1
        assert ell(p, 11) == 2

    @given(pair_st, st.integers(min_value=0, max_value=400))
    @settings(max_examples=300)
    def test_matches_brute_force(self, ab, m):
        a, b = ab
        assert ell(Params(a, b), m) == ell_brute(a, b, m)

    @given(pair_st, st.integers(min_value=1, max_value=200))
    def test_adding_ab_increments(self, ab, m):
        a, b = ab
        p = Params(a, b)
        assert ell(p, m + a * b) == ell(p, m) + 1

    @given(pair_st, st.integers(min_value=0, max_value=3),
           st.integers(min_value=1, max_value=10**6))
    def test_window_values(self, ab, r, seed):
        a, b = ab
        p = Params(a, b)
        lo, hi = r * a * b + 1, (r + 1) * a * b
        m = lo + seed % (hi - lo + 1)
        e = ell(p, m)
        assert e in (r, r + 1)
        if m % a == 0 or m % b == 0:
            assert e == r

    @given(pair_st, st.integers(min_value=1, max_value=3))
    def test_level_sets_have_size_ab(self, ab, r):
        a, b = ab
        p = Params(a, b)
        count = sum(1 for m in range(1, (r + 1) * a * b + 1) if ell(p, m) == r)
        assert count == a * b

    @given(pair_st)
    def test_level_zero_count(self, ab):
        a, b = ab
        p = Params(a, b)
        count = sum(1 for m in range(1, a * b + 1) if ell(p, m) == 0)
        assert count == (a + 1) * (b + 1) // 2 - 1

    @given(pair_st, st.integers(min_value=1, max_value=300),
           st.integers(min_value=1, max_value=300))
    def test_divisor_monotone(self, ab, s, m):
        a, b = ab
        if m % s == 0:
            p = Params(a, b)
            assert ell(p, s) <= ell(p, m)


class TestMembership:
    def test_small_values(self):
        p = Params(2, 3)
        assert [m for m in range(8) if is_member(p, m)] == [0, 2, 3, 4, 5, 6, 7]

    @given(pair_st, st.integers(min_value=-5, max_value=300))
    @settings(max_examples=300)
    def test_matches_brute_force(self, ab, m):
        a, b = ab
        assert is_member(Params(a, b), m) == member_brute(a, b, m)

    @given(pair_st)
    def test_conductor_threshold(self, ab):
        a, b = ab
        p = Params(a, b)
        v = (a - 1) * (b - 1)     # the conductor
        assert is_member(p, v)
        assert not is_member(p, v - 1)  # the Frobenius number
        for m in range(v, v + a * b):
            assert is_member(p, m)


class TestTruncationSets:
    def test_frozen_values(self):
        p = Params(2, 3)
        assert truncation_S(p, 0) == {1, 2, 3, 4, 6}
        assert truncation_S(p, 1) == {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12}

    def test_divisor_closure_enforced(self):
        with pytest.raises(ValueError):
            TruncationSet({2, 4})
        with pytest.raises(ValueError, match="positive integers, got -1"):
            TruncationSet({-1, 1})
        with pytest.raises(ValueError):
            TruncationSet({0, 1})
        for members in ([1, 2.5], ["1", "2"], [1, True], [1, 2.0]):
            with pytest.raises(ValueError, match="is not an int"):
                TruncationSet(members)
        assert 6 in TruncationSet({1, 2, 3, 6})
        # the missing divisor is max(S) // 2 itself
        with pytest.raises(ValueError, match="closed: 6 in set"):
            TruncationSet({1, 2, 6})

    @given(st.one_of(subset_st, closed_st, near_closed_st))
    def test_closure_matches_divisor_scan(self, members):
        bad = [m for m in members if lacks_divisor(members, m)]
        if not bad:
            assert TruncationSet(members) == members
            return
        with pytest.raises(ValueError, match="not divisor-closed") as info:
            TruncationSet(members)
        named = int(re.search(r"closed: (\d+) in set", str(info.value)).group(1))
        assert named in bad

    @given(closed_st)
    def test_divide_set_matches_definition(self, members):
        S = TruncationSet(members)
        for n in range(1, max(members, default=0) + 3):
            assert divide_set(S, n) == {s for s in range(1, 61) if n * s in members}

    @given(closed_st, st.one_of(st.booleans(), st.floats(), st.text(max_size=2),
                                st.fractions(), st.none()),
           st.integers(0, 60))
    def test_non_int_members_rejected(self, members, bad, at):
        items = sorted(members)
        items.insert(at, bad)
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not an int")):
            TruncationSet(items)

    def test_divide_set_values(self):
        p = Params(2, 3)
        S = truncation_S(p, 0)
        assert divide_set(S, 2) == {1, 2, 3}
        assert divide_set(S, 3) == {1, 2}
        assert divide_set(S, 6) == {1}
        assert divide_set(S, 5) == set()

    @given(pair_st, st.integers(min_value=0, max_value=3))
    def test_cardinalities(self, ab, r):
        a, b = ab
        p = Params(a, b)
        S = truncation_S(p, r)
        assert len(S) == (a + 1) * (b + 1) // 2 - 1 + r * a * b
        assert len(divide_set(S, a)) == (r + 1) * b
        assert len(divide_set(S, b)) == (r + 1) * a
        assert len(divide_set(S, a * b)) == r + 1

    @given(pair_st, st.integers(min_value=0, max_value=2))
    def test_membership_criterion(self, ab, r):
        a, b = ab
        p = Params(a, b)
        S = truncation_S(p, r)
        top = (r + 1) * a * b
        for m in range(1, top + 5):
            assert (m in S) == (ell_brute(a, b, m) <= r)


class TestWeights:
    def test_frozen_values_m5(self):
        wd = weights(Params(2, 3), 5)
        assert wd.open_weights == (3,)
        assert wd.closed_weights == (3,)
        e = wd.entries[3]
        assert (e.q, e.m_prime, e.n_prime) == (1, 5, 3)
        assert (e.i, e.j) == (1, 1)
        # the generator's l = a*s - b*r = 2 for (r, s) = (0, 1)
        assert canonical_rs(e.i, e.j) == (0, 1)
        assert pow(e.n_prime, -1, e.m_prime) == 2

    def test_frozen_values_m6(self):
        wd = weights(Params(2, 3), 6)
        assert wd.open_weights == ()
        assert wd.closed_weights == (3, 4)
        # endpoint entries: j = 0 at n = c*m/a, i = 0 at n = d*m/b
        assert wd.entries[3].j == 0
        assert wd.entries[4].i == 0

    @given(pair_st, st.integers(min_value=1, max_value=200))
    def test_interval_counts(self, ab, m):
        a, b = ab
        p = Params(a, b)
        wd = weights(p, m)
        assert len(wd.open_weights) == ell(p, m)
        assert len(wd.closed_weights) == ell(p, m + a + b)

    @given(pair_st, st.integers(min_value=1, max_value=200))
    def test_entry_identities(self, ab, m):
        a, b = ab
        p = Params(a, b)
        wd = weights(p, m)
        for n, e in wd.entries.items():
            assert (a * n - e.j) % m == 0
            assert (b * n + e.i) % m == 0
            assert e.q == math.gcd(m, n) == math.gcd(e.i, e.j)
            assert (e.m_prime, e.n_prime) == (m // e.q, n // e.q)

    @pytest.mark.parametrize("a,b", [(2, 3), (2, 5), (3, 4), (3, 5),
                                     (2, 7), (4, 5)])
    def test_canonical_l_is_the_inverse(self, a, b):
        # the paper's l = a*s - b*r, from the canonical (r, s), is the
        # inverse of n' mod m' that generator_cycle computes, and lies in
        # [a, m' - b] on every interior weight
        p = Params(a, b)
        for m in range(1, 6 * a * b):
            wd = weights(p, m)
            for n in wd.open_weights:
                e = wd.entries[n]
                r, s = canonical_rs(e.i // e.q, e.j // e.q)
                l = a * s - b * r
                assert l == pow(e.n_prime, -1, e.m_prime), (m, n)
                assert a <= l <= e.m_prime - b, (m, n)

    @given(pair_st, st.integers(min_value=1, max_value=150))
    def test_open_weights_bezout_invariance(self, ab, m):
        # replacing (c, d) by (c + a, d + b) shifts every weight by m
        a, b = ab
        p = Params(a, b)
        bz = bezout(p)
        c2, d2 = bz.c + a, bz.d + b
        lo = (c2 * m) // a + 1
        hi = (d2 * m - 1) // b
        shifted = sorted(n % m for n in range(lo, hi + 1)) if m > 0 else []
        wd = weights(p, m)
        assert sorted(n % m for n in wd.open_weights) == shifted

    def test_endpoint_membership(self):
        p = Params(3, 4)
        bz = bezout(p)
        for m in range(1, 80):
            wd = weights(p, m)
            lo_is_int = (bz.c * m) % p.a == 0
            hi_is_int = (bz.d * m) % p.b == 0
            assert ((bz.c * m) // p.a in wd.closed_weights) in (True, False)
            if wd.closed_weights:
                assert lo_is_int == (wd.closed_weights[0] * p.a == bz.c * m)
                assert hi_is_int == (wd.closed_weights[-1] * p.b == bz.d * m)
