"""Arithmetic of the numerical semigroup generated by two coprime integers.

Everything downstream is parametrised by a pair 1 < a < b with gcd(a,b) = 1.
The central quantity is the count

    ell(a, b, m) = #{(i, j) : i, j >= 1 and a*i + b*j = m},

which equals the number of integers in the open interval (c*m/a, d*m/b)
for any Bezout pair a*d - b*c = 1.  Truncation sets S(a, b, r) collect the
m with ell(a, b, m) <= r; they are finite and closed under divisors, which
is what makes the Witt-group computations in :mod:`cuspk.wittlab` finite.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from .errors import PreconditionViolation, TheoremViolation


class Params:
    """A coprime pair 1 < a < b, compared and hashed by value: it keys
    lru_caches throughout, so a and b are never reassigned."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        if not (1 < a < b):
            raise ValueError(f"need 1 < a < b, got a={a}, b={b}")
        if math.gcd(a, b) != 1:
            raise ValueError(f"a={a} and b={b} are not coprime")
        self.a = a
        self.b = b

    def __eq__(self, other) -> bool:
        if other.__class__ is not Params:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"Params(a={self.a!r}, b={self.b!r})"


class BezoutPair(NamedTuple):
    """The canonical solution of a*d - b*c = 1 with 1 <= c < a."""

    c: int
    d: int


@lru_cache(maxsize=None)
def bezout(p: Params) -> BezoutPair:
    """Canonical Bezout pair for (a, b), computed and checked once per
    pair: `ell` asks for it on every call.

    Among all (c, d) with a*d - b*c = 1 exactly one has 1 <= c < a; c = 0
    would force a = 1, which Params excludes.
    """
    a, b = p.a, p.b
    c = (-pow(b, -1, a)) % a
    d = (1 + b * c) // a
    if a * d - b * c != 1 or not 1 <= c < a:
        raise TheoremViolation(f"({c}, {d}) is no canonical Bezout pair")
    return BezoutPair(c, d)


def ell(p: Params, m: int) -> int:
    """Number of representations m = a*i + b*j with i, j >= 1.

    Computed as the number of integers n with c*m/a < n < d*m/b.  The
    bijection sends n to (i, j) = (d*m - b*n, a*n - c*m).
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    bz = bezout(p)
    lo = (bz.c * m) // p.a + 1
    hi = (bz.d * m - 1) // p.b
    return max(0, hi - lo + 1)


@lru_cache(maxsize=None)
def _apery(p: Params) -> tuple[int, ...]:
    # apery[t] = least element of <a,b> congruent to t mod a, namely b*j
    # with j = (t * b^{-1}) mod a.
    binv = pow(p.b, -1, p.a)
    return tuple(p.b * ((t * binv) % p.a) for t in range(p.a))


def is_member(p: Params, m: int) -> bool:
    """True when m = a*i + b*j for some i, j >= 0."""
    if m < 0:
        return False
    return m >= _apery(p)[m % p.a]


@lru_cache(maxsize=None)
def member_table(p: Params, m: int) -> tuple:
    """is_member(p, g) for g = 0, ..., m, built once per (p, m): the gap
    and bar complexes of weight m look every part up here."""
    return tuple(is_member(p, g) for g in range(m + 1))


class TruncationSet:
    """A finite set of positive integers closed under divisors.

    Members must be ints, bools refused.  Closure is checked by multiples:
    S is divisor-closed exactly when no multiple of a non-member
    d <= max(S) // 2 lies in S, because a missing divisor of a member m is
    a proper one, and every proper divisor of m is at most m/2.  That costs
    O(max(S) log max(S)) set lookups.  S iterates in ascending order, which
    is sorted once here.
    """

    __slots__ = ("members", "_order")

    def __init__(self, members) -> None:
        items = tuple(members)
        if set(map(type, items)) - {int}:
            bad = next(m for m in items if type(m) is not int)
            raise ValueError(f"truncation set member {bad!r} is not an int")
        ms = frozenset(items)
        order = tuple(sorted(ms))
        if order and order[0] < 1:
            raise ValueError(f"truncation sets contain positive integers, got {order[0]}")
        top = order[-1] if order else 0
        for d in sorted(set(range(1, top // 2 + 1)) - ms):
            hit = ms.intersection(range(2 * d, top + 1, d))
            if hit:
                raise ValueError(f"not divisor-closed: {min(hit)} in set but a divisor is not")
        self.members = ms
        self._order = order

    def __contains__(self, m: int) -> bool:
        return m in self.members

    def __iter__(self):
        return iter(self._order)

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncationSet):
            return self.members == other.members
        if isinstance(other, (set, frozenset)):
            return self.members == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"TruncationSet({list(self._order)})"


@lru_cache(maxsize=None)
def truncation_S(p: Params, r: int) -> TruncationSet:
    """S(a, b, r) = { m >= 1 : ell(a, b, m) <= r }, from ell on [1, a*b].

    ell(m + a*b) = ell(m) + 1 for m >= 1: the interval (c*m/a, d*m/b) of
    m + a*b is that of m moved by the integer b*c and lengthened at the
    right by a*d - b*c = 1, and the part it gains, [d*m/b, d*m/b + 1), holds
    exactly one integer.  So m0 + k*a*b with 1 <= m0 <= a*b lies in S
    exactly when k <= r - ell(m0), and S is contained in [1, (r+1)*a*b].
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    ab = p.a * p.b
    return TruncationSet(m0 + k * ab for m0 in range(1, ab + 1)
                         for k in range(r - ell(p, m0) + 1))


@lru_cache(maxsize=None)
def divide_set(S: TruncationSet, n: int) -> TruncationSet:
    """S/n = { s : n*s in S }, read off the members of S that n divides;
    divisor-closed whenever S is, and checked again on construction, once
    per distinct (S, n): the Witt operators and the K-groups of every
    prime ask for the same few quotients again and again.  The key is the
    set S itself, so a caller that hands in another S gets its quotient."""
    if n < 1:
        raise ValueError("n must be positive")
    return TruncationSet(s // n for s in S if s % n == 0)


class WeightEntry(NamedTuple):
    """Exact data attached to one weight n of the pair (a, b) at level m.

    With (c, d) the canonical Bezout pair, i = d*m - b*n and j = a*n - c*m
    recover the representation m = a*i + b*j, q = gcd(m, n) = gcd(i, j),
    and the primed quantities are the quotients by q.  The pair (k, l)
    solves k*m' + l*n' = 1 with l = a*s - b*r for the canonical (r, s)
    solving r*i' + s*j' = 1.
    """

    n: int
    q: int
    m_prime: int
    n_prime: int
    i: int
    j: int
    i_prime: int
    j_prime: int
    r: int
    s: int
    k: int
    l: int


class WeightData(NamedTuple):
    m: int
    open_weights: tuple[int, ...]
    closed_weights: tuple[int, ...]
    entries: dict[int, WeightEntry]


def _canonical_rs(i_prime: int, j_prime: int) -> tuple[int, int]:
    # Solve r*i' + s*j' = 1.  Interior weights have i', j' >= 1 and the
    # canonical choice satisfies 1 <= s <= i' and 0 <= -r <= j' - 1; the
    # boundary weights (j' = 0 or i' = 0) take the degenerate solutions.
    if i_prime * j_prime == 0 and i_prime + j_prime != 1:
        raise PreconditionViolation(f"({i_prime}, {j_prime}) is not coprime")
    if j_prime == 0:
        return 1, 0
    if i_prime == 0:
        return 0, 1
    s = pow(j_prime, -1, i_prime) if i_prime > 1 else 1
    if s == 0:
        s = i_prime
    r = (1 - s * j_prime) // i_prime
    if (r * i_prime + s * j_prime != 1 or not 1 <= s <= i_prime
            or not 0 <= -r <= j_prime - 1):
        raise TheoremViolation(f"({r}, {s}) is no canonical solution")
    return r, s


def weights(p: Params, m: int) -> WeightData:
    """All weights of (a, b) at level m, with their exact invariants.

    The closed weights are the integers n in [c*m/a, d*m/b]; they
    correspond to representations m = a*i + b*j with i, j >= 0.  The open
    weights are those with i, j >= 1.  For each closed weight the entry
    records the congruence data used by the polytope checks; in particular
    l satisfies l*n' = 1 mod m'.
    """
    if m < 1:
        raise ValueError("m must be positive")
    a, b = p.a, p.b
    bz = bezout(p)
    lo_closed = -((-bz.c * m) // a)          # ceil(c*m/a)
    hi_closed = (bz.d * m) // b              # floor(d*m/b)
    closed = tuple(range(lo_closed, hi_closed + 1))
    entries: dict[int, WeightEntry] = {}
    opens = []
    for n in closed:
        i = bz.d * m - b * n
        j = a * n - bz.c * m
        if a * i + b * j != m or i < 0 or j < 0:
            raise TheoremViolation(f"weight {n} gives no representation of {m}")
        if i >= 1 and j >= 1:
            opens.append(n)
        q = math.gcd(m, n)
        if q != math.gcd(i, j):
            raise TheoremViolation(f"gcd(m, n) != gcd(i, j) at weight {n}")
        m_p, n_p = m // q, n // q
        i_p, j_p = i // q, j // q
        r, s = _canonical_rs(i_p, j_p)
        k = r * bz.d - s * bz.c
        l = s * a - r * b
        if k * m_p + l * n_p != 1:
            raise TheoremViolation(f"l is no inverse of n' mod m' at weight {n}")
        entries[n] = WeightEntry(n=n, q=q, m_prime=m_p, n_prime=n_p, i=i, j=j,
                                 i_prime=i_p, j_prime=j_p, r=r, s=s, k=k, l=l)
    return WeightData(m=m, open_weights=tuple(opens), closed_weights=closed,
                      entries=entries)
