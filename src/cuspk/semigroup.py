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


def bezout(p: Params) -> BezoutPair:
    """Canonical Bezout pair for (a, b).

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


def conductor(p: Params) -> int:
    """(a-1)(b-1); every m >= conductor is a member of <a, b>."""
    return (p.a - 1) * (p.b - 1)


class TruncationSet:
    """A finite set of positive integers closed under divisors."""

    __slots__ = ("members",)

    def __init__(self, members) -> None:
        ms = frozenset(int(m) for m in members)
        for m in ms:
            if m < 1:
                raise ValueError(f"truncation sets contain positive integers, got {m}")
        for m in ms:
            for d in range(1, int(math.isqrt(m)) + 1):
                if m % d == 0 and (d not in ms or (m // d) not in ms):
                    raise ValueError(f"not divisor-closed: {m} in set but a divisor is not")
        object.__setattr__(self, "members", ms)

    def __contains__(self, m: int) -> bool:
        return m in self.members

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncationSet):
            return self.members == other.members
        if isinstance(other, (set, frozenset)):
            return self.members == frozenset(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"TruncationSet({sorted(self.members)})"


@lru_cache(maxsize=None)
def truncation_S(p: Params, r: int) -> TruncationSet:
    """S(a, b, r) = { m >= 1 : ell(a, b, m) <= r }.

    The set is contained in [1, (r+1)*a*b]: any m > (r+1)*a*b lies in a
    window [r'*a*b + 1, (r'+1)*a*b] with r' > r, where ell is at least r'.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    top = (r + 1) * p.a * p.b
    return TruncationSet(m for m in range(1, top + 1) if ell(p, m) <= r)


def divide_set(S: TruncationSet, n: int) -> TruncationSet:
    """S/n = { s : n*s in S }; divisor-closed whenever S is."""
    if n < 1:
        raise ValueError("n must be positive")
    return TruncationSet(s for s in range(1, max(S.members, default=0) // n + 1)
                         if n * s in S)


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
