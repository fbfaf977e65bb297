"""Big Witt vectors on truncation sets.

Two regimes are implemented.  Over the prime field F_p the Witt group
W_S(F_p) decomposes along orbits: writing each m in S uniquely as e * p^i
with p not dividing e, the group is the product over such e of Z/p^{n_e}
with n_e the number of powers p^i for which e * p^i stays in S.  The
Verschiebung and restriction operators, built from the profiles of their
sets, send each orbit into at most one orbit, so an AbelianMap stores
them as image tables: orbit j goes to c times orbit i, or to 0.  The
relative K-groups of interest are cokernels of Verschiebung maps, and they
split along the orbits into cyclic groups Z/gcd(order, coefficients
landing there); the module needs no matrices and no Smith form.

Over the integers, Witt vectors are handled through ghost coordinates
w_n(x) = sum_{d | n} d * x_d^{n/d}; sums and products are computed
ghostwise and pulled back, with every inverse step checked for exact
divisibility.  identity_failures checks the Frobenius/Verschiebung
identities on random vectors; the `witt` suite and the acceptance tests
both run it.

What depends on a truncation set alone (its quotients S/n, its members
prime to a and b, the divisors of each member) is built once per
distinct set and shared by every call and every prime; `divide_set`
keeps the quotients.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from cuspk.errors import IntegralityViolation, TheoremViolation
from cuspk.semigroup import Params, TruncationSet, divide_set, truncation_S


@lru_cache(maxsize=None)
def _prime_to(S: TruncationSet, a: int, b: int) -> TruncationSet:
    """The members of S divisible by neither a nor b, built and checked
    once per distinct S, whatever the prime."""
    return TruncationSet(m for m in S if m % a and m % b)


def _split_prime(n: int, p: int) -> tuple[int, int]:
    """n = p^v * n' with p not dividing n'; returns (v, n')."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


class PTypicalProfile:
    """Orbit decomposition of W_S(F_p): orbits (e, n_e) with p not dividing e.

    The group is the product of Z/p^{n_e}, whose orders and total p-length
    are set on construction; the length equals the cardinality of S
    because m = e * p^i is unique.
    """

    __slots__ = ("prime", "orbits", "orders", "length", "_positions")

    def __init__(self, prime: int, orbits: tuple) -> None:
        self.prime = prime
        self.orbits = orbits
        self.orders = tuple(prime ** n for _, n in orbits)
        self.length = sum(n for _, n in orbits)
        self._positions = {e: i for i, (e, _) in enumerate(orbits)}

    def index(self, e: int) -> int:
        return self._positions[e]


def profile(S: TruncationSet, prime: int) -> PTypicalProfile:
    """The orbits of S in ascending order of e, the order S iterates in."""
    ms = S.members
    orbits = []
    for e in S:
        if e % prime:
            n_e = 0
            m = e
            while m in ms:
                n_e += 1
                m *= prime
            orbits.append((e, n_e))
    prof = PTypicalProfile(prime=prime, orbits=tuple(orbits))
    if prof.length != len(S):
        raise TheoremViolation(f"orbit lengths sum to {prof.length}, "
                               f"not to |S| = {len(S)}")
    return prof


class AbelianMap:
    """Homomorphism between products of cyclic groups that sends each
    domain generator into a single codomain factor.

    dom and cod list the cyclic orders.  image[j] is (i, c) when domain
    generator j goes to c times codomain generator i, and None when it
    goes to 0.  The table length and well-definedness (c times the
    domain order vanishing in the codomain factor) are checked on
    construction.
    """

    __slots__ = ("dom", "cod", "image")

    def __init__(self, dom: tuple, cod: tuple, image: tuple) -> None:
        if len(image) != len(dom):
            raise ValueError("image table length does not match the domain")
        for j, target in enumerate(image):
            if target is not None:
                i, c = target
                if not 0 <= i < len(cod) or (c * dom[j]) % cod[i]:
                    raise ValueError(f"generator {j} -> {c} * generator {i} "
                                     "is not a homomorphism")
        self.dom = dom
        self.cod = cod
        self.image = image

    def compose(self, other: "AbelianMap") -> "AbelianMap":
        """self ∘ other."""
        if other.cod != self.dom:
            raise ValueError("composition mismatch")
        image = []
        for target in other.image:
            step = None if target is None else self.image[target[0]]
            image.append(None if step is None else (step[0], step[1] * target[1]))
        return AbelianMap(dom=other.dom, cod=self.cod, image=tuple(image))

    def is_zero(self) -> bool:
        return all(target is None or target[1] % self.cod[target[0]] == 0
                   for target in self.image)


def verschiebung(dom_prof: PTypicalProfile, cod_prof: PTypicalProfile,
                 n: int) -> AbelianMap:
    """V_n : W_{S/n}(F_p) -> W_S(F_p) on p-typical coordinates, from the
    profiles of S/n and S.

    With n = p^v * n', the orbit e of S/n maps to the orbit n'e of S by
    multiplication by n (the factor n' twists, p^v is the p-typical
    Verschiebung, which is multiplication by p^v into the longer cyclic
    group).
    """
    v, n_prime = _split_prime(n, cod_prof.prime)
    image = []
    for e, ln in dom_prof.orbits:
        i = cod_prof.index(n_prime * e)
        if cod_prof.orbits[i][1] != ln + v:
            raise TheoremViolation(f"V_{n} sends orbit {e} to one of the wrong length")
        image.append((i, n))
    return AbelianMap(dom=dom_prof.orders, cod=cod_prof.orders, image=tuple(image))


def restriction(dom_prof: PTypicalProfile, cod_prof: PTypicalProfile) -> AbelianMap:
    """R^S_T : W_S(F_p) -> W_T(F_p) for T a subset of S, from the profiles
    of S and T: the orbits of T keep their generator, the other orbits of S
    vanish."""
    image = [None] * len(dom_prof.orbits)
    for i, (e, _) in enumerate(cod_prof.orbits):
        image[dom_prof.index(e)] = (i, 1)
    return AbelianMap(dom=dom_prof.orders, cod=cod_prof.orders, image=tuple(image))


def cokernel_factors(orders, maps) -> list:
    """Invariant factors (> 1) of coker of the given maps into prod Z/orders.

    Each map sends every domain generator into one factor, so every
    relation lives in a single factor, and the cokernel is the direct sum
    over factors i of Z/g_i, with g_i the gcd of orders[i] and the
    coefficients that land in factor i.  When the orders are powers of one
    prime, as on the p-typical orbits, the g_i form a divisibility chain
    once sorted and are the invariant factors.  g_i that do not form a
    chain raise ValueError.
    """
    g = list(orders)
    for mp in maps:
        if len(mp.cod) != len(g):
            raise ValueError("map codomain does not match the orders")
        for target in mp.image:
            if target is not None:
                i, c = target
                g[i] = gcd(g[i], c)
    factors = sorted(d for d in g if d > 1)
    for d, e in zip(factors, factors[1:]):
        if e % d:
            raise ValueError(f"cyclic factors {d} and {e} form no divisibility chain")
    return factors


class KGroupResult(NamedTuple):
    """Relative K-group in one even degree, as a finite abelian group."""

    a: int
    b: int
    prime: int
    q: int
    invariant_factors: tuple
    length: int
    expected_length: int
    perfect_field_only: bool


def relative_k_group(p: Params, prime: int, q: int) -> KGroupResult:
    """The degree-q relative K-group over F_p as an abelian group.

    For q = 2r >= 0 this is the cokernel of [V_a | V_b] on W_{S(a,b,r)},
    which the restriction map identifies with W_T(F_p) for T the members
    of S(a,b,r) divisible by neither a nor b.  V_a and V_b are image
    tables that send each orbit to one orbit, so cokernel_factors reads
    the group off with one gcd per orbit of S and no Smith form: an orbit
    in the image of V_n shrinks to Z/p^v with p^v the p-part of n, and an
    orbit outside both images keeps its Z/p^{n_e}.  The sets S/a, S/b and
    T do not depend on the prime and are built once per S; the profiles
    are per prime.  Odd and negative degrees are trivial.  The
    identification and the length formula (2r+1)(a-1)(b-1)/2 are
    re-verified; failure raises TheoremViolation.
    When the prime divides a*b the group is still computed, but the
    K-theoretic reading assumes a perfect base field of characteristic p,
    so the result is flagged.
    """
    if q < 0 or q % 2 == 1:
        return KGroupResult(a=p.a, b=p.b, prime=prime, q=q,
                            invariant_factors=(), length=0, expected_length=0,
                            perfect_field_only=(p.a * p.b) % prime == 0)
    r = q // 2
    S = truncation_S(p, r)
    prof = profile(S, prime)
    Va = verschiebung(profile(divide_set(S, p.a), prime), prof, p.a)
    Vb = verschiebung(profile(divide_set(S, p.b), prime), prof, p.b)
    factors = cokernel_factors(prof.orders, [Va, Vb])

    t_prof = profile(_prime_to(S, p.a, p.b), prime)
    t_orders = sorted(t_prof.orders)
    expected = (2 * r + 1) * (p.a - 1) * (p.b - 1) // 2
    length = sum(_p_length(d, prime) for d in factors)

    if factors != [d for d in t_orders if d > 1]:
        raise TheoremViolation(
            f"cokernel factors {factors} differ from W_T orders {t_orders}")
    rest = restriction(prof, t_prof)
    if not rest.compose(Va).is_zero() or not rest.compose(Vb).is_zero():
        raise TheoremViolation("restriction does not annihilate the Verschiebung images")
    if length != expected:
        raise TheoremViolation(f"length {length} != expected {expected}")

    return KGroupResult(a=p.a, b=p.b, prime=prime, q=q,
                        invariant_factors=tuple(factors),
                        length=length, expected_length=expected,
                        perfect_field_only=(p.a * p.b) % prime == 0)


def _p_length(d: int, prime: int) -> int:
    n, rest = _split_prime(d, prime)
    if rest != 1:
        raise TheoremViolation(f"cokernel factor {d} is not a {prime}-power")
    return n


# ---------------------------------------------------------------------------
# ghost arithmetic over the integers


class GhostWittElement(NamedTuple):
    """A Witt vector over Z on a truncation set, in Witt coordinates."""

    S: TruncationSet
    coords: tuple

    @classmethod
    def of(cls, S: TruncationSet, mapping: dict) -> "GhostWittElement":
        """The element with coordinates int(mapping[n]), 0 where absent."""
        coords = tuple((n, int(mapping.get(n, 0))) for n in S)
        return cls(S=S, coords=coords)

    def as_dict(self) -> dict:
        return dict(self.coords)


@lru_cache(maxsize=None)
def _divisor_table(S: TruncationSet) -> tuple:
    """(n, divisors of n in ascending order) for every n of S, in the
    order of S, once per distinct S.  Every divisor of a member is a
    member, so walking the multiples of each member finds them all."""
    divs = {n: [] for n in S}
    top = max(divs, default=0)
    for d in S:
        for n in range(d, top + 1, d):
            if n in divs:
                divs[n].append(d)
    return tuple(divs.items())


def ghost(x: GhostWittElement) -> dict:
    """Ghost coordinates w_n = sum over divisors d of n of d * x_d^{n/d}."""
    xd = x.as_dict()
    return {n: sum(d * xd[d] ** (n // d) for d in divs)
            for n, divs in _divisor_table(x.S)}


def unghost(S: TruncationSet, w: dict) -> GhostWittElement:
    """Invert the ghost map over Z; raises IntegralityViolation when the
    required divisions are not exact."""
    coords: dict[int, int] = {}
    # ascending order makes the proper divisors available
    for n, divs in _divisor_table(S):
        acc = w[n]
        for d in divs[:-1]:
            acc -= d * coords[d] ** (n // d)
        if acc % n:
            raise IntegralityViolation(f"coordinate {n} needs {acc}/{n}")
        coords[n] = acc // n
    return GhostWittElement(S, tuple(coords.items()))


def witt_add(x: GhostWittElement, y: GhostWittElement) -> GhostWittElement:
    if x.S != y.S:
        raise ValueError("mismatched truncation sets")
    gx, gy = ghost(x), ghost(y)
    return unghost(x.S, {n: gx[n] + gy[n] for n in x.S})


def witt_mul(x: GhostWittElement, y: GhostWittElement) -> GhostWittElement:
    if x.S != y.S:
        raise ValueError("mismatched truncation sets")
    gx, gy = ghost(x), ghost(y)
    return unghost(x.S, {n: gx[n] * gy[n] for n in x.S})


def witt_neg(x: GhostWittElement) -> GhostWittElement:
    gx = ghost(x)
    return unghost(x.S, {n: -gx[n] for n in x.S})


def witt_V(S: TruncationSet, n: int, x: GhostWittElement) -> GhostWittElement:
    """V_n : W_{S/n} -> W_S; in Witt coordinates (V_n x)_m = x_{m/n} when
    n divides m and 0 otherwise."""
    if x.S != divide_set(S, n):
        raise ValueError("x must live on S/n")
    xd = x.as_dict()
    return GhostWittElement(S, tuple((m, 0 if m % n else xd[m // n]) for m in S))


def witt_F(S: TruncationSet, n: int, x: GhostWittElement) -> GhostWittElement:
    """F_n : W_S -> W_{S/n}, characterised by w_m(F_n x) = w_{mn}(x)."""
    if x.S != S:
        raise ValueError("x must live on S")
    gx = ghost(x)
    Sn = divide_set(S, n)
    return unghost(Sn, {m: gx[m * n] for m in Sn})


def witt_restrict(T: TruncationSet, x: GhostWittElement) -> GhostWittElement:
    if not T.members <= x.S.members:
        raise ValueError("T must be contained in the truncation set of x")
    xd = x.as_dict()
    return GhostWittElement(T, tuple((n, xd[n]) for n in T))


# ---------------------------------------------------------------------------
# randomized identity battery

IDENTITY_PAIRS = ((2, 3), (2, 2), (3, 4), (2, 12), (4, 6), (2, 4), (3, 8),
                  (6, 4))
IDENTITIES = ("coprime-commutation", "frobenius-composition",
              "frobenius-verschiebung", "projection-formula",
              "verschiebung-composition")


def identity_failures(cases: int, seed: int) -> dict:
    """Failure count of each Witt identity over random vectors on S = {d | 24}.

    Each case checks F_m F_n = F_nm and V_n V_m = V_nm for every pair in
    IDENTITY_PAIRS, then F_k V_k y = k y, F_2 V_3 = V_3 F_2 and the projection
    formula x * V_k y = V_k(F_k x * y) once each, so it checks
    2 * len(IDENTITY_PAIRS) + 3 identity instances.  Witt coordinates are
    drawn from [-4, 4] by random.Random(seed).
    """
    rng = random.Random(seed)
    S = TruncationSet(d for d in range(1, 25) if 24 % d == 0)
    sub = {n: divide_set(S, n) for n in (2, 3, 4, 6, 8, 12, 24)}
    failures = dict.fromkeys(IDENTITIES, 0)

    def rand(T):
        return GhostWittElement.of(T, {n: rng.randint(-4, 4) for n in T})

    def check(name, holds):
        if not holds:
            failures[name] += 1

    for _ in range(cases):
        for n, m in IDENTITY_PAIRS:
            x = rand(S)
            check("frobenius-composition",
                  witt_F(sub[n], m, witt_F(S, n, x)) == witt_F(S, n * m, x))
            y = rand(sub[n * m])
            check("verschiebung-composition",
                  witt_V(S, n, witt_V(sub[n], m, y)) == witt_V(S, n * m, y))
        k = rng.choice([2, 3, 4, 6, 8, 12])
        z = rand(sub[k])
        scaled = unghost(z.S, {n: k * v for n, v in ghost(z).items()})
        check("frobenius-verschiebung", witt_F(S, k, witt_V(S, k, z)) == scaled)
        w = rand(sub[3])
        check("coprime-commutation", witt_F(S, 2, witt_V(S, 3, w)) ==
              witt_V(sub[2], 3, witt_F(sub[3], 2, w)))
        u, v = rand(S), rand(sub[k])
        check("projection-formula", witt_mul(u, witt_V(S, k, v)) ==
              witt_V(S, k, witt_mul(witt_F(S, k, u), v)))
    return failures
