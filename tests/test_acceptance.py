"""Acceptance gate: the eight headline checks, one per test, each printing
a single PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -s`.

Every check here is exact (zero tolerance) except where a statement is
explicitly evidence-only; runtime limits are asserted against the wall
clock with generous headroom on current hardware.
"""

import math
import time
from contextlib import contextmanager

from cuspk.cyclicbar import (connes_factor_bar, connes_factor_small,
                             relative_bar_complex, relative_cone,
                             ty_agreement_check)
from cuspk.polytopelab import (FAILS_CANDIDATE, HOLDS, UNSUPPORTED,
                               run_conjecture_checks)
from cuspk.semigroup import Params, divide_set, ell, truncation_S, weights
from cuspk.simplicialx import (build_sigma, conjecture_b_homology_check,
                               fixed_point_check, generator_cycle)
from cuspk.wittlab import (IDENTITIES, IDENTITY_PAIRS, identity_failures,
                           relative_k_group)

SUITE = (Params(2, 3), Params(2, 5), Params(3, 4), Params(3, 5))


@contextmanager
def criterion(number, label, seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"criterion {number} ({label}): PASS [{elapsed:.1f}s]")


def brute_interior(a, b, m):
    return sum(1 for i in range(1, m // a + 1)
               if (m - a * i) % b == 0 and (m - a * i) >= b)


def test_01_semigroup_counts():
    with criterion(1, "semigroup counts", 10):
        for a in range(2, 10):
            for b in range(a + 1, 11):
                if math.gcd(a, b) != 1:
                    continue
                p = Params(a, b)
                for m in range(1, 5 * a * b + 1):
                    assert ell(p, m) == brute_interior(a, b, m)
                for r in range(5):
                    S = truncation_S(p, r)
                    assert len(S) == (a + 1) * (b + 1) // 2 - 1 + r * a * b
                    assert len(divide_set(S, a)) == (r + 1) * b
                    assert len(divide_set(S, b)) == (r + 1) * a
                    assert len(divide_set(S, a * b)) == r + 1


def test_02_witt_identities_and_k_groups():
    with criterion(2, "witt operators and K-groups", 30):
        # enough cases for at least 1000 identity instances
        cases = -(-1000 // (2 * len(IDENTITY_PAIRS) + 3))
        assert identity_failures(cases, seed=17) == \
            dict.fromkeys(IDENTITIES, 0)

        for p in SUITE:
            for prime in (2, 3, 5, 7):
                for r in range(4):
                    res = relative_k_group(p, prime, 2 * r)
                    assert res.length == res.expected_length == \
                        (2 * r + 1) * (p.a - 1) * (p.b - 1) // 2


def test_03_homology_triple_agreement():
    with criterion(3, "homology triple agreement", 300):
        for p in SUITE:
            for m in range(1, 13):
                ty_agreement_check(p, m, relative_bar_complex(p, m),
                                   relative_cone(p, m))


def test_04_connes_factor():
    with criterion(4, "Connes factor", 300):
        for p in SUITE:
            for m in range(1, 13):
                if m % p.a == 0 or m % p.b == 0:
                    continue
                bar, cone = relative_bar_complex(p, m), relative_cone(p, m)
                assert abs(connes_factor_bar(p, m, bar)) == m
                assert abs(connes_factor_small(p, m, cone)) == m


def test_05_x_space_evidence():
    with criterion(5, "quotient space homology evidence", 600):
        findings = []
        for p in SUITE:
            for m in range(1, 13):
                report = conjecture_b_homology_check(p, m, build_sigma(p, m))
                if not report.agree:
                    findings.append(report)
        for rep in findings:
            print(f"FINDING: homology mismatch at (a,b,m)="
                  f"({rep.a},{rep.b},{rep.m}): X={rep.x_summary} "
                  f"vs Y={rep.y_summary}")
        # disagreement is a finding, not a failure; the circle-level
        # assertion is Proposition 5.1, checked in test_03


def test_06_generator_cycle():
    with criterion(6, "degree-two generator cycle", 300):
        ran = 0
        for p in SUITE:
            for m in range(1, 4 * p.a * p.b + 1):
                if m % p.a == 0 or m % p.b == 0 or ell(p, m) != 1:
                    continue
                chain = generator_cycle(p, m)
                assert chain and all(c in (1, -1) for c in chain.values())
                ran += 1
        assert ran == 2 + 4 + 6 + 8


def test_07_polytope_certification():
    with criterion(7, "polytope conjecture certificates", 300):
        for p in (Params(2, 3), Params(2, 5), Params(3, 4)):
            for m in range(1, 3 * p.a * p.b + 1):
                if ell(p, m) > 1:
                    continue
                verdicts = run_conjecture_checks(p, m, precision=128,
                                                 cap=256)
                for stmt, verdict in verdicts.items():
                    assert verdict.status != FAILS_CANDIDATE, (p, m, stmt)
                    assert verdict.precision_bits <= 256
                    if stmt == "c4":
                        single = len(weights(p, m).closed_weights) == 1
                        want = HOLDS if single or verdict.status == HOLDS \
                            else UNSUPPORTED
                        assert verdict.status == want, (p, m, stmt)
                    else:
                        assert verdict.status == HOLDS, (p, m, stmt)


def test_08_fixed_point_combinatorics():
    with criterion(8, "rotation fixed points", 300):
        for p in SUITE:
            for m in range(1, 15):
                for s in range(1, m + 1):
                    if m % s == 0:
                        assert fixed_point_check(p, s, build_sigma(p, m),
                                                 build_sigma(p, m // s))
