"""The benchmark's workloads: fixed lists of `cuspk verify` commands.

Every command covers one (a, b) pair, so the seed can decide the order in
which the pairs and suites run.  The seed never changes the set of pairs:
at the sizes below one pair costs up to ten times another (conjC at
(2,3) against (3,5)), so drawing pairs from a pool would make the work of a
run depend on the seed and swamp any change under test.
"""

from __future__ import annotations

import json
import os
import random

# the README pairs, which the CLI also sweeps by default
PAIRS = ((2, 3), (2, 5), (3, 4), (3, 5))

# workload -> (per-pair suites, suites without a pair)
WORKLOADS = {
    # about 80% Fraction simplex tableau (c1 margin LPs), the rest c2/c3
    # cyclotomic LPs and interval certification; no SNF.  ROADMAP items 1
    # and 2 (orbit reduction, one warm-started tableau) show here only.
    "polytope": ((("conjC", "--m-max", "13"),), ()),
    # SNF in both modes, generator lifts, bar and gap complexes, d o d = 0
    # checks; no LP and no interval work: the bypass for simplex changes.
    "homology": ((("prop51", "--m-max", "12"), ("conjB", "--m-max", "12")), ()),
    # factor-only SNF on wide stacked matrices with prime-power diagonals,
    # Witt map construction and ghost arithmetic: few large entries
    # instead of many +-1 entries.
    "kgroups": ((("kgroups", "--r-max", "20"), ("semigroup", "--r-max", "24")),
                (("witt",),)),
}

REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")


def command_keys(workload: str) -> list[str]:
    """Reference keys of the workload's commands, in canonical order."""
    paired, unpaired = WORKLOADS[workload]
    keys = [" ".join((suite, "--a", str(a), "--b", str(b), *rest))
            for suite, *rest in paired for a, b in PAIRS]
    keys += [" ".join(cmd) for cmd in unpaired]
    return keys


def commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(reference key, CLI argv) per command, in the order the seed picks."""
    keys = command_keys(workload)
    random.Random(seed).shuffle(keys)
    return [(key, ["verify", *key.split()]) for key in keys]


def load_refs() -> dict:
    """Row count and sha256 of report.jsonl / report.csv per command key."""
    with open(REFS_PATH, encoding="utf-8") as fh:
        return json.load(fh)
