"""Command-line front end: suite sweeps over parameter grids with
deterministic JSON-lines and CSV reports.

Exit codes: 0 all hard assertions pass, 1 theorem-level violation,
2 undecided interval verdicts remain at maximum precision, 3 usage or
parse errors, or an --out directory or report file that cannot be made
or written, 4 some statements were skipped (a cell hit a resource limit,
ran out of memory or raised another toolkit error) and every other row
passed.  Reports are byte-deterministic for a fixed configuration: rows
are sorted, JSON keys are sorted, and randomized batteries run from
fixed seeds.

A suite imports its toolkit modules when its first cell runs, and the
process pool is imported only for --jobs above 1, so a command loads only
what it runs: `report` and `verify semigroup` stop at `semigroup`, and
`polytopelab` and its LP come in with the first `conjC` cell.  No process
imports the standard library's data classes module, nor `inspect` with it:
records are NamedTuples or slotted classes, and `fractions` comes in only
with the LP.  That takes `import cuspk.cli` from 37 to 22 ms
(`python -X importtime`, median of 15 fresh CPython 3.11 interpreters
compiling from source, 2-vCPU Xeon; the README lists each toolkit module).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from math import isqrt
from typing import NamedTuple

from .errors import (DEFAULT_BUDGET, DEFAULT_PRECISION, FAILS_CANDIDATE, HOLDS,
                     MAX_PRECISION, UNDECIDED, CuspkError, TheoremViolation)
from .semigroup import Params, divide_set, ell, is_member, truncation_S

SCHEMA = "cuspk.report/1"
SUITES = ("semigroup", "witt", "kgroups", "prop51", "conjB", "conjC", "all")
DEFAULT_PAIRS = ((2, 3), (2, 5), (3, 4), (3, 5))
ROW_FIELDS = ("suite", "a", "b", "m", "p", "q", "statement", "result")
# a report row's text fields and its coordinates, which are int or null
TEXT_FIELDS = ("suite", "statement", "result")
COORDS = ("a", "b", "m", "p", "q")
SKIPPED = "skipped"


class SuiteConfig(NamedTuple):
    pairs: tuple
    m_max: int | None
    primes: tuple
    r_max: int
    precision_bits: int
    budget: int
    out: str
    jobs: int


def _row(suite, statement, result, a=None, b=None, m=None, p=None, q=None,
         details=None):
    return {"schema": SCHEMA, "suite": suite, "a": a, "b": b, "m": m, "p": p,
            "q": q, "statement": statement, "result": result,
            "details": details or {}}


def _row_key(row):
    def k(v):
        return (v is None, v)

    return (row["suite"], *(k(row[f]) for f in COORDS), row["statement"])


# ---------------------------------------------------------------------------
# suite cells; each returns a list of rows and never raises, and imports
# its toolkit module itself, so that a suite loads only what it runs.  A
# cell that builds models shares them among its statements through a
# `_memo` local to the cell, so nothing outlives the cell.  The memo keeps
# a refused build's error too, so a model past the budget or past the
# memory is built once per cell, and every statement that reads it skips
# with the same reason


def _memo(build):
    """build, run once per argument tuple.  A toolkit error or a
    MemoryError that it raises is kept as its class and arguments and
    raised afresh on each later call: kept as an object, its traceback
    would hold this frame and so the memo, and the cell's models would
    outlive the cell in a cycle."""
    kept = {}

    def get(*args):
        if args not in kept:
            try:
                kept[args] = build(*args), None
            except (CuspkError, MemoryError) as exc:
                kept[args] = None, (type(exc), exc.args)
        model, error = kept[args]
        if error:
            raise error[0](*error[1])
        return model
    return get


def _cell_semigroup(a, b, m_max, r_max):
    pr = Params(a, b)
    rows = []
    for m in range(1, m_max + 1):
        interior = sum(1 for i in range(1, m // a + 1)
                       for j in range(1, m // b + 1) if a * i + b * j == m)
        member = any((m - a * i) % b == 0 for i in range(m // a + 1))
        rows.append(_row("semigroup", "interior-count",
                         "pass" if ell(pr, m) == interior else "fail",
                         a=a, b=b, m=m))
        rows.append(_row("semigroup", "membership",
                         "pass" if is_member(pr, m) == member else "fail",
                         a=a, b=b, m=m))
    for r in range(r_max + 1):
        S = truncation_S(pr, r)
        want = {
            "card-S": ((a + 1) * (b + 1)) // 2 - 1 + r * a * b,
            "card-S-div-a": (r + 1) * b,
            "card-S-div-b": (r + 1) * a,
            "card-S-div-ab": r + 1,
        }
        got = {
            "card-S": len(S),
            "card-S-div-a": len(divide_set(S, a)),
            "card-S-div-b": len(divide_set(S, b)),
            "card-S-div-ab": len(divide_set(S, a * b)),
        }
        for stmt in want:
            rows.append(_row("semigroup", stmt,
                             "pass" if got[stmt] == want[stmt] else "fail",
                             a=a, b=b, q=r,
                             details={"expected": want[stmt], "got": got[stmt]}))
    return rows


def _cell_ghost_identities(cases):
    from .wittlab import identity_failures

    def identities():
        failures = identity_failures(cases, seed=20240811)
        return {stmt: ("pass" if bad == 0 else "fail",
                       {"cases": cases, "failures": bad})
                for stmt, bad in failures.items()}

    rows = []
    _attempt(rows, "witt", "identities", identities)
    return rows


def _attempt(rows, suite, statement, compute, **coords):
    """Append the rows that compute decides.

    compute returns (result, details) of `statement`, or, when one
    computation decides several statements, a dict mapping each of them
    to its (result, details).  A proved statement that fails is one
    "fail" row named `statement`.  Any other toolkit error, such as a
    resource limit, and a MemoryError become one "skipped" row carrying
    the reason, so one cell never ends the sweep.
    """
    try:
        decided = compute()
    except TheoremViolation as exc:
        decided = "fail", {"error": str(exc)}
    except (CuspkError, MemoryError) as exc:
        decided = SKIPPED, {"error": type(exc).__name__, "reason": str(exc)}
    if isinstance(decided, tuple):
        decided = {statement: decided}
    for stmt, (result, details) in sorted(decided.items()):
        rows.append(_row(suite, stmt, result, details=details, **coords))


def _cell_kgroups(a, b, prime, r_max):
    from .wittlab import relative_k_group

    pr = Params(a, b)
    rows = []

    def kgroup(q):
        res = relative_k_group(pr, prime, q)
        factors = ",".join(str(v) for v in res.invariant_factors) or "0"
        return factors, {"length": res.length,
                         "expected_length": res.expected_length,
                         "perfect_field_only": res.perfect_field_only}

    for r in range(r_max + 1):
        q = 2 * r
        _attempt(rows, "kgroups", "k-group", lambda: kgroup(q),
                 a=a, b=b, p=prime, q=q)
    return rows


def _cell_prop51(a, b, m, budget):
    from .cyclicbar import (connes_factor_bar, connes_factor_small,
                            relative_bar_complex, relative_cone,
                            ty_agreement_check)

    pr = Params(a, b)
    rows = []
    at = {"a": a, "b": b, "m": m}
    bar = _memo(lambda: relative_bar_complex(pr, m, budget))
    cone = _memo(lambda: relative_cone(pr, m))
    _attempt(rows, "prop51", "triple-agreement",
             lambda: ("pass", {"homology": str(
                 ty_agreement_check(pr, m, bar(), cone()))}), **at)
    if m % a and m % b:
        _attempt(rows, "prop51", "connes-factor",
                 lambda: ("pass", {"bar": connes_factor_bar(pr, m, bar()),
                                   "small": connes_factor_small(pr, m, cone())}),
                 **at)
    return rows


def _cell_conjb(a, b, m, budget):
    from .simplicialx import (build_sigma, conjecture_b_homology_check,
                              fixed_point_check)

    pr = Params(a, b)
    rows = []
    at = {"a": a, "b": b, "m": m}
    sigma = _memo(lambda t: build_sigma(pr, t, budget))

    def evidence():
        rep = conjecture_b_homology_check(pr, m, sigma(m))
        return ("agree" if rep.agree else "MISMATCH",
                {"x": str(rep.x_summary), "y": str(rep.y_summary)})

    def fixed_points(s):
        # Σ_t first: past the budget, the skip reason names the weight
        # whose build raised first
        sigma_t = sigma(m // s)
        fixed_point_check(pr, s, sigma(m), sigma_t)
        return "pass", None

    _attempt(rows, "conjB", "homology-evidence", evidence, **at)
    for s in range(1, m + 1):
        if m % s == 0:
            _attempt(rows, "conjB", f"fixed-points/s={s}",
                     lambda: fixed_points(s), **at)
    return rows


def _cell_conjc(a, b, m, precision):
    from .polytopelab import run_conjecture_checks

    pr = Params(a, b)
    regime = "theorem" if ell(pr, m) <= 1 else "open"
    rows = []

    def checks():
        decided = {}
        for stmt, verdict in run_conjecture_checks(pr, m, precision,
                                                   cap=MAX_PRECISION).items():
            details = {"precision_bits": verdict.precision_bits,
                       "regime": regime}
            if verdict.status != HOLDS:
                details["witness"] = verdict.witness
            decided[stmt] = verdict.status, details
        return decided

    _attempt(rows, "conjC", "checks", checks, a=a, b=b, m=m)
    return rows


_CELLS = {
    "semigroup": _cell_semigroup,
    "ghost": _cell_ghost_identities,
    "kgroups": _cell_kgroups,
    "prop51": _cell_prop51,
    "conjb": _cell_conjb,
    "conjc": _cell_conjc,
}


def _run_cell(task):
    name, kwargs = task
    return _CELLS[name](**kwargs)


def _build_tasks(suite, cfg: SuiteConfig):
    def m_max(default):
        return default if cfg.m_max is None else cfg.m_max

    tasks = []
    if suite in ("semigroup", "all"):
        for a, b in cfg.pairs:
            tasks.append(("semigroup", {"a": a, "b": b,
                                        "m_max": m_max(5 * a * b),
                                        "r_max": cfg.r_max}))
    if suite in ("witt", "all"):
        tasks.append(("ghost", {"cases": 40}))
    if suite in ("kgroups", "all"):
        for a, b in cfg.pairs:
            for prime in cfg.primes:
                tasks.append(("kgroups", {"a": a, "b": b, "prime": prime,
                                          "r_max": cfg.r_max}))
    if suite in ("prop51", "all"):
        for a, b in cfg.pairs:
            for m in range(1, m_max(12) + 1):
                tasks.append(("prop51", {"a": a, "b": b, "m": m,
                                         "budget": cfg.budget}))
    if suite in ("conjB", "all"):
        for a, b in cfg.pairs:
            for m in range(1, m_max(12) + 1):
                tasks.append(("conjb", {"a": a, "b": b, "m": m,
                                        "budget": cfg.budget}))
    if suite in ("conjC", "all"):
        for a, b in cfg.pairs:
            for m in range(1, m_max(2 * a * b) + 1):
                tasks.append(("conjc", {"a": a, "b": b, "m": m,
                                        "precision": cfg.precision_bits}))
    return tasks


def _is_row(row):
    """Whether a parsed line holds every row field with its type.  A bool
    is no coordinate, although Python makes it an int."""
    return (isinstance(row, dict)
            and all(isinstance(row.get(f), str) for f in TEXT_FIELDS)
            and all(f in row and (row[f] is None or type(row[f]) is int)
                    for f in COORDS))


def _make_out_dir(out_dir) -> bool:
    """Create the report directory; on failure say why and return False."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        print(f"{out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _line(row):
    return json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"


def _write_reports(rows, out_dir, prefix="report"):
    jsonl = os.path.join(out_dir, f"{prefix}.jsonl")
    with open(jsonl, "w", encoding="utf-8", newline="") as fh:
        for row in rows:
            fh.write(_line(row))
    digest = os.path.join(out_dir, f"{prefix}.csv")
    with open(digest, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for row in rows:
            writer.writerow(["" if row[f] is None else row[f]
                             for f in ROW_FIELDS])
    return jsonl, digest


def _aggregate_exit(rows):
    hard_fail = any(r["result"] == "fail" for r in rows)
    theorem_candidate = any(
        r["result"] == FAILS_CANDIDATE
        and r["details"].get("regime") == "theorem" for r in rows)
    if hard_fail or theorem_candidate:
        return 1
    if any(r["result"] == UNDECIDED for r in rows):
        return 2
    if any(r["result"] == SKIPPED for r in rows):
        return 4
    return 0


def cmd_verify(suite, cfg: SuiteConfig) -> int:
    if not _make_out_dir(cfg.out):
        return 3
    tasks = _build_tasks(suite, cfg)
    if cfg.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its workers at once, so it gets no more than
        # one per task
        with ProcessPoolExecutor(max_workers=max(1, min(cfg.jobs, len(tasks)))) as pool:
            batches = list(pool.map(_run_cell, tasks))
    else:
        batches = [_run_cell(t) for t in tasks]
    rows = sorted((r for batch in batches for r in batch), key=_row_key)
    try:
        jsonl, digest = _write_reports(rows, cfg.out)
    except OSError as exc:
        print(f"{exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 3
    for row in rows:
        if row["result"] == "MISMATCH":
            print(f"FINDING: homology mismatch at (a,b,m)="
                  f"({row['a']},{row['b']},{row['m']}): {row['details']}")
        elif row["result"] == FAILS_CANDIDATE:
            print(f"CANDIDATE: {row['statement']} at (a,b,m)="
                  f"({row['a']},{row['b']},{row['m']}): see {jsonl}")
    code = _aggregate_exit(rows)
    counts = {}
    for row in rows:
        bucket = {"fail": "fail", "MISMATCH": "mismatch",
                  UNDECIDED: "undecided",
                  FAILS_CANDIDATE: "candidate",
                  SKIPPED: "skipped"}.get(row["result"], "ok")
        counts[bucket] = counts.get(bucket, 0) + 1
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"{suite}: {len(rows)} rows ({summary}) -> {jsonl}, {digest}")
    return code


def cmd_report(inputs, out_dir) -> int:
    # every input is read and checked before out_dir is made, so a refused
    # report leaves nothing behind
    merged = {}
    results = {}
    for path in inputs:
        try:
            fh = open(path, "rb")
        except OSError as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            return 3
        with fh:
            # decoded per line, so a line that is not UTF-8 is located too
            for lineno, raw in enumerate(fh, start=1):
                try:
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    row = json.loads(line)
                except ValueError as exc:
                    print(f"{path}:{lineno}: {exc}", file=sys.stderr)
                    return 3
                if not _is_row(row):
                    print(f"{path}:{lineno}: not a report row",
                          file=sys.stderr)
                    return 3
                key = _row_key(row)
                results.setdefault(key, set()).add(row["result"])
                merged[key] = min(merged.get(key, row), row, key=_line)
    if not _make_out_dir(out_dir):
        return 3
    rows = sorted(merged.values(), key=_row_key)
    try:
        jsonl, digest = _write_reports(rows, out_dir, prefix="merged")
    except OSError as exc:
        print(f"{exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 3
    conflicts = [row for row in rows if len(results[_row_key(row)]) > 1]
    for row in conflicts:
        where = ",".join(f"{f}={row[f]}" for f in COORDS
                         if row[f] is not None)
        print(f"CONFLICT: {row['suite']}/{row['statement']} ({where}): "
              + " vs ".join(sorted(results[_row_key(row)])), file=sys.stderr)
    print(f"merged {len(rows)} rows -> {jsonl}, {digest}")
    return 1 if conflicts else 0


class _Parser(argparse.ArgumentParser):
    # usage errors exit 3 rather than argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _build_parser() -> tuple:
    """The top-level parser and its `verify` subparser, which reports the
    errors of the verify options with its own usage line."""
    parser = _Parser(prog="cuspk")
    sub = parser.add_subparsers(dest="command", required=True)
    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", choices=SUITES)
    ver.add_argument("--a", type=int, default=None)
    ver.add_argument("--b", type=int, default=None)
    ver.add_argument("--m-max", type=int, default=None)
    ver.add_argument("--p", type=int, action="append", default=None,
                     help="prime, repeatable; default 2 3 5 7")
    ver.add_argument("--r-max", type=int, default=3)
    ver.add_argument("--precision", type=int, default=DEFAULT_PRECISION)
    ver.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="the most cells a complex builder may build")
    ver.add_argument("--out", default=".")
    ver.add_argument("--jobs", type=int, default=1, help="worker processes")
    rep = sub.add_parser("report", help="merge verification reports")
    rep.add_argument("inputs", nargs="+")
    rep.add_argument("--out", default=".")
    return parser, ver


def _config_from_args(parser, args) -> SuiteConfig:
    if (args.a is None) != (args.b is None):
        parser.error("--a and --b must be given together")
    if args.a is not None:
        try:
            Params(args.a, args.b)
        except ValueError as exc:
            parser.error(str(exc))
        pairs = ((args.a, args.b),)
    else:
        pairs = DEFAULT_PAIRS
    if args.r_max < 0:
        parser.error("--r-max must be non-negative")
    if not 8 <= args.precision <= MAX_PRECISION:
        parser.error(f"--precision must be 8 to {MAX_PRECISION} bits")
    if args.budget < 2:
        parser.error("--budget must be at least 2")
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    if args.m_max is not None and args.m_max < 1:
        parser.error("--m-max must be at least 1")
    # a repeated --p would repeat every row of that prime
    primes = tuple(dict.fromkeys(args.p)) if args.p else (2, 3, 5, 7)
    for prime in primes:
        if prime < 2 or any(prime % d == 0 for d in range(2, isqrt(prime) + 1)):
            parser.error(f"--p {prime} is not a prime")
    return SuiteConfig(pairs=pairs, m_max=args.m_max, primes=primes,
                       r_max=args.r_max, precision_bits=args.precision,
                       budget=args.budget, out=args.out, jobs=args.jobs)


def main(argv=None) -> int:
    parser, ver = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        cfg = _config_from_args(ver, args)
        return cmd_verify(args.suite, cfg)
    return cmd_report(args.inputs, args.out)


if __name__ == "__main__":
    sys.exit(main())
