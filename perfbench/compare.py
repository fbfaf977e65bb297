"""Compare two suite.py results files, parent first.

    python3 perfbench/compare.py PARENT.json CHANGE.json

Prints one row per workload and end-to-end metric: each side's median and
quartiles, the ratio change / parent with its base, the pairs the change
won (runs paired by seed, ties count for neither) and a verdict:

  gain          the change won at least 9 of 10 pairs and the medians differ,
                in its favour, by more than the parent's interquartile range
  unresolved    a side's spread (IQR / median) exceeds the metric's bound,
                and not every change run beats every parent run
  regression    the change's median is worse than the parent's by more
                than the bound BENCHMARK.json fixes for the metric
  within bound  none of the above

Per-layer metrics of the traced runs follow, as values and ratios only.
Exits 1 if any row is a regression or if the change failed more report
rows than the parent, else 0.
"""

from __future__ import annotations

import json
import os
import sys

from suite import BENCHMARK, quartiles


def _better(a: float, b: float, lower: bool) -> bool:
    return a < b if lower else a > b


def verdict(parent: list[float], change: list[float], bound: float,
            lower: bool) -> tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs compared)."""
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if _better(c, p, lower))
    pq1, pmed, pq3 = quartiles(parent)
    cq1, cmed, cq3 = quartiles(change)
    if wins * 10 >= 9 * len(pairs) and _better(cmed, pmed, lower) \
            and abs(cmed - pmed) > pq3 - pq1:
        return "gain", wins, len(pairs)
    spread = max((pq3 - pq1) / pmed if pmed else 0.0,
                 (cq3 - cq1) / cmed if cmed else 0.0)
    every = all(_better(c, p, lower) for c in change for p in parent)
    if spread > bound and not every:
        return "unresolved", wins, len(pairs)
    worse = (cmed - pmed) / pmed if lower else (pmed - cmed) / pmed
    if pmed and worse > bound:
        return "regression", wins, len(pairs)
    return "within bound", wins, len(pairs)


def _by_seed(runs: list[dict]) -> dict:
    return {r["seed"]: r for r in runs}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 3
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(argv[0], encoding="utf-8") as fh:
        parent = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        change = json.load(fh)
    for label, res in (("parent", parent), ("change", change)):
        env = res["env"]
        print(f"{label}: {os.path.basename(argv[0 if label == 'parent' else 1])}"
              f" commit {env['git_commit']}, {env['nproc']} x {env['cpu_model']},"
              f" Python {env['python']}, mpmath {env['mpmath']},"
              f" run_seconds {res['run_seconds']}")
    bad = False
    header = (f"{'workload':15s} {'metric':12s} {'parent median [q1, q3]':32s} "
              f"{'change median [q1, q3]':32s} {'change/parent':28s} wins  verdict")
    print(header)
    for workload in parent["workloads"]:
        if workload not in change["workloads"]:
            print(f"{workload:15s} missing from the change results")
            bad = True
            continue
        p_runs = _by_seed(parent["workloads"][workload]["runs"])
        c_runs = _by_seed(change["workloads"][workload]["runs"])
        seeds = sorted(s for s in set(p_runs) & set(c_runs)
                       if p_runs[s]["metrics"] and c_runs[s]["metrics"])
        p_failed = sum(p_runs[s]["failed"] for s in seeds)
        c_failed = sum(c_runs[s]["failed"] for s in seeds)
        if c_failed > p_failed:
            print(f"{workload:15s} failed report rows: parent {p_failed}, "
                  f"change {c_failed}")
            bad = True
        for m in spec["end_to_end"]:
            name, unit = m["name"], m["unit"]
            pv = [p_runs[s]["metrics"][name] for s in seeds]
            cv = [c_runs[s]["metrics"][name] for s in seeds]
            if not pv:
                continue
            v, wins, n = verdict(pv, cv, m["bound"], m["better"] == "lower")
            bad |= v == "regression"
            pq1, pmed, pq3 = quartiles(pv)
            cq1, cmed, cq3 = quartiles(cv)
            ratio = f"{cmed / pmed:.3f}x of {pmed:.4g} {unit}" if pmed else "n/a"
            print(f"{workload:15s} {name:12s} "
                  f"{f'{pmed:.4g} [{pq1:.4g}, {pq3:.4g}] {unit}':32s} "
                  f"{f'{cmed:.4g} [{cq1:.4g}, {cq3:.4g}] {unit}':32s} "
                  f"{ratio:28s} {wins:2d}/{n:<2d} {v}")
    print("\nper-layer (traced runs, no verdict):")
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in parent["workloads"]:
        pt = parent["workloads"][workload].get("trace", {}).get("metrics", {})
        ct = change["workloads"].get(workload, {}).get("trace", {}).get("metrics", {})
        for name in units:
            if name not in pt or name not in ct or (not pt[name] and not ct[name]):
                continue
            ratio = (f"{ct[name] / pt[name]:.3f}x of {pt[name]:.4g} {units[name]}"
                     if pt[name] else "parent 0")
            print(f"  {workload:15s} {name:38s} parent {pt[name]:<12.6g} "
                  f"change {ct[name]:<12.6g} {ratio}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
