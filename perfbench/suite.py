"""Run every workload, check their reports and print every metric.

    python3 perfbench/suite.py [--runs 10] [--first-seed 1] [--out FILE]

Run from the root of a checkout.  Each run is one ``run.py`` process,
started as BENCHMARK.json's command is; the rounds go seed by seed over all
workloads, so slow phases of a shared host fall on every workload alike.
After the timed runs, one traced run per workload gives the per-layer
numbers.  The results file (JSON) records the environment, every run's
metrics and the traced metrics; ``compare.py`` compares two of them.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def environment(seeds: list[int]) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(),
            "mpmath": importlib.metadata.version("mpmath"),
            "git_commit": commit, "seeds": seeds}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        return {"seed": seed, "correct": False, "attempted": 0, "failed": 0,
                "metrics": {}, "error": f"exit code {proc.returncode}"}
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    # passes, scale factor and unscaled times
    return {"seed": seed, **result, "note": lines[0]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(results: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload, data in results["workloads"].items():
        runs = data["runs"]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok = all(r["correct"] for r in runs)
        print(f"{workload}: {len(runs)} runs, correct={ok}, "
              f"failed_frac {failed / attempted if attempted else 1.0:.6g} ratio "
              f"({failed} of {attempted} report rows)")
        for name, unit in units.items():
            values = [r["metrics"][name] for r in runs if name in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            print(f"  {name:14s} median {med:10.6g} {unit:3s} "
                  f"q1 {q1:10.6g}  q3 {q3:10.6g}  IQR/median {(q3 - q1) / med:.4f}")
        trace = data.get("trace")
        if trace and trace["metrics"]:
            wall = statistics.median(r["metrics"]["wall_s"] for r in runs)
            traced_wall = wall * (1 + trace["metrics"]["trace.overhead_frac"])
            print(f"  traced (seed {trace['seed']}), share of traced wall "
                  f"{traced_wall:.4g} s:")
            layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for name, value in trace["metrics"].items():
                share = (f"  {value / traced_wall:6.1%}"
                         if layer_units.get(name) == "s" else "")
                print(f"    {name:38s} {value:12.6g} {layer_units.get(name, '')}{share}")


def main(argv=None) -> int:
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="results JSON file")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results = {"env": environment(seeds), "run_seconds": seconds,
               "workloads": {w: {"runs": []} for w in names}}
    start = time.monotonic()
    for seed in seeds:
        for w in names:
            r = run_once(w, seed, seconds, 0)
            results["workloads"][w]["runs"].append(r)
            print(f"[{time.monotonic() - start:7.1f} s] {w} seed {seed}: "
                  + " ".join(f"{k}={v:.4g}" for k, v in r["metrics"].items()),
                  flush=True)
    for w in names:
        results["workloads"][w]["trace"] = run_once(w, seeds[0], seconds, 1)
    summarize(results, spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
    ok = all(r["correct"] for d in results["workloads"].values() for r in d["runs"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
