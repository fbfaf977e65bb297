"""Run one benchmark workload against the `cuspk` sources in ./src.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each command of the workload (see
workloads.py) runs in a fresh interpreter through ``cuspk.cli.main``, as a
CLI user runs it, so every process pays its cold ``lru_cache``s.  The
workload's command list is one pass; passes repeat until the next one would
end after --seconds.  Every command's reports are checked against the
references in refs.json.

--trace 0 prints the end-to-end metrics, each the median over the run:

  wall_s       wall time of one pass, spawn to exit, summed over commands
  cpu_s        user + system CPU of those processes and their pool workers
  setup_s      interpreter start until ``import cuspk.cli`` returns
  peak_rss_mb  highest resident set of any process of a pass

The three times are scaled to a reference host speed by a calibration
load timed between the commands of each pass (see calibrate()); the
first output line gives them unscaled too.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics from the spans of the traced ones (see layers.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted counts expected report
rows and failed the rows that were wrong, missing or whose command crashed.
"""

from __future__ import annotations

import argparse
import fractions
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from layers import PER_LAYER, layer_metrics
from workloads import WORKLOADS, commands, load_refs

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_ROOT = ".bench_out"
BAD_RESULTS = {"fail", "MISMATCH", "UNDECIDED", "FAILS_CANDIDATE"}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}

# calibrate()'s time on the host the baseline was measured on (2-vCPU
# Xeon VM, CPython 3.11.7); scaled times are reported at that speed
CALIBRATION_REF_S = 0.15


def calibrate() -> float:
    """Time a fixed load that shares no code with cuspk, in seconds.

    The shared host's speed drifts by 20-40% over minutes, and the
    program's times drift with it.  Each pass is scaled by the median of
    this load's times taken between its commands, which cancels the drift
    but not a change in the program.  The load is Fraction and big-int
    arithmetic, the work that dominates the simplex and SNF layers.
    """
    start = time.perf_counter()
    for _ in range(16):
        acc = fractions.Fraction(0)
        x = 1
        for i in range(1, 2500):
            acc += fractions.Fraction(i % 97 + 1, i % 89 + 2)
            x = (x * 3 + i + acc.numerator) % (1 << 256)
    return time.perf_counter() - start


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    # string hashing feeds set and dict order; fixing it keeps pivot order,
    # and so the work done, the same from run to run
    env["PYTHONHASHSEED"] = "0"
    env.pop("CUSPK_JOBS", None)
    return env


def spawn(argv: list[str], out_dir: str, trace: bool, run_id: int) -> dict:
    """Run one CLI command in a fresh interpreter and account for it alone.

    os.wait4 returns the CPU time of this child and the pool workers it
    reaped, not the running total over every past child that
    RUSAGE_CHILDREN would give.  The peak resident set comes from the
    child itself (see child.py); wait4's ru_maxrss is only the fallback
    when the child died before reporting.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    sidecar = os.path.join(out_dir, "sidecar.json")
    cmd = [sys.executable, CHILD, sidecar, "1" if trace else "0", str(run_id),
           *argv, "--out", out_dir]
    with open(os.path.join(out_dir, "log.txt"), "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
              "rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
              "setup": None, "trace": None}
    try:
        with open(sidecar, encoding="utf-8") as fh:
            side = json.load(fh)
    except (OSError, ValueError):
        return sample
    sample["setup"] = side["import_done"] - start
    sample["rss_mb"] = side["peak_rss_kb"] / 1024.0
    if trace:
        sample["trace"] = side
    return sample


def check(key: str, out_dir: str, exit_code: int, refs: dict) -> tuple[int, int, str]:
    """(expected rows, failed rows, problem) for one command's reports."""
    ref = refs[key]
    expected = ref["rows"]
    if exit_code != 0:
        return expected, expected, f"exit code {exit_code}"
    try:
        with open(os.path.join(out_dir, "report.jsonl"), "rb") as fh:
            jsonl = fh.read()
        with open(os.path.join(out_dir, "report.csv"), "rb") as fh:
            digest = fh.read()
    except OSError as exc:
        return expected, expected, f"missing report: {exc}"
    rows = [json.loads(line) for line in jsonl.splitlines() if line.strip()]
    if len(rows) != expected:
        return expected, expected, f"{len(rows)} rows, expected {expected}"
    bad = sum(1 for row in rows if row.get("result") in BAD_RESULTS)
    if bad:
        return expected, bad, f"{bad} rows with a failing result"
    if (hashlib.sha256(jsonl).hexdigest() != ref["jsonl"]
            or hashlib.sha256(digest).hexdigest() != ref["csv"]):
        return expected, expected, "report bytes differ from the reference"
    return expected, 0, ""


def run_pass(cmds, refs, trace: bool, tally: dict) -> list[dict]:
    samples = []
    calibrations = [calibrate()]
    for run_id, (key, argv) in enumerate(cmds):
        out_dir = os.path.join(OUT_ROOT, f"cmd{run_id}")
        sample = spawn(argv, out_dir, trace, run_id)
        calibrations.append(calibrate())
        expected, failed, problem = check(key, out_dir, sample["exit"], refs)
        tally["attempted"] += expected
        tally["failed"] += failed
        if problem:
            print(f"FAILED {key}: {problem}", file=sys.stderr)
        sample["key"] = key
        samples.append(sample)
    scale = CALIBRATION_REF_S / statistics.median(calibrations)
    for sample in samples:
        sample["scale"] = scale
    return samples


def _median_by_key(passes: list[list[dict]], value) -> dict:
    by_key = {}
    for samples in passes:
        for s in samples:
            by_key.setdefault(s["key"], []).append(value(s))
    return {k: statistics.median(v) for k, v in by_key.items()}


def end_to_end(passes: list[list[dict]], scaled: bool = True) -> dict:
    """Per-command medians over the passes, summed (max for memory).

    Times are scaled to the calibration's reference speed unless scaled
    is false.
    """
    f = (lambda s: s["scale"]) if scaled else (lambda s: 1.0)
    setups = [s["setup"] * f(s) for samples in passes for s in samples
              if s["setup"] is not None]
    return {
        "wall_s": sum(_median_by_key(passes, lambda s: s["wall"] * f(s)).values()),
        "cpu_s": sum(_median_by_key(passes, lambda s: s["cpu"] * f(s)).values()),
        "setup_s": statistics.median(setups) if setups else float("nan"),
        "peak_rss_mb": max(_median_by_key(passes, lambda s: s["rss_mb"]).values()),
    }


def warm_up() -> None:
    """Import once untimed, so byte-compiling src/ is not a run's set-up."""
    subprocess.run([sys.executable, "-c", "import cuspk.cli"], env=_child_env(),
                   check=True, stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=42)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "cuspk", "cli.py")):
        print("run.py: no src/cuspk here; run it from the root of a cuspk "
              "checkout", file=sys.stderr)
        return 2

    refs = load_refs()
    cmds = commands(args.workload, args.seed)
    warm_up()
    tally = {"attempted": 0, "failed": 0}
    untraced, traced = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        untraced.append(run_pass(cmds, refs, False, tally))
        if args.trace:
            traced.append(run_pass(cmds, refs, True, tally))
        cycle = time.monotonic() - t0
        if time.monotonic() - start + cycle > args.seconds:
            break

    e2e = end_to_end(untraced)
    raw = end_to_end(untraced, scaled=False)
    speed = statistics.median(s["scale"] for p in untraced for s in p)
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} "
          f"passes of {len(cmds)} commands in {time.monotonic() - start:.1f} s; "
          f"times scaled by {speed:.4f} to the reference speed; unscaled: "
          + ", ".join(f"{k} {raw[k]:.6g}" for k in ("wall_s", "cpu_s", "setup_s")))
    if args.trace:
        metrics = layer_metrics([s["trace"] for p in traced for s in p
                                 if s["trace"] is not None], len(traced))
        traced_scale = statistics.median(s["scale"] for p in traced for s in p)
        for name, unit in PER_LAYER.items():
            if unit == "s":
                metrics[name] *= traced_scale
        traced_wall = end_to_end(traced)["wall_s"]
        metrics["trace.overhead_frac"] = (traced_wall - e2e["wall_s"]) / e2e["wall_s"]
        units = PER_LAYER
    else:
        metrics = e2e
        units = END_TO_END_UNITS
    failed_frac = tally["failed"] / tally["attempted"] if tally["attempted"] else 1.0
    for name, value in metrics.items():
        print(f"  {name:38s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':38s} {failed_frac:14.6g} ratio "
          f"({tally['failed']} of {tally['attempted']} report rows)")
    print(json.dumps({
        "correct": tally["failed"] == 0 and tally["attempted"] > 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
