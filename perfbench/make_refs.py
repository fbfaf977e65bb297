"""Write refs.json: row count and report sha256s of every workload command.

    python3 perfbench/make_refs.py

Run from the root of a checkout whose reports are known to be right (the
committed file was made at the commit the baseline was measured on).
Report bytes do not depend on --jobs, so one reference serves both
homology workloads.
"""

import hashlib
import json
import os
import sys

from run import OUT_ROOT, spawn
from workloads import REFS_PATH, WORKLOADS, command_keys


def main() -> int:
    refs = {}
    keys = sorted({k for w in WORKLOADS for k in command_keys(w)})
    for key in keys:
        out_dir = os.path.join(OUT_ROOT, "refs")
        sample = spawn(["verify", *key.split()], out_dir, False, 0)
        if sample["exit"] != 0:
            print(f"{key}: exit code {sample['exit']}", file=sys.stderr)
            return 1
        entry = {}
        for ext in ("jsonl", "csv"):
            with open(os.path.join(out_dir, f"report.{ext}"), "rb") as fh:
                data = fh.read()
            entry[ext] = hashlib.sha256(data).hexdigest()
        entry["rows"] = data.count(b"\n") - 1  # csv lines minus the header
        refs[key] = entry
        print(f"{key}: {entry['rows']} rows, {sample['wall']:.2f} s")
    with open(REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
