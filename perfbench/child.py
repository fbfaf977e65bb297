"""One `cuspk verify` command in a fresh interpreter, as the CLI runs it.

    python3 perfbench/child.py SIDECAR TRACE RUN_ID ARG...

Imports ``cuspk.cli`` from ``src/``, stamps the monotonic clock when the
import returns (the harness stamped it before spawning, so the difference
is the set-up time), optionally installs the span recorder, runs
``cuspk.cli.main(ARG...)`` and writes the stamp, exit code, peak resident
set and any spans to the SIDECAR JSON file.  The exit code is also the
process's exit code.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import cuspk.cli  # noqa: E402

IMPORT_DONE = time.monotonic()


def peak_rss_kb() -> int:
    """Highest resident set of this process and its reaped pool workers.

    Not ru_maxrss of this process: Linux carries the spawning process's
    high-water mark across exec into it, so it would read the harness's
    size whenever that is the larger.  VmHWM belongs to this image alone.
    """
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open("/proc/self/status", encoding="ascii") as fh:
        own = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    return max(own, workers)


def main(argv):
    sidecar, trace, run_id, args = argv[0], argv[1] == "1", int(argv[2]), argv[3:]
    rec = None
    if trace:
        import tracer
        rec = tracer.install(run_id)
    code = cuspk.cli.main(args)
    extra = {"import_done": IMPORT_DONE, "exit": code, "peak_rss_kb": peak_rss_kb()}
    if rec is not None:
        rec.dump(sidecar, extra)
    else:
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(extra, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
