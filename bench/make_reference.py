"""Capture the reference outputs that ``run.py`` checks every run against.

    python3 bench/make_reference.py [--workload NAME ...]

Runs each operation list of every input set (``workloads.POOL`` per
workload) once, untraced, and stores the SHA-256 prefix of each
operation's output, with its exit code, in ``reference.json`` (merged into
the existing file).  A nonzero exit code is part of the reference:
``verify`` exits 1 when a suite reports a FAIL finding.  Run it from a
checkout of the commit whose behaviour is the reference, with this
directory copied in; a worker that dies or an operation that breaks an
identity aborts the capture.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCE, SRC, check_rep, run_rep


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    for workload in args.workload or workloads.WORKLOADS:
        digests = {}
        for input_set in range(workloads.POOL):
            ops = workloads.operations(workload, input_set)
            rep = run_rep(ops, workloads.fields(ops), trace=False)
            if "error" in rep:
                raise SystemExit(f"{workload}/{input_set}: {rep['error']}")
            captured = [f"{rc}:{digest}" for _, _, rc, digest, _ in rep["ops"]]
            problems = check_rep(rep, captured)
            if problems:
                raise SystemExit(f"{workload}/{input_set}: {problems}")
            digests[str(input_set)] = captured
            for i, entry in enumerate(captured):
                if not entry.startswith("0:"):
                    print(f"{workload}/{input_set}: op {i} exits {entry.split(':')[0]}")
            print(f"{workload}/{input_set}: {len(ops)} operations", flush=True)
        # re-read so that captures of different workloads can run side by side
        data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"workloads": {}}
        data["workloads"][workload] = digests
        REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
