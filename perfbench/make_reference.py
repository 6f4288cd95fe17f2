#!/usr/bin/env python3
"""Record the reference output of every item any benchmark run can meet.

    python3 perfbench/make_reference.py

Writes ``perfbench/reference.json``.  Run it only when a change is meant to
move the numbers, and say so where the change is recorded: the benchmark
counts every item that misses its reference value as failed.  It refuses to
write a table whose maxima no longer reproduce the frozen acceptance
snapshots of criteria 4 and 9 to 1e-12.
"""

import json
import sys

from run import WORKLOADS, git_rev, import_workloads


def main():
    workloads = import_workloads()
    items = {}
    for name in WORKLOADS:
        for item in workloads.build(name, 0).pool_items():
            items[item.key] = item.run()
        print(f"{name}: {sum(k.startswith(name) for k in items)} items", file=sys.stderr)
    check = workloads.Checker(items)
    if not check.snapshots_ok():
        raise SystemExit(f"snapshots not reproduced: {check.snapshot_errors}")
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump({"git_rev": git_rev(), "items": items}, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
