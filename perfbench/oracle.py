"""Regenerate the identity oracle and print its diff against the record.

    PYTHONPATH=src python3 perfbench/oracle.py           # diff only
    PYTHONPATH=src python3 perfbench/oracle.py --write   # also rewrite

For every simulation point of every workload, ``oracle.json`` records
``exec_time``, ``network_bytes``, the aggregate counters, and a digest
of the workers' return values.  Simulated results are deterministic, so
any difference is a change in simulated semantics; the benchmark counts
a point that differs as a failed operation.  Exits 1 when the fresh
results differ from the record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from simwork import ORACLE_PATH, WORKLOADS, fingerprint, run_point  # noqa: E402


def compute() -> dict:
    points = {}
    for workload in WORKLOADS.values():
        for point in workload:
            points[point.key] = fingerprint(run_point(point))
    return points


def diff(recorded: dict, fresh: dict) -> list:
    lines = []
    for key in sorted(set(recorded) | set(fresh)):
        old, new = recorded.get(key), fresh.get(key)
        if old == new:
            continue
        if old is None or new is None:
            lines.append(f"{key}: {'added' if old is None else 'removed'}")
            continue
        for field in sorted(set(old) | set(new)):
            if old.get(field) != new.get(field):
                lines.append(
                    f"{key}: {field}: {old.get(field)!r} -> {new.get(field)!r}"
                )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true",
                        help="rewrite oracle.json with the fresh results")
    args = parser.parse_args(argv)
    recorded = {}
    if os.path.exists(ORACLE_PATH):
        with open(ORACLE_PATH) as stream:
            recorded = json.load(stream)["points"]
    fresh = compute()
    lines = diff(recorded, fresh)
    print("\n".join(lines) if lines else "oracle: no differences")
    if args.write:
        with open(ORACLE_PATH, "w") as stream:
            json.dump({"points": fresh}, stream, indent=1, sort_keys=True)
            stream.write("\n")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
