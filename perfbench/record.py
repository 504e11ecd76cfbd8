"""Record the output digests of the checked-out commit in perfbench/digests/.

Usage, from the root of a checkout:  python3 perfbench/record.py

Runs kostka-n6, oracle-n5 with the default seed, and every request of the
cli-session pool once, each in a fresh interpreter.  Entries already in a
digest file are never replaced: a differing output is reported and the script
exits 1, because recorded outputs are the reference later commits must match.
"""

from __future__ import annotations

import sys
import time

import run

JOBS = (
    ("kostka-n6", {}),
    ("oracle-n5", {}),
    ("cli-session", {"pool": True}),
)


def main() -> int:
    status = 0
    for workload, params in JOBS:
        spec = {"workload": workload, "seed": 1, "trace": False, "params": params}
        result, _ = run.run_child(spec, time.monotonic() + 600)
        path = run.HERE / "digests" / f"{workload}.json"
        recorded = run.load_digests(path)
        added = 0
        for op in result["ops"]:
            if not op["ok"]:
                print(f"{workload}: operation {op['request']} failed its own check", file=sys.stderr)
                status = 1
            for key, value in op["outputs"].items():
                if key not in recorded:
                    recorded[key] = value
                    added += 1
                elif recorded[key] != value:
                    print(f"{workload}: output of {key} differs from its record", file=sys.stderr)
                    status = 1
        run.save_digests(path, recorded)
        print(f"{workload}: {added} added, {len(recorded)} recorded")
    return status


if __name__ == "__main__":
    sys.exit(main())
