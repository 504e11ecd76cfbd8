#!/usr/bin/env python3
"""Brute-force quotient sweep: dimensions, characters, symbolic comparison.

Usage: python scripts/oracle_sweep.py [--max-n 5] [--dims-only]
"""

import argparse
import time

from symq.gporacle import graded_dimension, oracle_vs_symbolic
from symq.partition import partitions


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--dims-only", action="store_true",
                    help="skip the character comparison")
    args = ap.parse_args()

    for n in range(args.max_n + 1):
        print(f"n = {n}:")
        t0 = time.perf_counter()
        for lam in partitions(n):
            gdim = graded_dimension(lam)
            print(f"  gdim({lam or 'empty'}) = {gdim.table_str()}")
        if args.dims_only:
            print(f"  dims in {time.perf_counter() - t0:.2f}s")
            continue
        cmp = oracle_vs_symbolic(n)
        status = "ok" if cmp.ok else f"{len(cmp.mismatches)} MISMATCHES"
        print(
            f"  {cmp.checked} character entries vs the symbolic route, "
            f"{status}, {time.perf_counter() - t0:.2f}s"
        )
        if not cmp.ok:
            for m in cmp.mismatches:
                print("   ", m)
            raise SystemExit(1)


if __name__ == "__main__":
    main()
