#!/usr/bin/env python3
"""Survey the face-poset chain counts against the closed-form numbers.

For each (k, d) with d ≤ k the exact number of nonempty chains in the face
poset comp_kd(k, d) is computed by dynamic programming and compared to the
closed-form bound F(d, k) = (2^d − 1)·∏(k − ⌈d/2⌉ − i); likewise the exact
maximal-chain count is compared to the bare product formula.
Rows where the exact count exceeds the quoted bound are flagged — the
smallest is (k, d) = (3, 3) with 11 > 7, and the excess shows up on every
surveyed instance with d ≥ 3 — so downstream consumers must treat the exact
counts as authoritative.  See chain_report() for the per-instance dictionary.
"""

from __future__ import annotations

import argparse
import json
import sys

from orbit_betti.compositions import chain_report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-k", type=int, default=8)
    ap.add_argument("--max-d", type=int, default=6)
    ap.add_argument("--json", action="store_true", help="emit one JSON doc instead of a table")
    args = ap.parse_args(argv)

    rows = []
    for k in range(2, args.max_k + 1):
        for d in range(2, min(k, args.max_d) + 1):
            rows.append(chain_report(k, d))

    if args.json:
        print(json.dumps({"rows": rows}, indent=2, sort_keys=True))
        return 0

    header = f"{'k':>3} {'d':>3} {'poset':>6} {'chains':>8} {'F':>8} {'flag':>5}   maximal vs formula"
    print(header)
    print("-" * len(header))
    exceeded = []
    for row in rows:
        flag = "OVER" if row["bound_exceeded"] else ""
        if row["bound_exceeded"]:
            exceeded.append((row["k"], row["d"]))
        tail = f"{row['maximal_chain_count']} vs {row['paper_maximal_chain_formula']}"
        if row["maximal_formula_mismatch"]:
            tail += " (mismatch)"
        print(
            f"{row['k']:>3} {row['d']:>3} {row['poset_size']:>6} "
            f"{row['chain_count']:>8} {row['paper_chain_bound']:>8} {flag:>5}   {tail}"
        )
    print()
    if exceeded:
        print(f"exact count exceeds the closed form on {len(exceeded)} instance(s): {exceeded}")
    else:
        print("closed form dominated the exact count on every surveyed instance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
