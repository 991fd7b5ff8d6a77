#!/usr/bin/env python3
"""Run the quotient-Betti pipeline end to end on the worked instances.

Three hand-checkable regions at k = 3, d = 2 (image coordinates (p1, p2),
image = {p1² ≤ 3 p2}):

* sphere   p2 = 1                 -> (b0, b1) = (1, 0)
* shell    1 ≤ p2 ≤ 2             -> (1, 0)
* lines    (p1 = ±1/2) ∨ (p2 ∈ {1/2, 3/2}) -> (1, 1), one cycle

Each run prints the pipeline report, recomputes the quotient Betti numbers
with the direct chamber-grid oracle in x-space, and lists the verification
checks.  Exit status is 1 if any non-informational check fails.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from orbit_betti.pipeline import (
    ProblemSpec,
    _unsettled,
    direct_quotient_betti,
    quotient_betti,
    verify_report,
)
from orbit_betti.polys import BlockSpec, parse_formula

INSTANCES = {
    "sphere": (
        "x1^2 + x2^2 + x3^2 = 1",
        ((Fraction(-2), Fraction(2)), (Fraction(0), Fraction(2))),
    ),
    "shell": (
        "x1^2 + x2^2 + x3^2 >= 1 and x1^2 + x2^2 + x3^2 <= 2",
        ((Fraction(-3), Fraction(3)), (Fraction(0), Fraction(3))),
    ),
    "lines": (
        "x1 + x2 + x3 = -1/2 or x1 + x2 + x3 = 1/2 "
        "or x1^2 + x2^2 + x3^2 = 1/2 or x1^2 + x2^2 + x3^2 = 3/2",
        ((Fraction(-3), Fraction(3)), (Fraction(-1), Fraction(3))),
    ),
}


def run_instance(name: str, resolution: Fraction, skip_direct: bool) -> bool:
    text, box = INSTANCES[name]
    spec = ProblemSpec(
        blocks=BlockSpec.single(3, 2),
        formula=parse_formula(text, 3),
        clip_box=box,
        resolution=resolution,
    )
    t0 = time.perf_counter()
    report = quotient_betti(spec)
    elapsed = time.perf_counter() - t0

    direct = None
    if not skip_direct:
        direct = direct_quotient_betti(spec)
    checks = verify_report(report, direct=direct)

    print(f"== {name} ==")
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    if direct is not None:
        print(f"direct x-space oracle: {list(direct.values)}")
    for check in checks:
        flag = "ok" if check.passed else ("note" if check.informational else "FAIL")
        print(f"  [{flag:4}] {check.name}: {check.detail}")
    print(f"  wall time {elapsed:.2f}s, resolution {resolution}")
    print()
    return not _unsettled(checks)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--instance",
        choices=sorted(INSTANCES) + ["all"],
        default="all",
    )
    ap.add_argument("--resolution", default="1/16", help="grid step, e.g. 1/16")
    ap.add_argument(
        "--skip-direct",
        action="store_true",
        help="skip the brute-force x-space cross-check (slowest part)",
    )
    args = ap.parse_args(argv)

    names = sorted(INSTANCES) if args.instance == "all" else [args.instance]
    resolution = Fraction(args.resolution)
    ok = True
    for name in names:
        ok = run_instance(name, resolution, args.skip_direct) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
