#!/usr/bin/env python3
"""Error-bound study on the single-swap fixture.

Runs the `bounds` verb, which streams one full-mode simulation date by
date and writes bounds.csv with per-date truncation bounds, the directly
measured expansion errors, and the normality distances of the integrated
credit drivers, then prints a compact summary (worst bound/measured
ratios per family).
"""

import argparse
import csv
import os
import sys
from collections import defaultdict

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wwrfva.cli import main as cli_main  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(HERE, "..", "fixtures", "single_swap.cfg")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/bounds")
    ap.add_argument("--paths", type=int, default=50_000)
    ap.add_argument("--orders", default="1,2,3,4,5,6")
    args = ap.parse_args()
    rc = cli_main(["bounds", "--config", CONFIG, "--paths", str(args.paths),
                   "--orders", args.orders, "--out", args.out])
    if rc:
        return rc
    # every measured error counts, the tiny ones at early dates too: the
    # rate tail is summed as its remainder series, so they are accurate,
    # not the rounding of exp(-z) less its polynomial
    worst = defaultdict(float)
    with open(os.path.join(args.out, "bounds.csv")) as fh:
        for row in csv.DictReader(fh):
            if row["measured_error"] and float(row["bound"]) > 0.0:
                meas = abs(float(row["measured_error"]))
                key = (row["family"], row["x"])
                worst[key] = max(worst[key], meas / float(row["bound"]))
    for (fam, x), ratio in sorted(worst.items()):
        print(f"worst |measured|/bound {fam} x={x}: {ratio:.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
