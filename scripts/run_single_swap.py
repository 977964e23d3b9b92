#!/usr/bin/env python3
"""Single-swap experiment: approximation vs Monte Carlo benchmark.

Runs the fixture single-receiver-swap setup at full scale with the
benchmark enabled through `wwrfva fva`, so it prints what that verb
prints (the FVA split, the relative difference of the totals to the
benchmark, and the benchmark's WWR part with its standard error), and
writes fva_report.json / profile.csv into --out.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wwrfva import METHODS  # noqa: E402
from wwrfva.cli import main as cli_main  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIG = os.path.join(HERE, "..", "fixtures", "single_swap.cfg")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/single_swap")
    ap.add_argument("--paths", type=int, default=100_000)
    ap.add_argument("--method", default="approx_analytic", choices=METHODS)
    args = ap.parse_args()
    return cli_main(["fva", "--config", CONFIG, "--method", args.method,
                     "--paths", str(args.paths), "--benchmark",
                     "--out", args.out])


if __name__ == "__main__":
    sys.exit(main())
