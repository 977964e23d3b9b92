#!/usr/bin/env python3
"""Write the engine's byte-identity output set to OUT_DIR.

A change that must keep every output bit for bit runs this script on
both sides and compares the two directories with `diff -r`. At seed 1
and 5,000 paths it writes, one subdirectory per case:

  fva_<cfg>_<method>   fva_report.json (runtime and peak-memory fields
                       removed) and profile.csv, benchmark on;
  sensi_portfolio      sensi.csv for six bumps at 4 dates a year, under
                       approx_generic;
  sensi_portfolio_mc   the same bumps under mc;
  sensi_cross          sensi.csv of one cross difference;
  bounds_single_swap   bounds.csv;
  cube_<cfg>           the export-cube files in base and full mode.

Usage: python3 scripts/golden_outputs.py OUT_DIR
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wwrfva.cli import main as cli_main  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "fixtures")

FVA_CASES = {
    "single_swap": ("mc", "approx_generic", "approx_analytic"),
    "portfolio": ("mc", "approx_generic"),
    "portfolio_stressed": ("mc", "approx_generic"),
}
# Bumps that share a simulation pass and one valuation (credit curve,
# rate-credit correlation in base mode), share the pass only (domestic and
# foreign curves, FX spot) or share nothing (rate volatility).
SENSI_BUMPS = ("ir_parallel:EUR", "credit_parallel:C",
               "correlation:r_EUR/lambda_I:0.01", "sigma_r:EUR", "fx_spot:USD",
               "ir_parallel:USD")
CROSS = ("ir_parallel:EUR", "credit_parallel:C")
# fields that measure the host, not the computation
TIMING_FIELDS = ("runtime_wwr_seconds", "runtime_benchmark_wwr_seconds",
                 "peak_rss_mb")


def run(verb: str, cfg: str, out: str, *extra: str) -> None:
    argv = [verb, "--config", os.path.join(FIXTURES, f"{cfg}.cfg"),
            "--seed", "1", "--paths", "5000", "--out", out, *extra]
    if cli_main(argv):
        raise SystemExit(f"failed: {' '.join(argv)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out_dir")
    root = ap.parse_args().out_dir
    for cfg, methods in FVA_CASES.items():
        for method in methods:
            out = os.path.join(root, f"fva_{cfg}_{method}")
            run("fva", cfg, out, "--method", method, "--benchmark")
            path = os.path.join(out, "fva_report.json")
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            for key in TIMING_FIELDS:
                del report[key]
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=2, sort_keys=True)
                fh.write("\n")
    bumps = [arg for b in SENSI_BUMPS for arg in ("--bump", b)]
    run("sensi", "portfolio", os.path.join(root, "sensi_portfolio"),
        "--dates-per-year", "4", *bumps)
    run("sensi", "portfolio", os.path.join(root, "sensi_portfolio_mc"),
        "--dates-per-year", "4", "--method", "mc", *bumps)
    run("sensi", "portfolio", os.path.join(root, "sensi_cross"),
        "--dates-per-year", "4", "--cross", *CROSS)
    run("bounds", "single_swap", os.path.join(root, "bounds_single_swap"))
    for cfg in ("single_swap", "portfolio"):
        for mode in ("base", "full"):
            run("export-cube", cfg, os.path.join(root, f"cube_{cfg}"),
                "--mode", mode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
