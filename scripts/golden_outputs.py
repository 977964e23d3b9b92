#!/usr/bin/env python3
"""Write the engine's byte-identity output set to OUT_DIR.

A change that must keep every output bit for bit runs this script on
both sides and compares the two directories with `diff -r`. At seed 1
and 5,000 paths it writes, one subdirectory per case:

  fva_<cfg>_<method>   fva_report.json (runtime and peak-memory fields
                       removed) and profile.csv, benchmark on;
  sensi_portfolio      sensi.csv for nine bumps at 4 dates a year, one or
                       more per bump target, under approx_generic;
  sensi_portfolio_mc   the same bumps under mc;
  sensi_cross          sensi.csv of one cross difference;
  sensi_mixed          sensi.csv of three bumps, one of them a rate vol,
                       and a cross difference, all in one call;
  sensi_ladder         sensi.csv of central ir_pillar bumps on three
                       pillars each of EUR, USD and GBP in one call, whose
                       legs share each currency's bond exponentials;
  bounds_single_swap   bounds.csv, and explicit_e1.csv: the explicit eps1
                       bound (`bounds.explicit_e1_bound`) for x = 1 and
                       x = y_I at every date after 0 of the same case, in
                       bounds.csv's format, from one streamed pass;
  cube_<cfg>           the export-cube files in base and full mode.

A change that states a tolerance instead compares the two sets with
`--compare PARENT_DIR CHANGE_DIR`, which prints the worst error of each
check and exits non-zero if any fails:

  cube_*/*.bin         byte-identical;
  profile.csv          each numeric column within PROFILE_TOL x that
                       column's max |value| in the parent;
  fva_report.json      each number within REPORT_TOL relative, all else equal;
  sensi.csv            first-order rows within SENSI_TOL relative, the
                       cross row within CROSS_TOL (a 1e-8 second difference
                       amplifies round-off);
  bounds.csv,          within BOUNDS_TOL relative; the worst cell is named
  explicit_e1.csv      with its row's (date, family, x, n).

Usage: python3 scripts/golden_outputs.py OUT_DIR
       python3 scripts/golden_outputs.py --compare PARENT_DIR CHANGE_DIR
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wwrfva import METHODS  # noqa: E402
from wwrfva.bounds import (X_CHOICES, BoundRow, _credit_moments_at,  # noqa: E402
                           _empty_table, explicit_e1_bound, swap_cv_bound,
                           write_bounds_csv)
from wwrfva.cli import main as cli_main  # noqa: E402
from wwrfva.exposure import BaseMoments, DateTile, coeffs_for_dates  # noqa: E402
from wwrfva.fva import (build_correlation_for, build_model_set,  # noqa: E402
                        load_run_config, make_grid)
from wwrfva.instruments import PortfolioValuation  # noqa: E402
from wwrfva.mc import PathStream  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "..", "fixtures")

# approx_analytic takes a single swap only
PORTFOLIO_METHODS = tuple(m for m in METHODS if m != "approx_analytic")
FVA_CASES = {
    "single_swap": METHODS,
    "portfolio": PORTFOLIO_METHODS,
    "portfolio_stressed": PORTFOLIO_METHODS,
}
# Every bump target: bumps that share a simulation pass and one valuation
# (credit curve, credit vol and rate-credit correlation in base mode),
# share the pass only (domestic and foreign curves, a curve pillar, FX spot
# and FX vol) or share nothing (rate volatility).
SENSI_BUMPS = ("ir_parallel:EUR", "credit_parallel:C",
               "correlation:r_EUR/lambda_I:0.01", "sigma_r:EUR", "fx_spot:USD",
               "ir_parallel:USD", "sigma_fx:USD", "sigma_lambda:C", "ir_pillar:EUR@2")
CROSS = ("ir_parallel:EUR", "credit_parallel:C")
# one call with --bump and --cross: the cross pair's own first-order rows
# and a rate-vol bump, whose legs need a pass of their own
MIXED = ("--bump", "ir_parallel:EUR", "--bump", "credit_parallel:C",
         "--bump", "sigma_r:EUR", "--cross", *CROSS)
# a curve-delta ladder: three pillars of each of the portfolio's currencies
LADDER = tuple(f"ir_pillar:{ccy}@{k}" for ccy in ("EUR", "USD", "GBP") for k in (1, 3, 5))
# fields that measure the host, not the computation
TIMING_FIELDS = ("runtime_wwr_seconds", "runtime_benchmark_wwr_seconds",
                 "peak_rss_mb")
PROFILE_TOL = 1e-13
REPORT_TOL = 1e-13
SENSI_TOL = 1e-12
CROSS_TOL = 1e-9
BOUNDS_TOL = 1e-12
SEED, PATHS = 1, 5000
# The rows of paths that `write_explicit_e1` holds besides its value rows:
# the one-date tile's row, and while a date of the full credit moment
# table is filled, the credit sum S, its power chain with its square and
# the weighted power, and |S| for the tail quantile.
E1_ROWS = 6


def run(verb: str, cfg: str, out: str, *extra: str) -> None:
    argv = [verb, "--config", os.path.join(FIXTURES, f"{cfg}.cfg"),
            "--seed", str(SEED), "--paths", str(PATHS), "--out", out, *extra]
    if cli_main(argv):
        raise SystemExit(f"failed: {' '.join(argv)}")


def write_explicit_e1(out: str) -> None:
    """explicit_e1.csv of the bounds case: the `bounds` verb's settings,
    seed and paths, on one streamed full-mode pass that fills the full
    credit moment table and each date's discounted exposure."""
    inputs, settings = load_run_config(os.path.join(FIXTURES, "single_swap.cfg"))
    settings = dataclasses.replace(settings, seed=SEED, n_paths=PATHS)
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    stream = PathStream(models, corr, make_grid(inputs, settings), settings.n_paths,
                        settings.seed, "full")
    p, s, dates = inputs.portfolio, inputs.portfolio.single_swap, stream.dates
    bm = BaseMoments.empty(dates, 0)
    tile = DateTile(1, settings.n_paths, moments=False, credit=False)
    tab = _empty_table(stream, 16)
    for st, value_row in PortfolioValuation(p, models, dates).valued_pass(stream, E1_ROWS):
        bm.enter(st, value_row, tile)
        _credit_moments_at(tab, st, st.Y_I + st.Y_C)
    coeffs = coeffs_for_dates(models, corr, dates, settings.n_r)
    rows = []
    for i in range(1, len(dates)):
        u = float(dates[i])
        c_v = swap_cv_bound(s, models, u)
        for x in X_CHOICES:
            rows.append(BoundRow(date=u, family="eps1", x=x, n=1, bound=explicit_e1_bound(
                models, coeffs, c_v, bm.disc_epe[i], tab, i, x)))
    write_bounds_csv(rows, os.path.join(out, "explicit_e1.csv"))


def _rel(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude; 0 when both are 0."""
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


def _number(cell):
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _csv_cells(path_a: str, path_b: str) -> list[tuple[dict, str, float, float]]:
    """(parent row, column, parent value, change value) per numeric cell of
    two CSV files; their shapes and text cells must be equal."""
    with open(path_a, encoding="utf-8", newline="") as fa, \
            open(path_b, encoding="utf-8", newline="") as fb:
        rows_a, rows_b = list(csv.DictReader(fa)), list(csv.DictReader(fb))
    if [list(r) for r in rows_a] != [list(r) for r in rows_b]:
        raise ValueError("the two files differ in shape")
    cells = []
    for ra, rb in zip(rows_a, rows_b):
        for col, a in ra.items():
            xa, xb = _number(a), _number(rb[col])
            if xa is None or xb is None:
                if a != rb[col]:
                    raise ValueError(f"column {col}: {a!r} against {rb[col]!r}")
            else:
                cells.append((ra, col, xa, xb))
    return cells


def _checks(name: str, a: str, b: str) -> list[tuple[str, float, float]]:
    """(check, error, tolerance) for one file of the set."""
    if name.endswith(".bin"):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            return [("bytes", 0.0 if fa.read() == fb.read() else 1.0, 0.0)]
    if name == "fva_report.json":
        with open(a, encoding="utf-8") as fa, open(b, encoding="utf-8") as fb:
            ja, jb = json.load(fa), json.load(fb)
        floats = [k for k in ja if isinstance(ja[k], float) and isinstance(jb.get(k), float)]
        if sorted(ja) != sorted(jb) or any(ja[k] != jb[k] for k in ja if k not in floats):
            raise ValueError("non-numeric fields differ")
        return [(k, _rel(ja[k], jb[k]), REPORT_TOL) for k in floats]
    cells = _csv_cells(a, b)
    if name == "profile.csv":
        scale = {}
        for _, col, xa, _ in cells:
            scale[col] = max(scale.get(col, 0.0), abs(xa))
        return [(col, abs(xa - xb) / scale[col] if scale[col] else abs(xa - xb),
                 PROFILE_TOL) for _, col, xa, xb in cells]
    if name == "sensi.csv":
        return [(f"{row['target']} {col}", _rel(xa, xb),
                 CROSS_TOL if row["scheme"] == "cross" else SENSI_TOL)
                for row, col, xa, xb in cells]
    if name in ("bounds.csv", "explicit_e1.csv"):
        return [(f"{col} at (date, family, x, n) = ({row['date']}, {row['family']}, "
                 f"{row['x']}, {row['n']})", _rel(xa, xb), BOUNDS_TOL)
                for row, col, xa, xb in cells]
    raise ValueError("no comparison rule for this file")


def _ratio(check: tuple[str, float, float]) -> float:
    """Error over tolerance; a zero tolerance allows no error at all."""
    _, err, tol = check
    return err / tol if tol else (math.inf if err else 0.0)


def _files(root: str) -> list[str]:
    return sorted(os.path.relpath(os.path.join(d, f), root)
                  for d, _, names in os.walk(root) for f in names)


def compare(parent: str, change: str) -> int:
    """Compare two output sets with the tolerances above; 1 if any fails."""
    files = _files(parent)
    if files != _files(change):
        print(f"FAIL the sets hold different files: {files} against {_files(change)}")
        return 1
    failed = 0
    for rel_path in files:
        try:
            checks = _checks(os.path.basename(rel_path), os.path.join(parent, rel_path),
                             os.path.join(change, rel_path))
        except ValueError as exc:
            failed += 1
            print(f"FAIL {rel_path}: {exc}")
            continue
        worst = max(checks, key=_ratio)
        ok = _ratio(worst) <= 1.0
        failed += not ok
        check, err, tol = worst
        print(f"{'ok  ' if ok else 'FAIL'} {rel_path}: worst {check} {err:.3g} (tol {tol:g})")
    print(f"{len(files) - failed} of {len(files)} files within tolerance")
    return 1 if failed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out_dir", nargs="?")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.out_dir is None:
        ap.error("give OUT_DIR or --compare PARENT_DIR CHANGE_DIR")
    root = args.out_dir
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
    run("sensi", "portfolio", os.path.join(root, "sensi_mixed"),
        "--dates-per-year", "4", *MIXED)
    run("sensi", "portfolio", os.path.join(root, "sensi_ladder"),
        "--dates-per-year", "4", *(arg for b in LADDER for arg in ("--bump", b)))
    run("bounds", "single_swap", os.path.join(root, "bounds_single_swap"))
    write_explicit_e1(os.path.join(root, "bounds_single_swap"))
    for cfg in ("single_swap", "portfolio"):
        for mode in ("base", "full"):
            run("export-cube", cfg, os.path.join(root, f"cube_{cfg}"),
                "--mode", mode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
