#!/usr/bin/env python3
"""Time the streamed pass under several draw-block and date-tile budgets.

A pass hands the draw worker one block of intervals at a time
(`mc.DRAW_SLOT_ELEMENTS` normals a slot) and reduces its estimators over
tiles of consecutive dates (`exposure.TILE_ELEMENTS` doubles a tile
row). Below about 10k paths both spread a per-date fixed cost, a
`Future` hand-off or a ufunc reduction's dispatch, over several dates.
This script runs two passes shaped as perfbench's small workloads on
`fixtures/portfolio.cfg`:

  sensi   three central bumps under approx_generic, 4 dates a year,
          2 substeps, no benchmark (as `portfolio_sensi`);
  bench   one run_fva under approx_generic with the benchmark on, 5 dates
          a year, 4 substeps (as `portfolio_bench`);

at each path count of PATHS under each budget pair of BUDGETS, the first
of which draws one interval a hand-off and reduces one date a call, as
the pass did before it tiled. Per pass, path count and budget it prints
the intervals a block and the dates a tile, the median wall time of
REPEATS calls in milliseconds (the budgets take turns, so a drifting
host slows each alike), its ratio to the first budget's, the tracemalloc
peak of one call in MB, and whether every output is bitwise equal to
the first budget's. A numpy upgrade can re-check the chosen constants
with it.

Usage: python3 scripts/tile_probe.py [--repeats N] [--paths N ...]
"""

import argparse
import dataclasses
import os
import statistics
import sys
import time
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wwrfva import exposure, mc  # noqa: E402
from wwrfva.fva import load_run_config, make_grid, run_fva  # noqa: E402
from wwrfva.sensitivities import fd_sensitivities, parse_bump  # noqa: E402

CONFIG = os.path.join(os.path.dirname(__file__), "..", "fixtures", "portfolio.cfg")
PATHS = (500, 1_000, 2_000, 4_000, 10_000)
# (normals a draw slot, doubles a tile row); the first is one interval and
# one date at any path count, the next two keep one of the two, and the
# engine's constants are among the rest
ENGINE = (mc.DRAW_SLOT_ELEMENTS, exposure.TILE_ELEMENTS)
BUDGETS = ((1, 1), (ENGINE[0], 1), (1, ENGINE[1]), (32_768, 8_192), ENGINE,
           (131_072, 32_768))
REPEATS = 7
SENSI_BUMPS = ("ir_parallel:EUR", "credit_parallel:C", "correlation:r_EUR/lambda_I:0.01")


def passes(n_paths: int) -> dict:
    """name -> (zero-argument call returning its outputs as a string, the
    rows of normals an interval draws, the grid's dates)."""
    inputs, settings = load_run_config(CONFIG)
    sensi = dataclasses.replace(settings, method="approx_generic", benchmark=False,
                                n_paths=n_paths, dates_per_year=4, substeps_per_interval=2)
    bench = dataclasses.replace(settings, method="approx_generic", benchmark=True,
                                n_paths=n_paths, dates_per_year=5, substeps_per_interval=4)
    bumps = [parse_bump(b, inputs) for b in SENSI_BUMPS]

    def run_sensi():
        return repr([dataclasses.astuple(r) for r in fd_sensitivities(inputs, sensi, bumps)])

    def run_bench():
        rep = run_fva(inputs, bench)
        return (repr(rep.to_dict(include_timings=False))
                + rep.profile.epe_wwr.tobytes().hex() + rep.profile.se_indep.tobytes().hex()
                + rep.benchmark_profile.se_wwr.tobytes().hex())

    def shape(s):
        rows = 2 * len(inputs.rate_params) + len(inputs.fx_params) \
            + s.benchmark * s.substeps_per_interval * len(inputs.credit_params)
        return rows, make_grid(inputs, s).n_dates

    return {"sensi": (run_sensi, *shape(sensi)), "bench": (run_bench, *shape(bench))}


def set_budgets(budgets: tuple[int, int]) -> None:
    mc.DRAW_SLOT_ELEMENTS, exposure.TILE_ELEMENTS = budgets


def traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=REPEATS)
    ap.add_argument("--paths", type=int, nargs="+", default=PATHS)
    args = ap.parse_args()
    print(f"budgets (draw slot normals, tile row doubles), engine's {ENGINE}; "
          f"median of {args.repeats} calls")
    print(f"{'pass':<7}{'paths':>7}{'budgets':>18}{'block':>7}{'tile':>6}"
          f"{'ms':>9}{'ratio':>8}{'peak MB':>9}  bits")
    try:
        for n in args.paths:
            for name, (call, rows, n_dates) in passes(n).items():
                times = {b: [] for b in BUDGETS}
                bits = {}
                for b in BUDGETS:  # one call each first: caches and lazy imports
                    set_budgets(b)
                    bits[b] = call()
                for _ in range(args.repeats):
                    for b in BUDGETS:
                        set_budgets(b)
                        t0 = time.perf_counter()
                        call()
                        times[b].append(time.perf_counter() - t0)
                base = statistics.median(times[BUDGETS[0]])
                for b in BUDGETS:
                    set_budgets(b)
                    med = statistics.median(times[b])
                    same = "equal" if bits[b] == bits[BUDGETS[0]] else "DIFFER"
                    print(f"{name:<7}{n:>7}{str(b):>18}"
                          f"{mc.draw_block(rows, n, n_dates - 1):>7}"
                          f"{exposure.tile_dates(n, n_dates):>6}{1e3 * med:>9.1f}"
                          f"{med / base:>8.3f}{traced_peak_mb(call):>9.2f}  {same}")
    finally:
        set_budgets(ENGINE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
