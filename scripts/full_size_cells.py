#!/usr/bin/env python3
"""Alternating full-size CLI runs of two checkouts of this repository.

Each cell is one `wwrfva` CLI run at the fixture's shipped settings
(1e5 paths, 10 dates a year, 4 substeps, seed 1):

  fva_single_swap_bench   fva on fixtures/single_swap.cfg, --benchmark;
  fva_portfolio_bench     fva on fixtures/portfolio.cfg, --benchmark;
  fva_portfolio           fva on fixtures/portfolio.cfg;
  bounds_single_swap      bounds on fixtures/single_swap.cfg.

Every cell runs at OPENBLAS_NUM_THREADS=1 and at OpenBLAS's default
thread count (the variable unset). Per pair it runs each cell and thread
setting once in PARENT_DIR and once in CHANGE_DIR, each as a child
process with that checkout's src/ on its path, and swaps which side runs
first from one pair to the next, as scripts/bench_pairs.py does: on a
host whose speed drifts, a fixed order biases every pair the same way.

Per run it records the wall time, the child's CPU time (user + system)
and its peak RSS, all from os.wait4, and for fva cells the
`runtime_wwr_seconds` and `runtime_benchmark_wwr_seconds` of its
fva_report.json (None where the run has no such stage). It writes the
runs and, per cell, thread setting and metric, scripts/bench_pairs.py's
verdict (both medians, the parent's relative interquartile range, in how
many pairs the change read lower, and whether that is a gain) to FILE as
JSON, and prints them. Each metric takes the relative bound of its name
in PARENT_DIR's BENCHMARK.json; the CPU and stage times take wall_s's.

--paths and --dates-per-year override the shipped settings (a smoke
test runs it small).

Usage: python3 scripts/full_size_cells.py PARENT_DIR CHANGE_DIR --out FILE
           [--pairs N] [--paths N] [--dates-per-year N]
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

from bench_pairs import end_to_end_metrics, verdict

CELLS = {
    "fva_single_swap_bench": ("fva", "single_swap.cfg", "--benchmark"),
    "fva_portfolio_bench": ("fva", "portfolio.cfg", "--benchmark"),
    "fva_portfolio": ("fva", "portfolio.cfg"),
    "bounds_single_swap": ("bounds", "single_swap.cfg"),
}
THREADS = ("1", "default")
METRICS = ("wall_s", "cpu_s", "peak_rss_mb", "runtime_wwr_seconds",
           "runtime_benchmark_wwr_seconds")


def run_cell(checkout: str, cell: str, threads: str, extra: list[str]) -> dict:
    """One CLI child of `cell` in `checkout`: its wall, CPU and peak RSS,
    and for an fva cell its report's WWR stage times."""
    verb, cfg, *flags = CELLS[cell]
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads != "default":
        env["OPENBLAS_NUM_THREADS"] = threads
    with tempfile.TemporaryDirectory() as out:
        cmd = [sys.executable, "-m", "wwrfva.cli", verb, "--config",
               os.path.join(checkout, "fixtures", cfg), "--out", out, *flags, *extra]
        with open(os.path.join(out, "stderr.txt"), "w+", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=checkout, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            if proc.returncode:
                err.seek(0)
                return {"error": f"exit {proc.returncode}: {err.read().strip()[-500:]}"}
        report = {}
        if verb == "fva":
            with open(os.path.join(out, "fva_report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
    # ru_maxrss is in kilobytes on Linux
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            **{m: report.get(m) for m in METRICS[3:]}}


def summary(runs: dict, bounds: dict) -> dict:
    """Per metric, `bench_pairs.verdict` over the pairs where both sides
    ran and recorded it."""
    ok = [(p, c) for p, c in zip(runs["parent"], runs["change"])
          if "error" not in p and "error" not in c]
    out = {"pairs": len(ok)}
    for m in METRICS:
        pairs = [(p[m], c[m]) for p, c in ok if p[m] is not None and c[m] is not None]
        if pairs:
            out[m] = verdict([p for p, _ in pairs], [c for _, c in pairs], "lower",
                             bounds.get(m, bounds["wall_s"]))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--pairs", type=int, default=1)
    ap.add_argument("--out", required=True)
    ap.add_argument("--paths", type=int)
    ap.add_argument("--dates-per-year", type=int)
    args = ap.parse_args()

    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    extra = []
    if args.paths is not None:
        extra += ["--paths", str(args.paths)]
    if args.dates_per_year is not None:
        extra += ["--dates-per-year", str(args.dates_per_year)]
    runs = {c: {t: {"parent": [], "change": []} for t in THREADS} for c in CELLS}
    for j in range(args.pairs):
        order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
        for cell in CELLS:
            for threads in THREADS:
                for side in order:
                    r = run_cell(sides[side], cell, threads, extra)
                    runs[cell][threads][side].append(r)
                    print(f"pair {j + 1} {cell} threads {threads} {side}: "
                          + (r["error"] if "error" in r else " ".join(
                              f"{m} {r[m]:.4g}" for m in METRICS if r[m] is not None)),
                          flush=True)

    bounds = {s["name"]: s["bound"] for s in end_to_end_metrics(sides["parent"])}
    summaries = {c: {t: summary(runs[c][t], bounds) for t in THREADS} for c in CELLS}
    for cell, per_threads in summaries.items():
        for threads, s in per_threads.items():
            for m in METRICS:
                if m in s:
                    v = s[m]
                    print(f"{cell} threads {threads} {m}: parent median "
                          f"{v['parent_median']:.4g}, change median {v['change_median']:.4g}"
                          f" ({100 * v['rel_change']:+.1f} %), parent IQR "
                          f"{100 * v['parent_rel_iqr']:.1f} %, change lower in "
                          f"{v['change_better']}/{v['pairs']}: {v['verdict']}; gain "
                          f"{'holds' if v['gain'] else 'not shown'}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"pairs_asked": args.pairs, "settings_overridden": extra,
                   "threads": list(THREADS), "summaries": summaries, "runs": runs},
                  fh, indent=1)
    failed = any("error" in r for c in runs.values() for t in c.values()
                 for side in t.values() for r in side)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
