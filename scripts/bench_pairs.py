#!/usr/bin/env python3
"""Alternating perfbench pairs of two checkouts of this repository.

Runs `perfbench/run.py --trace 0` on one workload in PARENT_DIR and in
CHANGE_DIR, one seed per pair (FIRST_SEED, FIRST_SEED + 1, ...), and swaps
which side runs first from one pair to the next: on a host whose speed
drifts, a fixed order biases every pair the same way. It reads each run's
final JSON line, prints each pair's end-to-end metrics, the medians of
both sides, the parent's wall_s interquartile range and "change lower in
k/N", and writes the same data to FILE as JSON.

Usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
           --pairs N --seconds S --out FILE [--first-seed K]
"""

import argparse
import json
import os
import subprocess
import sys
from statistics import median, quantiles

METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def run(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `checkout`: its final JSON line, or an error."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    res["metrics"] = {k: v["value"] for k, v in res["metrics"].items()}
    if any(m not in res["metrics"] for m in METRICS):
        return {"error": f"no {', '.join(METRICS)} in {lines[-1]}"}
    return res


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    pairs = []
    for j in range(args.pairs):
        seed = args.first_seed + j
        order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(sides[side], args.workload, seed, args.seconds)
        pairs.append(pair)
        cells = []
        for side in ("parent", "change"):
            r = pair[side]
            cells.append(r["error"] if "error" in r else
                         " ".join(f"{m} {r['metrics'][m]:.4g}" for m in METRICS)
                         + f" failed {r['failed']}/{r['attempted']}")
        print(f"pair {j + 1} seed {seed} ({order[0]} first): parent {cells[0]}"
              f" | change {cells[1]}", flush=True)

    ok = [p for p in pairs if "error" not in p["parent"] and "error" not in p["change"]]
    summary = {"workload": args.workload, "seconds": args.seconds,
               "pairs_run": len(ok), "pairs_asked": args.pairs}
    for m in METRICS:
        for side in ("parent", "change"):
            summary[f"{side}_median_{m}"] = (median(p[side]["metrics"][m] for p in ok)
                                             if ok else float("nan"))
    walls = [p["parent"]["metrics"]["wall_s"] for p in ok]
    q = quantiles(walls, n=4) if len(walls) >= 2 else [float("nan")] * 3
    summary["parent_wall_s_iqr"] = q[2] - q[0]
    summary["change_lower"] = sum(p["change"]["metrics"]["wall_s"]
                                  < p["parent"]["metrics"]["wall_s"] for p in ok)
    for m in METRICS:
        print(f"{m}: parent median {summary[f'parent_median_{m}']:.4g}, "
              f"change median {summary[f'change_median_{m}']:.4g}")
    print(f"parent wall_s IQR {summary['parent_wall_s_iqr']:.4g}; "
          f"change lower in {summary['change_lower']}/{len(ok)}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"summary": summary, "pairs": pairs}, fh, indent=1)
    return 0 if len(ok) == args.pairs else 1


if __name__ == "__main__":
    sys.exit(main())
