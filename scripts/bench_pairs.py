#!/usr/bin/env python3
"""Alternating perfbench pairs of two checkouts of this repository.

Runs `perfbench/run.py --trace 0` on one workload in PARENT_DIR and in
CHANGE_DIR, one seed per pair (FIRST_SEED, FIRST_SEED + 1, ...), and swaps
which side runs first from one pair to the next: on a host whose speed
drifts, a fixed order biases every pair the same way. It reads each run's
final JSON line and prints each pair's end-to-end metrics.

The end-to-end metrics, with the direction that is better and the
relative bound of each, are read from PARENT_DIR's BENCHMARK.json. Per
metric it prints both medians, the relative change of the medians, the
parent's relative interquartile range, in how many pairs the change read
better, and a verdict:

  worse         the change's median is worse than the parent's by more
                than the bound;
  unresolved    otherwise, when the parent's relative IQR exceeds the
                bound and not every change run beats every parent run;
  within bound  otherwise.

It also prints whether the metric shows a gain: at least ten pairs, the
change better in at least nine tenths of them (ties count for neither),
and the medians apart, in the better direction, by more than the parent's
interquartile range.

It writes the pairs and the verdicts to FILE as JSON, and exits non-zero
when a metric reads worse or a pair failed.

Usage: python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
           --pairs N --seconds S --out FILE [--first-seed K]
"""

import argparse
import json
import math
import os
import subprocess
import sys
from statistics import median, quantiles

GAIN_PAIRS = 10  # the fewest pairs a gain may rest on


def end_to_end_metrics(checkout: str) -> list[dict]:
    """The `end_to_end` entries (name, better, bound) of a checkout's
    BENCHMARK.json."""
    with open(os.path.join(checkout, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["end_to_end"]


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Compare one metric's runs, `parent[j]` and `change[j]` from pair j.

    `better` is "lower" or "higher"; `bound` is the largest relative
    worsening of the median that counts as no regression.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    worse_sign = 1.0 if better == "lower" else -1.0
    p_med, c_med = median(parent), median(change)
    rel_change = (c_med - p_med) / abs(p_med)
    rel_iqr = math.inf  # one run gives no spread, which rules nothing out
    if len(parent) >= 2:
        q = quantiles(parent, n=4)
        rel_iqr = (q[2] - q[0]) / abs(p_med)

    def beats(c, p):
        return worse_sign * (c - p) < 0.0

    if worse_sign * rel_change > bound:
        v = "worse"
    elif rel_iqr > bound and not all(beats(c, p) for c in change for p in parent):
        v = "unresolved"
    else:
        v = "within bound"
    wins = sum(beats(c, p) for p, c in zip(parent, change))
    gain = (len(parent) >= GAIN_PAIRS and 10 * wins >= 9 * len(parent)
            and -worse_sign * rel_change > rel_iqr)
    return {"parent_median": p_med, "change_median": c_med,
            "rel_change": rel_change, "parent_rel_iqr": rel_iqr,
            "change_better": wins, "pairs": len(parent), "better": better,
            "bound": bound, "verdict": v, "gain": gain}


def run(checkout: str, workload: str, seed: int, seconds: float,
        metrics: list[str]) -> dict:
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
    if any(m not in res["metrics"] for m in metrics):
        return {"error": f"no {', '.join(metrics)} in {lines[-1]}"}
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
    specs = end_to_end_metrics(sides["parent"])
    names = [s["name"] for s in specs]
    pairs = []
    for j in range(args.pairs):
        seed = args.first_seed + j
        order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(sides[side], args.workload, seed, args.seconds, names)
        pairs.append(pair)
        cells = []
        for side in ("parent", "change"):
            r = pair[side]
            cells.append(r["error"] if "error" in r else
                         " ".join(f"{m} {r['metrics'][m]:.4g}" for m in names)
                         + f" failed {r['failed']}/{r['attempted']}")
        print(f"pair {j + 1} seed {seed} ({order[0]} first): parent {cells[0]}"
              f" | change {cells[1]}", flush=True)

    ok = [p for p in pairs if "error" not in p["parent"] and "error" not in p["change"]]
    verdicts = {}
    if ok:
        for s in specs:
            m = s["name"]
            verdicts[m] = v = verdict([p["parent"]["metrics"][m] for p in ok],
                                      [p["change"]["metrics"][m] for p in ok],
                                      s["better"], s["bound"])
            print(f"{m}: parent median {v['parent_median']:.4g}, change median "
                  f"{v['change_median']:.4g} ({100 * v['rel_change']:+.1f} %), parent "
                  f"IQR {100 * v['parent_rel_iqr']:.1f} %, change {s['better']} in "
                  f"{v['change_better']}/{len(ok)}, bound {100 * s['bound']:.0f} %: "
                  f"{v['verdict']}; gain {'holds' if v['gain'] else 'not shown'}")
    print(f"pairs run {len(ok)}/{args.pairs}")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seconds": args.seconds,
                   "pairs_run": len(ok), "pairs_asked": args.pairs,
                   "verdicts": verdicts, "pairs": pairs}, fh, indent=1)
    worse = any(v["verdict"] == "worse" for v in verdicts.values())
    return 0 if len(ok) == args.pairs and not worse else 1


if __name__ == "__main__":
    sys.exit(main())
