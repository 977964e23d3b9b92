#!/usr/bin/env python3
"""Compare the FVA outputs of two checkouts over a set of seeds.

A change that alters the random stream cannot reproduce the old numbers
bit for bit; it states a tolerance instead. This script runs `run_fva`
in PARENT_DIR and in CHANGE_DIR (each on its own `src/`) at every seed,
on two cases, with the benchmark on, at 20,000 paths and 4 dates a year
with 4 substeps:

  single_swap   fixtures/single_swap.cfg under approx_analytic;
  portfolio     fixtures/portfolio.cfg under approx_generic.

Per case and output (fva_indep, fva_wwr, fva_wwr_mc) it prints each
side's mean and standard deviation over the seeds, and the two-sample z

    z = (mean_change - mean_parent) / sqrt((sd_change^2 + sd_parent^2) / n)

with n the number of seeds. It exits non-zero if any |z| exceeds
Z_LIMIT. The seed spread, not the engine's reported SE, sets the scale,
so the test holds however well or badly the engine estimates its error.

Usage: python3 scripts/seed_spread.py PARENT_DIR CHANGE_DIR --seeds 1-12
           [--out FILE]
"""

import argparse
import json
import math
import os
import subprocess
import sys
from statistics import mean, stdev

Z_LIMIT = 3.0
OUTPUTS = ("fva_indep", "fva_wwr", "fva_wwr_mc")
CASES = {"single_swap": ("fixtures/single_swap.cfg", "approx_analytic"),
         "portfolio": ("fixtures/portfolio.cfg", "approx_generic")}
SETTINGS = dict(benchmark=True, n_paths=20_000, dates_per_year=4,
                substeps_per_interval=4)

# Runs in a checkout: argv is the config, the method, the settings and the
# seeds as JSON; prints one JSON list with each seed's outputs.
_CHILD = """
import dataclasses, json, sys
from wwrfva.fva import load_run_config, run_fva
cfg, method, settings, seeds = sys.argv[1], sys.argv[2], *map(json.loads, sys.argv[3:])
inputs, base = load_run_config(cfg)
rows = []
for seed in seeds:
    r = run_fva(inputs, dataclasses.replace(base, method=method, seed=seed, **settings))
    rows.append({k: getattr(r, k) for k in %r})
print(json.dumps(rows))
""" % (OUTPUTS,)


def parse_seeds(text: str) -> list[int]:
    """Seeds from "A-B" (inclusive) or a comma-separated list."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        seeds = list(range(lo, hi + 1))
    else:
        seeds = [int(v) for v in text.split(",")]
    if len(seeds) < 2:
        raise ValueError("a spread needs at least two seeds")
    return seeds


def spread(parent: list[float], change: list[float]) -> dict:
    """Means, sample SDs and the two-sample z of one output; `parent[j]` and
    `change[j]` come from the same seed."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need the same seeds, at least two, on both sides")
    m_p, m_c = mean(parent), mean(change)
    s_p, s_c = stdev(parent), stdev(change)
    scale = math.sqrt((s_p * s_p + s_c * s_c) / len(parent))
    if scale > 0.0:
        z = (m_c - m_p) / scale
    else:
        z = 0.0 if m_c == m_p else math.copysign(math.inf, m_c - m_p)
    return {"parent_mean": m_p, "parent_sd": s_p, "change_mean": m_c,
            "change_sd": s_c, "z": z}


def run_side(checkout: str, cfg: str, method: str, seeds: list[int]) -> list[dict]:
    """Each seed's outputs from a run of `checkout`'s engine."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, cfg, method, json.dumps(SETTINGS),
         json.dumps(seeds)], cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{checkout}: {cfg} failed:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--seeds", default="1-12")
    ap.add_argument("--out", help="also write the table and every run as JSON")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)

    table, runs = {}, {}
    print(f"seeds {seeds[0]}..{seeds[-1]} ({len(seeds)}), "
          + ", ".join(f"{k} {v}" for k, v in SETTINGS.items()))
    print("case         output      parent mean (SD)        change mean (SD)        z")
    for case, (cfg, method) in CASES.items():
        runs[case] = {side: run_side(os.path.abspath(d), cfg, method, seeds)
                      for side, d in (("parent", args.parent_dir),
                                      ("change", args.change_dir))}
        for out in OUTPUTS:
            row = spread([r[out] for r in runs[case]["parent"]],
                         [r[out] for r in runs[case]["change"]])
            table[f"{case}:{out}"] = row
            print(f"{case:<12} {out:<11} {row['parent_mean']:10.4f} ({row['parent_sd']:.4f})"
                  f"   {row['change_mean']:10.4f} ({row['change_sd']:.4f})"
                  f"   {row['z']:+.2f}")
    worst = max(abs(r["z"]) for r in table.values())
    print(f"max |z| {worst:.2f} (limit {Z_LIMIT})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": seeds, "settings": SETTINGS, "table": table,
                       "runs": runs}, fh, indent=1)
    return 0 if worst <= Z_LIMIT else 1


if __name__ == "__main__":
    sys.exit(main())
