#!/usr/bin/env python3
"""Record the reference outputs that every benchmark repetition is checked against.

    python3 perfbench/record_refs.py

Runs each workload once at the default seed (run.py's --seed 1, first
repetition) and writes refs.json beside this file. Re-record only when a
workload's settings change, and say so in the change that does it.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from run import DEFAULT_SEED, rep_seed  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    seed = rep_seed(DEFAULT_SEED, 0)
    refs = {}
    for name, wl in workloads.WORKLOADS.items():
        s = workloads.setup(wl, ROOT, seed, Tracer(name, enabled=False))
        result = workloads.call(wl, s)
        summary = workloads.summarize(wl, s, result)
        bad = workloads.check(wl, s, result, summary, None)
        if bad:
            print(f"{name}: {bad}", file=sys.stderr)
            return 1
        refs[name] = workloads.reference(wl, s, summary)
        print(f"{name}: {refs[name]}")
    with open(os.path.join(HERE, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
