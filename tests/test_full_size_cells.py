"""scripts/full_size_cells.py run small, one checkout against itself: the
schema of the record it writes."""

import json
import os
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_SCRIPT = os.path.join(_ROOT, "scripts", "full_size_cells.py")


def test_full_size_cells_records_every_cell_and_thread_setting(tmp_path):
    out = tmp_path / "cells.json"
    proc = subprocess.run([sys.executable, _SCRIPT, _ROOT, _ROOT, "--pairs", "1",
                           "--paths", "2000", "--dates-per-year", "1", "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(out.read_text())
    cells = ["fva_single_swap_bench", "fva_portfolio_bench", "fva_portfolio",
             "bounds_single_swap"]
    assert rec["pairs_asked"] == 1 and rec["threads"] == ["1", "default"]
    assert rec["settings_overridden"] == ["--paths", "2000", "--dates-per-year", "1"]
    assert list(rec["runs"]) == list(rec["summaries"]) == cells
    for cell in cells:
        for threads in rec["threads"]:
            for side in ("parent", "change"):
                (run,) = rec["runs"][cell][threads][side]
                assert run["wall_s"] > 0.0 and run["cpu_s"] > 0.0
                assert run["peak_rss_mb"] > 10.0
                # only an fva run writes a report, and only with the
                # benchmark does it time the benchmark's WWR stage
                assert (run["runtime_wwr_seconds"] is None) == cell.startswith("bounds")
                assert (run["runtime_benchmark_wwr_seconds"] is None) \
                    == (not cell.endswith("bench"))
            s = rec["summaries"][cell][threads]
            assert s["pairs"] == 1
            metrics = ["wall_s", "cpu_s", "peak_rss_mb"] \
                + ([] if cell.startswith("bounds") else ["runtime_wwr_seconds"]) \
                + (["runtime_benchmark_wwr_seconds"] if cell.endswith("bench") else [])
            assert sorted(k for k in s if k != "pairs") == sorted(metrics)
            for m in metrics:
                # bench_pairs' verdict, with the parent's IQR
                assert s[m]["pairs"] == 1 and s[m]["better"] == "lower"
                assert {"parent_median", "change_median", "parent_rel_iqr",
                        "change_better", "verdict", "gain"} <= set(s[m])
