#!/usr/bin/env python3
"""Time a date's valuation under several block widths, at one and at the
default number of OpenBLAS threads.

`instruments.book_rows` values a date on column blocks of paths of one
width per pass, the largest power of two whose bond exponentials fit
`mc.VALUE_BLOCK_ELEMENTS` doubles, so that its (payments,) @ (payments,
width) product stays on one OpenBLAS thread: a second thread competes
with the draw worker for a core. Where OpenBLAS starts a second thread
belongs to the installed build, so an upgrade can re-check the budget
with this script.

It values the book of fixtures/single_swap.cfg (30 payments) on 21
dates of its grid, at each path count of PATHS, with each width of
WIDTHS and with whole rows, in a child process per thread setting
(OPENBLAS_NUM_THREADS=1, and the variable unset). Per thread setting,
path count and width it prints the engine's width for that path count
beside it, the median over REPEATS of the `book_rows` calls' wall time
in milliseconds, that of the products alone, the process CPU time over
the wall time of the products alone (about 1 on one thread, up to the
core count on more), and whether every row is bitwise equal to the
whole-row product.

Usage: python3 scripts/value_block_probe.py
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from wwrfva import mc  # noqa: E402
from wwrfva.fva import build_model_set, load_run_config, make_grid  # noqa: E402
from wwrfva.instruments import (PortfolioValuation, _block_shape,  # noqa: E402
                                book_buffer, book_rows)

CONFIG = os.path.join(os.path.dirname(__file__), "..", "fixtures", "single_swap.cfg")
PATHS = (10_000, 100_000)
WIDTHS = (1_024, 2_048, 4_096, 8_192, 16_384)
REPEATS = 5


def probe(n_paths: int) -> list[str]:
    """One line per width (whole rows last) at `n_paths`, in this process's
    BLAS thread setting."""
    inputs, settings = load_run_config(CONFIG)
    models = build_model_set(inputs)
    dates = make_grid(inputs, settings).monitoring_dates[::15]
    valuation = PortfolioValuation(inputs.portfolio, models, dates)
    payments = int(_block_shape(valuation.groups, n_paths)[0])
    engine = mc.value_block(payments, n_paths)
    rng = np.random.default_rng(1)
    y = {c: rng.normal(0.0, 0.02, n_paths) for c in models.rates}
    states = [mc.DateState(i, models.domestic, 1.0, y, y, {}) for i in range(len(dates))]
    whole = [{book: book.at(i)[0] + book.at(i)[1] @ np.exp(
        np.multiply.outer(-book.at(i)[2], y[book.currency])) for book in valuation.books}
        for i in range(len(dates))]
    budget = mc.VALUE_BLOCK_ELEMENTS
    lines = []
    try:
        for width in (*WIDTHS, n_paths):
            mc.VALUE_BLOCK_ELEMENTS = payments * width
            buffer = book_buffer(valuation.groups, n_paths)
            same = all(np.array_equal(row, whole[st.index][book])
                       for st in states
                       for book, row in book_rows(valuation.groups, st, buffer).items())
            # the products alone, on exponentials formed once per block
            w = mc.value_block(payments, n_paths)
            blocks = [(book.at(i)[1], np.exp(np.multiply.outer(
                -book.at(i)[2], y[book.currency][j:j + w])), j)
                for i in range(len(dates)) for book in valuation.books
                for j in range(0, n_paths, w)]
            row = np.empty(n_paths)
            rows_ms, prod_ms, ratios = [], [], []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                for st in states:
                    book_rows(valuation.groups, st, buffer)
                rows_ms.append(1e3 * (time.perf_counter() - t0))
                t0, c0 = time.perf_counter(), time.process_time()
                for W, expo, j in blocks:
                    np.matmul(W, expo, out=row[j:j + expo.shape[1]])
                wall = time.perf_counter() - t0
                prod_ms.append(1e3 * wall)
                ratios.append((time.process_time() - c0) / wall)
            label = "whole" if width == n_paths else str(width)
            lines.append(f"{n_paths:>8}{label:>8}{engine:>8}"
                         f"{statistics.median(rows_ms):>11.2f}"
                         f"{statistics.median(prod_ms):>11.2f}"
                         f"{statistics.median(ratios):>10.2f}  "
                         f"{'equal' if same else 'DIFFER'}")
    finally:
        mc.VALUE_BLOCK_ELEMENTS = budget
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        for n in PATHS:
            print("\n".join(probe(n)), flush=True)
        return 0
    print(f"budget {mc.VALUE_BLOCK_ELEMENTS} doubles a block; median of "
          f"{REPEATS} calls over 21 dates")
    print(f"{'threads':<9}{'paths':>8}{'width':>8}{'engine':>8}{'rows ms':>11}"
          f"{'prod ms':>11}{'cpu/wall':>10}  bits")
    for threads in ("1", "default"):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads != "default":
            env["OPENBLAS_NUM_THREADS"] = threads
        out = subprocess.run([sys.executable, __file__, "--child"], env=env, check=True,
                             capture_output=True, text=True).stdout
        for line in out.splitlines():
            print(f"{threads:<9}{line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
