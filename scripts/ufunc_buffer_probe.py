#!/usr/bin/env python3
"""Time the per-date pass's broadcast ops under numpy's default ufunc
buffer and under the pass's (`mc.PASS_UFUNC_BUFFER`, set by
`mc.pass_numpy_state`).

An op with a broadcast operand on a short row of paths runs through
numpy's ufunc buffer, and the buffer's size sets its cost. The ops are
the shapes the pass runs:

  decay * y      the rate noise update, (3, n) * (3, 1);
  theta - x+     the credit drift, (2, 1) - (2, n);
  bond outer     the bond exponents -B (outer) y for 30 payments, whose
                 exp follows in `instruments.bond_exponentials`;
  mean           a row's mean, which needs no buffer;
  f32 + f64      a casting add, which needs one.

For each op and path count it prints the best of REPEATS timings in
microseconds under both buffers, their ratio, and whether the two
outputs are bitwise equal. Then it times the casting add at 1e5 paths
under smaller and smaller buffers: it slows down below about 1,024
elements, which sets the pass buffer's floor. A numpy upgrade can
re-check with it that the pass's buffer still pays and keeps every bit.

Usage: python3 scripts/ufunc_buffer_probe.py
"""

import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from wwrfva.mc import PASS_UFUNC_BUFFER, pass_numpy_state  # noqa: E402

PATHS = (2_000, 4_000, 10_000, 100_000)
REPEATS = 5
# each timing runs the op for about this long
TARGET_S = 0.02
PAYMENTS = 30
# the buffer sizes of the casting add's floor check
FLOOR_BUFFERS = (8192, 4096, 1024, 256, 16)


def ops(n: int, rng: np.random.Generator) -> dict:
    """name -> zero-argument op on rows of n paths, each returning its output."""
    y3, decay = rng.standard_normal((3, n)), rng.random((3, 1))
    x2, theta = rng.random((2, n)), rng.random((2, 1))
    B, y = np.linspace(0.5, 30.0, PAYMENTS), 0.01 * rng.standard_normal(n)
    row = rng.standard_normal(n)
    f32, f64 = row.astype(np.float32), rng.standard_normal(n)
    out3, out2 = np.empty((3, n)), np.empty((2, n))
    expo, out1 = np.empty((PAYMENTS, n)), np.empty(n)

    return {"decay * y": lambda: np.multiply(y3, decay, out=out3),
            "theta - x+": lambda: np.subtract(theta, x2, out=out2),
            f"bond outer ({PAYMENTS})": lambda: np.multiply.outer(-B, y, out=expo),
            "mean": lambda: np.array(row.mean()),
            "f32 + f64": lambda: np.add(f32, f64, out=out1)}


def best_us(op) -> tuple[float, bytes]:
    """The best of REPEATS timings of op, in microseconds a call, and the
    bytes of its output."""
    t0, loops = time.perf_counter(), 0
    while time.perf_counter() - t0 < 0.2 * TARGET_S:
        op()
        loops += 1
    loops = max(1, int(loops * 5))
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            out = op()
        best = min(best, (time.perf_counter() - t0) / loops)
    return 1e6 * best, out.tobytes()


def best_us_under(size: int, op) -> float:
    """best_us(op) under a ufunc buffer of `size` elements."""
    with np.errstate():
        old = np.setbufsize(size)
        try:
            return best_us(op)[0]
        finally:
            np.setbufsize(old)


def main() -> int:
    default = np.getbufsize()
    print(f"numpy {np.__version__}: buffer {default} (default) against "
          f"{PASS_UFUNC_BUFFER} (pass), best of {REPEATS}, us a call")
    print(f"{'op':<18}{'paths':>8}{'default':>10}{'pass':>10}{'ratio':>8}  bits")
    rng = np.random.default_rng(1)
    for name in ops(2, rng):
        for n in PATHS:
            op = ops(n, rng)[name]
            t_default, bits_default = best_us(op)
            with pass_numpy_state():
                t_pass, bits_pass = best_us(op)
            same = "equal" if bits_default == bits_pass else "DIFFER"
            print(f"{name:<18}{n:>8}{t_default:>10.1f}{t_pass:>10.1f}"
                  f"{t_default / t_pass:>8.2f}  {same}")
    n = PATHS[-1]
    cast = ops(n, rng)["f32 + f64"]
    print(f"\nf32 + f64 at {n} paths by buffer size, us a call: "
          + ", ".join(f"{b}: {best_us_under(b, cast):.1f}" for b in FLOOR_BUFFERS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
