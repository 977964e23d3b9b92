"""One benchmark repetition, in a process of its own.

    python3 perfbench/child.py --workload swap_bench --seed 1000 --mode run

Modes:
  setup  import the engine and build the workload's inputs, then stop
  run    also time the workload's user-facing call and check its outputs
  trace  run, then repeat the call as a traced replica, compare the two,
         and time the untraced call once more for the tracing overhead

Prints one JSON object on its last stdout line. run.py starts one of these
per repetition so that the peak RSS it reads belongs to that repetition.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402  (imports the engine: part of set-up time)
from tracer import Tracer  # noqa: E402

T_IMPORTED = time.perf_counter()

REFS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

def _kernel() -> float:
    t0 = time.perf_counter()
    rng = numpy.random.default_rng(7)
    chol = numpy.linalg.cholesky(numpy.full((4, 4), 0.3) + 0.7 * numpy.eye(4))
    y = numpy.zeros(10_000)
    acc = numpy.zeros(10_000)
    for _ in range(50):
        e = chol @ rng.standard_normal((4, 10_000))
        y_new = 0.99 * y + 0.01 * e[0]
        acc += 0.005 * (y + y_new)
        y = y_new
        numpy.maximum(numpy.exp(-acc) * y, 0.0).mean()
    total = 0.0
    for i in range(20_000):
        total += (i * 0.5) ** 0.5
    return time.perf_counter() - t0


def calibrate() -> float:
    """Time a fixed kernel that mixes what the engine does: small dense
    products, elementwise numpy on 10k-path arrays and scalar Python.

    The host's speed drifts by tens of percent over minutes; dividing each
    timed part by the kernel times around it takes that drift out. The
    kernel runs five times and the median counts, so that one interrupted
    run does not skew the scale.
    """
    return 5.0 * statistics.median(_kernel() for _ in range(5))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    tr = Tracer(rep_id=f"{args.workload}-{args.seed}", enabled=args.mode == "trace")
    tr.add("import", T_START, T_IMPORTED)
    with tr.span("setup"):
        s = workloads.setup(wl, ROOT, args.seed, tr)
    out = {"setup_s": time.perf_counter() - T_START,
           "versions": {"python": platform.python_version(),
                        "numpy": numpy.__version__, "scipy": scipy.__version__}}
    # Set-up is scaled by the kernel timed right after it, each part of the
    # call by the mean of the kernels timed just before and after it.
    cals = [calibrate()]
    out["setup_in_calibrations"] = out["setup_s"] / cals[0]
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    results, wall, wall_cal = [], 0.0, 0.0
    for part in workloads.parts(wl, s):
        t0 = time.perf_counter()
        results.append(part())
        dt = time.perf_counter() - t0
        cals.append(calibrate())
        wall += dt
        wall_cal += dt / (0.5 * (cals[-2] + cals[-1]))
    result = workloads.join(wl, results)
    out.update(wall_s=wall, wall_in_calibrations=wall_cal, calibrations_s=cals)

    with open(REFS, encoding="utf-8") as fh:
        ref = json.load(fh)[args.workload]
    out["outputs"] = workloads.summarize(wl, s, result)
    out["failures"] = workloads.check(wl, s, result, out["outputs"], ref)

    if args.mode == "trace":
        with tr.span("workload"):
            rep = workloads.replica(wl, s, tr)
        out["failures"] += workloads.replica_mismatch(wl, result, rep)
        # The first call in a process pays one-off costs that the replica,
        # coming second, does not; the overhead is measured against a
        # second untraced call instead.
        t0 = time.perf_counter()
        workloads.call(wl, s)
        warm_s = time.perf_counter() - t0
        out["layers"] = workloads.layer_metrics(tr.spans, warm_s)
        out["layers"]["host.calibration_s"] = statistics.median(cals)
        out["spans"] = tr.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
