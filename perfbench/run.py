#!/usr/bin/env python3
"""Benchmark of the FVA engine on the shipped fixtures.

    python3 perfbench/run.py --workload swap_bench --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Workloads: swap_bench, portfolio_bench, portfolio_sensi, swap_bounds (see
README.md beside this file), or "all" for each in turn.

A closed loop with one client: each repetition is a child process
(child.py) started only after the previous one ended, until --seconds
have passed and at least MIN_REPS ran. One child that only
sets up runs first; it warms the file cache and gives the import-only
memory baseline. Repetition k uses the simulation seed 1000 * seed + k.

--trace 0 reports the end-to-end metrics, medians over repetitions.
--trace 1 runs a traced replica of the call in every repetition and
reports the per-layer metrics; the spans go to .perfbench_out/.
The last stdout line is one JSON object: correct, attempted, failed and
metrics.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("swap_bench", "portfolio_bench", "portfolio_sensi", "swap_bounds")
DEFAULT_SEED = 1
# A traced repetition makes the call three times, so one may suffice.
MIN_REPS = {"run": 2, "trace": 1}
# No repetition starts when it would likely end past LOOP_LIMIT_S, and a
# child still running at RUN_LIMIT_S is killed, so that one workload run
# ends within the benchmark's 180 s limit.
LOOP_LIMIT_S = 140.0
RUN_LIMIT_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed beside them but not gated; the last four on FVA workloads only.
EXTRA_UNITS = {"wall_raw_s": "s", "setup_raw_s": "s", "calibration_s": "s",
               "peak_rss_import_mb": "MB", "failed_frac": "ratio",
               "approx_wwr_s": "s", "mc_wwr_s": "s", "fva_rd_pct": "%",
               "wwr_gap_se": "SE"}

# wall_s and setup_s are scaled to a host on which child.calibrate() takes
# this long: its typical time on the 2-core host the benchmark was built on.
# Every child times the kernel after set-up and after each part of its call.
CAL_REF_S = 0.22

# Per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "mc.simulate.base_s": "s",
    "mc.simulate.full_s": "s",
    "mc.simulate.credit_s": "s",
    "mc.simulate.path_steps": "count",
    "mc.simulate.cube_mb": "MB",
    "mc.simulate.truncated_fraction": "ratio",
    "instruments.value_matrix.s": "s",
    "instruments.value_matrix.valuations": "count",
    "instruments.value_matrix.mb": "MB",
    "exposure.base_moments.s": "s",
    "exposure.base_moments.y_moment_s": "s",
    "exposure.coeffs_for_dates.s": "s",
    "exposure.epe_indep.s": "s",
    "exposure.wwr_approx.s": "s",
    "exposure.epe_wwr_mc.s": "s",
    "fva.run_fva.calls": "count",
    "fva.run_fva.s": "s",
    "sensitivities.fd_sensitivity.s": "s",
    "sensitivities.fd_sensitivity.legs": "count",
    "bounds.credit_moment_table.s": "s",
    "bounds.bound_report.s": "s",
    "bounds.bound_report.rows": "count",
    "fva.load_run_config.s": "s",
    "fva.build_model_set.s": "s",
    "workload.self_s": "s",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "host.calibration_s": "s",
}


def rep_seed(seed: int, k: int) -> int:
    return 1000 * seed + k


def child_env() -> dict:
    """The caller's environment with BLAS threads fixed at nproc."""
    env = dict(os.environ)
    n = str(len(os.sched_getaffinity(0)))
    env.update({var: n for var in BLAS_VARS})
    return env


def spawn(workload: str, seed: int, mode: str, env: dict, deadline: float) -> dict:
    """Run one child; its peak RSS comes from its own rusage at exit.

    A child still running at `deadline` (a perf_counter time) is killed.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
         "--mode", mode], stdout=subprocess.PIPE, env=env, cwd=ROOT)
    # os.kill, not proc.kill: Popen would reap the child before wait4 can
    timer = threading.Timer(max(deadline - t0, 0.0), os.kill,
                            (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        with proc.stdout:
            lines = proc.stdout.read().decode().strip().splitlines()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    rep = {"seed": seed, "mode": mode, "exit_code": proc.returncode,
           "elapsed_s": time.perf_counter() - t0,
           "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
           "result": None}
    if proc.returncode == 0 and lines:
        rep["result"] = json.loads(lines[-1])
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    deadline = time.perf_counter() + RUN_LIMIT_S
    warm = spawn(workload, rep_seed(seed, 0), "setup", env, deadline)
    if warm["result"] is None:
        raise RuntimeError(f"{workload}: set-up child exited {warm['exit_code']}")
    mode = "trace" if trace else "run"
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(spawn(workload, rep_seed(seed, len(reps)), mode, env, deadline))
        elapsed = time.perf_counter() - start
        typical = median(r["elapsed_s"] for r in reps)
        if elapsed + typical > LOOP_LIMIT_S:
            break
        if len(reps) >= MIN_REPS[mode] and elapsed >= seconds:
            break

    done = [r for r in reps if r["result"] is not None]
    failed = [r for r in reps if r["result"] is None or r["result"]["failures"]]
    for r in failed:
        why = r["result"]["failures"] if r["result"] else f"exit {r['exit_code']}"
        print(f"FAILED {workload} seed {r['seed']}: {why}", file=sys.stderr)
    if not done:
        raise RuntimeError(f"{workload}: every repetition crashed")

    out = {
        "workload": workload, "seed": seed, "trace": trace,
        "attempted": len(reps), "failed": len(failed), "samples_n": len(done),
        "env": {"nproc": len(os.sched_getaffinity(0)),
                "blas_threads": {v: env[v] for v in BLAS_VARS},
                "platform": platform.platform(), **warm["result"]["versions"],
                "loop": "closed, one client, one repetition at a time",
                "rep_seeds": [r["seed"] for r in reps]},
        "reps": [{k: v for k, v in r.items() if k != "result"}
                 | {k: v for k, v in (r["result"] or {}).items()
                    if k not in ("spans", "layers", "versions")}
                 for r in reps],
    }
    if trace:
        names = done[0]["result"]["layers"]
        out["metrics"] = {k: median([r["result"]["layers"][k] for r in done])
                          for k in names}
        out["spans"] = [s for r in done for s in r["result"]["spans"]]
        return out

    timings = [r["result"] for r in done]
    extra = {"peak_rss_import_mb": warm["peak_rss_mb"],
             "failed_frac": len(failed) / len(reps),
             "wall_raw_s": median([t["wall_s"] for t in timings]),
             "setup_raw_s": median([t["setup_s"] for t in timings]),
             "calibration_s": median([c for t in timings for c in t["calibrations_s"]])}
    outs = [r["result"]["outputs"] for r in done]
    if "wwr_rd_vs_mc" in outs[0]:
        extra.update(approx_wwr_s=median([o["approx_wwr_s"] for o in outs]),
                     mc_wwr_s=median([o["mc_wwr_s"] for o in outs]),
                     fva_rd_pct=median([abs(o["wwr_rd_vs_mc"]) for o in outs]),
                     wwr_gap_se=median([o["wwr_gap_se"] for o in outs]))
    out["metrics"] = {
        "wall_s": CAL_REF_S * median([t["wall_in_calibrations"] for t in timings]),
        "setup_s": CAL_REF_S * median([t["setup_in_calibrations"] for t in timings]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in done]),
    }
    out["extra"] = extra
    return out


def report(res: dict) -> None:
    """Human-readable lines: every metric by name, unit and sample count."""
    n = res["samples_n"]
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"trace {int(res['trace'])}  repetitions {res['attempted']}  "
          f"failed {res['failed']}")
    units = PER_LAYER if res["trace"] else {**END_TO_END, **EXTRA_UNITS}
    values = {**res["metrics"], **res.get("extra", {})}
    basis = {"peak_rss_import_mb": "one set-up-only child",
             "failed_frac": f"of {res['attempted']} attempted"}
    for name, unit in units.items():
        if name in values:
            print(f"  {name:<38} {values[name]:>14.6g} {unit:<6} "
                  f"{basis.get(name, f'median of {n}')}")
    if not res["trace"]:
        w = [r["wall_s"] for r in res["reps"] if "wall_s" in r]
        print(f"  {'wall_s range':<38} {min(w):>14.6g} .. {max(w):.6g} s")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    for need in ("src/wwrfva/fva.py", "fixtures/single_swap.cfg",
                 "fixtures/portfolio.cfg"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"error: {need} not found; run from a checkout of the "
                  f"repository", file=sys.stderr)
            return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if name == names[0]:
            print("env " + json.dumps(res["env"] | {"seed": args.seed}))
        report(res)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1)
        results.append(res)

    units = PER_LAYER if args.trace else END_TO_END
    prefix = len(names) > 1
    metrics = {(f"{r['workload']}.{k}" if prefix else k): {"value": v, "unit": units[k]}
               for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
