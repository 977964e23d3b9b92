"""Benchmark workloads: their inputs, the user-facing call, a traced
replica of that call, and the checks on its outputs.

Each workload loads a shipped fixture and overrides the run settings
below; the benchmark passes in only the simulation seed. Why each
workload exists is recorded in README.md beside this file.
"""

from __future__ import annotations

import dataclasses
import math
import os
import statistics
from dataclasses import dataclass, field

import numpy as np

from wwrfva import bounds, exposure, fva, instruments, mc, sensitivities
from wwrfva.models import ModelSet

from run import PER_LAYER
from tracer import Tracer, self_times


@dataclass(frozen=True)
class Workload:
    kind: str                      # "fva", "sensi" or "bounds"
    config: str                    # fixture, relative to the repository root
    overrides: dict                # RunSettings fields replaced after loading
    bumps: tuple = ()              # sensitivity bumps, parsed by the engine
    max_rd_pct: float | None = None  # gate on |wwr_rd_vs_mc|, percent


WORKLOADS = {
    "swap_bench": Workload(
        "fva", "fixtures/single_swap.cfg",
        dict(method="approx_analytic", benchmark=True, n_paths=10_000,
             dates_per_year=10, substeps_per_interval=4),
        max_rd_pct=5.0),  # acceptance criterion 3
    "portfolio_bench": Workload(
        "fva", "fixtures/portfolio.cfg",
        dict(method="approx_generic", benchmark=True, n_paths=4_000,
             dates_per_year=5, substeps_per_interval=4)),
    "portfolio_sensi": Workload(
        "sensi", "fixtures/portfolio.cfg",
        dict(method="approx_generic", benchmark=False, n_paths=2_000,
             dates_per_year=4, substeps_per_interval=2),
        bumps=("ir_parallel:EUR", "credit_parallel:C",
               "correlation:r_EUR/lambda_I:0.01")),
    "swap_bounds": Workload(
        "bounds", "fixtures/single_swap.cfg",
        dict(n_paths=20_000, dates_per_year=2, substeps_per_interval=4)),
}

BOUND_ORDERS = (1, 2, 3)

# The portfolio receives fixed in every swap, so FVA falls when the
# domestic curve rises.
RECEIVER_DELTA = ("ir_parallel:EUR", -1.0)

# How far, in standard errors, an output may sit from its reference; the
# SE of the run and of the reference combine in quadrature.
# fva_indep: the engine reports no SE of the integral, so the SE is the
#   dt-weighted sum of the per-date SEs. Exposures at nearby dates are
#   strongly correlated, and that sum bounds the SD of the integral from
#   above: across ten seeds the SD was 0.56-0.75 of it.
# fva_wwr_mc: the engine's fva_wwr_mc_se, a root-sum-square over dates,
#   which treats the dates as independent and so understates the SD: across
#   8-10 seeds the SD was 3.3-3.9 times it. 16 of these SEs are about 4 SDs.
REF_TOLERANCE_SE = {"fva_indep": ("fva_indep_sum_se", 4.0),
                    "fva_wwr_mc": ("fva_wwr_mc_se", 16.0)}


# ---------------------------------------------------------------------------
# set-up and the untraced call

@dataclass
class Setup:
    inputs: fva.RunInputs
    settings: fva.RunSettings
    models: ModelSet
    corr: mc.CorrelationMatrix
    grid: mc.SimGrid
    bumps: list = field(default_factory=list)


def setup(wl: Workload, root: str, seed: int, tr: Tracer) -> Setup:
    """Load the fixture and build what every call needs, as the CLI does."""
    with tr.span("fva.load_run_config"):
        inputs, settings = fva.load_run_config(os.path.join(root, wl.config))
    settings = dataclasses.replace(settings, seed=seed, **wl.overrides)
    with tr.span("fva.build_model_set"):
        models = fva.build_model_set(inputs)
    with tr.span("fva.build_correlation_for"):
        corr = fva.build_correlation_for(models, inputs.correlations)
    with tr.span("fva.make_grid"):
        grid = fva.make_grid(inputs, settings)
    bumps = [sensitivities.parse_bump(b, inputs) for b in wl.bumps]
    return Setup(inputs, settings, models, corr, grid, bumps)


def parts(wl: Workload, s: Setup) -> list:
    """The workload's user-facing call as consecutive zero-argument parts:
    one per bump for the sensitivity set, else the whole call."""
    if wl.kind == "fva":
        return [lambda: fva.run_fva(s.inputs, s.settings)]
    if wl.kind == "sensi":
        return [lambda b=b: sensitivities.fd_sensitivity(s.inputs, s.settings, b)
                for b in s.bumps]

    def bound_rows():
        cube = mc.simulate(s.models, s.corr, s.grid, s.settings.n_paths,
                           s.settings.seed, "full")
        vm = instruments.value_matrix(s.inputs.portfolio, s.models, cube)
        return bounds.bound_report(s.inputs.portfolio.single_swap, s.models,
                                   cube, vm, s.settings.n_r, orders=BOUND_ORDERS)
    return [bound_rows]


def join(wl: Workload, results: list):
    """The call's result from the results of its parts."""
    return results if wl.kind == "sensi" else results[0]


def call(wl: Workload, s: Setup):
    """The workload's user-facing call, untraced."""
    return join(wl, [part() for part in parts(wl, s)])


def _fva_indep_sum_se(s: Setup, report: fva.FvaReport) -> float:
    # epe_indep is linear in the discounted EPE, so applied to the per-date
    # SE of the discounted EPE it gives the per-date SE of epe_indep.
    prof = report.profile
    n = len(prof.dates)
    coeffs = exposure.coeffs_for_dates(s.models, s.corr, prof.dates,
                                       s.settings.n_r)
    se_moments = exposure.BaseMoments(
        dates=prof.dates, disc_epe=prof.se_indep, disc_epe_se=np.zeros(n),
        y_moments=np.zeros((1, n)), y_moments_se=np.zeros((1, n)))
    se = exposure.epe_indep(se_moments, coeffs, s.models)
    return float(np.sum(np.diff(prof.dates) * np.abs(se[1:])))


def summarize(wl: Workload, s: Setup, result) -> dict:
    """Outputs of one call, as plain numbers."""
    if wl.kind == "fva":
        r = result
        return {
            "fva_indep": r.fva_indep, "fva_wwr": r.fva_wwr,
            "fva_wwr_mc": r.fva_wwr_mc, "fva_wwr_mc_se": r.fva_wwr_mc_se,
            "wwr_rd_vs_mc": r.wwr_rd_vs_mc,
            "approx_wwr_s": r.runtime_wwr_seconds,
            "mc_wwr_s": r.runtime_benchmark_wwr_seconds,
            "wwr_gap_se": abs(r.fva_wwr - r.fva_wwr_mc) / r.fva_wwr_mc_se,
            "fva_indep_sum_se": _fva_indep_sum_se(s, r),
        }
    if wl.kind == "sensi":
        return {"rows": [{"target": r.target, "d_fva_indep": r.d_fva_indep,
                          "d_fva_wwr": r.d_fva_wwr,
                          "d_fva_total": r.d_fva_total} for r in result]}
    return {"rows": len(result),
            "rows_per_date": len(result) / (s.grid.n_dates - 1)}


# ---------------------------------------------------------------------------
# output checks

def reference_key(s: Setup) -> dict:
    """Settings a reference was recorded under; a mismatch voids it."""
    st = s.settings
    return {"seed": st.seed, "n_paths": st.n_paths, "method": st.method,
            "dates_per_year": st.dates_per_year,
            "substeps_per_interval": st.substeps_per_interval}


def reference(wl: Workload, s: Setup, summary: dict) -> dict:
    """What later runs at other seeds are compared against."""
    ref = {"recorded_with": reference_key(s)}
    if wl.kind == "fva":
        for k, (se_k, _) in REF_TOLERANCE_SE.items():
            ref[k], ref[se_k] = summary[k], summary[se_k]
    elif wl.kind == "bounds":
        ref["rows_per_date"] = summary["rows_per_date"]
    return ref


def check(wl: Workload, s: Setup, result, summary: dict,
          ref: dict | None) -> list[str]:
    """Failures of one call's outputs; empty when they are all correct.

    With `ref` None (while recording references) only the checks that
    need no reference run.
    """
    bad = []

    def finite(label, values):
        if not np.all(np.isfinite(np.asarray(values, dtype=float))):
            bad.append(f"non-finite {label}")

    if ref is not None:
        key = dict(ref["recorded_with"], seed=s.settings.seed)
        if key != reference_key(s):
            bad.append(f"reference recorded with {ref['recorded_with']}, "
                       f"run uses {reference_key(s)}")
            return bad

    if wl.kind == "fva":
        r = result
        for k, v in summary.items():
            finite(k, v)
        for prof in (r.profile, r.benchmark_profile):
            finite("profile", [prof.epe_indep, prof.epe_wwr])
        finite("se_wwr", r.benchmark_profile.se_wwr)
        if wl.max_rd_pct is not None and not abs(r.wwr_rd_vs_mc) <= wl.max_rd_pct:
            bad.append(f"|wwr_rd_vs_mc| = {abs(r.wwr_rd_vs_mc):.3f} % "
                       f"> {wl.max_rd_pct} %")
        if ref is not None:
            for k, (se_k, n_se) in REF_TOLERANCE_SE.items():
                tol = n_se * math.hypot(summary[se_k], ref[se_k])
                if not abs(summary[k] - ref[k]) <= tol:
                    bad.append(f"{k} = {summary[k]!r} is more than {n_se} SE "
                               f"({tol:.4g}) from reference {ref[k]!r}")
    elif wl.kind == "sensi":
        for row in result:
            finite(row.target, [row.d_fva_indep, row.d_fva_wwr])
            if row.d_fva_total != row.d_fva_indep + row.d_fva_wwr:
                bad.append(f"{row.target}: d_total != d_indep + d_wwr")
        target, sign = RECEIVER_DELTA
        rows = [r for r in result if r.target == target]
        if len(rows) != 1 or np.sign(rows[0].d_fva_total) != sign:
            bad.append(f"{target}: expected one row with delta sign {sign:+.0f}")
    else:
        for row in result:
            finite(f"bound row at {row.date}",
                   [v for v in dataclasses.astuple(row)[4:] if v is not None]
                   + [row.date])
            if not (row.bound >= 0.0 and (row.cvm is None or row.cvm >= 0.0)
                    and (row.wasserstein is None or row.wasserstein >= 0.0)):
                bad.append(f"negative bound or distance in {row}")
        if ref is not None:
            want = round(ref["rows_per_date"] * (s.grid.n_dates - 1))
            if len(result) != want:
                bad.append(f"{len(result)} bound rows, expected {want}")
    return bad


# ---------------------------------------------------------------------------
# traced replicas: the same calls into the engine, one span around each

def _cube_bytes(cube: mc.ScenarioCube) -> int:
    slabs = [*cube.y_r.values(), *cube.Y_r.values(), *cube.ln_fx.values(),
             cube.y_I, cube.Y_I, cube.Y_C]
    return sum(a.nbytes for a in slabs if a is not None)


def _traced_simulate(tr, models, corr, grid, n_paths, seed, mode):
    with tr.span("mc.simulate", mode=mode) as sp:
        cube = mc.simulate(models, corr, grid, n_paths, seed, mode)
    n_factors = len(mc.factor_labels(models))
    if mode == "base":
        n_factors -= len(models.credit)
    sp.update(path_steps=n_paths * (grid.n_dates - 1)
              * grid.substeps_per_interval * n_factors,
              cube_bytes=_cube_bytes(cube), credit_s=cube.credit_seconds,
              truncated_fraction=cube.truncated_fraction)
    return cube


def _traced_value_matrix(tr, p, models, cube):
    with tr.span("instruments.value_matrix") as sp:
        vm = instruments.value_matrix(p, models, cube)
    sp.update(valuations=len(p.instruments) * len(cube.dates) * cube.n_paths,
              bytes=vm.nbytes)
    return vm


def traced_run_fva(tr: Tracer, inputs: fva.RunInputs,
                   settings: fva.RunSettings) -> tuple[float, float, float | None]:
    """fva.run_fva's pipeline in its call order; returns the three FVAs."""
    if settings.method == "mc":
        raise ValueError("the replica covers the approximation methods only")
    with tr.span("fva.run_fva"):
        fva.validate_inputs(inputs, settings)
        with tr.span("fva.build_model_set"):
            models = fva.build_model_set(inputs)
        corr = fva.build_correlation_for(models, inputs.correlations)
        grid = fva.make_grid(inputs, settings)
        p = inputs.portfolio
        n, seed, n_r = settings.n_paths, settings.seed, settings.n_r

        cube_base = _traced_simulate(tr, models, corr, grid, n, seed, "base")
        vm = _traced_value_matrix(tr, p, models, cube_base)
        with tr.span("exposure.base_moments") as sp:
            bm = exposure.base_moments(cube_base, p, models, n_r, value_mat=vm)
        sp["y_moment_s"] = bm.y_moment_seconds
        with tr.span("exposure.coeffs_for_dates"):
            coeffs = exposure.coeffs_for_dates(models, corr, cube_base.dates, n_r)
        with tr.span("exposure.epe_indep"):
            indep = exposure.epe_indep(bm, coeffs, models)
        wwr_mc = None
        if settings.benchmark:
            cube_full = _traced_simulate(tr, models, corr, grid, n, seed, "full")
            with tr.span("exposure.epe_wwr_mc"):
                wwr_mc, _ = exposure.epe_wwr_mc(cube_full, p, models, bm, coeffs,
                                                value_mat=vm)
        with tr.span("exposure.wwr_approx"):
            if settings.method == "approx_generic":
                wwr = exposure.epe_wwr_approx_generic(coeffs, bm)
            else:
                wwr = exposure.epe_wwr_approx_swap_analytic(
                    p.single_swap, models, coeffs, bm, n_r, settings.n_a)

        fva_i, fva_w = fva.integrate_profile(exposure.ExposureProfile(
            dates=cube_base.dates.copy(), epe_indep=indep, epe_wwr=wwr,
            method=settings.method))
        fva_w_mc = None
        if wwr_mc is not None:
            _, fva_w_mc = fva.integrate_profile(exposure.ExposureProfile(
                dates=cube_base.dates.copy(), epe_indep=indep, epe_wwr=wwr_mc,
                method="mc"))
    return fva_i, fva_w, fva_w_mc


def replica(wl: Workload, s: Setup, tr: Tracer):
    """The workload's call rebuilt from public engine functions, traced."""
    if wl.kind == "fva":
        return traced_run_fva(tr, s.inputs, s.settings)
    if wl.kind == "sensi":
        rows = []
        leg = dataclasses.replace(s.settings, benchmark=False)
        for bump in s.bumps:
            if bump.scheme != "central":
                raise ValueError("the replica covers central differences only")
            with tr.span("sensitivities.fd_sensitivity", legs=2):
                up = traced_run_fva(tr, sensitivities.apply_bump(s.inputs, bump, +1.0), leg)
                dn = traced_run_fva(tr, sensitivities.apply_bump(s.inputs, bump, -1.0), leg)
            rows.append(((up[0] - dn[0]) / (2.0 * bump.size),
                         (up[1] - dn[1]) / (2.0 * bump.size)))
        return rows
    p = s.inputs.portfolio
    cube = _traced_simulate(tr, s.models, s.corr, s.grid, s.settings.n_paths,
                            s.settings.seed, "full")
    vm = _traced_value_matrix(tr, p, s.models, cube)
    with tr.span("bounds.credit_moment_table"):
        tab = bounds.credit_moment_table(cube)
    with tr.span("bounds.bound_report") as sp:
        rows = bounds.bound_report(p.single_swap, s.models, cube, vm,
                                   s.settings.n_r, orders=BOUND_ORDERS, tab=tab)
    sp["rows"] = len(rows)
    return rows


def replica_mismatch(wl: Workload, result, rep) -> list[str]:
    """Where the traced replica differs, bit for bit, from the engine's call."""
    if wl.kind == "fva":
        want = (result.fva_indep, result.fva_wwr, result.fva_wwr_mc)
    elif wl.kind == "sensi":
        want = [(r.d_fva_indep, r.d_fva_wwr) for r in result]
    else:
        # repr is exact for floats and treats NaN as equal to itself
        want = [repr(dataclasses.astuple(r)) for r in result]
        rep = [repr(dataclasses.astuple(r)) for r in rep]
    if rep != want:
        return [f"traced replica drifted from the engine: {rep!r} != {want!r}"[:400]]
    return []


def layer_metrics(spans: list[dict], untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition; 0 for layers not called."""
    own = self_times(spans)
    m = dict.fromkeys(PER_LAYER, 0.0)
    leg_s, bump_s = [], []
    cube_bytes: dict = {}
    for sp in spans:
        name, t = sp["name"], own[sp["id"]]
        if name == "mc.simulate":
            m[f"mc.simulate.{sp['mode']}_s"] += t
            m["mc.simulate.path_steps"] += sp["path_steps"]
            m["mc.simulate.credit_s"] += sp["credit_s"]
            m["mc.simulate.truncated_fraction"] = max(
                m["mc.simulate.truncated_fraction"], sp["truncated_fraction"])
            # cubes of one pipeline call are alive together
            cube_bytes[sp["parent"]] = cube_bytes.get(sp["parent"], 0) + sp["cube_bytes"]
        elif name == "instruments.value_matrix":
            m["instruments.value_matrix.s"] += t
            m["instruments.value_matrix.valuations"] += sp["valuations"]
            m["instruments.value_matrix.mb"] = max(
                m["instruments.value_matrix.mb"], sp["bytes"] / 1e6)
        elif name == "fva.run_fva":
            m["fva.run_fva.calls"] += 1
            leg_s.append(sp["end"] - sp["start"])
        elif name == "sensitivities.fd_sensitivity":
            m["sensitivities.fd_sensitivity.legs"] += sp["legs"]
            bump_s.append(sp["end"] - sp["start"])
        elif name == "workload":
            m["workload.self_s"] = t
            m["trace.traced_s"] = sp["end"] - sp["start"]
        elif name + ".s" in m:
            m[name + ".s"] += t
        if name == "exposure.base_moments":
            m["exposure.base_moments.y_moment_s"] += sp["y_moment_s"]
        elif name == "bounds.bound_report":
            m["bounds.bound_report.rows"] += sp["rows"]
    m["mc.simulate.cube_mb"] = max(cube_bytes.values(), default=0) / 1e6
    m["fva.run_fva.s"] = statistics.median(leg_s) if leg_s else 0.0
    m["sensitivities.fd_sensitivity.s"] = statistics.median(bump_s) if bump_s else 0.0
    m["trace.untraced_s"] = untraced_s
    m["trace.overhead_s"] = m["trace.traced_s"] - untraced_s
    return m
