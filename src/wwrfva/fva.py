"""Run orchestration: one streamed simulation -> exposure profiles -> FVA report.

The funding adjustment is the time integral of the discounted expected
positive exposure weighted by the expected funding spread. The profile
splits into an independent part (read from the market drivers of the
run's one simulation) and a WWR part computed by the configured method:

  mc              jointly simulated credit paths (benchmark),
  approx_generic  Gaussian projection + moments averaged on market paths,
  approx_analytic Gaussian projection + closed-form swap moments.

The simulation is streamed: each monitoring date is valued and averaged
as soon as it is simulated, so a run's memory scales with paths x
factors, not with dates; only the bounds report and the cube export
store every date.

Timings isolate the WWR stage: for the benchmark that is the credit
part of the simulation plus the covariance estimator; for the
approximation it is the driver moments and the assembly.
"""

from __future__ import annotations

import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import yaml

from . import __version__
from .curves import MarketData, load_market_data
from .exposure import (BaseMoments, ExposureProfile, coeffs_for_dates, epe_indep,
                       epe_wwr_approx_generic, epe_wwr_approx_swap_analytic,
                       exposure_at, wwr_mc_at, y_moments_at)
from .instruments import Portfolio, PortfolioValuation, load_portfolio
from .mc import (CorrelationMatrix, PathStream, SimGrid, build_correlation,
                 factor_labels)
from .models import (CirppParams, GbmFxParams, Hw1fParams, ModelSet,
                     QuantoAdjust)

METHODS = ("mc", "approx_generic", "approx_analytic")


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class RunSettings:
    """Numeric knobs of one run (everything except market/portfolio data)."""

    method: str = "approx_generic"
    n_paths: int = 100_000
    seed: int = 1
    dates_per_year: int = 10
    substeps_per_interval: int = 4
    horizon: Optional[float] = None  # defaults to portfolio maturity
    n_r: int = 5
    n_a: int = 5
    benchmark: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.n_paths < 2:
            raise ValueError(f"n_paths must be at least 2 (a Monte Carlo standard "
                             f"error needs two paths), got {self.n_paths}")
        if self.dates_per_year < 1:
            raise ValueError("dates_per_year must be positive")
        if not (0 <= self.n_r <= 20 and 0 <= self.n_a <= 20):
            raise ValueError("truncation orders must be in 0..20")


@dataclass
class RunInputs:
    """Loaded market data, model parameters, correlations and portfolio."""

    market: MarketData
    rate_params: dict[str, dict]     # ccy -> {x0, a, sigma}
    fx_params: dict[str, dict]       # ccy -> {sigma_fx}
    credit_params: dict[str, dict]   # entity -> {x0, a, theta, sigma, lgd}
    correlations: dict[str, float]   # "factor_a:factor_b" -> rho
    portfolio: Portfolio

    def copy(self) -> "RunInputs":
        import copy
        return copy.deepcopy(self)


def load_run_config(path) -> tuple[RunInputs, RunSettings]:
    """Read a run configuration file (YAML); data paths resolve relative to it."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"config {path}: expected a mapping")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    market = load_market_data(resolve(doc["market"]))
    portfolio = load_portfolio(resolve(doc["portfolio"]))
    models = doc.get("models", {})
    grid = doc.get("grid", {})
    sim = doc.get("simulation", {})
    orders = doc.get("orders", {})
    settings = RunSettings(
        method=str(doc.get("method", "approx_generic")),
        n_paths=int(sim.get("n_paths", 100_000)),
        seed=int(sim.get("seed", 1)),
        dates_per_year=int(grid.get("dates_per_year", 10)),
        substeps_per_interval=int(grid.get("substeps_per_interval", 4)),
        horizon=(float(grid["horizon"]) if "horizon" in grid else None),
        n_r=int(orders.get("n_r", 5)),
        n_a=int(orders.get("n_a", 5)),
    )
    inputs = RunInputs(
        market=market,
        rate_params={k: dict(v) for k, v in (models.get("rates") or {}).items()},
        fx_params={k: dict(v) for k, v in (models.get("fx") or {}).items()},
        credit_params={k: dict(v) for k, v in (models.get("credit") or {}).items()},
        correlations={str(k): float(v) for k, v in (doc.get("correlations") or {}).items()},
        portfolio=portfolio,
    )
    validate_inputs(inputs, settings)
    return inputs, settings


def validate_inputs(inputs: RunInputs, settings: RunSettings) -> None:
    if set(inputs.credit_params) != {"I", "C"}:
        raise ValueError("models.credit must hold exactly the entities I and C, "
                         f"found {sorted(inputs.credit_params)}")
    if settings.method == "approx_analytic":
        s = inputs.portfolio.single_swap
        if s is None:
            raise ValueError("approx_analytic requires a single-swap portfolio")
        if s.currency != inputs.market.domestic:
            raise ValueError("approx_analytic requires a domestic-currency swap")
    for ccy in inputs.portfolio.currencies:
        inputs.market.rate_curve(ccy)
        if ccy not in inputs.rate_params:
            raise ValueError(f"no rate model parameters for currency {ccy}")
        if ccy != inputs.market.domestic and ccy not in inputs.fx_params:
            raise ValueError(f"no FX model parameters for currency {ccy}")


def build_model_set(inputs: RunInputs) -> ModelSet:
    """Wire parameter records and curves into process objects."""
    from .mc import fx_factor, rate_factor
    dom = inputs.market.domestic
    rates: dict[str, Hw1fParams] = {}
    for ccy, rp in inputs.rate_params.items():
        quanto = None
        if ccy != dom and ccy in inputs.fx_params:
            key_a = f"{rate_factor(ccy)}:{fx_factor(ccy)}"
            key_b = f"{fx_factor(ccy)}:{rate_factor(ccy)}"
            rho = inputs.correlations.get(key_a, inputs.correlations.get(key_b, 0.0))
            quanto = QuantoAdjust(rho_rf_fx=rho,
                                  sigma_fx=float(inputs.fx_params[ccy]["sigma_fx"]))
        rates[ccy] = Hw1fParams(
            x0=float(rp.get("x0", 0.0)), a=float(rp["a"]), sigma=float(rp["sigma"]),
            curve=inputs.market.rate_curve(ccy), quanto=quanto)
    fx = {ccy: GbmFxParams(spot=inputs.market.fx_spots[ccy],
                           sigma_fx=float(fp["sigma_fx"]))
          for ccy, fp in inputs.fx_params.items()}
    credit = {ent: CirppParams(
        x0=float(cp["x0"]), a=float(cp["a"]), theta=float(cp["theta"]),
        sigma=float(cp["sigma"]), lgd=float(cp.get("lgd", 0.6)),
        curve=inputs.market.credit_curve(ent))
        for ent, cp in inputs.credit_params.items()}
    return ModelSet(domestic=dom, rates=rates, fx=fx, credit=credit)


def build_correlation_for(models: ModelSet,
                          entries: dict[str, float]) -> CorrelationMatrix:
    return build_correlation(factor_labels(models), entries)


def make_grid(inputs: RunInputs, settings: RunSettings) -> SimGrid:
    horizon = settings.horizon
    if horizon is None:
        horizon = inputs.portfolio.horizon
    if horizon < inputs.portfolio.horizon - 1e-9:
        raise ValueError("grid horizon shorter than portfolio maturity")
    return SimGrid.regular(settings.dates_per_year, horizon,
                           settings.substeps_per_interval)


# ---------------------------------------------------------------------------
# integration and report

def integrate_profile(profile: ExposureProfile) -> tuple[float, float]:
    """Right-endpoint rectangle rule; the date-0 value never enters."""
    dt = np.diff(profile.dates)
    if len(dt) == 0:
        raise ValueError("profile has fewer than two dates")
    return (float(np.sum(dt * profile.epe_indep[1:])),
            float(np.sum(dt * profile.epe_wwr[1:])))


@dataclass
class FvaReport:
    fva_indep: float
    fva_wwr: float
    method: str
    wwr_rd_vs_mc: Optional[float] = None       # relative difference, percent
    fva_wwr_mc: Optional[float] = None
    fva_wwr_mc_se: Optional[float] = None
    runtime_wwr_seconds: float = 0.0
    runtime_benchmark_wwr_seconds: Optional[float] = None
    peak_rss_mb: Optional[float] = None          # of the process, at the run's end
    profile: Optional[ExposureProfile] = None
    benchmark_profile: Optional[ExposureProfile] = None
    truncated_fraction: float = 0.0
    settings: Optional[RunSettings] = None
    config_echo: dict = field(default_factory=dict)
    version: str = __version__

    @property
    def fva_total(self) -> float:
        return self.fva_indep + self.fva_wwr

    @property
    def wwr_pct(self) -> float:
        return 100.0 * self.fva_wwr / self.fva_indep if self.fva_indep else 0.0

    def to_dict(self, include_timings: bool = True) -> dict:
        out = {
            "version": self.version,
            "method": self.method,
            "fva_indep": self.fva_indep,
            "fva_wwr": self.fva_wwr,
            "fva_total": self.fva_total,
            "wwr_pct": self.wwr_pct,
            "wwr_rd_vs_mc": self.wwr_rd_vs_mc,
            "fva_wwr_mc": self.fva_wwr_mc,
            "fva_wwr_mc_se": self.fva_wwr_mc_se,
            "truncated_fraction": self.truncated_fraction,
            "config_echo": self.config_echo,
        }
        if include_timings:
            out["runtime_wwr_seconds"] = self.runtime_wwr_seconds
            out["runtime_benchmark_wwr_seconds"] = self.runtime_benchmark_wwr_seconds
            out["peak_rss_mb"] = self.peak_rss_mb
        return out


def _settings_echo(settings: RunSettings) -> dict:
    return {
        "method": settings.method, "n_paths": settings.n_paths,
        "seed": settings.seed, "dates_per_year": settings.dates_per_year,
        "substeps_per_interval": settings.substeps_per_interval,
        "horizon": settings.horizon, "n_r": settings.n_r, "n_a": settings.n_a,
    }


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (2^20 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2.0 ** 20 if sys.platform == "darwin" else peak / 1024.0


def run_fva(inputs: RunInputs, settings: RunSettings) -> FvaReport:
    """Full pipeline: simulate, split the exposure, integrate, compare.

    The simulation is consumed one monitoring date at a time: each date's
    drivers are valued and fed to the per-date estimators, then dropped,
    so no array in the run grows with the number of dates times paths.
    """
    validate_inputs(inputs, settings)
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    grid = make_grid(inputs, settings)
    p = inputs.portfolio
    dates = grid.monitoring_dates
    n_dates = len(dates)

    is_mc = settings.method == "mc"
    is_generic = settings.method == "approx_generic"
    need_full = is_mc or settings.benchmark
    # one pass: a full simulation's market drivers equal a base one's (see mc)
    stream = PathStream(models, corr, grid, settings.n_paths, settings.seed,
                        "full" if need_full else "base")
    valuation = PortfolioValuation(p, models, dates)
    coeffs = coeffs_for_dates(models, corr, dates, settings.n_r)

    # Shared prerequisites: the discounted exposure and the per-date
    # coefficients enter both the coupling-free part and either WWR
    # estimator, so neither WWR stage is charged for them. The generic
    # approximation's extra work is the driver-moment averaging plus the
    # series assembly; the closed-form one's is its moments plus the
    # assembly; the benchmark's is the credit simulation plus the
    # covariance estimator. Only the generic method reads the sampled
    # driver moments, so only it computes them.
    disc_epe, disc_epe_se = np.zeros(n_dates), np.zeros(n_dates)
    n_moments = settings.n_r + 3 if is_generic else 0
    moms, moms_se = np.zeros((n_moments, n_dates)), np.zeros((n_moments, n_dates))
    pows = np.empty((n_moments, settings.n_paths))
    wwr_mc, se_mc = np.zeros(n_dates), np.zeros(n_dates)
    moment_seconds = cov_seconds = 0.0
    for st in stream:
        i = st.index
        v = valuation.row(st)
        h, disc_epe[i], disc_epe_se[i] = exposure_at(st, v)
        if is_generic:
            t0 = time.perf_counter()
            moms[:, i], moms_se[:, i] = y_moments_at(st.y_r[models.domestic], v, pows)
            moment_seconds += time.perf_counter() - t0
        if need_full and i > 0:
            t0 = time.perf_counter()
            wwr_mc[i], se_mc[i] = wwr_mc_at(st, h, disc_epe[i], coeffs)
            cov_seconds += time.perf_counter() - t0
    bm = BaseMoments(dates=dates.copy(), disc_epe=disc_epe, disc_epe_se=disc_epe_se,
                     y_moments=moms, y_moments_se=moms_se,
                     y_moment_seconds=moment_seconds)

    indep = epe_indep(bm, coeffs, models)
    bench_seconds = stream.credit_seconds + cov_seconds if need_full else None

    if is_mc:
        wwr, wwr_seconds = wwr_mc, bench_seconds
    else:
        t0 = time.perf_counter()
        if is_generic:
            wwr = epe_wwr_approx_generic(coeffs, bm)
        else:
            wwr = epe_wwr_approx_swap_analytic(p.single_swap, models, coeffs, bm,
                                               settings.n_r, settings.n_a)
        wwr_seconds = bm.y_moment_seconds + (time.perf_counter() - t0)
    profile = ExposureProfile(dates=dates.copy(), epe_indep=indep, epe_wwr=wwr,
                              method=settings.method, se_wwr=se_mc if is_mc else None,
                              se_indep=bm.disc_epe_se.copy())

    fva_i, fva_w = integrate_profile(profile)
    report = FvaReport(
        fva_indep=fva_i, fva_wwr=fva_w, method=settings.method,
        runtime_wwr_seconds=wwr_seconds, profile=profile,
        truncated_fraction=stream.truncated_fraction, settings=settings,
        config_echo=_settings_echo(settings))

    if need_full:
        # the one MC profile: the run's own under "mc", else the benchmark's
        bench_profile = profile
        if not is_mc:
            bench_profile = ExposureProfile(
                dates=dates.copy(), epe_indep=indep, epe_wwr=wwr_mc,
                method="mc", se_wwr=se_mc)
            report.benchmark_profile = bench_profile
            report.runtime_benchmark_wwr_seconds = bench_seconds
        report.fva_wwr_mc = integrate_profile(bench_profile)[1]
        report.fva_wwr_mc_se = float(np.sqrt(np.sum((np.diff(dates) * se_mc[1:]) ** 2)))
        fva_mc_total = fva_i + report.fva_wwr_mc
        if not is_mc and fva_mc_total != 0.0:
            report.wwr_rd_vs_mc = 100.0 * (report.fva_total - fva_mc_total) / fva_mc_total

    report.peak_rss_mb = _peak_rss_mb()
    return report


# ---------------------------------------------------------------------------
# artifacts

def write_profile_csv(profile: ExposureProfile, path) -> None:
    def fmt(x):
        return repr(float(x))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date,epe_indep,epe_wwr,epe_total,se_wwr,method\n")
        for i, u in enumerate(profile.dates):
            se = fmt(profile.se_wwr[i]) if profile.se_wwr is not None else ""
            fh.write(f"{fmt(u)},{fmt(profile.epe_indep[i])},"
                     f"{fmt(profile.epe_wwr[i])},{fmt(profile.epe_total[i])},"
                     f"{se},{profile.method}\n")


def read_profile_csv(path) -> ExposureProfile:
    import csv
    dates, indep, wwr, se = [], [], [], []
    method = "approx_generic"
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            dates.append(float(row["date"]))
            indep.append(float(row["epe_indep"]))
            wwr.append(float(row["epe_wwr"]))
            se.append(float(row["se_wwr"]) if row["se_wwr"] else 0.0)
            method = row["method"]
    return ExposureProfile(dates=np.asarray(dates), epe_indep=np.asarray(indep),
                           epe_wwr=np.asarray(wwr), method=method,
                           se_wwr=np.asarray(se))


def write_report_json(report: FvaReport, path) -> None:
    import json
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
