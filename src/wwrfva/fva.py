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
factors, not with dates; only the cube export stores every date. Each
pass is checked against memory once, before it draws, for all it holds.
`run_fva_legs` runs several input sets (the legs of a sensitivity) on
as few passes as their simulation inputs allow.

Timings isolate the WWR stage: for the benchmark that is the credit
part of the simulation plus the covariance estimator; for the
approximation it is the driver moments and the assembly. Each is CPU
time of the thread that runs it (`time.thread_time`): the draw worker's
and the BLAS threads' contention for the cores is not charged to it.
"""

from __future__ import annotations

import dataclasses
import math
import os
import resource
import sys
import time
from contextlib import closing
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import METHODS, __version__
from .curves import (MarketData, check_keys, finite, integer, load_market_data,
                     load_yaml, number)
from .exposure import (BaseMoments, DateTile, ExposureProfile, coeffs_for_dates,
                       epe_indep, epe_wwr_approx_generic, epe_wwr_approx_swap_analytic,
                       tile_dates, wwr_mc_at)
from .instruments import (ROW_TEMPORARIES, FxForward, Portfolio, PortfolioValuation,
                          book_buffer, book_groups, book_rows, buffer_rows,
                          load_portfolio)
from .mc import (CorrelationMatrix, PathStream, SimGrid, build_correlation,
                 exposure_not_finite, factor_labels, fx_factor, pair_key,
                 pass_numpy_state, rate_factor, shared_pass)
from .models import (CirppParams, GbmFxParams, Hw1fParams, ModelSet,
                     QuantoAdjust, shared_terms)


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
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.n_paths < 2:
            raise ValueError(f"n_paths must be at least 2 (a Monte Carlo standard "
                             f"error needs two paths), got {self.n_paths}")
        if self.dates_per_year < 1:
            raise ValueError("dates_per_year must be positive")
        if self.substeps_per_interval < 1:
            raise ValueError(f"substeps_per_interval must be at least 1, "
                             f"got {self.substeps_per_interval}")
        if not (0 <= self.n_r <= 20 and 0 <= self.n_a <= 20):
            raise ValueError("truncation orders must be in 0..20")
        if self.horizon is not None and not 0.0 < self.horizon < math.inf:
            raise ValueError(f"grid.horizon must be finite and positive, "
                             f"got {self.horizon!r}")


@dataclass
class RunInputs:
    """Loaded market data, model parameters and correlations (floats) and
    portfolio."""

    market: MarketData
    rate_params: dict[str, dict]     # ccy -> {x0, a, sigma}
    fx_params: dict[str, dict]       # ccy -> {sigma_fx}
    credit_params: dict[str, dict]   # entity -> {x0, a, theta, sigma, lgd}
    correlations: dict[str, float]   # "factor_a:factor_b" -> rho
    portfolio: Portfolio

    def copy(self) -> "RunInputs":
        import copy
        return copy.deepcopy(self)


# The settings each config section may hold, with the reader of each; their
# defaults are RunSettings'. A model record may hold only its parameters.
# The loader refuses any other key rather than run on a default.
_SETTINGS = {"grid": {"dates_per_year": integer, "substeps_per_interval": integer,
                      "horizon": number},
             "simulation": {"n_paths": integer, "seed": integer},
             "orders": {"n_r": integer, "n_a": integer}}
# a model record's keys: the fields of its parameter class in models
_MODEL_PARAMS = {"rates": ("x0", "a", "sigma"), "fx": ("sigma_fx",),
                 "credit": ("x0", "a", "theta", "sigma", "lgd")}
# the parameters that build_model_set defaults; a record must hold the rest
_MODEL_DEFAULTS = {"rates": {"x0": 0.0}, "fx": {}, "credit": {"lgd": 0.6}}
_CONFIG_KEYS = ("market", "portfolio", "method", "models", "correlations", *_SETTINGS)


def load_run_config(path) -> tuple[RunInputs, RunSettings]:
    """Read a run configuration file (YAML); data paths resolve relative to it."""
    doc = load_yaml(path, "config")
    check_keys(f"config {path}", doc, _CONFIG_KEYS)
    for key in ("market", "portfolio"):
        if key not in doc:
            raise ValueError(f"config {path}: missing key {key!r}")
        if not isinstance(doc[key], str):
            raise ValueError(f"config {path}: {key!r} must name a file, got {doc[key]!r}")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    market = load_market_data(resolve(doc["market"]))
    portfolio = load_portfolio(resolve(doc["portfolio"]))
    models = doc.get("models", {})
    check_keys("config models", models, _MODEL_PARAMS)
    params = {kind: {} for kind in _MODEL_PARAMS}
    for kind, allowed in _MODEL_PARAMS.items():
        section = models.get(kind) or {}
        if not isinstance(section, dict):
            raise ValueError(f"config {path}: models.{kind}: expected a mapping "
                             f"of names to records, got {section!r}")
        for name, record in section.items():
            where = f"config {path}: models.{kind}.{name}"
            check_keys(where, record, allowed,
                       [k for k in allowed if k not in _MODEL_DEFAULTS[kind]])
            params[kind][name] = {k: finite(where, k, v) for k, v in record.items()}
    fields = {"method": str(doc["method"])} if "method" in doc else {}
    for section, readers in _SETTINGS.items():
        check_keys(f"config {section}", doc.get(section, {}), readers)
        fields.update((k, readers[k](f"config {path}", f"{section}.{k}", v))
                      for k, v in doc.get(section, {}).items())
    inputs = RunInputs(
        market=market,
        rate_params=params["rates"], fx_params=params["fx"],
        credit_params=params["credit"],
        correlations={str(k): number(f"config {path}: correlations", k, v)
                      for k, v in (doc.get("correlations") or {}).items()},
        portfolio=portfolio,
    )
    try:
        settings = RunSettings(**fields)
        validate_inputs(inputs, settings)
    except ValueError as exc:
        raise ValueError(f"config {path}: {exc}") from None
    return inputs, settings


def validate_inputs(inputs: RunInputs, settings: RunSettings) -> None:
    if set(inputs.credit_params) != {"I", "C"}:
        raise ValueError("models.credit must hold exactly the entities I and C, "
                         f"found {sorted(inputs.credit_params)}")
    m = inputs.market
    for ccy in inputs.rate_params:
        if ccy != m.domestic and ccy not in m.foreign_curves:
            raise ValueError(f"models.rates.{ccy}: the market data has no yield "
                             f"curve for {ccy}")
    for ccy in inputs.fx_params:
        if ccy not in m.foreign_curves:
            raise ValueError(f"models.fx.{ccy}: {ccy} is not a foreign currency of "
                             "the market data (a yield curve and an FX spot)")
    if settings.method == "approx_analytic":
        s = inputs.portfolio.single_swap
        if s is None:
            raise ValueError("approx_analytic requires a single-swap portfolio")
        if s.currency != inputs.market.domestic:
            raise ValueError("approx_analytic requires a domestic-currency swap")
    for inst in inputs.portfolio.instruments:
        if isinstance(inst, FxForward) and inst.currency == inputs.market.domestic:
            raise ValueError(f"{inst} is in the domestic currency; an FX forward "
                             "must buy or sell a foreign one")
    for ccy in inputs.portfolio.currencies:
        inputs.market.rate_curve(ccy)
        if ccy not in inputs.rate_params:
            raise ValueError(f"no rate model parameters for currency {ccy}")
        if ccy != inputs.market.domestic and ccy not in inputs.fx_params:
            raise ValueError(f"no FX model parameters for currency {ccy}")


def build_model_set(inputs: RunInputs) -> ModelSet:
    """Wire parameter records and curves into process objects."""
    dom = inputs.market.domestic
    rates: dict[str, Hw1fParams] = {}
    for ccy, rp in inputs.rate_params.items():
        quanto = None
        if ccy != dom and ccy in inputs.fx_params:
            rho = inputs.correlations.get(
                pair_key(inputs.correlations, f"{rate_factor(ccy)}:{fx_factor(ccy)}"), 0.0)
            quanto = QuantoAdjust(rho_rf_fx=rho,
                                  sigma_fx=inputs.fx_params[ccy]["sigma_fx"])
        rates[ccy] = Hw1fParams(**{**_MODEL_DEFAULTS["rates"], **rp},
                                curve=inputs.market.rate_curve(ccy), quanto=quanto)
    fx = {ccy: GbmFxParams(spot=inputs.market.fx_spots[ccy], **fp)
          for ccy, fp in inputs.fx_params.items()}
    credit = {ent: CirppParams(**{**_MODEL_DEFAULTS["credit"], **cp},
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
    """One run's FVA split and diagnostics; its runtimes are thread CPU times."""

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
    config_echo: dict = field(default_factory=dict)
    version: str = __version__

    @property
    def fva_total(self) -> float:
        return self.fva_indep + self.fva_wwr

    @property
    def wwr_pct(self) -> float:
        return 100.0 * self.fva_wwr / self.fva_indep if self.fva_indep else 0.0

    # the fields that vary from run to run at equal inputs
    TIMINGS = ("runtime_wwr_seconds", "runtime_benchmark_wwr_seconds", "peak_rss_mb")

    def to_dict(self, include_timings: bool = True) -> dict:
        """Every field but the two profiles, plus `fva_total` and `wwr_pct`."""
        skip = {"profile", "benchmark_profile", *(() if include_timings else self.TIMINGS)}
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
               if f.name not in skip}
        out.update(fva_total=self.fva_total, wwr_pct=self.wwr_pct)
        return out


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
    return run_fva_legs([inputs], settings)[0]


def run_fva_legs(legs: Sequence[RunInputs], settings: RunSettings) -> list[FvaReport]:
    """`run_fva` on each input set, the legs sharing what they can.

    The legs are set up inside `models.shared_terms`, so a leg shares each
    product that `models.term` built from equal inputs: closed forms,
    stream noise and overlay, currency books and their loadings, WWR
    coefficients. Legs that hold one noise object run on one pass; legs
    that also hold one overlay and the same books share one value row and
    its moments; books that hold one loadings array share one matrix of
    bond exponentials per date. Each leg keeps its own credit covariance
    and report, bit for bit the one `run_fva` gives alone. Nothing outlives
    the call: the table is dropped before the passes, and a pass holds one
    date's drivers per distinct overlay, as a single run does.
    """
    with shared_terms():
        runs = [_Leg(inputs, settings) for inputs in legs]
    groups: dict[int, list[_Leg]] = {}
    for run in runs:
        groups.setdefault(id(run.stream.noise), []).append(run)
    for group in groups.values():
        _run_pass(group, settings)
    return [run.report(settings) for run in runs]


class _Leg:
    """One input set of `run_fva_legs`: its deterministic set-up, its
    stream, and the per-date estimates that the pass fills in."""

    def __init__(self, inputs: RunInputs, settings: RunSettings):
        validate_inputs(inputs, settings)
        self.models = models = build_model_set(inputs)
        self.corr = build_correlation_for(models, inputs.correlations)
        self.portfolio = inputs.portfolio
        grid = make_grid(inputs, settings)
        self.dates = dates = grid.monitoring_dates
        n_dates = len(dates)
        # one pass: a full simulation's market drivers equal a base one's (see mc)
        need_full = settings.method == "mc" or settings.benchmark
        self.stream = PathStream(models, self.corr, grid, settings.n_paths,
                                 settings.seed, "full" if need_full else "base")
        self.valuation = PortfolioValuation(inputs.portfolio, models, dates)
        self.coeffs = coeffs_for_dates(models, self.corr, dates, settings.n_r)
        # Only the generic method reads the sampled driver moments, so only
        # it computes them.
        n_moments = settings.n_r + 3 if settings.method == "approx_generic" else 0
        self.bm = BaseMoments.empty(dates, n_moments)
        self.wwr_mc, self.se_mc = np.zeros(n_dates), np.zeros(n_dates)
        self.cov_seconds = 0.0

    def report(self, settings: RunSettings) -> FvaReport:
        """The leg's profiles, integrals and benchmark comparison, once the
        pass has filled its per-date estimates.

        Shared prerequisites: the discounted exposure and the per-date
        coefficients enter both the coupling-free part and either WWR
        estimator, so neither WWR stage is charged for them. The generic
        approximation's extra work is the driver-moment averaging plus the
        series assembly; the closed-form one's is its moments plus the
        assembly; the benchmark's is the credit simulation plus the
        covariance estimator.
        """
        dates, coeffs, models, bm = self.dates, self.coeffs, self.models, self.bm
        is_mc = settings.method == "mc"
        need_full = self.stream.mode == "full"
        wwr_mc, se_mc = self.wwr_mc, self.se_mc

        indep = epe_indep(bm, coeffs, models)
        bench_seconds = (self.stream.credit_seconds + self.cov_seconds
                         if need_full else None)

        if is_mc:
            wwr, wwr_seconds = wwr_mc, bench_seconds
        else:
            t0 = time.thread_time()
            if settings.method == "approx_generic":
                wwr = epe_wwr_approx_generic(coeffs, bm)
            else:
                # the valuation's one book is the swap's
                wwr = epe_wwr_approx_swap_analytic(self.portfolio.single_swap, models,
                                                   coeffs, bm, settings.n_r, settings.n_a,
                                                   self.valuation.books[0])
            wwr_seconds = bm.y_moment_seconds + (time.thread_time() - t0)
        finite = np.isfinite(indep) & np.isfinite(wwr) & np.isfinite(wwr_mc)
        if not finite.all():
            raise exposure_not_finite(dates, int(np.argmin(finite)))
        profile = ExposureProfile(dates=dates.copy(), epe_indep=indep, epe_wwr=wwr,
                                  method=settings.method,
                                  se_wwr=se_mc if is_mc else None,
                                  se_indep=bm.disc_epe_se.copy())

        fva_i, fva_w = integrate_profile(profile)
        report = FvaReport(
            fva_indep=fva_i, fva_wwr=fva_w, method=settings.method,
            runtime_wwr_seconds=wwr_seconds, profile=profile,
            truncated_fraction=self.stream.truncated_fraction,
            config_echo={k: v for k, v in dataclasses.asdict(settings).items()
                         if k != "benchmark"})

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


def _run_pass(legs: list[_Leg], settings: RunSettings) -> None:
    """Feed one shared simulation pass to legs that hold one noise object.

    Legs that hold one overlay (hence the same date state) and the same
    books share one `BaseMoments` record: each date is valued and entered
    once for all of them, and each of them is charged the moments' time.
    Each date's book rows are valued once for the pass (`book_rows`), in
    one buffer. The credit covariance reads each leg's own coefficients.
    The pass's one memory check (`mc.shared_pass`) counts that buffer,
    the value row's temporaries, the tiles and the covariance's
    temporaries; each is allocated after it.

    Each date's discounted exposure is entered at once; the batch SEs,
    driver moments and credit covariances are reduced per tile of
    `tile_dates` consecutive dates, one tile per record (or one tile of one
    date that the records reduce in turn), with the same bits.

    The pass stops at the first date whose discounted exposure is not
    finite, with the error the report would give. It runs under
    `mc.pass_numpy_state`: that check and the simulation's own finite
    checks stand for numpy's overflow and invalid-value warnings.
    """
    need_full = legs[0].stream.mode == "full"
    # leg indices per distinct (overlay, books); the first one values
    twins: dict[tuple, list[int]] = {}
    for k, leg in enumerate(legs):
        twins.setdefault((id(leg.stream.overlay), *leg.valuation.books), []).append(k)
    for ks in twins.values():
        for k in ks[1:]:
            legs[k].bm = legs[ks[0]].bm
    groups = book_groups(book for ks in twins.values() for book in legs[ks[0]].valuation.books)
    n_paths, last = settings.n_paths, len(legs[0].dates) - 1
    size = tile_dates(n_paths, last + 1)
    moments = len(legs[0].bm.y_moments) > 0
    dates = shared_pass([leg.stream for leg in legs],
                        buffer_rows(groups, n_paths) + ROW_TEMPORARIES
                        + DateTile.pass_rows(len(twins), size, moments, need_full))
    buffer = book_buffer(groups, n_paths)
    tiles = DateTile.for_pass(len(twins), size, n_paths, moments, need_full)
    with pass_numpy_state(), closing(dates):
        for states in dates:
            # the book rows read only the rate noise, which the states share
            local_rows = book_rows(groups, states[0], buffer)
            for ks, tile in zip(twins.values(), tiles):
                st, bm = states[ks[0]], legs[ks[0]].bm
                i = st.index
                bm.enter(st, legs[ks[0]].valuation.row(st, local_rows), tile)
                if not math.isfinite(bm.disc_epe[i]):
                    raise exposure_not_finite(bm.dates, i)
                if tile.full or i == last:
                    bm.reduce(tile)
                    if need_full:
                        for k in ks:
                            _enter_covariance(legs[k], tile, bm.disc_epe)


def _enter_covariance(leg: _Leg, tile: DateTile, disc_epe: np.ndarray) -> None:
    """The leg's credit covariance and its SE at the tile's dates, but for
    date 0, which has none."""
    t0 = time.thread_time()
    dates = tile.dates
    leg.wwr_mc[dates], leg.se_mc[dates] = wwr_mc_at(
        dates, tile.held(tile.h), disc_epe[dates], *map(tile.held, tile.credit), leg.coeffs)
    if tile.start == 0:
        leg.wwr_mc[0] = leg.se_mc[0] = 0.0
    leg.cov_seconds += time.thread_time() - t0


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
