"""Shared fixtures.

`acc` is the one expensive session fixture: the full acceptance-scale
run on the single-swap setup (1e5 paths, 10 monitoring dates per year,
30 years), streamed one date at a time as a run is. Everything the
acceptance tests read from it (moments, coefficients, profiles, per-date
path statistics, timings) is computed in that one pass and kept per date.
"""

import dataclasses
import math
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from wwrfva.bounds import (X_CHOICES, _credit_moments_at, _empty_table,
                           _measured_errors)
from wwrfva.exposure import (BaseMoments, DateTile, coeffs_for_dates, epe_indep,
                             epe_wwr_approx_generic,
                             epe_wwr_approx_swap_analytic, wwr_mc_at)
from wwrfva.fva import (build_correlation_for, build_model_set, load_run_config,
                        make_grid)
from wwrfva.instruments import PortfolioValuation, Swap
from wwrfva.mc import PathStream
from wwrfva.models import cir_terms, domestic_terms

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def static_portfolio_value(p, models) -> float:
    """Date-0 portfolio value from the curves alone (no simulation): an
    oracle for the pathwise valuation at date 0."""
    total = 0.0
    for inst in p.instruments:
        if isinstance(inst, Swap):
            curve = models.rates[inst.currency].curve
            pay = np.asarray(inst.schedule)
            tau = inst.accruals
            v = (-curve.discount(pay[0]) + curve.discount(pay[-1])
                 + inst.fixed_rate * float(np.sum(tau * curve.discount(pay[1:]))))
            v *= inst.phi * inst.notional
            if inst.currency != models.domestic:
                v *= models.fx[inst.currency].spot
            total += v
        else:
            dom_curve = models.rates[models.domestic].curve
            f_curve = models.rates[inst.currency].curve
            total += inst.phi * inst.notional * (
                f_curve.discount(inst.maturity) * models.fx[inst.currency].spot
                - dom_curve.discount(inst.maturity) * inst.strike)
    return total


@pytest.fixture()
def b41():
    """Single-swap setup, freshly loaded (inputs are mutable)."""
    return load_run_config(fixture_path("single_swap.cfg"))


@pytest.fixture()
def b42():
    return load_run_config(fixture_path("portfolio.cfg"))


@pytest.fixture()
def b43():
    return load_run_config(fixture_path("portfolio_stressed.cfg"))


def small_settings(settings, n_paths=20000, dates_per_year=4, substeps=2,
                   **kw):
    return dataclasses.replace(settings, n_paths=n_paths,
                               dates_per_year=dates_per_year,
                               substeps_per_interval=substeps, **kw)


@pytest.fixture(scope="session")
def acc():
    """Acceptance-scale single-swap run: one full-mode streamed pass, whose
    per-date estimates are all the fixture keeps (no array of dates by
    paths)."""
    inputs, settings = load_run_config(fixture_path("single_swap.cfg"))
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    grid = make_grid(inputs, settings)
    p = inputs.portfolio
    s = p.single_swap
    dates, n_paths = grid.monitoring_dates, settings.n_paths
    n = len(dates)
    coeffs5 = coeffs_for_dates(models, corr, dates, 5)

    # one full-mode pass: its market drivers equal a base-mode pass's (see mc)
    stream = PathStream(models, corr, grid, n_paths, settings.seed, "full")
    valuation = PortfolioValuation(p, models, dates)
    # moments up to the order needed by the n_r = 20 convergence study,
    # and those of the default order, whose time the WWR stage is charged
    bm20, bm5 = BaseMoments.empty(dates, 23), BaseMoments.empty(dates, 8)
    tile = DateTile(1, n_paths, moments=True, credit=False)  # a date's rows, for both
    wwr_mc, wwr_mc_se = np.zeros(n), np.zeros(n)
    cov_seconds = 0.0
    # criterion 1: per-date mean and std of the discount and the survivals
    market = {name: np.zeros((2, n)) for name in ("discount", "Y_I", "Y_C")}
    # criterion 8: E[(V)+^2] per date, and at every tenth date from 1 the
    # full credit table and the measured survival-expansion error eps1
    pos_sq = np.zeros(n)
    tab = _empty_table(stream, 16)
    eps1 = {x: np.full(n, np.nan) for x in X_CHOICES}

    t0 = time.perf_counter()
    for st, row in valuation.valued_pass(stream):
        i = st.index
        bm20.enter(st, row, tile)
        bm20.reduce(tile)
        h = bm5.enter(st, row, tile)
        bm5.reduce(tile)
        if i == 0:
            continue
        tc = time.thread_time()
        wwr_mc[i], wwr_mc_se[i] = wwr_mc_at(i, h, bm5.disc_epe[i], st.Y_I, st.Y_C, st.y_I,
                                            coeffs5)
        cov_seconds += time.thread_time() - tc
        u = float(dates[i])
        market["discount"][:, i] = st.discount.mean(), st.discount.std()
        for ent in ("I", "C"):
            h_ent = cir_terms(models.credit[ent], 0.0, u).H
            surv = h_ent * np.exp(-getattr(st, "Y_" + ent))
            market["Y_" + ent][:, i] = surv.mean(), surv.std()
        pos_sq[i] = np.mean(np.maximum(row, 0.0) ** 2)
        if i % 10 == 1:
            credit_sum = st.Y_I + st.Y_C
            _credit_moments_at(tab, st, credit_sum)
            *_, h_ric, h_ic = domestic_terms(models, u)
            meas = _measured_errors(st, credit_sum, row, 5, X_CHOICES, h_ric, h_ic)
            for x in X_CHOICES:
                eps1[x][i] = meas[x]["eps1"]
    sim_seconds = time.perf_counter() - t0

    # WWR-stage timing for the default order: the driver-moment averaging
    # plus the series assembly (the discounted exposure and coefficients
    # are shared with the coupling-free part and with the MC estimator)
    t0 = time.perf_counter()
    wwr_approx = epe_wwr_approx_generic(coeffs5, bm5)
    approx_seconds = bm5.y_moment_seconds + (time.perf_counter() - t0)
    # the benchmark's: the credit simulation plus the covariance estimator
    mc_seconds = stream.credit_seconds + cov_seconds

    indep = epe_indep(bm5, coeffs5, models)
    wwr_analytic = epe_wwr_approx_swap_analytic(s, models, coeffs5, bm5, 5, 5)

    return SimpleNamespace(
        inputs=inputs, settings=settings, models=models, corr=corr, grid=grid,
        portfolio=p, swap=s, dates=dates.copy(), n_paths=n_paths,
        bm5=bm5, bm20=bm20, coeffs5=coeffs5,
        epe_indep=indep, wwr_approx=wwr_approx, wwr_analytic=wwr_analytic,
        wwr_mc=wwr_mc, wwr_mc_se=wwr_mc_se, market=market, pos_sq=pos_sq,
        tab=tab, eps1=eps1,
        sim_seconds=sim_seconds, approx_seconds=approx_seconds,
        mc_seconds=mc_seconds)


def integrate(dates, values):
    dt = np.diff(dates)
    return float(np.sum(dt * np.asarray(values)[1:]))


def normal_partial_moment(l: int, sd: float, upper: float) -> float:
    """E[y^l 1_{y <= upper}] for y ~ N(0, sd^2) by adaptive quadrature: a
    reference independent of the engine's normal functions. Where upper > 0
    the integral is split at 0, where y^l of odd l changes sign."""
    norm = 1.0 / (sd * math.sqrt(2.0 * math.pi))

    def f(y):
        return y ** l * norm * math.exp(-0.5 * (y / sd) ** 2)

    def quad(a, b):
        return sci_integrate.quad(f, a, b, epsabs=1e-300, epsrel=1e-13, limit=500)[0]

    if upper > 0.0:
        return quad(-math.inf, 0.0) + quad(0.0, upper)
    return quad(-math.inf, upper)
