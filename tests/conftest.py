"""Shared fixtures.

`acc` is the one expensive session fixture: the full acceptance-scale
run on the single-swap setup (1e5 paths, 10 monitoring dates per year,
30 years). Everything derived from it (moments, coefficients, profiles,
timings) is computed once and reused by the acceptance tests.
"""

import dataclasses
import os
import time
from types import SimpleNamespace

import numpy as np
import pytest

from wwrfva.exposure import (base_moments, coeffs_for_dates, epe_indep,
                             epe_wwr_approx_generic,
                             epe_wwr_approx_swap_analytic, epe_wwr_mc)
from wwrfva.fva import (build_correlation_for, build_model_set, load_run_config,
                        make_grid)
from wwrfva.instruments import Swap, value_matrix
from wwrfva.mc import simulate

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
    """Acceptance-scale single-swap run with all derived artifacts."""
    inputs, settings = load_run_config(fixture_path("single_swap.cfg"))
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    grid = make_grid(inputs, settings)
    p = inputs.portfolio
    s = p.single_swap

    # one full-mode pass: its market slabs equal a base-mode cube's (see mc)
    t0 = time.perf_counter()
    cube = simulate(models, corr, grid, settings.n_paths, settings.seed, "full")
    sim_seconds = time.perf_counter() - t0
    vm = value_matrix(p, models, cube)

    # moments up to the order needed by the n_r = 20 convergence study
    bm20 = base_moments(cube, p, models, 20, value_mat=vm)

    # WWR-stage timing for the default order: the driver-moment averaging
    # plus the series assembly (the discounted exposure and coefficients
    # are shared with the coupling-free part and with the MC estimator)
    bm5 = base_moments(cube, p, models, 5, value_mat=vm)
    coeffs5 = coeffs_for_dates(models, corr, cube.dates, 5)
    t0 = time.perf_counter()
    wwr_approx = epe_wwr_approx_generic(coeffs5, bm5)
    approx_seconds = bm5.y_moment_seconds + (time.perf_counter() - t0)

    t0 = time.perf_counter()
    wwr_mc, wwr_mc_se = epe_wwr_mc(cube, p, models, bm5, coeffs5, value_mat=vm)
    mc_seconds = cube.credit_seconds + (time.perf_counter() - t0)

    indep = epe_indep(bm5, coeffs5, models)
    wwr_analytic = epe_wwr_approx_swap_analytic(s, models, coeffs5, bm5, 5, 5)

    return SimpleNamespace(
        inputs=inputs, settings=settings, models=models, corr=corr, grid=grid,
        portfolio=p, swap=s, cube=cube,
        value_mat=vm, bm5=bm5, bm20=bm20, coeffs5=coeffs5,
        epe_indep=indep, wwr_approx=wwr_approx, wwr_analytic=wwr_analytic,
        wwr_mc=wwr_mc, wwr_mc_se=wwr_mc_se,
        sim_seconds=sim_seconds, approx_seconds=approx_seconds,
        mc_seconds=mc_seconds)


def integrate(dates, values):
    dt = np.diff(dates)
    return float(np.sum(dt * np.asarray(values)[1:]))
