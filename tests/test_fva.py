import contextlib
import dataclasses
import gc
import json
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from wwrfva import exposure, fva, instruments, models
from wwrfva.exposure import (ExposureProfile, base_moments, coeffs_for_dates,
                             epe_indep, epe_wwr_approx_generic,
                             epe_wwr_approx_swap_analytic, epe_wwr_mc)
from wwrfva.fva import (FvaReport, RunSettings, build_correlation_for,
                        build_model_set, integrate_profile, load_run_config,
                        make_grid, read_profile_csv, run_fva, run_fva_legs,
                        write_profile_csv, write_report_json)
from wwrfva.instruments import value_matrix
from wwrfva.mc import PathStream, shared_pass, simulate
from wwrfva.sensitivities import apply_bump, fd_sensitivities, parse_bump

from conftest import fixture_path, small_settings


# ---------------------------------------------------------------------------
# configuration loading and validation

def test_settings_validation():
    with pytest.raises(ValueError):
        RunSettings(method="bogus")
    with pytest.raises(ValueError):
        RunSettings(n_paths=0)
    with pytest.raises(ValueError, match="n_paths must be at least 2"):
        RunSettings(n_paths=1)
    with pytest.raises(ValueError):
        RunSettings(n_r=25)


def test_load_config_single_swap(b41):
    inputs, settings = b41
    assert settings.method == "approx_analytic"
    assert settings.n_paths == 100_000
    assert settings.dates_per_year == 10
    assert inputs.market.domestic == "EUR"
    assert inputs.portfolio.single_swap is not None
    assert inputs.correlations["r_EUR:lambda_I"] == pytest.approx(-0.35)


def test_load_config_rejects_non_mapping(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("- just\n- a list\n")
    with pytest.raises(ValueError):
        load_run_config(bad)


def test_load_config_names_a_malformed_file(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("market: [unclosed\n")
    with pytest.raises(ValueError, match=re.escape(f"malformed config {bad}: ")):
        load_run_config(bad)


def _patched_config(name, tmp_path, old, new):
    with open(fixture_path(name)) as fh:
        cfg = fh.read()
    cfg = cfg.replace("market: ", f"market: {fixture_path('')}")
    cfg = cfg.replace("portfolio: ", f"portfolio: {fixture_path('')}")
    bad = tmp_path / name
    bad.write_text(cfg.replace(old, new))
    return bad


def test_analytic_method_rejected_on_portfolio(tmp_path):
    bad = _patched_config("portfolio.cfg", tmp_path,
                          "method: approx_generic", "method: approx_analytic")
    with pytest.raises(ValueError):
        load_run_config(bad)


def test_missing_rate_params_rejected(tmp_path):
    bad = _patched_config("single_swap.cfg", tmp_path, "EUR: {", "XXX: {")
    with pytest.raises((ValueError, KeyError)):
        load_run_config(bad)


@pytest.mark.parametrize("old, new, found", [
    ("    C: {", "    # C: {", "['I']"),
    ("    C: {", "    X: {", "['I', 'X']"),
], ids=["missing_C", "extra_X"])
def test_credit_entities_must_be_investor_and_counterparty(tmp_path, old, new, found):
    bad = _patched_config("single_swap.cfg", tmp_path, old, new)
    with pytest.raises(ValueError, match=re.escape(f"found {found}")):
        load_run_config(bad)


@pytest.mark.parametrize("cfg, old, new, where, key", [
    ("single_swap.cfg", "method: ", "methd: mc\nmethod: ", "single_swap.cfg", "methd"),
    ("single_swap.cfg", "models:\n", "models:\n  rate: {}\n", "models", "rate"),
    ("single_swap.cfg", "EUR: {x0:", "EUR: {xo:", "models.rates.EUR", "xo"),
    ("portfolio.cfg", "USD: {sigma_fx:", "USD: {sigma:", "models.fx.USD", "sigma"),
    ("single_swap.cfg", "lgd: 0.6}", "lgd_: 0.6}", "models.credit.I", "lgd_"),
    ("single_swap.cfg", "grid:\n", "grid:\n  horizn: 32.0\n", "grid", "horizn"),
    ("single_swap.cfg", "n_paths:", "n_path:", "simulation", "n_path"),
    ("single_swap.cfg", "n_a:", "na:", "orders", "na"),
], ids=["top", "models", "rates", "fx", "credit", "grid", "simulation", "orders"])
def test_unknown_config_key_rejected(tmp_path, cfg, old, new, where, key):
    # a misspelt key would otherwise fall back to its default unnoticed
    bad = _patched_config(cfg, tmp_path, old, new)
    msg = f"{where}: unknown key(s) '{key}'"
    with pytest.raises(ValueError, match=re.escape(msg)):
        load_run_config(bad)


@pytest.mark.parametrize("old, new, name, value", [
    ("n_paths: 100000", "n_paths: 2000.7", "simulation.n_paths", "2000.7"),
    ("dates_per_year: 10", "dates_per_year: 10.9", "grid.dates_per_year", "10.9"),
    ("seed: 1", "seed: true", "simulation.seed", "True"),
    ("n_paths: 100000", "n_paths: 1e5", "simulation.n_paths", "'1e5'"),
], ids=["fractional_paths", "fractional_dates", "bool_seed", "string_paths"])
def test_setting_that_int_would_misread_rejected(tmp_path, old, new, name, value):
    # int() would truncate the float, read true as 1, or fail on the string
    # (PyYAML reads 1e5 as one) without naming the key
    bad = _patched_config("single_swap.cfg", tmp_path, old, new)
    msg = f"config {bad}: {name} must be an integer, got {value}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        load_run_config(bad)


@pytest.mark.parametrize("old, new, kind", [
    ("    EUR: {x0: 0.0,", "    - {x0: 0.0,", "rates"),
    ("    USD: {sigma_fx: 0.15}\n    GBP:", "    - {sigma_fx: 0.15}\n    -", "fx"),
    ("    I: {x0: 0.0016939, a: 0.05, theta: 0.015390, sigma: 0.02, lgd: 0.6}\n    C:",
     "    - {x0: 0.0016939, a: 0.05, theta: 0.015390, sigma: 0.02, lgd: 0.6}\n    -",
     "credit"),
], ids=["rates", "fx", "credit"])
def test_model_section_that_is_not_a_mapping_rejected(tmp_path, old, new, kind):
    # a list used to fail with "'list' object has no attribute 'items'"
    cfg = "portfolio.cfg" if kind == "fx" else "single_swap.cfg"
    bad = _patched_config(cfg, tmp_path, old, new)
    with pytest.raises(ValueError, match=re.escape(f"config {bad}: models.{kind}: "
                                                   "expected a mapping")):
        load_run_config(bad)


def test_integral_float_and_int_horizon_settings_accepted(tmp_path):
    bad = _patched_config("single_swap.cfg", tmp_path, "n_paths: 100000",
                          "n_paths: 2000.0")
    bad.write_text(bad.read_text().replace("grid:\n", "grid:\n  horizon: 30\n"))
    _, settings = load_run_config(bad)
    assert settings.n_paths == 2000 and type(settings.n_paths) is int
    assert settings.horizon == 30.0 and type(settings.horizon) is float


@pytest.mark.parametrize("old, new, message", [
    ("method: approx_analytic", "method: foo", "method must be one of"),
    ("n_paths: 100000", "n_paths: 1", "n_paths must be at least 2"),
    ("seed: 1", "seed: -3", "seed must be non-negative, got -3"),
    ("n_r: 5", "n_r: 40", "truncation orders must be in 0..20"),
    ("substeps_per_interval: 4", "substeps_per_interval: 0",
     "substeps_per_interval must be at least 1, got 0"),
], ids=["method", "n_paths", "seed", "n_r", "substeps"])
def test_settings_error_names_the_config(tmp_path, old, new, message):
    # RunSettings' messages named no file; a zero substep count loaded and
    # failed only inside the run, in SimGrid
    bad = _patched_config("single_swap.cfg", tmp_path, old, new)
    with pytest.raises(ValueError, match=re.escape(f"config {bad}: {message}")):
        load_run_config(bad)


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        RunSettings(seed=-1)


@pytest.mark.parametrize("key", ["market", "portfolio"])
def test_missing_data_file_key_rejected(tmp_path, key):
    bad = _patched_config("single_swap.cfg", tmp_path, f"{key}: {fixture_path('')}",
                          f"# {key}: ")
    with pytest.raises(ValueError, match=re.escape(f"config {bad}: missing key '{key}'")):
        load_run_config(bad)


@pytest.mark.parametrize("cfg, old, new, where, key", [
    ("single_swap.cfg", ", sigma: 0.00284}", "}", "models.rates.EUR", "sigma"),
    ("single_swap.cfg", "EUR: {x0: 0.0, a: 1.0e-5,", "EUR: {x0: 0.0,",
     "models.rates.EUR", "a"),
    ("portfolio.cfg", "GBP: {sigma_fx: 0.15}", "GBP: {}", "models.fx.GBP", "sigma_fx"),
    ("single_swap.cfg", "theta: 0.015390, ", "", "models.credit.I", "theta"),
    ("single_swap.cfg", "C: {x0: 0.0063774, ", "C: {", "models.credit.C", "x0"),
], ids=["rate_sigma", "rate_a", "fx_sigma", "credit_theta", "credit_x0"])
def test_missing_model_parameter_rejected(tmp_path, cfg, old, new, where, key):
    # it used to fail in build_model_set with a bare KeyError: 'sigma'
    bad = _patched_config(cfg, tmp_path, old, new)
    with pytest.raises(ValueError, match=re.escape(f"config {bad}: {where}: "
                                                   f"missing key(s) '{key}'")):
        load_run_config(bad)


@pytest.mark.parametrize("old, new, where", [
    ("r_EUR:lambda_I: -0.35", "r_EUR:lambda_I: strong", "correlations: r_EUR:lambda_I"),
    ("sigma: 0.00284", "sigma: high", "models.rates.EUR: sigma"),
    ("lgd: 0.6}\n    C:", "lgd: [0.6]}\n    C:", "models.credit.I: lgd"),
    ("sigma: 0.02,", "sigma: true,", "models.credit.I: sigma"),
], ids=["correlation", "rate_sigma", "credit_lgd_list", "credit_sigma_bool"])
def test_non_numeric_config_value_rejected(tmp_path, old, new, where):
    # float() used to fail with a bare "could not convert string to float"
    bad = _patched_config("single_swap.cfg", tmp_path, old, new)
    with pytest.raises(ValueError, match=re.escape(f"config {bad}: {where} must be a number")):
        load_run_config(bad)


@pytest.mark.parametrize("value", [".inf", ".nan", "-.inf", "0.0"])
def test_horizon_must_be_finite_and_positive(tmp_path, value):
    # .inf and .nan would fail later in SimGrid.regular, naming no setting
    bad = _patched_config("single_swap.cfg", tmp_path, "grid:\n",
                          f"grid:\n  horizon: {value}\n")
    with pytest.raises(ValueError, match="grid.horizon must be finite and positive"):
        load_run_config(bad)


def test_correlation_pair_listed_twice_rejected(tmp_path):
    # the USD quanto drift would read 0.25 (r_USD:fx_USD) and the simulated
    # correlation 0.4, the last one listed
    bad = _patched_config("portfolio.cfg", tmp_path, "grid:\n",
                          "  fx_USD:r_USD: 0.4\ngrid:\n")
    inputs, _ = load_run_config(bad)
    with pytest.raises(ValueError, match="'r_USD:fx_USD' and 'fx_USD:r_USD'"):
        build_correlation_for(build_model_set(inputs), inputs.correlations)


@pytest.mark.parametrize("instrument", [
    "{type: swap, currency: GBP, notional: 100.0, fixed_rate: 0.02,"
    " expiry: 1.0, maturity: 5.0, frequency: 1}",
    "{type: fx_forward, currency: GBP, notional: 100.0, strike: 1.1,"
    " maturity: 3.0}",
], ids=["swap", "fx_forward"])
def test_foreign_currency_without_fx_model_rejected(tmp_path, instrument):
    book = tmp_path / "book.yaml"
    book.write_text(f"instruments:\n- {instrument}\n")
    bad = _patched_config("portfolio.cfg", tmp_path,
                          "    GBP: {sigma_fx: 0.15}\n", "")
    bad.write_text(bad.read_text().replace(fixture_path("portfolio_swaps.yaml"),
                                           str(book)))
    with pytest.raises(ValueError, match="no FX model parameters for currency GBP"):
        load_run_config(bad)


@pytest.mark.parametrize("old, new, where", [
    ("  fx:\n", "  fx:\n    JPY: {sigma_fx: 0.1}\n",
     "models.fx.JPY: JPY is not a foreign currency of the market data"),
    ("  fx:\n", "    JPY: {x0: 0.0, a: 0.01, sigma: 0.003}\n  fx:\n",
     "models.rates.JPY: the market data has no yield curve for JPY"),
], ids=["fx", "rates"])
def test_model_record_for_a_currency_the_market_lacks_rejected(tmp_path, old, new, where):
    # it used to fail with a bare KeyError: 'JPY', or one naming no config
    bad = _patched_config("portfolio.cfg", tmp_path, old, new)
    with pytest.raises(ValueError, match=re.escape(f"config {bad}: {where}")):
        load_run_config(bad)


def test_domestic_currency_fx_forward_rejected(tmp_path):
    book = tmp_path / "book.yaml"
    book.write_text("instruments:\n- {type: fx_forward, currency: EUR, notional: 100.0,"
                    " strike: 1.1, maturity: 3.0}\n")
    bad = _patched_config("portfolio.cfg", tmp_path, "", "")
    bad.write_text(bad.read_text().replace(fixture_path("portfolio_swaps.yaml"),
                                           str(book)))
    with pytest.raises(ValueError, match=r"FxForward\(currency='EUR'.*domestic currency"):
        load_run_config(bad)


def test_make_grid_uses_portfolio_horizon(b41):
    inputs, settings = b41
    grid = make_grid(inputs, settings)
    assert grid.monitoring_dates[-1] == pytest.approx(30.0)
    with pytest.raises(ValueError):
        make_grid(inputs, dataclasses.replace(settings, horizon=5.0))


def test_quanto_wiring(b42):
    inputs, settings = b42
    models = build_model_set(inputs)
    assert models.rates["EUR"].quanto is None
    q = models.rates["USD"].quanto
    assert q is not None
    assert q.sigma_fx == pytest.approx(0.15)
    assert q.rho_rf_fx == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# integration and serialization

def test_integrate_profile_right_rule():
    dates = np.array([0.0, 0.5, 1.0, 2.0])
    prof = ExposureProfile(dates=dates,
                           epe_indep=np.array([9.0, 2.0, 4.0, 6.0]),
                           epe_wwr=np.array([9.0, 1.0, 1.0, 1.0]),
                           method="approx_generic")
    fi, fw = integrate_profile(prof)
    # date-0 entry never enters the rectangle rule
    assert fi == pytest.approx(0.5 * 2.0 + 0.5 * 4.0 + 1.0 * 6.0)
    assert fw == pytest.approx(2.0)


def test_integrate_profile_additive():
    rng = np.random.default_rng(0)
    dates = np.sort(rng.uniform(0.0, 10.0, 12))
    dates[0] = 0.0
    a = rng.normal(size=12)
    b = rng.normal(size=12)
    p1 = ExposureProfile(dates=dates, epe_indep=a, epe_wwr=b, method="mc")
    fi, fw = integrate_profile(p1)
    p2 = ExposureProfile(dates=dates, epe_indep=a + b, epe_wwr=0.0 * b,
                         method="mc")
    assert integrate_profile(p2)[0] == pytest.approx(fi + fw, rel=1e-12)


def test_profile_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    dates = np.linspace(0.0, 5.0, 11)
    prof = ExposureProfile(dates=dates, epe_indep=rng.normal(size=11),
                           epe_wwr=rng.normal(size=11), method="mc",
                           se_wwr=np.abs(rng.normal(size=11)))
    path = tmp_path / "profile.csv"
    write_profile_csv(prof, path)
    back = read_profile_csv(path)
    assert np.array_equal(back.dates, prof.dates)
    assert np.array_equal(back.epe_indep, prof.epe_indep)
    assert np.array_equal(back.epe_wwr, prof.epe_wwr)
    assert np.array_equal(back.se_wwr, prof.se_wwr)
    assert back.method == "mc"
    # exact round-trip implies exact reintegration
    assert integrate_profile(back) == integrate_profile(prof)


def test_report_json(tmp_path):
    rep = FvaReport(fva_indep=10.0, fva_wwr=1.0, method="approx_generic")
    path = tmp_path / "report.json"
    write_report_json(rep, path)
    doc = json.loads(path.read_text())
    assert doc["fva_total"] == pytest.approx(11.0)
    assert doc["wwr_pct"] == pytest.approx(10.0)
    assert "runtime_wwr_seconds" in doc
    timings = {"runtime_wwr_seconds", "runtime_benchmark_wwr_seconds", "peak_rss_mb"}
    keys = {"version", "method", "fva_indep", "fva_wwr", "fva_total", "wwr_pct",
            "wwr_rd_vs_mc", "fva_wwr_mc", "fva_wwr_mc_se", "truncated_fraction",
            "config_echo"}
    assert set(doc) == keys | timings
    assert set(rep.to_dict(include_timings=False)) == keys


# ---------------------------------------------------------------------------
# end-to-end runs (small scale)

def test_run_fva_deterministic(b41):
    inputs, settings = b41
    settings = small_settings(settings, n_paths=4000, method="approx_generic")
    r1 = run_fva(inputs, settings)
    r2 = run_fva(inputs.copy(), settings)
    assert r1.to_dict(include_timings=False) == r2.to_dict(include_timings=False)
    # the process's peak memory is reported with the timings only
    assert "peak_rss_mb" not in r1.to_dict(include_timings=False)
    assert r1.to_dict()["peak_rss_mb"] > 0.0
    assert np.array_equal(r1.profile.epe_wwr, r2.profile.epe_wwr)


def test_run_fva_benchmark_fields(b41):
    inputs, settings = b41
    settings = small_settings(settings, n_paths=4000, method="approx_generic",
                              benchmark=True)
    rep = run_fva(inputs, settings)
    assert rep.fva_wwr_mc is not None and rep.fva_wwr_mc_se is not None
    assert rep.wwr_rd_vs_mc is not None
    assert rep.benchmark_profile is not None
    assert rep.runtime_benchmark_wwr_seconds > 0.0
    # relative difference definition: percent gap of totals
    total = rep.fva_indep + rep.fva_wwr
    total_mc = rep.fva_indep + rep.fva_wwr_mc
    assert rep.wwr_rd_vs_mc == pytest.approx(
        100.0 * (total - total_mc) / total_mc, rel=1e-12)


def test_run_fva_mc_method_has_errors(b41):
    inputs, settings = b41
    settings = small_settings(settings, n_paths=4000, method="mc")
    rep = run_fva(inputs, settings)
    assert rep.method == "mc"
    assert rep.profile.se_wwr is not None
    assert np.all(rep.profile.se_wwr[1:] > 0.0)


def test_run_fva_methods_close_at_small_scale(b41):
    inputs, settings = b41
    base = small_settings(settings, n_paths=8000)
    gen = run_fva(inputs, dataclasses.replace(base, method="approx_generic"))
    ana = run_fva(inputs.copy(),
                  dataclasses.replace(base, method="approx_analytic"))
    assert gen.fva_indep == pytest.approx(ana.fva_indep, rel=1e-9)
    assert gen.fva_wwr == pytest.approx(ana.fva_wwr, rel=0.1)
    assert gen.fva_wwr < 0.5 * gen.fva_indep  # correction, not the main term
    assert gen.fva_wwr > 0.0  # receiver with negative rate-credit correlation


@pytest.mark.parametrize("cfg, method", [("portfolio.cfg", "approx_generic"),
                                         ("single_swap.cfg", "approx_analytic")])
def test_benchmark_run_simulates_once(monkeypatch, cfg, method):
    inputs, settings = load_run_config(fixture_path(cfg))
    settings = small_settings(settings, n_paths=2000, method=method)
    plain = run_fva(inputs, settings)
    modes = []

    def counting_stream(*args, **kwargs):
        stream = PathStream(*args, **kwargs)
        modes.append(stream.mode)
        return stream

    monkeypatch.setattr("wwrfva.fva.PathStream", counting_stream)
    bench = run_fva(inputs, dataclasses.replace(settings, benchmark=True))
    assert modes == ["full"]
    assert bench.fva_wwr_mc is not None
    # the benchmark's credit paths leave the run's own numbers untouched
    assert bench.fva_indep == plain.fva_indep
    assert bench.fva_wwr == plain.fva_wwr
    assert np.array_equal(bench.profile.epe_wwr, plain.profile.epe_wwr)


def stage_timer_run(monkeypatch, b41, tile_elements=None):
    """A run whose moment kernel sleeps 0.02 s a call: its report, the
    sleeps and the run's 31 dates of 500 paths."""
    inputs, settings = b41
    settings = small_settings(settings, n_paths=500, dates_per_year=1, substeps=1,
                              method="approx_generic")
    if tile_elements is not None:
        monkeypatch.setattr(exposure, "TILE_ELEMENTS", tile_elements)
    kernel = exposure.y_moments_at
    slept = []

    def sleepy(*args):
        time.sleep(0.02)
        slept.append(0.02)
        return kernel(*args)

    monkeypatch.setattr(exposure, "y_moments_at", sleepy)
    rep = run_fva(inputs, settings)
    assert len(rep.profile.dates) == 31
    return rep, slept


def test_stage_timers_charge_thread_cpu_time(monkeypatch, b41):
    # a stage timer must not count the time its thread waits for a core
    # while the draw worker or the BLAS threads run; a sleep in the moment
    # kernel stands for such a wait. Tiles of one date: a call per date
    rep, slept = stage_timer_run(monkeypatch, b41, tile_elements=500)
    assert len(slept) == len(rep.profile.dates)
    assert rep.runtime_wwr_seconds < sum(slept)


def test_stage_timers_charge_thread_cpu_time_per_tile(monkeypatch, b41):
    # by default a tile holds 32 dates of 500 paths: one call for the 31
    rep, slept = stage_timer_run(monkeypatch, b41)
    assert len(slept) == 1
    assert rep.runtime_wwr_seconds < sum(slept)


def _composed_run(inputs, settings):
    """run_fva's profiles composed from the cube-based functions."""
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    p = inputs.portfolio
    need_full = settings.method == "mc" or settings.benchmark
    cube = simulate(models, corr, make_grid(inputs, settings), settings.n_paths,
                    settings.seed, "full" if need_full else "base")
    vm = value_matrix(p, models, cube)
    # the run reads the driver moments only under approx_generic
    bm = base_moments(cube, p, models, settings.n_r, value_mat=vm)
    coeffs = coeffs_for_dates(models, corr, cube.dates, settings.n_r)
    wwr_mc = se_mc = None
    if need_full:
        wwr_mc, se_mc = epe_wwr_mc(cube, p, models, bm, coeffs, value_mat=vm)
    if settings.method == "mc":
        wwr = wwr_mc
    elif settings.method == "approx_generic":
        wwr = epe_wwr_approx_generic(coeffs, bm)
    else:
        wwr = epe_wwr_approx_swap_analytic(p.single_swap, models, coeffs, bm,
                                           settings.n_r, settings.n_a)
    return cube, bm, epe_indep(bm, coeffs, models), wwr, wwr_mc, se_mc


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("bench", [False, True], ids=["plain", "bench"])
@pytest.mark.parametrize("cfg, method", [
    ("single_swap.cfg", "mc"), ("single_swap.cfg", "approx_generic"),
    ("single_swap.cfg", "approx_analytic"), ("portfolio.cfg", "mc"),
    ("portfolio.cfg", "approx_generic"), ("portfolio_stressed.cfg", "mc"),
    ("portfolio_stressed.cfg", "approx_generic")])
def test_streamed_run_equals_cube_composition(cfg, method, bench):
    inputs, settings = load_run_config(fixture_path(cfg))
    settings = small_settings(settings, n_paths=2000, method=method,
                              benchmark=bench)
    rep = run_fva(inputs, settings)
    cube, bm, indep, wwr, wwr_mc, se_mc = _composed_run(inputs, settings)
    dates = cube.dates

    assert _bits(rep.profile.dates) == _bits(dates)
    assert _bits(rep.profile.epe_indep) == _bits(indep)
    assert _bits(rep.profile.epe_wwr) == _bits(wwr)
    assert _bits(rep.profile.se_indep) == _bits(bm.disc_epe_se)
    assert (rep.fva_indep, rep.fva_wwr) == integrate_profile(
        ExposureProfile(dates=dates, epe_indep=indep, epe_wwr=wwr, method=method))
    assert rep.truncated_fraction == cube.truncated_fraction
    if wwr_mc is None:
        assert rep.fva_wwr_mc is None and rep.benchmark_profile is None
        return
    mc_profile = rep.profile if method == "mc" else rep.benchmark_profile
    assert _bits(mc_profile.epe_wwr) == _bits(wwr_mc)
    assert _bits(mc_profile.se_wwr) == _bits(se_mc)
    assert rep.fva_wwr_mc == integrate_profile(
        ExposureProfile(dates=dates, epe_indep=indep, epe_wwr=wwr_mc, method="mc"))[1]
    assert rep.fva_wwr_mc_se == float(np.sqrt(np.sum((np.diff(dates) * se_mc[1:]) ** 2)))


@pytest.mark.parametrize("method", ["approx_analytic", "approx_generic"])
def test_run_memory_does_not_scale_with_dates(b41, method):
    inputs, settings = b41
    settings = small_settings(settings, n_paths=20_000, dates_per_year=4,
                              method=method, benchmark=True)
    one_slab = 8 * make_grid(inputs, settings).n_dates * settings.n_paths
    tracemalloc.start()
    try:
        run_fva(inputs, settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < one_slab, (peak, one_slab)


# ---------------------------------------------------------------------------
# several legs on shared passes

# two legs each: shared pass and valuation (credit curve, rate-credit
# correlation), shared pass only (curves, spot, FX vol), no sharing (rate vol)
LEG_BUMPS = ("credit_parallel:C", "correlation:r_USD/lambda_C", "ir_parallel:EUR",
             "ir_pillar:GBP@1", "fx_spot:USD", "sigma_fx:GBP", "sigma_r:USD")


def bumped_legs(inputs, texts):
    legs = [inputs]
    for text in texts:
        bump = parse_bump(text, inputs)
        legs += [apply_bump(inputs, bump, +1.0), apply_bump(inputs, bump, -1.0)]
    return legs


def report_bits(rep):
    """Every number of a report, as exact bytes."""
    arrays = [rep.profile.dates, rep.profile.epe_indep, rep.profile.epe_wwr,
              rep.profile.se_indep]
    for prof in (rep.profile.se_wwr, rep.benchmark_profile and rep.benchmark_profile.epe_wwr,
                 rep.benchmark_profile and rep.benchmark_profile.se_wwr):
        arrays.append(np.zeros(0) if prof is None else prof)
    scalars = [rep.fva_indep, rep.fva_wwr, rep.fva_wwr_mc, rep.fva_wwr_mc_se,
               rep.wwr_rd_vs_mc, rep.truncated_fraction]
    return [_bits(a) for a in arrays], repr(scalars), rep.to_dict(include_timings=False)


@pytest.mark.parametrize("method, bench", [("approx_generic", False),
                                           ("approx_generic", True), ("mc", False)])
def test_run_fva_legs_equal_independent_runs(b42, method, bench):
    inputs, settings = b42
    settings = small_settings(settings, n_paths=500, dates_per_year=2, substeps=1,
                              method=method, benchmark=bench)
    legs = bumped_legs(inputs, LEG_BUMPS)
    shared = run_fva_legs(legs, settings)
    assert len(shared) == len(legs)
    for leg, rep in zip(legs, shared):
        assert report_bits(rep) == report_bits(run_fva(leg, settings))


@pytest.mark.parametrize("method", ["approx_generic", "mc"])
def test_run_fva_legs_fuses_exactly_the_legs_of_one_key(monkeypatch, b42, method):
    inputs, settings = b42
    settings = small_settings(settings, n_paths=300, dates_per_year=1, substeps=1,
                              method=method)
    passes = []

    def recording_pass(streams, *declared):
        passes.append([id(s.noise) for s in streams])
        return shared_pass(streams, *declared)

    monkeypatch.setattr("wwrfva.fva.shared_pass", recording_pass)
    legs = bumped_legs(inputs, LEG_BUMPS)
    run_fva_legs(legs, settings)
    # one noise object per pass, and no noise object in two passes
    assert all(len(set(noises)) == 1 for noises in passes)
    assert len({noises[0] for noises in passes}) == len(passes)
    assert sum(map(len, passes)) == len(legs)
    # base mode: only the two rate-vol legs leave the base pass; full mode:
    # the rate-credit correlation legs also move the credit Cholesky rows
    assert len(passes) == (3 if method == "approx_generic" else 5)


def test_run_fva_legs_value_a_book_their_bump_leaves_alone_once(monkeypatch, b42):
    # a domestic-curve bump moves the EUR book only: its two legs share the
    # USD and GBP books' local rows and convert them at their own FX levels;
    # it leaves the EUR loadings B alone, so both EUR books read one matrix
    # of bond exponentials
    inputs, settings = b42
    settings = small_settings(settings, n_paths=400, dates_per_year=2, substeps=1)
    legs = bumped_legs(inputs, ["ir_parallel:EUR"])[1:]
    kernel, at = instruments.bond_exponentials, instruments.CurrencyBook.at
    exponentials, rows = [], []

    def counted(*args):
        exponentials.append(1)
        return kernel(*args)

    def counted_at(self, i):
        rows.append(1)
        return at(self, i)

    monkeypatch.setattr(instruments, "bond_exponentials", counted)
    monkeypatch.setattr(instruments.CurrencyBook, "at", counted_at)
    alone = [run_fva(leg, settings) for leg in legs]
    n_dates = len(alone[0].profile.dates)
    assert (len(exponentials), len(rows)) == (6 * n_dates, 6 * n_dates)
    exponentials.clear()
    rows.clear()
    shared = run_fva_legs(legs, settings)
    assert (len(exponentials), len(rows)) == (3 * n_dates, 4 * n_dates)
    for a, b in zip(alone, shared):
        assert report_bits(a) == report_bits(b)


def _arrays_in(value):
    """The arrays in a term: itself, in a tuple or in a dataclass's fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _arrays_in(v)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays_in(getattr(value, f.name))


def test_run_fva_legs_build_each_term_once_and_keep_none(monkeypatch, b42):
    # a credit-curve bump moves no currency book: the two legs build each
    # of the three books once, read them from a read-only table and leave
    # nothing of it behind
    inputs, settings = b42
    settings = small_settings(settings, n_paths=300, dates_per_year=1, substeps=1)
    legs = bumped_legs(inputs, ["credit_parallel:C"])[1:]
    build, terms = instruments._book, fva.shared_terms
    books, tables = [], []

    def counted(*args):
        books.append(args[0])
        return build(*args)

    @contextlib.contextmanager
    def spying():
        with terms():
            yield
            tables.append(models._TERMS.get())

    monkeypatch.setattr(instruments, "_book", counted)
    monkeypatch.setattr(fva, "shared_terms", spying)
    shared = run_fva_legs(legs, settings)
    assert sorted(books) == ["EUR", "GBP", "USD"]
    assert models._TERMS.get() is None
    (table,) = tables
    arrays = [a for value in table.values() for a in _arrays_in(value)]
    assert len(arrays) > 20
    assert not any(a.flags.writeable for a in arrays)
    refs = [weakref.ref(a) for a in arrays]
    tables.clear()
    del table, arrays
    gc.collect()
    assert [r for r in refs if r() is not None] == []

    books.clear()
    alone = [run_fva(leg, settings) for leg in legs]
    assert len(books) == 6
    for a, b in zip(alone, shared):
        assert report_bits(a) == report_bits(b)


def _report_bits(rep):
    """A report's outputs, timings aside, with its profiles' bytes."""
    out = rep.to_dict(include_timings=False)
    for name in ("profile", "benchmark_profile"):
        prof = getattr(rep, name)
        out[name] = prof and [None if a is None else a.tobytes() for a in
                              (prof.epe_indep, prof.epe_wwr, prof.se_wwr, prof.se_indep)]
    return out


@pytest.mark.parametrize("method, bench", [("approx_generic", False),
                                           ("approx_generic", True),
                                           ("approx_analytic", True), ("mc", False)])
def test_date_tiles_keep_every_bit(monkeypatch, method, bench):
    # 31 dates of 300 paths, in tiles of 1, of 4 (seven and a partial 3),
    # of 7 (four and a partial 3) and, by default, one of all 31; three legs on two overlays: the credit bump shares the base's overlay
    # and books, so its twin group holds two legs with their own covariance
    cfg = "single_swap.cfg" if method == "approx_analytic" else "portfolio.cfg"
    inputs, settings = load_run_config(fixture_path(cfg))
    settings = small_settings(settings, n_paths=300, dates_per_year=1, substeps=1,
                              method=method, benchmark=bench)
    legs = [inputs] + [apply_bump(inputs, parse_bump(text, inputs), +1.0)
                       for text in ("ir_parallel:EUR", "credit_parallel:C")]
    runs = []
    for per_tile in (1, 4, 7, None):
        size = exposure.tile_dates(300, 1000) if per_tile is None else per_tile
        monkeypatch.setattr(exposure, "TILE_ELEMENTS", size * 300)
        reports = run_fva_legs(legs, settings)
        runs.append([_report_bits(r) for r in reports])
    assert len(reports[0].profile.dates) == 31
    assert runs[1] == runs[0] and runs[2] == runs[0] and runs[3] == runs[0]


@pytest.mark.parametrize("method", ["approx_generic", "mc"])
def test_date_tiles_keep_every_sensitivity_bit(monkeypatch, method):
    # a sensi call whose legs hold two overlays (the rate bump's up and
    # down); under mc each leg reads its own credit covariance
    inputs, settings = load_run_config(fixture_path("portfolio.cfg"))
    settings = small_settings(settings, n_paths=300, dates_per_year=1, substeps=1,
                              method=method)
    bumps = [parse_bump(text, inputs) for text in ("ir_parallel:EUR", "credit_parallel:C")]
    rows = []
    for per_tile in (1, 4):
        monkeypatch.setattr(exposure, "TILE_ELEMENTS", per_tile * 300)
        rows.append([repr(dataclasses.astuple(r)) for r in
                     fd_sensitivities(inputs, settings, bumps)])
    assert rows[1] == rows[0]


@pytest.mark.parametrize("method, bench, rows, rows_one", [
    ("approx_generic", False, 3, 2),   # (V)+, h and the rate noise's copy
    ("approx_generic", True, 6, 2),    # and the three credit drivers' copies
    ("approx_analytic", True, 4, 1)])  # h in place of (V)+: no driver moments
def test_the_pass_memory_check_counts_the_tile_rows(monkeypatch, method, bench, rows,
                                                    rows_one):
    # before any normal is drawn, the pass asks for its tile rows with the
    # rest of its state: at 500 paths a tile holds all 31 dates, `rows`
    # rows of paths each, where a tile of one date reads the state's rows
    # in place and holds `rows_one`; with the benchmark, each date of a
    # tile also counts the covariance's four temporaries
    rows += 4 * bench
    rows_one += 4 * bench
    import wwrfva.mc
    inputs, settings = load_run_config(fixture_path("single_swap.cfg"))
    settings = small_settings(settings, n_paths=500, dates_per_year=1, substeps=1,
                              method=method, benchmark=bench)
    require = wwrfva.mc.require_memory

    def largest_state_asked(tile_elements):
        """The largest memory check of the simulation state in one run: the
        pass's, which counts its bond exponentials and tile rows."""
        asked = []

        def spy(n_bytes, what):
            if what == "the simulation state":
                asked.append(n_bytes)
            return require(n_bytes, what)

        monkeypatch.setattr(wwrfva.mc, "require_memory", spy)
        monkeypatch.setattr(exposure, "TILE_ELEMENTS", tile_elements)
        run_fva(inputs, settings)
        return max(asked)

    assert (largest_state_asked(31 * 500) - largest_state_asked(500)
            == 8 * 500 * (31 * rows - rows_one))
