import dataclasses
import json
import re

import numpy as np
import pytest

from wwrfva.exposure import ExposureProfile
from wwrfva.fva import (FvaReport, RunSettings, build_model_set,
                        integrate_profile, load_run_config, make_grid,
                        read_profile_csv, run_fva, write_profile_csv,
                        write_report_json)
from wwrfva.mc import simulate

from conftest import fixture_path, small_settings


# ---------------------------------------------------------------------------
# configuration loading and validation

def test_settings_validation():
    with pytest.raises(ValueError):
        RunSettings(method="bogus")
    with pytest.raises(ValueError):
        RunSettings(n_paths=0)
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


# ---------------------------------------------------------------------------
# end-to-end runs (small scale)

def test_run_fva_deterministic(b41):
    inputs, settings = b41
    settings = small_settings(settings, n_paths=4000, method="approx_generic")
    r1 = run_fva(inputs, settings)
    r2 = run_fva(inputs.copy(), settings)
    assert r1.to_dict(include_timings=False) == r2.to_dict(include_timings=False)
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

    def counting_simulate(*args, **kwargs):
        cube = simulate(*args, **kwargs)
        modes.append(cube.mode)
        return cube

    monkeypatch.setattr("wwrfva.fva.simulate", counting_simulate)
    bench = run_fva(inputs, dataclasses.replace(settings, benchmark=True))
    assert modes == ["full"]
    assert bench.fva_wwr_mc is not None
    # the benchmark's credit paths leave the run's own numbers untouched
    assert bench.fva_indep == plain.fva_indep
    assert bench.fva_wwr == plain.fva_wwr
    assert np.array_equal(bench.profile.epe_wwr, plain.profile.epe_wwr)
