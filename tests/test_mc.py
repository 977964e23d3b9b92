import dataclasses
import math

import numpy as np
import pytest

from wwrfva.fva import build_correlation_for, build_model_set, load_run_config
from wwrfva.mc import (PathStream, SimGrid, build_correlation, dump_cube,
                       factor_labels, load_cube, simulate)
from wwrfva.models import cir_terms, fx_terms, hw_terms

from conftest import fixture_path


@pytest.fixture()
def setup41(b41):
    inputs, settings = b41
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    return inputs, models, corr


def small_cube(models, corr, mode, n_paths=20000, seed=7):
    grid = SimGrid.regular(4, 10.0, 2)
    return simulate(models, corr, grid, n_paths, seed, mode)


# ---------------------------------------------------------------------------
# correlation matrix assembly

def test_build_correlation_defaults_to_identity():
    c = build_correlation(["a", "b"], {})
    assert np.allclose(c.matrix, np.eye(2))


def test_build_correlation_symmetric_entry():
    c = build_correlation(["a", "b"], {"b:a": 0.3})
    assert c.entry("a", "b") == pytest.approx(0.3)
    assert c.entry("b", "a") == pytest.approx(0.3)


def test_build_correlation_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_correlation(["a", "b"], {"a:b": 1.5})


def test_build_correlation_rejects_credit_credit():
    with pytest.raises(ValueError):
        build_correlation(["lambda_I", "lambda_C"], {"lambda_I:lambda_C": 0.2})


def test_build_correlation_rejects_non_psd():
    entries = {"a:b": 0.95, "b:c": 0.95, "a:c": -0.95}
    with pytest.raises(ValueError):
        build_correlation(["a", "b", "c"], entries)


def test_factor_labels_market_first(setup41):
    _, models, _ = setup41
    assert factor_labels(models) == ["r_EUR", "lambda_I", "lambda_C"]


def test_grid_validation():
    with pytest.raises(ValueError):
        SimGrid.regular(0, 10.0, 2)
    with pytest.raises(ValueError, match="two monitoring dates"):
        SimGrid.regular(1, 0.25, 2)
    g = SimGrid.regular(4, 2.0, 3)
    assert g.n_dates == 9
    assert g.monitoring_dates[0] == 0.0


# ---------------------------------------------------------------------------
# simulation invariants

@pytest.mark.parametrize("cfg", ["single_swap.cfg", "portfolio.cfg"])
def test_base_and_full_market_slabs_identical(cfg):
    # run_fva reads the market slabs of a full cube in place of a base cube
    inputs, _ = load_run_config(fixture_path(cfg))
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    base = small_cube(models, corr, "base")
    full = small_cube(models, corr, "full")
    for name in ("y_r", "Y_r", "ln_fx"):
        b, f = getattr(base, name), getattr(full, name)
        assert list(b) == list(f)
        for key in b:
            assert np.array_equal(b[key], f[key]), (name, key)
    assert base.y_I is None and full.y_I is not None


def test_simulation_deterministic(setup41):
    _, models, corr = setup41
    a = small_cube(models, corr, "full")
    b = small_cube(models, corr, "full")
    assert np.array_equal(a.y_I, b.y_I)
    assert np.array_equal(a.Y_r["EUR"], b.Y_r["EUR"])


def test_different_seed_changes_paths(setup41):
    _, models, corr = setup41
    a = small_cube(models, corr, "base", seed=1)
    b = small_cube(models, corr, "base", seed=2)
    assert not np.array_equal(a.y_r["EUR"], b.y_r["EUR"])


def test_discount_reprices_curve_within_noise(setup41):
    inputs, models, corr = setup41
    cube = small_cube(models, corr, "base", n_paths=50000)
    curve = inputs.market.rate_curve("EUR")
    for i in range(1, len(cube.dates), 8):
        disc = cube.pathwise_discount(i)
        se = disc.std() / math.sqrt(cube.n_paths)
        assert disc.mean() == pytest.approx(curve.discount(cube.dates[i]),
                                            abs=3.5 * se)


def test_survival_reprices_curve_within_noise(setup41):
    inputs, models, corr = setup41
    # fine substeps: the intensity integration carries an O(dt) Euler bias
    grid = SimGrid.regular(4, 10.0, 8)
    cube = simulate(models, corr, grid, 50000, 7, "full")
    for ent, slab in (("I", cube.Y_I), ("C", cube.Y_C)):
        curve = inputs.market.credit_curve(ent)
        p = models.credit[ent]
        for i in range(4, len(cube.dates), 12):
            h = cir_terms(p, 0.0, float(cube.dates[i])).H
            surv = h * np.exp(-slab[i])
            se = surv.std() / math.sqrt(cube.n_paths)
            assert surv.mean() == pytest.approx(
                curve.discount(cube.dates[i]), abs=3.5 * se), (ent, i)


def test_rate_driver_terminal_moments(setup41):
    _, models, corr = setup41
    cube = small_cube(models, corr, "base", n_paths=50000)
    i = len(cube.dates) - 1
    u = float(cube.dates[i])
    terms = hw_terms(models.rates["EUR"], 0.0, u)
    y = cube.y_r["EUR"][i]
    Y = cube.Y_r["EUR"][i]
    n = cube.n_paths
    assert y.mean() == pytest.approx(0.0, abs=3.5 * y.std() / math.sqrt(n))
    assert y.var() == pytest.approx(terms.var_y,
                                    abs=3.5 * (y * y).std() / math.sqrt(n))
    assert Y.var() == pytest.approx(terms.var_Y,
                                    abs=3.5 * (Y * Y).std() / math.sqrt(n))
    # cross moment of the driver and its integral, small mean-reversion limit
    cov = (y * Y).mean()
    expected = models.rates["EUR"].sigma ** 2 * hw_terms(
        models.rates["EUR"], 0.0, u).B ** 2 / 2.0
    assert cov == pytest.approx(expected, abs=3.5 * (y * Y).std() / math.sqrt(n))


def test_driver_correlation_matches_input(b42, setup41):
    # Gaussian factor pair: terminal state correlation equals the input
    # correlation when the mean reversions match
    inputs, settings = b42
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    cube = simulate(models, corr, SimGrid.regular(4, 5.0, 2), 50000, 3, "base")
    i = len(cube.dates) - 1
    rho = np.corrcoef(cube.y_r["EUR"][i], cube.y_r["USD"][i])[0, 1]
    assert rho == pytest.approx(0.5, abs=0.02)
    # the square-root credit factor attenuates the state correlation but
    # preserves sign and rough magnitude
    _, models41, corr41 = setup41
    full = small_cube(models41, corr41, "full", n_paths=50000)
    j = len(full.dates) - 1
    rho_cr = np.corrcoef(full.y_r["EUR"][j], full.y_I[j])[0, 1]
    assert -0.40 < rho_cr < -0.25


def test_truncated_fraction_small(setup41):
    _, models, corr = setup41
    cube = small_cube(models, corr, "full")
    assert 0.0 <= cube.truncated_fraction < 0.01


def test_credit_states_nonnegative_under_full_truncation(setup41):
    _, models, corr = setup41
    cube = small_cube(models, corr, "full")
    # the intensity driver may go negative only through the deterministic
    # centering; the simulated exp integrals must stay finite
    assert np.isfinite(cube.Y_I).all() and np.isfinite(cube.Y_C).all()


def test_fx_log_level_moments(b42):
    inputs, settings = b42
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    cube = simulate(models, corr, SimGrid.regular(4, 5.0, 2), 50000, 3, "base")
    i = len(cube.dates) - 1
    u = float(cube.dates[i])
    for ccy in ("USD", "GBP"):
        t = fx_terms(models.rates["EUR"], models.rates[ccy], models.fx[ccy],
                     corr.entry("r_EUR", f"r_{ccy}"),
                     corr.entry("r_EUR", f"fx_{ccy}"),
                     corr.entry(f"r_{ccy}", f"fx_{ccy}"), 0.0, u)
        lnx = cube.ln_fx[ccy][i]
        n = cube.n_paths
        assert lnx.mean() == pytest.approx(t.mu_fx,
                                           abs=3.5 * lnx.std() / math.sqrt(n))
        c = lnx - lnx.mean()
        assert c.var() == pytest.approx(t.var_lnfx,
                                        abs=3.5 * (c * c).std() / math.sqrt(n))


def test_cube_dump_load_roundtrip(tmp_path, setup41):
    _, models, corr = setup41
    cube = small_cube(models, corr, "full", n_paths=500)
    path = tmp_path / "cube.bin"
    dump_cube(cube, path)
    back = load_cube(path)
    assert back.mode == "full" and back.seed == cube.seed
    assert np.array_equal(back.y_r["EUR"], cube.y_r["EUR"])
    assert np.array_equal(back.y_I, cube.y_I)
    assert np.array_equal(back.dates, cube.dates)
    assert back.truncated_fraction == cube.truncated_fraction


def test_invalid_mode_rejected(setup41):
    _, models, corr = setup41
    with pytest.raises(ValueError):
        simulate(models, corr, SimGrid.regular(2, 1.0, 1), 100, 1, "bogus")


def test_non_finite_driver_named_at_its_date(setup41):
    _, models, corr = setup41
    wild = dataclasses.replace(models, rates={
        "EUR": dataclasses.replace(models.rates["EUR"], sigma=np.inf)})
    seen = []
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"non-finite y\[EUR\] at date index 1, path 0"):
        for st in PathStream(wild, corr, SimGrid.regular(2, 2.0, 1), 10, 1):
            seen.append(st.index)
    assert seen == [0]


def test_memory_checked_before_allocating(monkeypatch, setup41):
    _, models, corr = setup41
    grid = SimGrid.regular(4, 10.0, 2)
    stream = PathStream(models, corr, grid, 5000, 7, "full")
    assert stream.cube_bytes == 8 * 5000 * grid.n_dates * 5  # y, Y, y_I, Y_I, Y_C
    # room for the streamed state but not for the cube
    monkeypatch.setattr("wwrfva.mc.physical_memory_bytes",
                        lambda: stream.state_bytes + stream.cube_bytes // 2)
    with pytest.raises(ValueError, match=r"scenario cube .* needs 8\.\d MB, more "
                                         r"than the \d\.\d MB of physical memory"):
        simulate(models, corr, grid, 5000, 7, "full")
    assert sum(1 for _ in PathStream(models, corr, grid, 5000, 7, "full")) == grid.n_dates
    monkeypatch.setattr("wwrfva.mc.physical_memory_bytes",
                        lambda: stream.state_bytes - 1)
    with pytest.raises(ValueError, match="simulation state needs"):
        PathStream(models, corr, grid, 5000, 7, "full")
