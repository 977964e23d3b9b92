import dataclasses
import math
import threading
import time

import numpy as np
import pytest

import wwrfva.mc
from wwrfva.fva import build_correlation_for, build_model_set, load_run_config
from wwrfva.mc import (PathStream, SimGrid, _slabs, build_correlation,
                       dump_cube, factor_labels, fx_factor, load_cube,
                       rate_factor, shared_pass, simulate)
from wwrfva.sensitivities import apply_bump, parse_bump
from wwrfva.models import bfac, cir_terms, fx_terms, hw_terms

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


def fixture_models(cfg):
    inputs, _ = load_run_config(fixture_path(cfg))
    models = build_model_set(inputs)
    return models, build_correlation_for(models, inputs.correlations)


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


def test_build_correlation_rejects_self_pair():
    # it would overwrite the factor's unit variance
    with pytest.raises(ValueError, match="'a:a' pairs a factor with itself"):
        build_correlation(["a", "b"], {"a:a": 0.5})


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
        disc = cube.state(i).discount
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
    before = set(threading.enumerate())
    with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match=r"non-finite y\[EUR\] at date index 1, path 0"):
        for st in PathStream(wild, corr, SimGrid.regular(2, 2.0, 1), 10, 1):
            seen.append(st.index)
    assert seen == [0]
    assert set(threading.enumerate()) == before  # the draw worker was joined


def test_memory_checked_before_allocating(monkeypatch, setup41):
    # the state includes the draw ring; portfolio.cfg in full mode has
    # 3 currencies, 2 FX rates and 2 credit entities
    p_models, p_corr = fixture_models("portfolio.cfg")
    n, nsub = 5000, 3
    stream = PathStream(p_models, p_corr, SimGrid.regular(4, 10.0, nsub), n, 7, "full")
    states = 2 * 3 + 2 + 3 * 2          # y and Y per currency, FX level, credit
                                        # state, its integral and its floor
    draws = 2 * (3 + 2 + 2)             # one substep's draws and temporaries
    derived = 2 + 2 + 2                 # log-FX, credit drivers, discount
    ring = 2 * nsub * (5 + 2) * n * 8   # 2 x substeps x factors x paths x 8 B
    assert stream.state_bytes == 8 * n * (states + draws + derived) + ring
    _, models, corr = setup41
    grid = SimGrid.regular(4, 10.0, 2)
    stream = PathStream(models, corr, grid, 5000, 7, "full")
    assert stream.cube_bytes == 8 * 5000 * grid.n_dates * 5  # y, Y, y_I, Y_I, Y_C
    # room for the streamed state but not for the cube
    monkeypatch.setattr("wwrfva.mc.physical_memory_bytes",
                        lambda: stream.state_bytes + stream.cube_bytes // 2)
    with pytest.raises(ValueError, match=r"scenario cube .* needs 9\.4 MB, more "
                                         r"than the \d\.\d MB of physical memory"):
        simulate(models, corr, grid, 5000, 7, "full")
    assert sum(1 for _ in PathStream(models, corr, grid, 5000, 7, "full")) == grid.n_dates
    monkeypatch.setattr("wwrfva.mc.physical_memory_bytes",
                        lambda: stream.state_bytes - 1)
    with pytest.raises(ValueError, match="simulation state needs"):
        PathStream(models, corr, grid, 5000, 7, "full")


# ---------------------------------------------------------------------------
# draw-ahead worker

def serial_reference(stream):
    """The simulation as a serial loop that draws each substep's normals in
    turn, as the stream did before its draws moved to a worker thread.
    Yields each date's slabs (copies), then the truncated fraction."""
    models, corr, n_paths = stream.models, stream.corr, stream.n_paths
    dom = models.domestic
    ccys = [dom] + models.foreign_currencies
    fx_ccys = list(models.fx)
    entities = stream.entities
    n_ccy, n_fx, n_cred = len(ccys), len(fx_ccys), len(entities)
    n_mkt = n_ccy + n_fx
    L = corr.cholesky
    L_mm = np.ascontiguousarray(L[:n_mkt, :n_mkt])
    L_cm = np.ascontiguousarray(L[n_mkt:, :n_mkt])
    L_cc = np.ascontiguousarray(L[n_mkt:, n_mkt:])
    ss_mkt, ss_credit = np.random.SeedSequence(stream.seed).spawn(2)
    rng_mkt = np.random.default_rng(ss_mkt)
    rng_credit = np.random.default_rng(ss_credit)
    dates = stream.dates
    n_dates, nsub = len(dates), stream.grid.substeps_per_interval
    dts = np.diff(dates) / nsub
    rates = [models.rates[c] for c in ccys]
    a_r = np.array([p.a for p in rates])[:, None]
    decay = np.exp(-a_r * dts)
    shock_sd = np.array([p.sigma for p in rates])[:, None] * np.sqrt(bfac(2.0 * a_r, dts))
    fx_rows = [ccys.index(c) for c in fx_ccys]
    sigma_fx = np.array([models.fx[c].sigma_fx for c in fx_ccys])[:, None]
    mu_fx = np.array([
        fx_terms(models.rates[dom], models.rates[c], models.fx[c],
                 corr.entry(rate_factor(dom), rate_factor(c)),
                 corr.entry(rate_factor(dom), fx_factor(c)),
                 corr.entry(rate_factor(c), fx_factor(c)), 0.0, dates).mu_fx
        for c in fx_ccys]).reshape(n_fx, n_dates)
    credit = [models.credit[z] for z in entities]
    cred_terms = [cir_terms(p, 0.0, dates) for p in credit]
    M_cred = np.array([ct.M for ct in cred_terms]).reshape(n_cred, n_dates)
    a_c = np.array([p.a for p in credit])[:, None]
    theta_c = np.array([p.theta for p in credit])[:, None]
    sigma_c = np.array([p.sigma for p in credit])[:, None]
    k_I = entities.index("I") if "I" in entities else None

    def slabs(ln_fx, Y_cred, y_I):
        out = {f"y_r:{c}": r.tobytes() for c, r in zip(ccys, y)}
        out.update({f"Y_r:{c}": r.tobytes() for c, r in zip(ccys, Y)})
        out.update({f"ln_fx:{c}": r.tobytes() for c, r in zip(fx_ccys, ln_fx)})
        if k_I is not None:
            out["y_I"] = y_I.tobytes()
        out.update({f"Y_{z}": r.tobytes() for z, r in zip(entities, Y_cred)})
        return out

    y = np.zeros((n_ccy, n_paths))
    Y = np.zeros((n_ccy, n_paths))
    w_fx = np.zeros((n_fx, n_paths))
    x_cred = np.repeat(np.array([p.x0 for p in credit])[:, None], n_paths, axis=1)
    intx_cred = np.zeros((n_cred, n_paths))
    n_truncated = 0
    log_spot = np.array([np.log(models.fx[c].spot) for c in fx_ccys])[:, None]
    yield slabs(np.repeat(log_spot, n_paths, axis=1), intx_cred.copy(),
                np.zeros(n_paths) if k_I is not None else None)
    for i in range(1, n_dates):
        dt = dts[i - 1]
        sq_dt = np.sqrt(dt)
        for _ in range(nsub):
            z_mkt = rng_mkt.standard_normal((n_mkt, n_paths))
            eps_mkt = L_mm @ z_mkt
            y_new = y * decay[:, i - 1:i] + shock_sd[:, i - 1:i] * eps_mkt[:n_ccy]
            Y += 0.5 * dt * (y + y_new)
            y = y_new
            w_fx += sq_dt * eps_mkt[n_ccy:]
            if entities:
                z_cred = rng_credit.standard_normal((n_cred, n_paths))
                eps_cred = L_cm @ z_mkt + L_cc @ z_cred
                xp = np.maximum(x_cred, 0.0)
                x_new = (x_cred + a_c * (theta_c - xp) * dt
                         + sigma_c * np.sqrt(xp * dt) * eps_cred)
                n_truncated += int(np.count_nonzero(x_new < 0.0))
                xp_new = np.maximum(x_new, 0.0)
                intx_cred += 0.5 * dt * (xp + xp_new)
                x_cred = x_new
        ln_fx = mu_fx[:, i:i + 1] + Y[0] - Y[fx_rows] + sigma_fx * w_fx
        y_I = (np.maximum(x_cred[k_I], 0.0) - cred_terms[k_I].mu[i]
               if k_I is not None else None)
        yield slabs(ln_fx, intx_cred - M_cred[:, i:i + 1], y_I)
    credit_steps = n_cred * n_paths * nsub * (n_dates - 1)
    yield n_truncated / credit_steps if credit_steps else 0.0


def collect(stream):
    """Every yielded date's slabs as bytes, and the pass's truncated fraction."""
    rows = [{k: v.tobytes() for k, v in _slabs(st).items()} for st in stream]
    return rows, stream.truncated_fraction


@pytest.mark.parametrize("n_paths", [1, 1000])
@pytest.mark.parametrize("nsub", [1, 4])
@pytest.mark.parametrize("mode", ["base", "full"])
@pytest.mark.parametrize("cfg", ["single_swap.cfg", "portfolio.cfg"])
def test_draw_ahead_equals_serial_draws(cfg, mode, nsub, n_paths):
    models, corr = fixture_models(cfg)
    # 12 intervals; 1, where fewer than two fills are submitted up front;
    # 2, where no slot is ever refilled
    for n_intervals in (12, 1, 2):
        grid = SimGrid.regular(4, n_intervals / 4, nsub)
        stream = PathStream(models, corr, grid, n_paths, 5, mode)
        *ref_rows, ref_truncated = serial_reference(stream)
        first = collect(stream)
        assert first == (ref_rows, ref_truncated)
        assert collect(stream) == first


class SlowCredit:
    """A generator wrapper whose every fill first spends `delay` seconds of
    the calling thread's CPU time (the worker's busy time is CPU time, so a
    sleep would not count)."""

    def __init__(self, rng, delay):
        self.rng, self.delay, self.fills = rng, delay, 0

    def standard_normal(self, *args, **kwargs):
        end = time.thread_time() + self.delay
        while time.thread_time() < end:
            pass
        self.fills += 1
        return self.rng.standard_normal(*args, **kwargs)


def test_credit_seconds_count_the_workers_credit_fills(monkeypatch, setup41):
    _, models, corr = setup41
    make = wwrfva.mc._generators
    slow = []

    def generators(seed):
        rng_mkt, rng_credit = make(seed)
        slow.append(SlowCredit(rng_credit, 0.02))
        return rng_mkt, slow[-1]

    monkeypatch.setattr("wwrfva.mc._generators", generators)
    grid = SimGrid.regular(4, 2.0, 2)
    stream = PathStream(models, corr, grid, 200, 7, "full")
    assert sum(1 for _ in stream) == grid.n_dates
    assert slow[0].fills == grid.n_dates - 1
    assert stream.credit_seconds >= 0.02 * slow[0].fills


def consume_all(stream):
    for _ in stream:
        pass


def close_after_two(stream):
    it = iter(stream)
    next(it), next(it)
    it.close()


def break_after_two(stream):
    for st in stream:
        if st.index == 1:
            break


def raise_after_two(stream):
    with pytest.raises(RuntimeError, match="consumer failed"):
        for st in stream:
            if st.index == 1:
                raise RuntimeError("consumer failed")


@pytest.mark.parametrize("end", [consume_all, close_after_two, break_after_two,
                                 raise_after_two])
def test_worker_joined_however_the_stream_ends(end, setup41):
    _, models, corr = setup41
    stream = PathStream(models, corr, SimGrid.regular(4, 5.0, 2), 500, 7, "full")
    before = set(threading.enumerate())
    end(stream)
    assert set(threading.enumerate()) == before


class FailingMarket:
    """A generator wrapper whose third fill raises."""

    def __init__(self, rng):
        self.rng, self.fills = rng, 0

    def standard_normal(self, *args, **kwargs):
        self.fills += 1
        if self.fills == 3:
            raise RuntimeError("draw failed")
        return self.rng.standard_normal(*args, **kwargs)


def test_worker_exception_raised_in_the_consumer(monkeypatch, setup41):
    _, models, corr = setup41
    make = wwrfva.mc._generators

    def generators(seed):
        rng_mkt, rng_credit = make(seed)
        return FailingMarket(rng_mkt), rng_credit

    monkeypatch.setattr("wwrfva.mc._generators", generators)
    before = set(threading.enumerate())
    seen = []
    with pytest.raises(RuntimeError, match="draw failed"):
        for st in PathStream(models, corr, SimGrid.regular(4, 5.0, 2), 100, 7, "full"):
            seen.append(st.index)
    # the first two intervals were drawn before the third fill failed
    assert seen == [0, 1, 2]
    assert set(threading.enumerate()) == before


# ---------------------------------------------------------------------------
# one pass, several overlays

def bumped_streams(texts, mode, grid, n_paths=300, seed=3):
    """One stream of portfolio.cfg per bumped input set, the unbumped first."""
    inputs, _ = load_run_config(fixture_path("portfolio.cfg"))
    sets = [inputs] + [apply_bump(inputs, parse_bump(t, inputs), +1.0) for t in texts]
    out = []
    for s in sets:
        models = build_model_set(s)
        out.append(PathStream(models, build_correlation_for(models, s.correlations),
                              grid, n_paths, seed, mode))
    return out


def state_bits(st):
    return ({k: v.tobytes() for k, v in _slabs(st).items()},
            float(st.h_dom), st.discount.tobytes())


@pytest.mark.parametrize("mode", ["base", "full"])
def test_shared_pass_yields_each_streams_own_states(mode):
    grid = SimGrid.regular(2, 6.0, 2)
    # the credit curve moves no overlay: its state is the unbumped one's
    streams = bumped_streams(("ir_parallel:EUR", "fx_spot:USD", "sigma_fx:GBP",
                              "ir_pillar:USD@2", "credit_parallel:C"), mode, grid)
    assert len({s.key for s in streams}) == 1
    assert len({s.overlay_key for s in streams}) == 5
    alone = [[state_bits(st) for st in s] for s in streams]
    alone_truncated = [s.truncated_fraction for s in streams]
    shared = [[] for _ in streams]
    for states in shared_pass(streams):
        assert states[-1] is states[0]
        for rows, st in zip(shared, states):
            rows.append(state_bits(st))
    assert shared == alone
    assert [s.truncated_fraction for s in streams] == alone_truncated


def test_streams_that_differ_in_their_noise_never_share_a_pass():
    grid = SimGrid.regular(2, 6.0, 2)
    base, sig, corr = bumped_streams(("sigma_r:EUR", "correlation:r_EUR/lambda_I"),
                                     "full", grid)
    assert len({base.key, sig.key, corr.key}) == 3
    for other in (sig, corr):
        with pytest.raises(ValueError, match="cannot share a pass"):
            next(shared_pass([base, other]))
    # the rate-credit correlation leaves a base-mode pass unchanged
    base, corr = bumped_streams(("correlation:r_EUR/lambda_I",), "base", grid)
    assert base.key == corr.key


def test_shared_pass_counts_each_distinct_overlay(monkeypatch):
    grid = SimGrid.regular(2, 6.0, 2)
    base, up, twin = bumped_streams(("ir_parallel:EUR", "credit_parallel:C"),
                                    "base", grid, n_paths=1000)
    extra = 8 * 1000 * up.overlay_rows
    monkeypatch.setattr("wwrfva.mc.physical_memory_bytes",
                        lambda: base.state_bytes + extra - 1)
    # an equal overlay adds no rows; a distinct one adds its derived rows
    assert sum(1 for _ in shared_pass([base, twin])) == grid.n_dates
    with pytest.raises(ValueError, match="simulation state needs"):
        next(shared_pass([base, up]))
