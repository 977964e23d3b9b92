import dataclasses
import functools
import math
import threading
import time
import tracemalloc

import mpmath
import numpy as np
import pytest

import wwrfva.mc
from wwrfva.fva import (build_correlation_for, build_model_set, load_run_config,
                        make_grid)
from wwrfva.mc import (PathStream, SimGrid, _correlate, _slabs, build_correlation,
                       credit_factor, dump_cube, factor_labels, fx_factor, load_cube,
                       rate_factor, shared_pass, simulate)
from wwrfva.sensitivities import apply_bump, parse_bump
from wwrfva.models import (GL_NODES, GL_WEIGHTS, cir_terms, fx_terms, hw_terms,
                           interval_covariance, shared_terms)

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


def uncorrelated_credit_models(cfg):
    """`cfg`'s models with every market-credit correlation at 0, so that
    the Cholesky block L_cm is exactly zero."""
    inputs, _ = load_run_config(fixture_path(cfg))
    models = build_model_set(inputs)
    credit = {credit_factor(z) for z in models.credit}
    corrs = {k: 0.0 if len(credit.intersection(k.split(":"))) == 1 else v
             for k, v in inputs.correlations.items()}
    assert corrs != inputs.correlations
    return models, build_correlation_for(models, corrs)


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
    nsub = 3
    # 14 rows of normals an interval: a slot of 65,536 holds one interval of
    # 5,000 paths and nine of 500; the grid has 40
    for n, block in ((5000, 1), (500, 9)):
        stream = PathStream(p_models, p_corr, SimGrid.regular(4, 10.0, nsub), n, 7,
                            "full")
        assert stream.block == block
        states = 3 * 3 + 2 + 3 * 2      # y, its successor and Y per currency,
                                        # FX level; credit state, its floor and
                                        # its integral
        draws = (2 * 3 + 2) + 2 + 2     # the interval's market shocks, one
                                        # substep's credit shocks, one credit
                                        # scratch row
        derived = 2 * (2 + 2 + 1 + 1)   # log-FX, credit drivers, investor's
                                        # driver, discount; two dates
        ring = 2 * block * (2 * 3 + 2 + nsub * 2) * n * 8  # 2 slots x block x
                                        # (market and credit normals of an
                                        # interval) x paths x 8 B
        mask = 3 * n                    # one byte per path, max(3, 2, 2) rows
        assert stream.state_bytes == (8 * n * (states + draws + derived) + ring + mask
                                      + wwrfva.mc.PASS_OBJECT_BYTES)
    _, models, corr = setup41
    grid = SimGrid.regular(4, 10.0, 2)
    stream = PathStream(models, corr, grid, 5000, 7, "full")
    assert stream.cube_rows == grid.n_dates * 5  # y, Y, y_I, Y_I, Y_C
    # a slot holds two intervals of 6 rows: the state is 2.0 MB, the cube 8.2
    assert stream.block == 2
    # room for the streamed state but not for the cube
    monkeypatch.setattr("wwrfva.mc.physical_memory_bytes",
                        lambda: stream.state_bytes + 8 * 5000 * stream.cube_rows // 2)
    with pytest.raises(ValueError, match=r"scenario cube .* needs 10\.2 MB, more "
                                         r"than the \d\.\d MB of physical memory"):
        simulate(models, corr, grid, 5000, 7, "full")
    assert sum(1 for _ in PathStream(models, corr, grid, 5000, 7, "full")) == grid.n_dates
    monkeypatch.setattr("wwrfva.mc.physical_memory_bytes",
                        lambda: stream.state_bytes - 1)
    # the stream is built; the start of its pass refuses
    refused = PathStream(models, corr, grid, 5000, 7, "full")
    with pytest.raises(ValueError, match="simulation state needs"):
        next(iter(refused))
    with pytest.raises(ValueError, match="simulation state needs"):
        shared_pass([refused])


@pytest.mark.parametrize("cfg", ["single_swap.cfg", "portfolio.cfg"])
def test_state_bytes_bound_the_traced_pass(cfg):
    # every row the substeps write is allocated once per pass, so a full
    # pass adds no more than its count to the traced memory; the consumer
    # holds each state, with its discount, until it asks for the next
    inputs, settings = load_run_config(fixture_path(cfg))
    models = build_model_set(inputs)
    n = 1000
    stream = PathStream(models, build_correlation_for(models, inputs.correlations),
                        make_grid(inputs, settings), n, 3, "full")
    # a slot of the draw ring holds several intervals (6 of the single
    # swap's 10 rows, 4 of the portfolio's 16)
    assert stream.block == 65_536 // (stream.n_V + len(stream.entities)
                                      * settings.substeps_per_interval) // n > 1

    def consume():
        for st in stream:
            st.discount

    consume()  # lazy imports and one-off caches belong to no pass
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        consume()
        traced = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert traced <= stream.state_bytes
    # the count is exact to a row: the discount of the state being built
    assert stream.state_bytes - traced < wwrfva.mc.PASS_OBJECT_BYTES + 2 * 8 * n


@pytest.mark.parametrize("L", [[[1.0]], [[0.0], [0.3]], [[-0.35], [0.0]], [[0.6, 0.8]],
                               [[1.0, 0.0], [0.5, 0.0]]])
def test_correlate_equals_matmul_to_the_signed_zero(L):
    L = np.array(L)
    z = np.random.default_rng(2).standard_normal((L.shape[1], 64))
    z[:, :4] = np.array([-0.0, 0.0, -1.5, 1.5])
    out = np.empty((L.shape[0], 64))
    _correlate(L, z, out)
    assert out.tobytes() == (L @ z).tobytes()


@pytest.mark.parametrize("shape", [(8, 8), (2, 10), (2, 2)])
def test_correlate_blocks_equal_the_whole_product(shape):
    # each block is small enough for one BLAS thread, and its columns are
    # bit for bit those of the product over every path
    rng = np.random.default_rng(3)
    L = rng.standard_normal(shape)
    z = rng.standard_normal((shape[1], 70001))
    out = np.empty((shape[0], z.shape[1]))
    _correlate(L, z, out)
    assert out.tobytes() == (L @ z).tobytes()


# ---------------------------------------------------------------------------
# the interval scheme against an independent oracle

_KINDS = {"I": lambda a, t: mpmath.exp(-a * t),          # e^{-a tau}
          "J": lambda a, t: -mpmath.expm1(-a * t) / a,   # B(tau)
          "W": lambda a, t: mpmath.mpf(1)}


@functools.lru_cache(maxsize=None)
def mp_integral(kinds, a, lo, hi):
    """int_lo^hi of the product of the kernels `kinds` (reversions `a`) by
    mpmath quadrature at 30 digits."""
    with mpmath.workdps(30):
        def f(t):
            out = mpmath.mpf(1)
            for kind, ak in zip(kinds, a):
                out *= _KINDS[kind](mpmath.mpf(ak), t)
            return out
        return mpmath.quad(f, [mpmath.mpf(lo), mpmath.mpf(hi)])


def mp_covariance(a_r, R, n_fx, length, nsub):
    """The blocks (C_VV, C_EV, C_EE) of `models.interval_covariance` for one
    interval length, each integral by mpmath quadrature."""
    n_ccy = len(a_r)
    n_mkt = n_ccy + n_fx
    n_cred = len(R) - n_mkt
    rows = ([("I", a, c) for c, a in enumerate(a_r)]
            + [("J", a, c) for c, a in enumerate(a_r)]
            + [("W", 0.0, n_ccy + f) for f in range(n_fx)])
    C_VV = np.array([[R[fi, fj] * float(mp_integral((ki, kj), (ai, aj), 0.0, length))
                      for kj, aj, fj in rows] for ki, ai, fi in rows])
    with mpmath.workdps(30):
        h = mpmath.mpf(length) / nsub
        C_EV = np.array([[R[n_mkt + e, fi] * float(
            mp_integral((ki,), (ai,), (nsub - 1 - k) * h, (nsub - k) * h) / mpmath.sqrt(h))
            for ki, ai, fi in rows] for k in range(nsub) for e in range(n_cred)])
    C_EE = np.kron(np.eye(nsub), R[n_mkt:, n_mkt:])
    return C_VV, C_EV.reshape(nsub * n_cred, len(rows)), C_EE


def mp_factors(stream):
    """Per interval length of `stream`, its factors built from mpmath: the
    rate coefficients (e^{-a D}, B(D)), the market factor scaled to the
    shocks, the credit factor scaled to the shocks and 1 - e^{-a h}."""
    models, n_cred = stream.models, len(stream.entities)
    rates = [models.rates[c] for c in stream.ccys]
    credit = [models.credit[z] for z in stream.entities]
    n_fx, nsub = len(stream.fx_ccys), stream.grid.substeps_per_interval
    R = stream.corr.matrix[:len(rates) + n_fx + n_cred, :len(rates) + n_fx + n_cred]
    out = []
    for length in np.unique(np.diff(stream.dates)):
        C_VV, C_EV, C_EE = mp_covariance([p.a for p in rates], R, n_fx, length, nsub)
        L_VV = np.linalg.cholesky(C_VV)
        with mpmath.workdps(30):
            D, h = mpmath.mpf(length), mpmath.mpf(length) / nsub
            decay = np.array([[float(mpmath.exp(-p.a * D))] for p in rates])
            B = np.array([[float(-mpmath.expm1(-p.a * D) / p.a)] for p in rates])
            revert = np.array([[float(-mpmath.expm1(-p.a * h))] for p in credit])
            shock = np.tile([float(p.sigma * mpmath.sqrt(h)) for p in credit], nsub)
        sigma = [p.sigma for p in rates]
        L_V = np.array(sigma + sigma + [1.0] * n_fx)[:, None] * L_VV
        L_E = np.zeros((nsub * n_cred, len(L_VV) + nsub * n_cred))
        if n_cred:
            L_EV = np.linalg.solve(L_VV, C_EV.T).T
            L_EE = np.linalg.cholesky(C_EE - L_EV @ L_EV.T)
            L_E = shock[:, None] * np.hstack([L_EV, L_EE])
        out.append((decay, B, L_V, L_E, revert, float(length / nsub)))
    return out


def stream_factors(stream):
    """The same factors as `stream` built them."""
    _, decay, B_r, L_V, L_E, h, revert, *_ = stream.noise
    return [(decay[u], B_r[u], L_V[u], L_E[u], revert[u], h[u]) for u in range(len(h))]


def serial_reference(stream, factors):
    """The interval scheme as a serial loop that draws each interval's market
    and then its credit normals in turn, with the given `factors` (one
    entry per distinct interval length, as `mp_factors` builds them).
    Yields each date's slabs as bytes, then the truncated fraction."""
    models, corr, n_paths = stream.models, stream.corr, stream.n_paths
    dom = models.domestic
    ccys = [dom] + models.foreign_currencies
    fx_ccys = list(models.fx)
    entities = stream.entities
    n_ccy, n_fx, n_cred = len(ccys), len(fx_ccys), len(entities)
    n_V = 2 * n_ccy + n_fx
    rng_mkt, rng_credit = wwrfva.mc._generators(stream.seed)
    dates = stream.dates
    n_dates, nsub = len(dates), stream.grid.substeps_per_interval
    _, which = np.unique(np.diff(dates), return_inverse=True)
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
    theta_c = np.array([p.theta for p in credit])[:, None]
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
        decay, B, L_V, L_E, revert, h = factors[which[i - 1]]
        z = rng_mkt.standard_normal((n_V, n_paths))
        V = L_V @ z
        Y = Y + B * y + V[n_ccy:2 * n_ccy]
        y = y * decay + V[:n_ccy]
        w_fx += V[2 * n_ccy:]
        if entities:
            z = np.vstack([z, rng_credit.standard_normal((nsub * n_cred, n_paths))])
            for k in range(nsub):
                top = n_V + (k + 1) * n_cred
                eps = L_E[k * n_cred:(k + 1) * n_cred, :top] @ z[:top]
                xp = np.maximum(x_cred, 0.0)
                x_new = x_cred + (theta_c - xp) * revert + np.sqrt(xp) * eps
                n_truncated += int(np.count_nonzero(x_new < 0.0))
                intx_cred += 0.5 * h * (xp + np.maximum(x_new, 0.0))
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


def as_arrays(rows):
    return [{k: np.frombuffer(v) for k, v in r.items()} for r in rows]


DRAW_CFGS = ["single_swap.cfg", "portfolio.cfg", "single_swap.cfg uncorrelated"]


def check_draw_ahead(monkeypatch, cfg, mode, nsub, n_paths, per_slot=None):
    """A stream drawn ahead equals the serial loop bit for bit on grids of
    12, 1 and 2 intervals, under the default draw budget or one of
    `per_slot` intervals a slot."""
    if cfg.endswith(" uncorrelated"):
        # a zero market-credit block: the credit shocks read z_C alone
        models, corr = uncorrelated_credit_models(cfg.split()[0])
    else:
        models, corr = fixture_models(cfg)
    # 12 intervals; 1, where fewer than two fills are submitted up front;
    # 2, where no slot is ever refilled
    for n_intervals in (12, 1, 2):
        grid = SimGrid.regular(4, n_intervals / 4, nsub)
        if per_slot is not None:
            rows = PathStream(models, corr, grid, n_paths, 5, mode).n_V \
                + nsub * len(models.credit) * (mode == "full")
            monkeypatch.setattr("wwrfva.mc.DRAW_SLOT_ELEMENTS", per_slot * rows * n_paths)
        stream = PathStream(models, corr, grid, n_paths, 5, mode)
        if per_slot is not None:
            assert stream.block == min(per_slot, n_intervals)
        first = collect(stream)
        assert collect(stream) == first
        # drawn ahead, the stream's states are bit for bit those of the
        # serial loop with its own factors
        *rows, truncated = serial_reference(stream, stream_factors(stream))
        assert first == (rows, truncated)
        # and those factors are the scheme's, built independently
        *rows, truncated = serial_reference(stream, mp_factors(stream))
        assert first[1] == truncated
        for got, want in zip(as_arrays(first[0]), as_arrays(rows), strict=True):
            assert list(got) == list(want)
            for k in got:
                np.testing.assert_allclose(got[k], want[k], rtol=1e-11, atol=1e-14,
                                           err_msg=k)


@pytest.mark.parametrize("n_paths", [1, 1000])
@pytest.mark.parametrize("nsub", [1, 4])
@pytest.mark.parametrize("mode", ["base", "full"])
@pytest.mark.parametrize("cfg", DRAW_CFGS)
def test_draw_ahead_equals_serial_draws(monkeypatch, cfg, mode, nsub, n_paths):
    # under the default budget a slot holds all 12 intervals at one path,
    # and at 1,000 paths 4 to 8 of them, the last block partial
    check_draw_ahead(monkeypatch, cfg, mode, nsub, n_paths)


@pytest.mark.parametrize("per_slot", [1, 5])
@pytest.mark.parametrize("mode", ["base", "full"])
@pytest.mark.parametrize("cfg", DRAW_CFGS)
def test_draw_blocks_equal_serial_draws(monkeypatch, cfg, mode, per_slot):
    # slots pinned to one interval, and to five, which split 12 intervals
    # into blocks of 5, 5 and a partial 2
    check_draw_ahead(monkeypatch, cfg, mode, 4, 1000, per_slot)


def test_gauss_legendre_rule():
    x, w = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(GL_NODES, x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(GL_WEIGHTS, w, rtol=0, atol=1e-15)


@pytest.mark.parametrize("nsub", [1, 4])
@pytest.mark.parametrize("length", [0.1, 1.0])
def test_interval_covariance_against_mpmath(length, nsub):
    # portfolio.cfg's correlations with reversions from 1e-5 to 1
    models, corr = fixture_models("portfolio.cfg")
    a_r = (1e-5, 0.3, 1.0)
    (got,) = interval_covariance(a_r, corr.matrix, 2, [length], nsub)
    C_VV, C_EV, C_EE = mp_covariance(a_r, corr.matrix, 2, length, nsub)
    np.testing.assert_allclose(got, np.block([[C_VV, C_EV.T], [C_EV, C_EE]]),
                               rtol=1e-12, atol=0)


@pytest.mark.parametrize("mode", ["base", "full"])
def test_market_slabs_independent_of_substeps(mode):
    # the market transition is exact over each interval, so the substeps,
    # which the credit Euler alone takes, leave the market paths alone
    models, corr = fixture_models("portfolio.cfg")
    one, four = (simulate(models, corr, SimGrid.regular(4, 10.0, nsub), 2000, 7, mode)
                 for nsub in (1, 4))
    for name in ("y_r", "Y_r", "ln_fx"):
        for key, slab in getattr(one, name).items():
            assert slab.tobytes() == getattr(four, name)[key].tobytes(), (name, key)


def test_credit_drift_reverts_at_the_exact_rate(setup41):
    # with no noise the Euler step x + (theta - x)(1 - e^{-a h}) is the
    # exact mean, even at one step a year; a drift a (theta - x) h was
    # 1.1e-4 off at year 10
    _, models, corr = setup41
    quiet = dataclasses.replace(models, credit={
        z: dataclasses.replace(p, sigma=1e-10) for z, p in models.credit.items()})
    cube = simulate(quiet, corr, SimGrid.regular(1, 30.0, 1), 100, 7, "full")
    assert np.max(np.abs(cube.y_I)) <= 1e-9


# ---------------------------------------------------------------------------
# draw-ahead worker

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
    """A generator wrapper whose fill number `failing` (one interval's
    market normals) raises."""

    def __init__(self, rng, failing):
        self.rng, self.fills, self.failing = rng, 0, failing

    def standard_normal(self, *args, **kwargs):
        self.fills += 1
        if self.fills == self.failing:
            raise RuntimeError("draw failed")
        return self.rng.standard_normal(*args, **kwargs)


def raise_in_worker(monkeypatch, setup41, block, failing):
    """The dates a full stream of the single swap (2 substeps, so 6 rows of
    100 paths an interval) yields before the market fill number `failing`
    raises in the draw worker, with `block` intervals a slot."""
    _, models, corr = setup41
    make = wwrfva.mc._generators

    def generators(seed):
        rng_mkt, rng_credit = make(seed)
        return FailingMarket(rng_mkt, failing), rng_credit

    monkeypatch.setattr("wwrfva.mc._generators", generators)
    monkeypatch.setattr("wwrfva.mc.DRAW_SLOT_ELEMENTS", block * 6 * 100)
    stream = PathStream(models, corr, SimGrid.regular(4, 5.0, 2), 100, 7, "full")
    assert stream.block == block
    before = set(threading.enumerate())
    seen = []
    with pytest.raises(RuntimeError, match="draw failed"):
        for st in stream:
            seen.append(st.index)
    assert set(threading.enumerate()) == before
    return seen


def test_worker_exception_raised_in_the_consumer(monkeypatch, setup41):
    # one interval a slot: the first two were drawn before the third failed
    assert raise_in_worker(monkeypatch, setup41, 1, 3) == [0, 1, 2]


def test_worker_exception_surfaces_at_its_blocks_first_date(monkeypatch, setup41):
    # two intervals a slot: interval 6 fails in the block of intervals 5
    # and 6, and the consumer reads that block's result at its first date
    assert raise_in_worker(monkeypatch, setup41, 2, 6) == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------------------
# one pass, several overlays

def bumped_streams(texts, mode, grid, n_paths=300, seed=3):
    """One stream of portfolio.cfg per bumped input set, the unbumped first,
    built within one call's shared terms."""
    inputs, _ = load_run_config(fixture_path("portfolio.cfg"))
    sets = [inputs] + [apply_bump(inputs, parse_bump(t, inputs), +1.0) for t in texts]
    out = []
    with shared_terms():
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
    assert len({id(s.noise) for s in streams}) == 1
    assert len({id(s.overlay) for s in streams}) == 5
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
    assert len({id(base.noise), id(sig.noise), id(corr.noise)}) == 3
    for other in (sig, corr):
        with pytest.raises(ValueError, match="cannot share a pass"):
            next(shared_pass([base, other]))
    # the rate-credit correlation leaves a base-mode pass unchanged
    base, corr = bumped_streams(("correlation:r_EUR/lambda_I",), "base", grid)
    assert base.noise is corr.noise


def test_streams_built_outside_a_call_never_share_a_pass():
    # sameness is decided by a call's shared terms alone: outside them, two
    # streams of one input set hold two noise objects
    inputs, _ = load_run_config(fixture_path("portfolio.cfg"))
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    grid = SimGrid.regular(2, 6.0, 2)
    a, b = (PathStream(models, corr, grid, 300, 3) for _ in range(2))
    assert a.noise is not b.noise
    with pytest.raises(ValueError, match="cannot share a pass"):
        next(shared_pass([a, b]))
    assert sum(1 for _ in shared_pass([a, a])) == grid.n_dates


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
