import contextlib
import dataclasses
import math
import time

import numpy as np
import pytest

from wwrfva import exposure
from wwrfva.exposure import (WwrCoeffs, _assemble_wwr, base_moments,
                             coeffs_for_dates, epe_indep,
                             epe_wwr_approx_generic,
                             epe_wwr_approx_swap_analytic, epe_wwr_mc,
                             normal_moments, psi_diagnostic,
                             truncated_normal_moments)
from wwrfva.fva import build_correlation_for, build_model_set
from wwrfva.instruments import value_matrix
from wwrfva.mc import SimGrid, pass_numpy_state, simulate

from conftest import normal_partial_moment


@pytest.fixture()
def setup41(b41):
    inputs, settings = b41
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    return inputs, models, corr


@pytest.fixture()
def small_run(setup41):
    inputs, models, corr = setup41
    grid = SimGrid.regular(4, 30.0, 2)
    base = simulate(models, corr, grid, 20000, 1, "base")
    full = simulate(models, corr, grid, 20000, 1, "full")
    vm = value_matrix(inputs.portfolio, models, base)
    bm = base_moments(base, inputs.portfolio, models, 5, value_mat=vm)
    coeffs = coeffs_for_dates(models, corr, base.dates, 5)
    return inputs, models, corr, base, full, vm, bm, coeffs


# ---------------------------------------------------------------------------
# moment machinery

def test_plain_normal_moments_double_factorial():
    var = 0.37
    m = normal_moments(var, 8)
    assert m[0] == 1.0
    assert np.allclose(m[[1, 3, 5, 7]], 0.0)
    assert m[2] == pytest.approx(var)
    assert m[4] == pytest.approx(3.0 * var ** 2)
    assert m[6] == pytest.approx(15.0 * var ** 3)
    assert m[8] == pytest.approx(105.0 * var ** 4)


def test_truncated_moments_match_quadrature():
    grid = [(v, z) for v in (1.0, 0.25, 4.0, 8.1e-5)
            for z in (-2.0, -0.5, 0.0, 0.7, 1.9)]
    assert len(grid) == 20
    for var, z in grid:
        sd = math.sqrt(var)
        ystar = z * sd
        tm = truncated_normal_moments(var, ystar, 12)
        for l in range(13):
            ref = normal_partial_moment(l, sd, ystar)
            even = l if l % 2 == 0 else l + 1
            scale = max(abs(ref), normal_moments(var, even)[even])
            assert abs(tm.partial[l] - ref) <= 1e-10 * scale, (var, z, l)


def test_truncated_moments_infinite_boundary():
    plus = truncated_normal_moments(1.3, math.inf, 6)
    assert np.allclose(plus.partial, normal_moments(1.3, 6))
    assert plus.big_f == 1.0
    minus = truncated_normal_moments(1.3, -math.inf, 6)
    assert np.allclose(minus.partial, 0.0)
    assert minus.underflow


def test_truncated_moments_deep_tail_underflow_flag():
    tm = truncated_normal_moments(1.0, -40.0, 4)
    assert tm.underflow and tm.big_f == 0.0
    assert np.allclose(tm.partial, 0.0)


# ---------------------------------------------------------------------------
# projection coefficients

# the dates of the coefficient rows read below: u = 5.0 after u_prev = 4.9
DATES_TO_5 = np.array([0.0, 4.9, 5.0])


def test_coeffs_zero_correlation(setup41):
    inputs, models, _ = setup41
    from wwrfva.mc import build_correlation, factor_labels
    corr0 = build_correlation(factor_labels(models), {})
    c = coeffs_for_dates(models, corr0, DATES_TO_5, 5)
    assert c.gamma[-1] == 0.0 and c.alpha[-1] == 0.0 and c.nu[-1] == 0.0


def test_coeffs_signs_negative_correlation(setup41):
    _, models, corr = setup41
    c = coeffs_for_dates(models, corr, DATES_TO_5, 5)
    assert c.gamma[-1] < 0.0 and c.alpha[-1] > 0.0 and c.nu[-1] < 0.0


def test_beta_first_terms(setup41):
    _, models, corr = setup41
    from wwrfva.models import hw_terms
    u = 5.0
    c = coeffs_for_dates(models, corr, DATES_TO_5, 5)
    assert c.beta[-1, 0] == 1.0
    t = hw_terms(models.rates["EUR"], 0.0, u)
    sigma_Yr = math.sqrt(t.var_Y / t.var_y)
    assert c.beta[-1, 1] == pytest.approx(-sigma_Yr, rel=1e-12)


def test_coeffs_rejects_degenerate_interval(setup41):
    _, models, corr = setup41
    with pytest.raises(ValueError):
        coeffs_for_dates(models, corr, np.array([0.0, 0.0]), 5)


@pytest.mark.parametrize("dates", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [1.0, 2.0], [0.0]],
                         ids=["repeated_date", "decreasing", "no_date_0", "one_date"])
def test_coeffs_rejects_dates_that_do_not_strictly_increase(setup41, dates):
    # each row's spread averages the shift over the interval that ends at it,
    # so a date that does not follow the previous one has no interval
    _, models, corr = setup41
    with pytest.raises(ValueError, match="must start at 0 and strictly increase"):
        coeffs_for_dates(models, corr, np.array(dates), 5)


def test_coeffs_for_dates_row0_is_the_date0_limit(small_run):
    inputs, models, corr, base, full, vm, bm, c = small_run
    n = len(base.dates)
    for f in dataclasses.fields(WwrCoeffs):
        if f.name not in ("beta", "lgd"):
            assert getattr(c, f.name).shape == (n,), f.name
    assert c.beta.shape == (n, 6)
    assert c.gamma[0] == c.alpha[0] == c.nu[0] == c.exp_YIyI[0] == 0.0
    assert c.P_I[0] == c.P_C[0] == c.H_rIC[0] == c.H_IC[0] == 1.0
    assert c.beta[0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    assert c.mu_S[0] == coeffs_for_dates(models, corr, base.dates[:2], 5).mu_S[1]


def _dot_loop_wwr(c, y_moments, disc_epe):
    """Reference: the WWR assembly as one np.dot per date."""
    n_r = c.beta.shape[1] - 1
    out = np.zeros(len(disc_epe))
    for i in range(len(disc_epe)):
        s1 = np.dot(c.beta[i], y_moments[1:n_r + 2, i])
        s2 = np.dot(c.beta[i], y_moments[2:n_r + 3, i])
        out[i] = (c.H_rIC[i] * (c.mu_S[i] * c.alpha[i] + c.lgd * c.gamma[i]) * s1
                  + c.lgd * c.H_rIC[i] * c.nu[i] * s2
                  + c.lgd * c.H_IC[i] * c.exp_YIyI[i] * disc_epe[i])
    return out


def test_array_assembly_equals_per_date_dot_loop(small_run):
    inputs, models, corr, base, full, vm, _, _ = small_run
    for n_r in (0, 5, 20):
        bm = base_moments(base, inputs.portfolio, models, n_r, value_mat=vm)
        c = coeffs_for_dates(models, corr, base.dates, n_r)
        # the sampled moments are order-major; the closed-form ones are
        # assembled from a date-major array
        date_major = np.ascontiguousarray(bm.y_moments.T).T
        for moms in (bm.y_moments, date_major):
            got = _assemble_wwr(c, moms, bm.disc_epe)
            assert got.tobytes() == _dot_loop_wwr(c, moms, bm.disc_epe).tobytes(), n_r
        assert _assemble_wwr(c, bm.y_moments, bm.disc_epe)[0] == 0.0
        for m in (1, 2):
            psi = [np.dot(c.beta[i], bm.y_moments[m:m + n_r + 1, i])
                   for i in range(len(bm.dates))]
            got = psi_diagnostic(bm, c, m).psi
            assert got.tobytes() == np.array(psi).tobytes(), (n_r, m)


# ---------------------------------------------------------------------------
# base moments and the independent exposure

def test_base_moments_date0(small_run):
    inputs, models, corr, base, full, vm, bm, coeffs = small_run
    from conftest import static_portfolio_value
    v0 = static_portfolio_value(inputs.portfolio, models)
    assert v0 > 0.0  # fixture chosen in the money
    assert bm.disc_epe[0] == pytest.approx(v0, rel=1e-10)
    assert np.allclose(bm.y_moments[1:, 0], 0.0)


def test_base_moments_timer_charges_thread_cpu_time(monkeypatch, setup41):
    # the cube form times the driver moments on the streamed run's clock; a
    # sleep in the moment kernel stands for a wait for a core
    inputs, models, corr = setup41
    cube = simulate(models, corr, SimGrid.regular(1, 30.0, 1), 500, 1, "base")
    kernel = exposure.y_moments_at
    slept = []

    def sleepy(*args):
        time.sleep(0.02)
        slept.append(0.02)
        return kernel(*args)

    monkeypatch.setattr(exposure, "y_moments_at", sleepy)
    bm = base_moments(cube, inputs.portfolio, models, 5)
    assert len(slept) == len(cube.dates)
    assert bm.y_moment_seconds < sum(slept)


def test_receiver_first_moment_negative_at_interior_dates(small_run):
    *_, bm, coeffs = small_run
    interior = bm.y_moments[1, 4:-4]
    assert np.all(interior < 0.0)


def test_epe_indep_positive_and_smaller_than_exposure(small_run):
    inputs, models, corr, base, full, vm, bm, coeffs = small_run
    indep = epe_indep(bm, coeffs, models)
    assert np.all(indep >= 0.0)
    # the spread factor is tiny, so the spread-weighted exposure is far
    # below the plain discounted exposure
    assert np.all(indep[1:] < 0.05 * bm.disc_epe[1:] + 1e-12)


def test_zero_credit_coupling_limits(small_run):
    inputs, models, corr, base, full, vm, bm, coeffs = small_run
    # date-0 entry of the independent profile equals spread x value
    mu0 = coeffs_for_dates(models, corr, base.dates[:2], 5).mu_S[1]
    assert epe_indep(bm, coeffs, models)[0] == pytest.approx(
        mu0 * bm.disc_epe[0], rel=1e-12)


# ---------------------------------------------------------------------------
# WWR estimates

def test_mc_wwr_zero_correlation_within_noise(setup41):
    inputs, models, _ = setup41
    from wwrfva.mc import build_correlation, factor_labels
    corr0 = build_correlation(factor_labels(models), {})
    grid = SimGrid.regular(4, 30.0, 2)
    base = simulate(models, corr0, grid, 20000, 1, "base")
    full = simulate(models, corr0, grid, 20000, 1, "full")
    vm = value_matrix(inputs.portfolio, models, base)
    bm = base_moments(base, inputs.portfolio, models, 5, value_mat=vm)
    coeffs = coeffs_for_dates(models, corr0, base.dates, 5)
    vals, ses = epe_wwr_mc(full, inputs.portfolio, models, bm, coeffs,
                           value_mat=vm)
    z = vals[1:] / np.maximum(ses[1:], 1e-300)
    assert np.max(np.abs(z)) < 4.0
    # and the approximation is exactly zero apart from the cancellation term
    approx = epe_wwr_approx_generic(coeffs, bm)
    total = epe_indep(bm, coeffs, models) + approx
    c = coeffs
    for i in range(1, len(base.dates)):
        assert total[i] == pytest.approx(
            c.P_I[i] * c.P_C[i] * c.mu_S[i] * bm.disc_epe[i], rel=1e-12)


def test_generic_and_analytic_methods_agree(small_run):
    inputs, models, corr, base, full, vm, bm, coeffs = small_run
    s = inputs.portfolio.single_swap
    # a second grid running 2 years past maturity, where the swap is gone
    late = simulate(models, corr, SimGrid.regular(4, s.maturity + 2.0, 2),
                    20000, 1, "base")
    late_bm = base_moments(late, inputs.portfolio, models, 5)
    late_coeffs = coeffs_for_dates(models, corr, late.dates, 5)
    for b, c in ((bm, coeffs), (late_bm, late_coeffs)):
        gen = epe_wwr_approx_generic(c, b)
        ana = epe_wwr_approx_swap_analytic(s, models, c, b, 5, 5)
        # same coefficients, moments by averaging vs closed form: few-percent
        # statistical difference on 2e4 paths
        denom = np.max(np.abs(gen))
        assert np.max(np.abs(gen[1:] - ana[1:])) < 0.05 * denom
    after = late.dates > s.maturity
    assert np.count_nonzero(after) == 8
    assert np.all(gen[after] == 0.0)
    assert np.all(ana[after] == 0.0)


def test_wwr_requires_full_cube(small_run):
    inputs, models, corr, base, full, vm, bm, coeffs = small_run
    with pytest.raises(ValueError):
        epe_wwr_mc(base, inputs.portfolio, models, bm, coeffs, value_mat=vm)


def test_psi_diagnostic_receiver_negative_correlations(small_run):
    inputs, models, corr, base, full, vm, bm, coeffs = small_run
    d = psi_diagnostic(bm, coeffs, 1)
    assert np.all(d.psi[1:] < 0.0)
    assert d.gamma_verdict == "WWR"
    assert d.alpha_verdict == "RWR"
    assert d.net_verdict == "WWR"
    # sign of the net first-order coupling per date
    c = coeffs
    for i in range(1, len(bm.dates)):
        expect = np.sign(c.mu_S[i] * c.alpha[i] + c.lgd * c.gamma[i])
        assert d.net_sign[i] == expect, i
    # WWR dominates early in the horizon, where the exposure peaks
    assert np.all(d.net_sign[1:len(bm.dates) // 3] == -1.0)


@pytest.mark.parametrize("n", [2, 3, 49, 50, 51, 99, 400, 2001, 20_000])
def test_estimators_round_as_numpy_mean_and_std(n):
    # the per-date estimators skip numpy's per-call dispatch, not its steps
    rng = np.random.default_rng(n)
    nb = min(exposure.N_BATCHES, n)
    for k in range(20):
        x = np.maximum(rng.standard_normal(n) * 10.0 ** rng.integers(-4, 5) + k - 10, 0.0)
        batch = x[:(n // nb) * nb].reshape(nb, -1).mean(axis=1)
        want = float(batch.std(ddof=1) / math.sqrt(nb))
        assert repr(float(exposure._batch_se(x))) == repr(want)
        assert exposure._mean(x).tobytes() == x.mean().tobytes()
        y = rng.standard_normal(n)
        chain = [x]
        for _ in range(3):
            chain.append(chain[-1] * y)
        vp = x.copy()
        got = exposure.y_moments_at(y, vp, 3)
        assert got.tobytes() == np.array(chain).mean(axis=1).tobytes()
        assert vp.tobytes() == chain[-1].tobytes()  # left holding y^3 (V)+


@pytest.mark.parametrize("n", [2, 3, 49, 50, 51, 99, 400, 2001])
@pytest.mark.parametrize("d", [1, 2, 7])
@pytest.mark.parametrize("state", [contextlib.nullcontext, pass_numpy_state])
def test_tile_reductions_equal_each_rows_own(n, d, state):
    # a tile's one 2-D call per reduction rounds each date as the 1-D call
    # on that date's row alone, under numpy's default ufunc buffer and the
    # pass's
    rng = np.random.default_rng(1000 * n + d)
    scale = 10.0 ** rng.integers(-4, 5, size=(d, 1))
    x = np.maximum(rng.standard_normal((d, n)) * scale + rng.integers(-2, 3, (d, 1)), 0.0)
    y = rng.standard_normal((d, n))
    with state():
        means, ses = exposure._mean(x), exposure._batch_se(x)
        moms = exposure.y_moments_at(y, x.copy(), 7)
        assert means.shape == ses.shape == (d,) and moms.shape == (8, d)
        for j in range(d):
            assert means[j].tobytes() == exposure._mean(x[j]).tobytes()
            assert ses[j].tobytes() == exposure._batch_se(x[j]).tobytes()
            row = exposure.y_moments_at(y[j], x[j].copy(), 7)
            assert moms[:, j].tobytes() == row.tobytes()
