"""Acceptance gate.

Each test maps to one acceptance criterion of the build contract:
market fit, zero-correlation limits, benchmark agreement, speedup,
order convergence, moment oracles, indicator oracles, error bounds,
risk-direction diagnostics, sensitivities, and determinism. The heavy
shared state (the full-scale single-swap run) lives in the session
fixture `acc` in conftest.
"""

import dataclasses
import math

import numpy as np
import pytest

from wwrfva.bounds import explicit_e1_bound, swap_cv_bound
from wwrfva.exposure import (BaseMoments, DateTile, coeffs_for_dates, epe_indep,
                             epe_wwr_approx_generic,
                             epe_wwr_approx_swap_analytic, normal_moments,
                             psi_diagnostic, truncated_normal_moments,
                             wwr_mc_at)
from wwrfva.fva import build_correlation_for, build_model_set, run_fva
from wwrfva.instruments import PortfolioValuation
from wwrfva.mc import PathStream, SimGrid, build_correlation, factor_labels
from wwrfva.models import hw_terms
from wwrfva.sensitivities import (BumpSpec, cross_gamma, fd_sensitivities,
                                  fd_sensitivity)

from conftest import integrate, normal_partial_moment, small_settings


# ---------------------------------------------------------------------------
# 1. market repricing at full scale, within budget

def test_criterion_1_market_fit(acc):
    dates = acc.dates
    curve = acc.inputs.market.rate_curve("EUR")
    sqrt_n = math.sqrt(acc.n_paths)
    for i in range(1, len(dates)):
        mean, std = acc.market["discount"][:, i]
        se = std / sqrt_n
        assert abs(mean - curve.discount(dates[i])) <= 3.0 * se, i
    for ent in ("I", "C"):
        ccurve = acc.inputs.market.credit_curve(ent)
        for i in range(1, len(dates)):
            mean, std = acc.market["Y_" + ent][:, i]
            se = std / sqrt_n
            assert abs(mean - ccurve.discount(dates[i])) <= 3.0 * se, (ent, i)
    assert acc.sim_seconds < 120.0


def test_acc_holds_no_array_of_dates_by_paths(acc):
    # the gate reads the engine's stream: the fixture keeps per-date
    # estimates only, never a stored cube or value matrix
    n_dates = len(acc.dates)

    def arrays(value):
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, dict):
            for v in value.values():
                yield from arrays(v)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                yield from arrays(getattr(value, f.name))

    for name, value in vars(acc).items():
        for a in arrays(value):
            assert not {n_dates, acc.n_paths} <= set(a.shape), (name, a.shape)


# ---------------------------------------------------------------------------
# 2. zero correlation kills the coupling

def test_criterion_2_zero_correlation(acc):
    models, p = acc.models, acc.portfolio
    corr0 = build_correlation(factor_labels(models), {})
    grid = SimGrid.regular(4, 30.0, 2)
    # one full-mode pass: its market drivers equal a base-mode pass's (see mc)
    stream = PathStream(models, corr0, grid, 20000, 1, "full")
    dates = stream.dates
    valuation = PortfolioValuation(p, models, dates)
    coeffs = coeffs_for_dates(models, corr0, dates, 5)
    bm = BaseMoments.empty(dates, 8)
    tile = DateTile(1, 20000, moments=True, credit=False)
    vals, ses = np.zeros(len(dates)), np.zeros(len(dates))
    for st, row in valuation.valued_pass(stream):
        i = st.index
        h = bm.enter(st, row, tile)
        bm.reduce(tile)
        if i:
            vals[i], ses[i] = wwr_mc_at(i, h, bm.disc_epe[i], st.Y_I, st.Y_C, st.y_I,
                                        coeffs)
    total = epe_indep(bm, coeffs, models) + epe_wwr_approx_generic(coeffs, bm)
    c = coeffs
    for i in range(1, len(dates)):
        assert total[i] == pytest.approx(
            c.P_I[i] * c.P_C[i] * c.mu_S[i] * bm.disc_epe[i], rel=1e-12), i
    z = vals[1:] / np.maximum(ses[1:], 1e-300)
    assert np.max(np.abs(z)) < 4.0


# ---------------------------------------------------------------------------
# 3. approximation within 5% of the benchmark FVA

def test_criterion_3_benchmark_agreement(acc):
    dates = acc.dates
    fva_indep = integrate(dates, acc.epe_indep)
    fva_wwr = integrate(dates, acc.wwr_approx)
    fva_wwr_mc = integrate(dates, acc.wwr_mc)
    total = fva_indep + fva_wwr
    total_mc = fva_indep + fva_wwr_mc
    rd = 100.0 * (total - total_mc) / total_mc
    assert abs(rd) <= 5.0
    # the coupling adds exposure for a receiver with negative rate-credit
    # correlation: a positive hump peaking early in the life, with at most
    # an immaterial sign flip near maturity where the opposite-direction
    # integrated-rates term takes over
    assert fva_wwr > 0.0
    n = len(dates)
    assert np.all(acc.wwr_approx[1:n // 2] > 0.0)
    peak = int(np.argmax(acc.wwr_approx))
    assert peak < n // 3
    assert abs(min(acc.wwr_approx.min(), 0.0)) < 0.2 * acc.wwr_approx[peak]


# ---------------------------------------------------------------------------
# 4. the approximation is at least 10x faster than the benchmark

def test_criterion_4_speedup(acc):
    assert acc.mc_seconds / acc.approx_seconds >= 10.0


# ---------------------------------------------------------------------------
# 5. order convergence of both expansions

def test_criterion_5_order_convergence(acc):
    dates = acc.dates
    models, corr = acc.models, acc.corr

    def fva_at_nr(n_r):
        coeffs = coeffs_for_dates(models, corr, dates, n_r)
        return integrate(dates, epe_wwr_approx_generic(coeffs, acc.bm20))

    ref = fva_at_nr(20)
    errs = [abs(fva_at_nr(n) - ref) / abs(ref) for n in range(1, 9)]
    assert errs[4] <= 1e-4  # default order
    assert all(b <= a * (1.0 + 1e-9) + 1e-15 for a, b in zip(errs, errs[1:]))

    def fva_at_na(n_a):
        wwr = epe_wwr_approx_swap_analytic(acc.swap, models, acc.coeffs5,
                                           acc.bm5, 5, n_a)
        return integrate(dates, wwr)

    ref_a = fva_at_na(20)
    errs_a = [abs(fva_at_na(n) - ref_a) / abs(ref_a) for n in range(1, 9)]
    assert errs_a[4] <= 1e-4
    assert all(b <= a * (1.0 + 1e-9) + 1e-15
               for a, b in zip(errs_a, errs_a[1:]))


# ---------------------------------------------------------------------------
# 6. moment oracles

def test_criterion_6_moment_oracles():
    # plain moments: exact double-factorial values
    var = 1.7
    m = normal_moments(var, 10)
    for l in range(0, 11, 2):
        exact = math.prod(range(l - 1, 0, -2)) * var ** (l // 2) if l else 1.0
        assert m[l] == pytest.approx(exact, rel=1e-14)
    assert np.allclose(m[1::2], 0.0)
    # truncated moments vs adaptive quadrature
    for var, z in ((0.8, -1.3), (2.5, 0.4), (6.1e-5, 1.1), (1.0, -3.0)):
        sd = math.sqrt(var)
        tm = truncated_normal_moments(var, z * sd, 12)
        for l in range(13):
            ref = normal_partial_moment(l, sd, z * sd)
            even = l if l % 2 == 0 else l + 1
            scale = max(abs(ref), normal_moments(var, even)[even])
            assert abs(tm.partial[l] - ref) <= 1e-10 * scale, (var, z, l)


# ---------------------------------------------------------------------------
# 7. positivity indicators against brute-force valuation

def test_criterion_7_indicator_oracles(acc, b42):
    from wwrfva.instruments import (FxForward, fx_forward_positive_indicator,
                                    fx_forward_terms,
                                    fx_forward_value_projected,
                                    book_value, positive_indicator, swap_book,
                                    ystar)
    models = acc.models
    s = acc.swap
    rng = np.random.default_rng(17)
    for u in (0.5, 2.0, 8.0, 15.0, 25.0, 29.5):
        row = swap_book(s, models.rates["EUR"], [u]).at(0)
        sd = math.sqrt(hw_terms(models.rates["EUR"], 0.0, u).var_y)
        ys = rng.normal(0.0, 4.0 * sd, 10000)
        star = ystar(row, sd)
        ind = positive_indicator(s, ys, star).astype(bool)
        vals = book_value(*row, ys)
        assert np.sum(ind != (vals > 0.0)) == 0, u

    inputs42, _ = b42
    models42 = build_model_set(inputs42)
    corr42 = build_correlation_for(models42, inputs42.correlations)
    for u in (0.5, 2.5, 4.5):
        for phi, strike in ((1, 0.95), (-1, 0.85), (1, 0.80)):
            fwd = FxForward(currency="USD", notional=100.0, strike=strike,
                            maturity=5.0, phi=phi)
            terms = fx_forward_terms(fwd, models42, corr42, u)
            sd = math.sqrt(hw_terms(models42.rates["EUR"], 0.0, u).var_y)
            ys = rng.normal(0.0, 4.0 * sd, 10000)
            vals = phi * fx_forward_value_projected(terms, ys)
            ind = fx_forward_positive_indicator(fwd, terms, ys).astype(bool)
            assert np.sum(ind != (vals > 0.0)) == 0, (u, phi, strike)


# ---------------------------------------------------------------------------
# 8. error bounds dominate the measured errors at full scale

def test_criterion_8_error_bounds(acc):
    dates = acc.dates
    models, s = acc.models, acc.swap
    for i in range(1, len(dates)):
        u = float(dates[i])
        c_v = swap_cv_bound(s, models, u)
        emp = float(acc.pos_sq[i])
        # float allowance: at the last live date the Cauchy-Schwarz step is
        # an equality and the bound is tight to rounding
        assert emp <= c_v * (1.0 + 1e-9), i
    for i in range(1, len(dates), 10):
        u = float(dates[i])
        c_v = swap_cv_bound(s, models, u)
        for x in ("1", "y_I"):
            meas = acc.eps1[x][i]
            b = explicit_e1_bound(models, acc.coeffs5, c_v,
                                  acc.bm5.disc_epe[i], acc.tab, i, x)
            assert meas <= b, (i, x)


# ---------------------------------------------------------------------------
# 9. risk-direction diagnostics

def test_criterion_9_risk_direction(acc):
    c = acc.coeffs5
    for i in range(1, len(acc.dates)):
        assert c.gamma[i] < 0.0 and c.alpha[i] > 0.0 and c.nu[i] < 0.0
    d = psi_diagnostic(acc.bm5, acc.coeffs5, 1)
    assert np.all(d.psi[1:] < 0.0)
    assert d.gamma_verdict == "WWR"
    assert d.alpha_verdict == "RWR"
    for i in range(1, len(acc.dates)):
        assert d.net_sign[i] == np.sign(c.mu_S[i] * c.alpha[i] + c.lgd * c.gamma[i]), i


# ---------------------------------------------------------------------------
# 10. sensitivities: sign agreement, structural zeros, FD order

@pytest.mark.slow
def test_criterion_10_sensitivities(b41, b42):
    inputs42, settings42 = b42
    sett = small_settings(settings42, n_paths=20000, dates_per_year=4,
                          substeps=2, method="approx_generic")
    sett_mc = dataclasses.replace(sett, method="mc")
    targets = ([BumpSpec(target="ir_parallel", qualifier=c, size=1e-4)
                for c in ("EUR", "USD", "GBP")]
               + [BumpSpec(target="credit_parallel", qualifier=e, size=1e-4)
                  for e in ("I", "C")])
    rows_ap = fd_sensitivities(inputs42, sett, targets)
    rows_mc = fd_sensitivities(inputs42, sett_mc, targets)
    for bump, ap, mc in zip(targets, rows_ap, rows_mc):
        assert np.sign(ap.d_fva_wwr) == np.sign(mc.d_fva_wwr), bump.label
        assert np.sign(ap.d_fva_total) == np.sign(mc.d_fva_total), bump.label

    # the rate-credit coupling drives the IR x credit cross gamma of the
    # WWR part: with zero correlations only a small structural residual
    # remains (the own-credit spread-survival covariance term), which
    # serves as the floor; with the fixture correlations the cross gamma
    # must stand out beyond three times that floor
    inputs41, settings41 = b41
    tiny = small_settings(settings41, n_paths=3000, dates_per_year=2,
                          substeps=2, method="approx_generic")
    a = BumpSpec(target="ir_parallel", qualifier="EUR", size=1e-4)
    b = BumpSpec(target="credit_parallel", qualifier="C", size=1e-4)
    with_rho = cross_gamma(inputs41, tiny, a, b)
    zeroed = inputs41.copy()
    zeroed.correlations = {}
    without_rho = cross_gamma(zeroed, tiny, a, b)
    floor = abs(without_rho["d2_fva_wwr"])
    assert abs(with_rho["d2_fva_wwr"]) > 3.0 * floor

    # central differences converge at second order: Richardson ratio ~ 4
    ana = small_settings(settings41, n_paths=3000, dates_per_year=2,
                         substeps=2, method="approx_analytic")
    h0 = 0.5 * 0.00284

    def delta(h):
        row = fd_sensitivity(inputs41, ana,
                             BumpSpec(target="sigma_r", qualifier="EUR",
                                      size=h))
        return row.d_fva_total

    d1, d2, d4 = delta(h0), delta(h0 / 2.0), delta(h0 / 4.0)
    ratio = (d1 - d2) / (d2 - d4)
    assert ratio == pytest.approx(4.0, rel=0.35)


# ---------------------------------------------------------------------------
# 11. determinism

def test_criterion_11_determinism(b41):
    inputs, settings = b41
    sett = small_settings(settings, n_paths=5000, method="approx_generic",
                          benchmark=True)
    r1 = run_fva(inputs, sett)
    r2 = run_fva(inputs.copy(), sett)
    assert r1.to_dict(include_timings=False) == r2.to_dict(include_timings=False)
    assert np.array_equal(r1.profile.epe_wwr, r2.profile.epe_wwr)
    assert np.array_equal(r1.benchmark_profile.epe_wwr,
                          r2.benchmark_profile.epe_wwr)
