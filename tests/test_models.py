import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from wwrfva.curves import Curve
from wwrfva.models import (CirppParams, GbmFxParams, Hw1fParams, ModelSet,
                           QuantoAdjust, bfac, cir_terms, feller_check,
                           fx_terms, hw_a, hw_terms, int_bfac)

FLAT = Curve(label="flat", times=(1.0, 30.0), zero_rates=(0.01, 0.01))
EUR = Curve(label="EUR", times=(1.0, 2.0, 5.0, 10.0, 20.0, 30.0),
            zero_rates=(0.004, 0.005, 0.007, 0.009, 0.011, 0.012))


def hw(a=1e-5, sigma=0.00284, x0=0.0, curve=EUR, quanto=None):
    return Hw1fParams(x0=x0, a=a, sigma=sigma, curve=curve, quanto=quanto)


def cir_c():
    # counterparty-style square-root factor
    return CirppParams(x0=0.0063774, a=0.2, theta=0.035447, sigma=0.08,
                       lgd=0.6, curve=FLAT)


def cir_i():
    # institution-style square-root factor (the funding spread)
    return CirppParams(x0=0.0016939, a=0.05, theta=0.015390, sigma=0.02,
                       lgd=0.6, curve=FLAT)


# ---------------------------------------------------------------------------
# stable helpers and limits

def test_bfac_small_a_limit():
    assert bfac(1e-14, 7.0) == pytest.approx(7.0, rel=1e-10)
    assert bfac(0.5, 2.0) == pytest.approx((1 - math.exp(-1.0)) / 0.5, rel=1e-14)


def test_int_bfac_small_a_limit():
    # integral of bfac over (0, tau) -> tau^2/2 as a -> 0
    assert int_bfac(1e-14, 3.0) == pytest.approx(4.5, rel=1e-8)


def test_rate_driver_variance_frozen_value():
    # frozen oracle: sigma^2 * bfac(2a, 10) at a = 1e-5, sigma = 0.00284
    terms = hw_terms(hw(), 0.0, 10.0)
    assert terms.var_y == pytest.approx(8.0648e-5, rel=1e-4)


def test_hw_small_a_matches_brownian_limits():
    terms = hw_terms(hw(a=1e-9, sigma=0.01), 0.0, 4.0)
    assert terms.var_y == pytest.approx(0.01 ** 2 * 4.0, rel=1e-7)
    assert terms.var_Y == pytest.approx(0.01 ** 2 * 4.0 ** 3 / 3.0, rel=1e-7)


def test_hw_var_Y_is_twice_convexity_exponent():
    terms = hw_terms(hw(a=0.3, sigma=0.02), 0.0, 6.0)
    assert terms.var_Y == pytest.approx(2.0 * terms.A, rel=1e-13)


def test_hw_zcb_reprices_curve_exactly():
    for u in (0.5, 3.0, 17.5, 30.0):
        terms = hw_terms(hw(), 0.0, u)
        p_model = math.exp(terms.A_bar - hw().x0 * terms.B)
        assert p_model == pytest.approx(EUR.discount(u), rel=1e-12)


def test_hw_terms_smooth_long_horizon():
    for u in np.linspace(0.0, 50.0, 101):
        t = hw_terms(hw(), 0.0, float(u))
        assert np.isfinite([t.A, t.B, t.mu, t.M, t.var_y, t.var_Y, t.H]).all()


def test_hw_rejects_reversed_times():
    with pytest.raises(ValueError):
        hw_terms(hw(), 2.0, 1.0)


def test_quanto_shifts_mean_not_variance():
    q = QuantoAdjust(rho_rf_fx=0.25, sigma_fx=0.15)
    plain = hw_terms(hw(a=0.1, sigma=0.005), 0.0, 5.0)
    adj = hw_terms(hw(a=0.1, sigma=0.005, quanto=q), 0.0, 5.0)
    drift = 0.25 * 0.005 * 0.15
    assert adj.mu - plain.mu == pytest.approx(-drift * bfac(0.1, 5.0), rel=1e-12)
    assert adj.M - plain.M == pytest.approx(-drift * int_bfac(0.1, 5.0), rel=1e-12)
    assert adj.var_y == plain.var_y
    assert adj.var_Y == plain.var_Y


# ---------------------------------------------------------------------------
# square-root credit factor

def test_feller_condition_parameter_sets():
    assert feller_check(cir_c())
    assert 2 * 0.05 * 0.015390 > 0.02 ** 2      # institution-style parameters
    assert 2 * 0.2 * 0.035447 > 0.08 ** 2       # counterparty-style parameters


def test_feller_violation_rejected():
    with pytest.raises(ValueError):
        CirppParams(x0=0.01, a=0.05, theta=0.01, sigma=0.2, lgd=0.6, curve=FLAT)


def test_cir_survival_reprices_curve_exactly():
    p = cir_c()
    for u in (1.0, 5.0, 20.0):
        t = cir_terms(p, 0.0, u)
        surv = math.exp(t.A_bar - p.x0 * t.B)
        assert surv == pytest.approx(FLAT.discount(u), rel=1e-12)


def test_cir_terms_smooth_long_horizon():
    p = cir_c()
    for u in np.linspace(0.0, 50.0, 101):
        t = cir_terms(p, 0.0, float(u))
        vals = [t.A, t.B, t.mu, t.M, t.var_y, t.var_Y, t.H, t.exp_Yy]
        assert np.isfinite(vals).all()


def test_cir_moments_match_exact_transition_simulation():
    """Independent oracle: exact noncentral-chi-square transitions plus
    trapezoidal integration, vs the closed-form moments at u = 5."""
    p = cir_c()
    u, n_steps, n_paths = 5.0, 320, 200_000
    dt = u / n_steps
    rng = np.random.default_rng(42)
    c = p.sigma ** 2 * (1.0 - math.exp(-p.a * dt)) / (4.0 * p.a)
    df = 4.0 * p.a * p.theta / p.sigma ** 2
    x = np.full(n_paths, p.x0)
    integral = np.zeros(n_paths)
    for _ in range(n_steps):
        prev = x
        nc = x * math.exp(-p.a * dt) / c
        x = c * rng.noncentral_chisquare(df, nc)
        integral += 0.5 * dt * (prev + x)
    t = cir_terms(p, 0.0, u)
    y = x - x.mean()
    big_y = integral - integral.mean()

    def se(sample):
        return sample.std() / math.sqrt(n_paths)

    assert x.mean() == pytest.approx(t.mu, abs=3 * se(x))
    assert integral.mean() == pytest.approx(t.M, abs=3 * se(integral))
    assert y.var() == pytest.approx(t.var_y, abs=3 * se(y * y))
    assert big_y.var() == pytest.approx(t.var_Y, abs=3 * se(big_y * big_y))
    assert (big_y * y).mean() == pytest.approx(t.exp_Yy, abs=3 * se(big_y * y))


def _cir_driver_moments_50_digits(p, tau):
    """var_y, var_Y and E[Y y] of the square-root factor over (0, tau),
    from the closed forms evaluated at 50 significant digits."""
    with mpmath.workdps(50):
        x0, a, th, sg, tau = (mpmath.mpf(v) for v in
                              (p.x0, p.a, p.theta, p.sigma, tau))
        e1 = mpmath.exp(-a * tau)
        e2 = mpmath.exp(-2 * a * tau)
        mu = x0 * e1 + th * (1 - e1)
        var_y = (sg ** 2 / a) * (1 - e1) * (mu - th * (1 - e1) / 2)
        var_Y = ((sg ** 2 * x0 / a ** 3) * (1 - 2 * a * tau * e1 - e2)
                 + (sg ** 2 * th / a ** 3) * (a * tau - 3 * (1 - e1)
                                              + 2 * a * tau * e1 + (1 - e1) ** 2 / 2))
        exp_Yy = ((sg ** 2 * x0 / a ** 2) * e1 * (a * tau - 1 + e1)
                  + (sg ** 2 * th / a ** 2) * ((1 - e2) / 2 - a * tau * e1))
        return float(var_y), float(var_Y), float(exp_Yy)


@pytest.mark.parametrize("a_tau", [1e-4, 5e-3, 0.025, 0.125, 0.5, 2.0])
@pytest.mark.parametrize("make", [cir_i, cir_c])
def test_cir_driver_moments_accurate_for_small_a_tau(make, a_tau):
    """The closed forms of var_Y and E[Y y] cancel O(1) terms as a*tau -> 0;
    against a 50-digit evaluation they must stay at double precision."""
    p = make()
    tau = a_tau / p.a
    t = cir_terms(p, 0.0, tau)
    ref = _cir_driver_moments_50_digits(p, tau)
    for name, got, want in zip(("var_y", "var_Y", "exp_Yy"),
                               (t.var_y, t.var_Y, t.exp_Yy), ref):
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), name


@pytest.mark.parametrize("a_tau", [0.0101, 0.02, 0.05, 0.1, 0.5, 2.0])
@pytest.mark.parametrize("a", [0.05, 0.2, 1.0])
def test_hw_a_accurate_above_the_short_series(a, a_tau):
    """The closed form of A = sigma^2 phi(a tau) / (2 a^3) cancels O(a tau)
    terms down to O((a tau)^3); against a 50-digit evaluation it must stay
    at double precision just above the switch from the short series."""
    sigma = 0.01
    tau = a_tau / a
    with mpmath.workdps(50):
        x = mpmath.mpf(a) * mpmath.mpf(tau)
        phi = x - 2 * (1 - mpmath.exp(-x)) + (1 - mpmath.exp(-2 * x)) / 2
        want = float(mpmath.mpf(sigma) ** 2 * phi / (2 * mpmath.mpf(a) ** 3))
    assert hw_a(a, sigma, tau) == pytest.approx(want, rel=1e-13, abs=0.0)
    # the array path gives the same value
    assert hw_a(a, sigma, np.array([tau]))[0] == hw_a(a, sigma, tau)


# ---------------------------------------------------------------------------
# FX

def test_fx_terms_zero_vol_rates_reduce_to_deterministic_drift():
    dom = hw(a=0.1, sigma=1e-12, curve=FLAT)
    fgn = hw(a=0.2, sigma=1e-12, curve=EUR)
    fx = GbmFxParams(spot=0.9, sigma_fx=0.15)
    t = fx_terms(dom, fgn, fx, 0.5, 0.25, 0.25, 0.0, 4.0)
    assert t.var_lnfx == pytest.approx(0.15 ** 2 * 4.0, rel=1e-9)
    expected_mu = (math.log(0.9) - FLAT.log_discount(4.0)
                   + EUR.log_discount(4.0) - 0.5 * 0.15 ** 2 * 4.0)
    assert t.mu_fx == pytest.approx(expected_mu, rel=1e-9)


def test_fx_forward_consistency():
    # E[X(u)] under the domestic measure equals the curve forward
    dom = hw(curve=EUR)
    fgn = hw(sigma=0.00357, curve=FLAT,
             quanto=QuantoAdjust(rho_rf_fx=0.25, sigma_fx=0.15))
    fx = GbmFxParams(spot=0.91802, sigma_fx=0.15)
    u = 7.0
    t = fx_terms(dom, fgn, fx, 0.5, 0.25, 0.25, 0.0, u)
    mean_x = math.exp(t.mu_fx + 0.5 * t.var_lnfx)
    # the quanto-adjusted drift makes discounted X a martingale:
    # E[e^{-int r_d} X(u)] = X(0) P_f(0,u)
    dom_terms = hw_terms(dom, 0.0, u)
    disc_mean_x = math.exp(
        t.mu_fx + 0.5 * t.var_lnfx - dom_terms.M - dom_terms.int_b
        + 0.5 * dom_terms.var_Y - _cov_lnfx_Yd(dom, fgn, fx, 0.5, 0.25, u))
    assert disc_mean_x == pytest.approx(0.91802 * FLAT.discount(u), rel=1e-10)
    assert mean_x > 0.0


def _cov_lnfx_Yd(dom, fgn, fx, rho_df, rho_d_fx, u):
    # Cov(ln X(u), Y_d) = Var(Y_d) - rho Cov(Y_f, Y_d) + sigma_x rho int B
    from wwrfva.models import int_bfac
    a_d, a_f = dom.a, fgn.a
    int_bb = (a_d * int_bfac(a_d, u) + a_f * int_bfac(a_f, u)
              - (a_d + a_f) * int_bfac(a_d + a_f, u))
    cov_yy = rho_df * dom.sigma * fgn.sigma * int_bb / (a_d * a_f)
    var_yd = hw_terms(dom, 0.0, u).var_Y
    return var_yd - cov_yy + rho_d_fx * dom.sigma * fx.sigma_fx * int_bfac(a_d, u)


def _rate_cov_by_quadrature(a_d, a_f, tau):
    # integral_0^tau B_d(s) B_f(s) ds, B_a(s) = (1 - e^{-a s}) / a
    def b(a, s):
        return s if a == 0.0 else -math.expm1(-a * s) / a
    return integrate.quad(lambda s: b(a_d, s) * b(a_f, s), 0.0, tau,
                          epsabs=0.0, epsrel=1e-13)[0]


def test_fx_variance_continuous_as_one_reversion_vanishes():
    # the rate-rate covariance of var_lnfx has its own limit when only one
    # mean reversion is zero; approaching it must not make var_lnfx jump
    fx = GbmFxParams(spot=1.0, sigma_fx=0.15)
    fixed = hw(a=0.3, sigma=0.01, curve=FLAT)
    for tau in (0.5, 10.0, 30.0):
        for pair in (lambda a: (hw(a=a, sigma=0.01), fixed),
                     lambda a: (fixed, hw(a=a, sigma=0.01))):
            at_zero = fx_terms(*pair(0.0), fx, 0.5, 0.25, 0.25, 0.0, tau).var_lnfx
            # var_lnfx holds -2 rho sigma_d sigma_f cov; rho = 0.5 isolates cov
            cov = (fx_terms(*pair(0.0), fx, 0.0, 0.25, 0.25, 0.0, tau).var_lnfx
                   - at_zero) / (0.01 * 0.01)
            assert cov == pytest.approx(
                _rate_cov_by_quadrature(pair(0.0)[0].a, pair(0.0)[1].a, tau), rel=1e-9)
            for a in (1e-12, 1e-9, 1e-6, 1e-4):
                near = fx_terms(*pair(a), fx, 0.5, 0.25, 0.25, 0.0, tau).var_lnfx
                assert near == pytest.approx(at_zero, rel=a * tau + 1e-12)


def test_model_set_validation():
    with pytest.raises(ValueError):
        ModelSet(domestic="EUR", rates={}, fx={}, credit={})
    with pytest.raises(ValueError):
        ModelSet(domestic="EUR", rates={"EUR": hw()},
                 fx={"USD": GbmFxParams(spot=1.0, sigma_fx=0.1)}, credit={})
