import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wwrfva.curves import Curve
from wwrfva.exposure import (_analytic_moments_on_dates, normal_moments,
                             truncated_normal_moments)
from wwrfva.instruments import (FxForward, Portfolio, PortfolioValuation, Swap,
                                book_buffer, book_rows, book_value, book_ystar,
                                positive_indicator, swap_book, ystar)
from wwrfva.mc import DateState, build_correlation
from wwrfva.models import (CirppParams, GbmFxParams, Hw1fParams, ModelSet,
                           QuantoAdjust, bfac, cir_terms, fx_terms, hw_terms,
                           int_bfac)
from wwrfva.normal import factorial, log_ndtr, ndtr

finite = dict(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# stable scalar helpers

@given(a=st.floats(1e-12, 5.0), tau=st.floats(1e-6, 50.0))
def test_bfac_bounds(a, tau):
    b = bfac(a, tau)
    assert 0.0 < b <= tau * (1.0 + 1e-12)
    ib = int_bfac(a, tau)
    assert 0.0 < ib <= 0.5 * tau * tau * (1.0 + 1e-12)
    # bfac decreases in a at fixed tau
    assert bfac(a * 2.0, tau) <= b * (1.0 + 1e-12)


@given(tau=st.floats(1e-4, 40.0))
def test_bfac_continuous_at_zero_reversion(tau):
    assert bfac(1e-13, tau) == pytest.approx(tau, rel=1e-8)
    assert int_bfac(1e-13, tau) == pytest.approx(0.5 * tau * tau, rel=1e-6)


# ---------------------------------------------------------------------------
# moment recursions

@given(var=st.floats(1e-10, 25.0), z=st.floats(-6.0, 6.0),
       l_max=st.integers(2, 12))
def test_truncated_moment_recursion_properties(var, z, l_max):
    ystar_value = z * math.sqrt(var)
    tm = truncated_normal_moments(var, ystar_value, l_max)
    assert tm.m_check[0] == 1.0
    assert 0.0 <= tm.big_f <= 1.0
    assert np.allclose(tm.partial, tm.m_check * tm.big_f, rtol=1e-13,
                       atol=1e-300)
    # even conditional moments are nonnegative
    assert np.all(tm.m_check[::2] >= 0.0)
    # the truncated mass grows with the boundary
    tm_hi = truncated_normal_moments(var, ystar_value + math.sqrt(var), l_max)
    assert tm_hi.big_f >= tm.big_f


@given(var=st.floats(1e-8, 10.0), l_max=st.integers(2, 16))
def test_plain_moments_recursion(var, l_max):
    m = normal_moments(var, l_max)
    assert m[0] == 1.0
    # recursion m_l = (l-1) var m_{l-2}
    for l in range(2, l_max + 1):
        assert m[l] == pytest.approx((l - 1) * var * m[l - 2], rel=1e-12)


# ---------------------------------------------------------------------------
# correlation assembly

@given(rho_ab=st.floats(-0.99, 0.99), rho_ac=st.floats(-0.99, 0.99),
       rho_bc=st.floats(-0.99, 0.99))
def test_correlation_validation_is_sound(rho_ab, rho_ac, rho_bc):
    entries = {"a:b": rho_ab, "a:c": rho_ac, "b:c": rho_bc}
    try:
        c = build_correlation(["a", "b", "c"], entries)
    except ValueError:
        # rejected: must genuinely fail positive semidefiniteness
        m = np.array([[1.0, rho_ab, rho_ac],
                      [rho_ab, 1.0, rho_bc],
                      [rho_ac, rho_bc, 1.0]])
        assert np.linalg.eigvalsh(m).min() < 1e-10
        return
    assert np.allclose(c.matrix, c.matrix.T)
    assert np.linalg.eigvalsh(c.matrix).min() >= -1e-10
    assert np.allclose(np.diag(c.matrix), 1.0)


# ---------------------------------------------------------------------------
# curves

@given(t=st.floats(0.0, 60.0))
def test_curve_interpolation_within_pillar_range(t):
    c = Curve(label="x", times=(1.0, 5.0, 10.0, 30.0),
              zero_rates=(0.01, 0.02, 0.015, 0.03))
    z = c.zero_rate(t)
    assert 0.01 - 1e-15 <= z <= 0.03 + 1e-15
    if t >= 30.0:
        assert z == pytest.approx(0.03)
    if t <= 1.0:
        assert z == pytest.approx(0.01)
    assert 0.0 < c.discount(t) <= 1.0 + 1e-15


@given(t=st.floats(0.01, 40.0), h=st.floats(1e-6, 0.01))
def test_curve_bump_moves_zero_rate_uniformly(t, h):
    c = Curve(label="x", times=(1.0, 10.0, 30.0),
              zero_rates=(0.01, 0.02, 0.025))
    b = c.bumped(h)
    assert b.zero_rate(t) == pytest.approx(c.zero_rate(t) + h, rel=1e-9)


# ---------------------------------------------------------------------------
# swap root and indicator

SWAPS = st.builds(
    lambda K, expiry, years, freq, d: Swap.regular(
        currency="EUR", notional=100.0, fixed_rate=K, expiry=expiry,
        maturity=expiry + years, frequency=freq, direction=d),
    K=st.floats(0.0, 0.06), expiry=st.floats(0.25, 5.0),
    years=st.integers(1, 20), freq=st.sampled_from([1, 2]),
    d=st.sampled_from(["payer", "receiver"]))


@settings(deadline=None, max_examples=40)
@given(s=SWAPS, u_frac=st.floats(0.01, 0.99), data=st.data())
def test_root_and_indicator_consistency(s, u_frac, data):
    curve = Curve(label="EUR", times=(1.0, 30.0), zero_rates=(0.01, 0.015))
    rp = Hw1fParams(x0=0.0, a=0.03, sigma=0.004, curve=curve)
    u = u_frac * s.maturity
    row = swap_book(s, rp, [u]).at(0)
    const, W, _ = row
    sd = math.sqrt(hw_terms(rp, 0.0, u).var_y)
    star = ystar(row, sd)
    ys = np.array(data.draw(st.lists(st.floats(-8.0, 8.0, **finite),
                                     min_size=5, max_size=30))) * sd
    vals = book_value(*row, ys)
    ind = positive_indicator(s, ys, star).astype(bool)
    scale = abs(const) + float(np.abs(W).sum())
    clear = np.abs(vals) > 1e-9 * scale  # ignore knife-edge states
    assert np.array_equal(ind[clear], vals[clear] > 0.0)
    if math.isfinite(star):
        assert abs(book_value(*row, star)) <= 1e-6 * scale


ROOT_RP = Hw1fParams(x0=0.0, a=0.03, sigma=0.004,
                     curve=Curve(label="EUR", times=(1.0, 30.0), zero_rates=(0.01, 0.015)))


def _check_root_against_mpmath(s, u):
    """ystar of the swap's book row at u against a 50-digit root of the same
    row; returns the root in units of the driver's SD, or +/-inf."""
    row = swap_book(s, ROOT_RP, [u]).at(0)
    const, W, B = row
    sd = math.sqrt(hw_terms(ROOT_RP, 0.0, u).var_y)
    star = ystar(row, sd)
    with mpmath.workdps(50):
        c0 = mpmath.mpf(float(const))
        terms = [(mpmath.mpf(float(w)), mpmath.mpf(float(b))) for w, b in zip(W, B)]

        def value(y):
            return c0 + mpmath.fsum(w * mpmath.exp(-b * y) for w, b in terms)

        if not math.isfinite(star):
            # no sign change in the widest bracket the search tries
            assert value(-64 * sd) * value(64 * sd) > 0
            return star
        # secant from two points a driver SD apart: from one point mpmath
        # steps 0.25 away, hundreds of SDs on a short horizon, and may not
        # come back within its step limit
        ref = float(mpmath.findroot(value, (mpmath.mpf(star) - sd,
                                            mpmath.mpf(star) + sd)))
    assert abs(star - ref) <= 1e-13 * max(1.0, abs(ref))
    return ref / sd


@settings(deadline=None, max_examples=60)
@given(s=SWAPS, u_frac=st.floats(0.01, 0.99))
def test_root_matches_a_50_digit_reference(s, u_frac):
    # u_frac covers dates before and after expiry
    _check_root_against_mpmath(s, u_frac * s.maturity)


@pytest.mark.parametrize("K, expiry, u, direction", [
    (0.06, 1.0, 0.5, "receiver"), (0.06, 1.0, 3.0, "payer"),
    (0.0, 2.0, 0.1, "payer"), (0.0, 2.0, 0.1, "receiver")])
def test_root_matches_a_50_digit_reference_deep_in_or_out_of_the_money(
        K, expiry, u, direction):
    s = Swap.regular(currency="EUR", notional=100.0, fixed_rate=K, expiry=expiry,
                     maturity=expiry + 10.0, direction=direction)
    # |root| > 4 SD: the bracket search doubles to k >= 8 before Newton starts
    assert 4.0 < abs(_check_root_against_mpmath(s, u)) < 64.0


@settings(deadline=None, max_examples=60)
@given(s=SWAPS, u_frac=st.floats(0.01, 1.2),
       z=st.lists(st.floats(-8.0, 8.0, **finite), min_size=1, max_size=20))
def test_book_value_matches_an_fsum_reference(s, u_frac, z):
    # dates before and after expiry, and past maturity (a row with no column)
    u = u_frac * s.maturity
    row = swap_book(s, ROOT_RP, [u]).at(0)
    const, W, B = row
    ys = np.array(z) * math.sqrt(hw_terms(ROOT_RP, 0.0, u).var_y)

    def check(y, v):
        terms = [float(w) * math.exp(-float(b) * y) for w, b in zip(W, B)]
        scale = abs(const) + math.fsum(abs(t) for t in terms)
        assert abs(v - math.fsum([const, *terms])) <= 1e-14 * scale

    vals = book_value(*row, ys)
    assert vals.shape == ys.shape
    for y, v in zip(ys, vals):
        check(y, v)
    scalar = book_value(*row, float(ys[0]))
    assert np.ndim(scalar) == 0
    check(float(ys[0]), scalar)
    if u > s.maturity:
        assert len(W) == 0 and np.array_equal(vals, np.zeros(len(ys)))


# ---------------------------------------------------------------------------
# currency books against the per-instrument closed forms

BOOK_MODELS = ModelSet(
    domestic="EUR",
    rates={
        "EUR": Hw1fParams(x0=0.001, a=0.03, sigma=0.006, curve=Curve(
            label="EUR", times=(1.0, 10.0, 30.0), zero_rates=(0.004, 0.008, 0.012))),
        "USD": Hw1fParams(x0=0.0, a=1e-5, sigma=0.008, curve=Curve(
            label="USD", times=(1.0, 30.0), zero_rates=(0.02, 0.025)),
            quanto=QuantoAdjust(rho_rf_fx=0.25, sigma_fx=0.15)),
        "GBP": Hw1fParams(x0=-0.002, a=0.1, sigma=0.007, curve=Curve(
            label="GBP", times=(2.0, 30.0), zero_rates=(0.015, 0.02)),
            quanto=QuantoAdjust(rho_rf_fx=-0.2, sigma_fx=0.12))},
    fx={"USD": GbmFxParams(spot=0.9, sigma_fx=0.15),
        "GBP": GbmFxParams(spot=1.15, sigma_fx=0.12)},
    credit={})

BOOK_SWAPS = st.builds(
    lambda ccy, K, expiry, years, freq, d: Swap.regular(
        currency=ccy, notional=100.0, fixed_rate=K, expiry=expiry,
        maturity=expiry + years, frequency=freq, direction=d),
    ccy=st.sampled_from(["EUR", "USD", "GBP"]), K=st.floats(0.0, 0.05),
    expiry=st.sampled_from([0.5, 1.0, 2.0, 3.5]), years=st.integers(1, 8),
    freq=st.sampled_from([1, 2]), d=st.sampled_from(["payer", "receiver"]))
BOOK_FORWARDS = st.builds(
    FxForward, currency=st.sampled_from(["USD", "GBP"]),
    notional=st.floats(10.0, 200.0), strike=st.floats(0.7, 1.4),
    maturity=st.sampled_from([0.5, 1.5, 2.0, 4.0, 7.25]), phi=st.sampled_from([-1, 1]))


def _bond(ccy, u, T, y):
    rp = BOOK_MODELS.rates[ccy]
    h = hw_terms(rp, u, T)
    return np.exp(h.A_bar - (hw_terms(rp, 0.0, u).mu + y) * h.B)


def _instrument_legs(inst, u, y, x):
    """Domestic value per path of each cash flow of one instrument still to
    come at u, from the closed-form bonds; the instrument's value is their sum."""
    if u > inst.maturity:
        return []
    if isinstance(inst, FxForward):
        c = inst.currency
        return [inst.phi * inst.notional * _bond(c, u, inst.maturity, y[c]) * x[c],
                -inst.phi * inst.notional * inst.strike
                * _bond("EUR", u, inst.maturity, y["EUR"])]
    c, pay = inst.currency, inst.schedule
    w = np.append(-1.0, inst.fixed_rate * inst.accruals)
    w[-1] += 1.0
    fx = x[c] if c != BOOK_MODELS.domestic else 1.0
    legs = [-inst.phi * inst.notional * fx] if u > pay[0] else []
    # the expiry payment too, up to expiry
    return legs + [inst.phi * inst.notional * w[k] * _bond(c, u, pay[k], y[c]) * fx
                   for k in range(len(pay)) if pay[k] >= u]


@settings(deadline=None, max_examples=30)
@given(swaps=st.lists(BOOK_SWAPS, min_size=0, max_size=5),
       forwards=st.lists(BOOK_FORWARDS, min_size=0, max_size=3), data=st.data())
def test_currency_books_match_per_instrument_values(swaps, forwards, data):
    insts = tuple(swaps + forwards)
    assume(insts)
    p = Portfolio(instruments=insts)
    # dates before, at and after expiries and payment dates
    events = sorted({t for i in insts for t in getattr(i, "schedule", (i.maturity,))})
    picked = data.draw(st.lists(st.sampled_from(events), min_size=1, max_size=4))
    shifts = data.draw(st.lists(st.sampled_from([-0.1, 0.0, 0.05]),
                                min_size=len(picked), max_size=len(picked)))
    dates = np.unique(np.append(0.0, np.clip(np.add(picked, shifts), 0.0, None)))
    valuation = PortfolioValuation(p, BOOK_MODELS, dates)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    buffer = book_buffer(valuation.groups, 7)
    for i, u in enumerate(dates):
        y = {c: rng.normal(0.0, 0.02, 7) for c in BOOK_MODELS.rates}
        ln_fx = {c: rng.normal(np.log(BOOK_MODELS.fx[c].spot), 0.2, 7)
                 for c in BOOK_MODELS.fx}
        st_i = DateState(i, "EUR", 1.0, y, {c: np.zeros(7) for c in y}, ln_fx)
        x = {c: np.exp(v) for c, v in ln_fx.items()}
        legs = [leg for inst in insts for leg in _instrument_legs(inst, u, y, x)]
        want = sum(legs, np.zeros(7))
        # relative to the legs' gross: a swap's legs cancel to far below it
        gross = sum((np.abs(leg) for leg in legs), np.zeros(7))
        row = valuation.row(st_i, book_rows(valuation.groups, st_i, buffer))
        assert np.all(np.abs(row - want) <= 1e-12 * gross), u


# ---------------------------------------------------------------------------
# array calls of the closed forms against per-element scalar calls

REVERSIONS = (0.0, 1e-5, 0.05, 0.3)
# a*tau on both sides of each series switch: 1e-4 (bfac), 1e-3 (int_bfac),
# 1e-2 (hw_a) and 0.1 (the FX rate-rate covariance)
A_TAU = st.one_of(
    st.sampled_from((1e-4, 1e-3, 1e-2, 0.1)).flatmap(
        lambda x: st.floats(0.5 * x, 2.0 * x)),
    st.floats(1e-6, 3.0))
CURVE = Curve(label="EUR", times=(1.0, 5.0, 30.0), zero_rates=(0.004, 0.007, 0.012))


def _spans(data, a, n):
    """n (t, u) pairs with u - t such that a*(u - t) hits the switches."""
    t = np.array(data.draw(st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n)))
    x = np.array(data.draw(st.lists(A_TAU, min_size=n, max_size=n)))
    tau = x / a if a > 0.0 else 30.0 * x
    return t, t + tau


def _assert_fields_match(bundle, scalars):
    for name in bundle.__dataclass_fields__:
        want = np.array([getattr(b, name) for b in scalars])
        np.testing.assert_allclose(getattr(bundle, name), want, rtol=1e-12, atol=0.0,
                                   err_msg=name)


def _hw(a, quanto):
    q = QuantoAdjust(rho_rf_fx=0.3, sigma_fx=0.15) if quanto else None
    return Hw1fParams(x0=0.002, a=a, sigma=0.01, curve=CURVE, quanto=q)


@settings(deadline=None, max_examples=60)
@given(a=st.sampled_from(REVERSIONS), quanto=st.booleans(), data=st.data())
def test_hw_terms_array_call_matches_scalar_calls(a, quanto, data):
    p = _hw(a, quanto)
    t, u = _spans(data, a, 6)
    _assert_fields_match(hw_terms(p, t, u),
                         [hw_terms(p, ti, ui) for ti, ui in zip(t, u)])


@settings(deadline=None, max_examples=60)
@given(a=st.sampled_from(REVERSIONS[1:]), data=st.data())
def test_cir_terms_array_call_matches_scalar_calls(a, data):
    theta = 0.03
    p = CirppParams(x0=0.01, a=a, theta=theta, sigma=0.5 * math.sqrt(2 * a * theta),
                    lgd=0.6, curve=CURVE)
    t, u = _spans(data, a, 6)
    _assert_fields_match(cir_terms(p, t, u),
                         [cir_terms(p, ti, ui) for ti, ui in zip(t, u)])


@settings(deadline=None, max_examples=60)
@given(a_d=st.sampled_from(REVERSIONS), a_f=st.sampled_from(REVERSIONS),
       data=st.data())
def test_fx_terms_array_call_matches_scalar_calls(a_d, a_f, data):
    dom, fgn = _hw(a_d, False), _hw(a_f, True)
    fx = GbmFxParams(spot=0.9, sigma_fx=0.15)
    t, u = _spans(data, max(a_d, a_f), 6)
    _assert_fields_match(
        fx_terms(dom, fgn, fx, 0.5, 0.25, 0.3, t, u),
        [fx_terms(dom, fgn, fx, 0.5, 0.25, 0.3, ti, ui) for ti, ui in zip(t, u)])


@settings(deadline=None, max_examples=40)
@given(s=SWAPS, a=st.sampled_from(REVERSIONS), data=st.data())
def test_swap_book_rows_match_per_payment_scalar_calls(s, a, data):
    rp = _hw(a, False)
    fracs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    on = data.draw(st.lists(st.sampled_from(s.schedule), min_size=1, max_size=3))
    # anywhere up to maturity, at payment dates and just after them
    dates = np.concatenate([np.array(fracs) * s.maturity, on, np.add(on, 0.05)])
    book = swap_book(s, rp, dates)
    phi_n = s.phi * s.notional
    for i, u in enumerate(dates):
        const, W, B = book.at(i)
        live = [k for k, T in enumerate(s.schedule) if T >= u]
        assert const == (-phi_n if s.expiry < u <= s.maturity else 0.0)
        mu = hw_terms(rp, 0.0, u).mu
        per_pay = [hw_terms(rp, u, s.schedule[k]) for k in live]
        want_B = np.array([h.B for h in per_pay])
        np.testing.assert_allclose(B, want_B, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            W, phi_n * s.cashflows[live]
            * np.exp(np.array([h.A_bar for h in per_pay]) - mu * want_B),
            rtol=1e-12, atol=0.0)
        one = swap_book(s, rp, [u]).at(0)
        assert one[0] == const
        np.testing.assert_array_equal(one[1], W)


def test_array_call_with_one_reversed_pair_raises():
    t = np.array([0.0, 1.0, 2.0])
    u = np.array([1.0, 0.5, 3.0])
    cir = CirppParams(x0=0.01, a=0.05, theta=0.03, sigma=0.02, lgd=0.6, curve=CURVE)
    with pytest.raises(ValueError):
        hw_terms(_hw(0.05, False), t, u)
    with pytest.raises(ValueError):
        cir_terms(cir, t, u)
    with pytest.raises(ValueError):
        fx_terms(_hw(0.05, False), _hw(0.3, True), GbmFxParams(spot=0.9, sigma_fx=0.15),
                 0.5, 0.25, 0.3, t, u)


# ---------------------------------------------------------------------------
# the analytic moments' array solve against a per-date loop

def _reference_ystar(row, sd_y):
    """A book row's root by the per-row search: the doubling bracket, then
    Newton on log d from its left end."""
    const, W, B = row
    if const != 0.0:
        c, b = W / -const, B
    elif len(W) == 0:
        c, b = W, B
    else:
        c, b = W[1:] / -W[0], B[1:] - B[0]
    c, b = c[c > 0.0], b[c > 0.0]
    if len(c) == 0:
        return -math.inf
    logc = np.log(c)

    def log_d(y):
        z = logc - y * b
        zmax = z.max()
        e = np.exp(z - zmax)
        return zmax + math.log(e.sum()), e

    k = 1.0
    while k <= 64.0:
        lo, hi = -k * sd_y, k * sd_y
        if log_d(lo)[0] >= 0.0 >= log_d(hi)[0]:
            break
        k *= 2.0
    else:
        return math.inf if log_d(0.0)[0] > 0.0 else -math.inf
    root = lo
    for _ in range(100):
        f, e = log_d(root)
        step = f * e.sum() / (b @ e)
        if not step > 0.0:
            break
        root += step
        if step <= 1e-15 * max(1.0, abs(root)):
            break
    return root


def _reference_partial(var, star, l_max):
    """E[y^l 1_{y <= star}], y ~ N(0, var), by the scalar recursion."""
    if star == math.inf:
        return normal_moments(var, l_max)
    sd = math.sqrt(var)
    if star == -math.inf or star / sd < -37.0:
        return np.zeros(l_max + 1)
    z = star / sd
    mills = math.exp(-(z * z) / 2.0 - math.log(math.sqrt(2.0 * math.pi)) - log_ndtr(z))
    m = [0.0, 1.0]  # m_check[-1], m_check[0]
    for l in range(1, l_max + 1):
        m.append((l - 1) * var * m[-2] - sd * star ** (l - 1) * mills)
    return np.array(m[1:]) * ndtr(z)


def _reference_analytic_moments(s, rp, dates, n_a, l_max):
    """_analytic_moments_on_dates as a loop over the dates, one root, one
    truncated-normal recursion and one expansion product per date; with
    each moment's scale, its terms' bound on the whole line,
    E[|y|^l (|const| + sum_k |W_k| sum_a |B_k|^a |y|^a / a!)]."""
    var = hw_terms(rp, 0.0, np.asarray(dates)).var_y
    book = swap_book(s, rp, dates)
    a = np.arange(n_a + 1)
    shift = a[:, None] + np.arange(l_max + 1)
    out = np.empty((len(dates), l_max + 1))
    size = np.empty((len(dates), l_max + 1))
    roots = np.empty(len(dates))
    for i, v in enumerate(var):
        const, W, B = row = book.at(i)
        roots[i] = _reference_ystar(row, math.sqrt(v))
        # a payer's region y > root: the lower moments of -y at -root
        top = n_a + l_max
        g = (_reference_partial(v, -roots[i], top) * (-1.0) ** np.arange(top + 1)
             if s.phi == -1 else _reference_partial(v, roots[i], top))
        coef = (-B[:, None]) ** a / factorial(a)
        out[i] = const * g[:l_max + 1] + W @ coef @ g[shift]
        # E|y|^n, n = 0 .. n_a + l_max
        g_abs = np.array([(2.0 * v) ** (n / 2.0) * math.gamma((n + 1) / 2.0)
                          / math.sqrt(math.pi) for n in range(n_a + l_max + 1)])
        size[i] = abs(const) * g_abs[:l_max + 1] + abs(W) @ abs(coef) @ g_abs[shift]
    return out, size, roots


@settings(deadline=None, max_examples=60)
@given(s=st.builds(
    lambda K, expiry, years, freq, d: Swap.regular(
        currency="EUR", notional=100.0, fixed_rate=K, expiry=expiry,
        maturity=expiry + years, frequency=freq, direction=d),
    # a fixed rate of 0.5 makes rows one-signed: their roots are +/-inf
    K=st.floats(0.0, 0.06) | st.just(0.5), expiry=st.floats(0.25, 5.0),
    years=st.integers(1, 20), freq=st.sampled_from([1, 2]),
    d=st.sampled_from(["payer", "receiver"])),
       sigma=st.sampled_from([1e-4, 0.004, 0.02]), data=st.data())
def test_analytic_moments_match_a_per_date_loop(s, sigma, data):
    """Dates before expiry, after it and past maturity (a row with no
    column): the roots within 1e-13 relative, or the same infinity, and
    each moment within 1e-14 (a tenth of golden_outputs' profile
    tolerance) of its order's largest scale over the dates. A moment far
    out of the money is a small difference of large terms, and one whose
    root lies tens of SDs out moves by many ulps when the root moves by
    one."""
    rp = Hw1fParams(x0=0.0, a=0.03, sigma=sigma, curve=CURVE)
    fracs = data.draw(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
    dates = np.concatenate([np.array(fracs) * s.expiry,
                            [data.draw(st.floats(s.expiry, s.maturity)),
                             s.maturity + data.draw(st.floats(0.01, 2.0))]])
    n_a, l_max = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 7))
    models = ModelSet("EUR", {"EUR": rp}, fx={}, credit={})
    got = _analytic_moments_on_dates(s, models, dates, n_a, l_max)
    want, size, roots = _reference_analytic_moments(s, rp, dates, n_a, l_max)
    scale = size.max(axis=0)
    assert np.all(np.abs(got - want) <= 1e-14 * scale)
    stars = book_ystar(swap_book(s, rp, dates), np.sqrt(hw_terms(rp, 0.0, dates).var_y))
    inf = np.isinf(roots)
    assert np.array_equal(stars[inf], roots[inf])
    assert np.all(np.abs(stars[~inf] - roots[~inf])
                  <= 1e-13 * np.maximum(1.0, np.abs(roots[~inf])))
    assert np.all(got[-1] == 0.0)  # past maturity


def test_far_out_of_the_money_payer_moments_match_a_50_digit_reference():
    """A payer whose root lies 30 SDs above 0 (sigma 1e-4): its moments, of
    order e^{-450}, within 1e-9 relative of a 50-digit evaluation of the
    same expansion. The partial moments there are the recursion
    G_n = (n-1) v G_{n-2} + v root^{n-1} phi(root) from G_0 = erfc / 2.
    Formed as the whole normal moment less the lower partial one, they
    were rounding noise, 900 times too large."""
    rp = Hw1fParams(x0=0.0, a=0.03, sigma=1e-4, curve=CURVE)
    s = Swap.regular(currency="EUR", notional=100.0, fixed_rate=0.0098, expiry=1.0,
                     maturity=6.0, frequency=1, direction="payer")
    u, n_a, l_max = 0.5, 4, 6
    got = _analytic_moments_on_dates(s, ModelSet("EUR", {"EUR": rp}, fx={}, credit={}),
                                     [u], n_a, l_max)[0]
    var = float(hw_terms(rp, 0.0, np.array([u])).var_y[0])
    book = swap_book(s, rp, [u])
    root = float(book_ystar(book, np.array([math.sqrt(var)]))[0])
    assert 29.0 < root / math.sqrt(var) < 31.0
    const, W, B = book.at(0)
    with mpmath.workdps(50):
        v, r = mpmath.mpf(var), mpmath.mpf(root)
        pdf = mpmath.exp(-r * r / (2 * v)) / mpmath.sqrt(2 * mpmath.pi * v)
        g = [mpmath.erfc(r / mpmath.sqrt(2 * v)) / 2, v * pdf]
        for n in range(2, n_a + l_max + 1):
            g.append((n - 1) * v * g[n - 2] + v * r ** (n - 1) * pdf)
        # the expansion const + sum_k W_k sum_a (-B_k y)^a / a! as a polynomial
        poly = [mpmath.mpf(float(const))] + [mpmath.mpf(0)] * n_a
        for w, b in zip(W, B):
            for a in range(n_a + 1):
                poly[a] += (mpmath.mpf(float(w)) * (-mpmath.mpf(float(b))) ** a
                            / math.factorial(a))
        for l in range(l_max + 1):
            want = mpmath.fsum(poly[a] * g[a + l] for a in range(n_a + 1))
            assert abs((got[l] - want) / want) <= 1e-9, (l, got[l], want)
