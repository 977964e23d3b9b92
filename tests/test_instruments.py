import math
import re

import numpy as np
import pytest

from wwrfva import instruments
from wwrfva.fva import build_correlation_for, build_model_set
from wwrfva.instruments import (FxForward, Portfolio, PortfolioValuation, Swap,
                                fx_forward_positive_indicator,
                                fx_forward_terms, fx_forward_value_projected,
                                book_value, load_portfolio, positive_indicator,
                                swap_book, value_matrix, ystar)
from wwrfva.mc import SimGrid, simulate
from wwrfva.models import hw_terms, shared_terms
from wwrfva.sensitivities import apply_bump, parse_bump

from conftest import static_portfolio_value


@pytest.fixture()
def setup41(b41):
    inputs, settings = b41
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    return inputs, models, corr


@pytest.fixture()
def setup42(b42):
    inputs, settings = b42
    models = build_model_set(inputs)
    corr = build_correlation_for(models, inputs.correlations)
    return inputs, models, corr


def receiver(K=0.013, expiry=1.0, maturity=30.0, direction="receiver"):
    return Swap.regular(currency="EUR", notional=10000.0, fixed_rate=K,
                        expiry=expiry, maturity=maturity, frequency=1,
                        direction=direction)


def payer(**kw):
    return receiver(direction="payer", **kw)


# ---------------------------------------------------------------------------
# construction and loading

def test_regular_schedule():
    s = receiver(expiry=1.0, maturity=4.0)
    assert np.allclose(s.schedule, [1.0, 2.0, 3.0, 4.0])
    assert s.phi == 1


def test_invalid_swap_rejected():
    with pytest.raises(ValueError):
        Swap.regular(currency="EUR", notional=1.0, fixed_rate=0.01,
                     expiry=5.0, maturity=2.0, frequency=1,
                     direction="receiver")
    with pytest.raises(ValueError):
        Swap.regular(currency="EUR", notional=1.0, fixed_rate=0.01,
                     expiry=1.0, maturity=2.0, frequency=1, direction="both")


def test_load_portfolio(tmp_path):
    path = tmp_path / "p.yaml"
    path.write_text(
        "instruments:\n"
        "- {type: swap, direction: payer, currency: USD, notional: 100.0,\n"
        "   fixed_rate: 0.02, expiry: 1.0, maturity: 5.0, frequency: 2}\n"
        "- {type: fx_forward, direction: sell, currency: USD,\n"
        "   notional: 50.0, strike: 0.9, maturity: 3.0}\n")
    p = load_portfolio(path)
    assert len(p.instruments) == 2
    assert p.instruments[0].phi == -1
    assert p.instruments[1].phi == -1
    assert p.currencies == {"USD"}
    assert p.horizon == pytest.approx(5.0)
    assert p.single_swap is None


@pytest.mark.parametrize("text, match", [
    ("instruments:\n", "expected a non-empty 'instruments' list"),
    ("instruments: []\n", "expected a non-empty 'instruments' list"),
    ("instruments:\n- swap\n", "instrument 0: expected a mapping"),
    ("instruments:\n- {type: swap, currency: EUR, fixed_rate: 0.01, expiry: 1.0,"
     " maturity: 5.0}\n", "instrument 0 \\(swap\\): missing key\\(s\\) 'notional'"),
    ("instruments:\n- {type: fx_forward, currency: USD, notional: 1.0, strike: 0.9,"
     " maturity: 3.0, direction: purchase}\n",
     "instrument 0 \\(fx_forward\\): direction must be 'buy' or 'sell', got 'purchase'"),
    ("instruments:\n- {currency: USD}\n", "instrument 0: unknown instrument type None"),
], ids=["none", "empty", "not_mapping", "no_notional", "bad_direction", "no_type"])
def test_malformed_portfolio_rejected(tmp_path, text, match):
    path = tmp_path / "p.yaml"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"portfolio file {path}: {match}"):
        load_portfolio(path)


def test_malformed_portfolio_yaml_names_the_file(tmp_path):
    path = tmp_path / "p.yaml"
    path.write_text("instruments:\n- {type: swap\n")
    with pytest.raises(ValueError, match=re.escape(f"malformed portfolio file {path}: ")):
        load_portfolio(path)


@pytest.mark.parametrize("entry, kind, key, value", [
    ("{type: swap, currency: EUR, notional: abc, fixed_rate: 0.01, expiry: 1.0,"
     " maturity: 5.0}", "swap", "notional", "'abc'"),
    ("{type: swap, currency: EUR, notional: 1.0, fixed_rate: 0.01, expiry: 1.0,"
     " maturity: null}", "swap", "maturity", "None"),
    ("{type: fx_forward, currency: USD, notional: 1.0, strike: [0.9],"
     " maturity: 3.0}", "fx_forward", "strike", "[0.9]"),
], ids=["string", "null", "list"])
def test_non_numeric_instrument_value_rejected(tmp_path, entry, kind, key, value):
    # float() used to fail with a bare "could not convert string to float"
    path = tmp_path / "p.yaml"
    path.write_text("instruments:\n- {type: swap, currency: EUR, notional: 1.0,"
                    f" fixed_rate: 0.01, expiry: 1.0, maturity: 5.0}}\n- {entry}\n")
    msg = f"portfolio file {path}: instrument 1 ({kind}): {key} must be a number, got {value}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        load_portfolio(path)


_INSTRUMENT_NUMBERS = {
    "swap": {"notional": "1.0", "fixed_rate": "0.01", "expiry": "1.0", "maturity": "5.0"},
    "fx_forward": {"notional": "1.0", "strike": "0.9", "maturity": "3.0"}}


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, keys in _INSTRUMENT_NUMBERS.items()
                                       for key in keys])
@pytest.mark.parametrize("value, shown", [(".nan", "nan"), (".inf", "inf"), ("-.inf", "-inf")])
def test_non_finite_instrument_value_rejected(tmp_path, kind, key, value, shown):
    # NaN passes every `<= 0` check: a NaN notional ran the whole pass and
    # failed blaming the model parameters, a NaN expiry failed with a bare
    # "cannot convert float NaN to integer"
    numbers = dict(_INSTRUMENT_NUMBERS[kind], **{key: value})
    fields = ", ".join(f"{k}: {v}" for k, v in numbers.items())
    currency = "EUR" if kind == "swap" else "USD"
    path = tmp_path / "p.yaml"
    path.write_text(f"instruments:\n- {{type: swap, currency: EUR, notional: 1.0,"
                    f" fixed_rate: 0.01, expiry: 1.0, maturity: 5.0}}\n"
                    f"- {{type: {kind}, currency: {currency}, {fields}}}\n")
    msg = f"portfolio file {path}: instrument 1 ({kind}): {key} must be finite, got {shown}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        load_portfolio(path)


@pytest.mark.parametrize("value", ["2.5", "abc", "true"])
def test_non_integral_swap_frequency_rejected(tmp_path, value):
    # int() used to read 2.5 as 2 without a word and fail on abc naming no key
    path = tmp_path / "p.yaml"
    path.write_text("instruments:\n- {type: fx_forward, currency: USD, notional: 1.0,"
                    " strike: 0.9, maturity: 3.0}\n- {type: swap, currency: EUR,"
                    " notional: 1.0, fixed_rate: 0.01, expiry: 1.0, maturity: 5.0,"
                    f" frequency: {value}}}\n")
    got = {"2.5": "2.5", "abc": "'abc'", "true": "True"}[value]
    msg = (f"portfolio file {path}: instrument 1 (swap): frequency must be an integer,"
           f" got {got}")
    with pytest.raises(ValueError, match=re.escape(msg)):
        load_portfolio(path)


@pytest.mark.parametrize("value", ["0", "-2", "0.0"])
def test_swap_frequency_below_one_rejected(tmp_path, value):
    # Swap.regular used to fail with "maturity - expiry must be a whole number
    # of periods", naming no file, instrument or key
    path = tmp_path / "p.yaml"
    path.write_text("instruments:\n- {type: fx_forward, currency: USD, notional: 1.0,"
                    " strike: 0.9, maturity: 3.0}\n- {type: swap, currency: EUR,"
                    " notional: 1.0, fixed_rate: 0.01, expiry: 1.0, maturity: 5.0,"
                    f" frequency: {value}}}\n")
    msg = (f"portfolio file {path}: instrument 1 (swap): frequency must be at least 1"
           f" payment a year, got {int(float(value))}")
    with pytest.raises(ValueError, match=re.escape(msg)):
        load_portfolio(path)


def test_integral_float_swap_frequency_accepted(tmp_path):
    path = tmp_path / "p.yaml"
    path.write_text("instruments:\n- {type: swap, currency: EUR, notional: 1.0,"
                    " fixed_rate: 0.01, expiry: 1.0, maturity: 5.0, frequency: 2.0}\n")
    assert load_portfolio(path).single_swap == Swap.regular(
        currency="EUR", notional=1.0, fixed_rate=0.01, expiry=1.0, maturity=5.0,
        frequency=2)


@pytest.mark.parametrize("entry, key", [
    ("{type: swap, currency: EUR, notional: 1.0, fixed_rate: 0.01, expiry: 1.0,"
     " maturity: 5.0, frequncy: 2}", "frequncy"),
    ("{type: fx_forward, currency: USD, notional: 1.0, strike: 0.9,"
     " maturity: 3.0, frequency: 1}", "frequency"),
], ids=["swap", "fx_forward"])
def test_unknown_instrument_key_rejected(tmp_path, entry, key):
    # a misspelt key must not fall back to a default, e.g. annual payments
    path = tmp_path / "p.yaml"
    path.write_text("instruments:\n"
                    "- {type: swap, currency: EUR, notional: 1.0, fixed_rate: 0.01,"
                    " expiry: 1.0, maturity: 5.0}\n"
                    f"- {entry}\n")
    with pytest.raises(ValueError, match=f"instrument 1 .*unknown key.*'{key}'"):
        load_portfolio(path)


# ---------------------------------------------------------------------------
# swap valuation

def test_date0_value_matches_zcb_sum(setup41):
    inputs, models, _ = setup41
    s = receiver()
    curve = inputs.market.rate_curve("EUR")
    v = book_value(*swap_book(s, models.rates["EUR"], [0.0]).at(0), 0.0)
    # direct curve valuation: -P(T0) + K sum tau P(Tk) + P(Tm)
    direct = -curve.discount(1.0) + curve.discount(30.0)
    for k in range(2, 31):
        direct += 0.013 * curve.discount(float(k))
    direct *= s.notional
    assert v == pytest.approx(direct, rel=1e-12)


def test_payer_receiver_parity(setup41):
    _, models, _ = setup41
    dates = (0.0, 0.5, 7.3, 29.0)
    rec = swap_book(receiver(), models.rates["EUR"], dates)
    pay = swap_book(payer(), models.rates["EUR"], dates)
    for i in range(len(dates)):
        ys = np.linspace(-0.02, 0.02, 7)
        assert np.allclose(book_value(*rec.at(i), ys),
                           -book_value(*pay.at(i), ys), rtol=1e-12)


def test_weights_zero_fixed_rate():
    # K = 0 leaves only the two notional exchanges
    s = receiver(K=0.0)
    from wwrfva.curves import Curve
    from wwrfva.models import Hw1fParams
    rp = Hw1fParams(x0=0.0, a=0.01, sigma=0.005,
                    curve=Curve(label="f", times=(1.0,), zero_rates=(0.01,)))
    w = s.cashflows
    assert np.allclose(w[1:-1], 0.0)
    assert w[0] == -1.0 and w[-1] == 1.0
    const, W, _ = swap_book(s, rp, [0.0]).at(0)
    assert const == 0.0 and np.all(W[1:-1] == 0.0)
    assert W[0] < 0.0 < W[-1]


def test_book_row_past_maturity_is_the_zero_function(setup41):
    _, models, _ = setup41
    rp = models.rates["EUR"]
    sd = math.sqrt(hw_terms(rp, 0.0, 6.0).var_y)
    ys = np.linspace(-4.0, 4.0, 9) * sd
    for s in (receiver(maturity=5.0), payer(maturity=5.0)):
        row = swap_book(s, rp, [6.0]).at(0)
        const, W, B = row
        assert const == 0.0 and len(W) == 0 and len(B) == 0
        assert np.array_equal(book_value(*row, ys), np.zeros(len(ys)))
        assert ystar(row, sd) == -math.inf


def test_positivity_indicator_brute_force(setup41):
    _, models, _ = setup41
    s = receiver()
    rng = np.random.default_rng(5)
    for u in (0.5, 1.0, 4.1, 15.0, 29.5):
        row = swap_book(s, models.rates["EUR"], [u]).at(0)
        sd = math.sqrt(hw_terms(models.rates["EUR"], 0.0, max(u, 1e-9)).var_y)
        ys = rng.normal(0.0, 4.0 * sd, 10000)
        star = ystar(row, sd)
        ind = positive_indicator(s, ys, star)
        vals = book_value(*row, ys)
        assert np.array_equal(ind.astype(bool), vals > 0.0), u


def test_payer_and_receiver_share_root(setup41):
    _, models, _ = setup41
    u = 7.0
    sd = math.sqrt(hw_terms(models.rates["EUR"], 0.0, u).var_y)
    row_r = swap_book(receiver(), models.rates["EUR"], [u]).at(0)
    row_p = swap_book(payer(), models.rates["EUR"], [u]).at(0)
    assert ystar(row_r, sd) == pytest.approx(ystar(row_p, sd), rel=1e-9)


def test_root_is_a_zero_of_the_value(setup41):
    _, models, _ = setup41
    s = receiver()
    for u in (0.5, 7.0, 20.0):
        row = swap_book(s, models.rates["EUR"], [u]).at(0)
        sd = math.sqrt(hw_terms(models.rates["EUR"], 0.0, u).var_y)
        star = ystar(row, sd)
        if math.isfinite(star):
            v = book_value(*row, star)
            scale = float(np.abs(row[1]).sum())
            assert abs(v) < 1e-6 * scale


# ---------------------------------------------------------------------------
# FX forwards

def test_fx_forward_delta_is_market_forward(setup42):
    inputs, models, corr = setup42
    fwd = FxForward(currency="USD", notional=100.0, strike=0.9, maturity=5.0,
                    phi=1)
    terms = fx_forward_terms(fwd, models, corr, 0.0)
    eur = inputs.market.rate_curve("EUR")
    usd = inputs.market.rate_curve("USD")
    fwd_mkt = 0.91802 * usd.discount(5.0) / eur.discount(5.0)
    assert terms.delta == pytest.approx(fwd_mkt, rel=1e-12)


def test_fx_forward_indicator_matches_projected_sign(setup42):
    _, models, corr = setup42
    rng = np.random.default_rng(11)
    for u in (1.0, 2.5, 4.9):
        for phi, strike in ((1, 0.95), (-1, 0.85)):
            fwd = FxForward(currency="USD", notional=100.0, strike=strike,
                            maturity=5.0, phi=phi)
            terms = fx_forward_terms(fwd, models, corr, u)
            ys = rng.normal(0.0, 3.0, 10000) * math.sqrt(
                hw_terms(models.rates["EUR"], 0.0, u).var_y)
            vals = phi * fx_forward_value_projected(terms, ys)
            ind = fx_forward_positive_indicator(fwd, terms, ys)
            mism = np.sum(ind.astype(bool) != (vals > 0.0))
            assert mism == 0, (u, phi)


def test_fx_forward_pathwise_value_on_cube(setup42):
    inputs, models, corr = setup42
    fwd = FxForward(currency="USD", notional=100.0, strike=0.9, maturity=5.0,
                    phi=1)
    p = Portfolio(instruments=(fwd,))
    cube = simulate(models, corr, SimGrid.regular(4, 5.0, 2), 2000, 13, "base")
    i = 8  # u = 2.0
    vals = value_matrix(p, models, cube)[i]
    u = float(cube.dates[i])
    x = np.exp(cube.ln_fx["USD"][i])
    usd = models.rates["USD"]
    eur = models.rates["EUR"]
    t_us = hw_terms(usd, u, 5.0)
    t_eu = hw_terms(eur, u, 5.0)
    p_f = np.exp(t_us.A_bar - t_us.B * (cube.y_r["USD"][i]
                                        + hw_terms(usd, 0.0, u).mu))
    p_d = np.exp(t_eu.A_bar - t_eu.B * (cube.y_r["EUR"][i]
                                        + hw_terms(eur, 0.0, u).mu))
    manual = 100.0 * (p_f * x - p_d * 0.9)
    assert np.allclose(vals, manual, rtol=1e-10)


def test_portfolio_date0_matches_static_valuation(setup42):
    inputs, models, corr = setup42
    p = inputs.portfolio
    cube = simulate(models, corr, SimGrid.regular(1, 30.0, 1), 50, 3, "base")
    static = static_portfolio_value(p, models)
    vm = value_matrix(p, models, cube)
    assert np.allclose(vm[0], static, rtol=1e-10)


def test_valuation_books_read_only_their_inputs(setup42, monkeypatch):
    # legs that hold the same books share one valuation's rows, so the book
    # builders must not reach an input that the shared terms do not see
    inputs, models, corr = setup42
    fwd = FxForward(currency="USD", notional=100.0, strike=0.9, maturity=5.0,
                    phi=1)
    p = Portfolio(instruments=tuple(inputs.portfolio.instruments) + (fwd,))
    dates = np.linspace(0.0, 5.0, 6)
    # outside a call's shared terms, no two valuations hold one book
    assert PortfolioValuation(p, models, dates).books != PortfolioValuation(
        p, models, dates).books
    with shared_terms():
        v = PortfolioValuation(p, models, dates)
        assert sorted(v.models.rates) == sorted(p.currencies | {models.domestic})
        assert v.models.fx == {} and v.models.credit == {}

        def books_after(text):
            bumped = apply_bump(inputs, parse_bump(text, inputs), +1.0)
            return PortfolioValuation(p, build_model_set(bumped), dates).books

        assert PortfolioValuation(p, models, dates).books == v.books
        assert books_after("fx_spot:USD") == v.books
        assert books_after("credit_parallel:C") == v.books
        assert books_after("ir_parallel:USD") != v.books
        assert books_after("sigma_r:GBP") != v.books

    builder = instruments._book_terms

    def reads_fx(ccy, p, models, dates):
        if ccy != models.domestic:
            models.fx[ccy]
        return builder(ccy, p, models, dates)

    monkeypatch.setattr(instruments, "_book_terms", reads_fx)
    with pytest.raises(KeyError):
        PortfolioValuation(p, models, dates)


# A child process values the fixtures' books and a 120-payment swap's
# book through `book_rows` at 20k and 1e5 paths, both of which end in a
# partial block, and prints per book and date the block width and
# whether the row equals `book_value`, one whole-row W @ expo.
_BLOCK_CHECK = """
import numpy as np
from wwrfva.fva import build_model_set, load_run_config
from wwrfva.instruments import (Portfolio, PortfolioValuation, Swap, book_buffer,
                                book_rows, book_value)
from wwrfva.mc import DateState, value_block
for cfg, swap in ((%r, None), (%r, None), (%r, Swap.regular(
        currency="EUR", notional=1e4, fixed_rate=0.013, expiry=0.25,
        maturity=30.0, frequency=4))):
    inputs, _ = load_run_config(cfg)
    models = build_model_set(inputs)
    p = inputs.portfolio if swap is None else Portfolio((swap,))
    dates = np.linspace(0.0, 29.0, 5)
    valuation = PortfolioValuation(p, models, dates)
    payments = max(g[0].B.shape[1] for g in valuation.groups)
    rng = np.random.default_rng(7)
    for n in (20_000, 100_000):
        buffer = book_buffer(valuation.groups, n)
        y = {c: rng.normal(0.0, 0.05, n) for c in models.rates}
        for i in range(len(dates)):
            st = DateState(i, models.domestic, 1.0, y, y, {})
            for book, row in book_rows(valuation.groups, st, buffer).items():
                same = np.array_equal(row, book_value(*book.at(i), y[book.currency]))
                print(payments, value_block(payments, n), n, same)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_blocked_valuation_equals_one_whole_row_product(threads):
    import os
    import subprocess
    import sys

    from conftest import fixture_path

    import wwrfva
    src = os.path.dirname(os.path.dirname(os.path.abspath(wwrfva.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = _BLOCK_CHECK % (fixture_path("single_swap.cfg"), fixture_path("portfolio.cfg"),
                           fixture_path("single_swap.cfg"))
    lines = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split("\n")
    checks = [line.split() for line in lines if line]
    # the fixtures' 30 payments and the swap's 120: two widths, each with
    # several blocks and a partial last one at both path counts
    assert {(p, w) for p, w, *_ in checks} == {("30", "4096"), ("120", "1024")}
    assert all(int(n) % int(w) and int(n) > 2 * int(w) for _, w, n, _ in checks)
    assert all(same == "True" for *_, same in checks)
