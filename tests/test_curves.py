import math
import re

import numpy as np
import pytest

from wwrfva.curves import Curve, MarketData, load_market_data


@pytest.fixture()
def curve():
    return Curve(label="EUR", times=(1.0, 2.0, 5.0),
                 zero_rates=(0.01, 0.012, 0.015))


def test_discount_at_pillars(curve):
    for t, z in zip(curve.times, curve.zero_rates):
        assert curve.discount(t) == pytest.approx(math.exp(-z * t), rel=1e-15)


def test_zero_rate_linear_interpolation(curve):
    assert curve.zero_rate(1.5) == pytest.approx(0.011, rel=1e-14)


def test_flat_extrapolation(curve):
    assert curve.zero_rate(0.25) == pytest.approx(0.01)
    assert curve.zero_rate(50.0) == pytest.approx(0.015)


def test_discount_at_origin_is_one(curve):
    assert curve.discount(0.0) == 1.0


def test_log_discount_consistent(curve):
    t = 3.3
    assert curve.log_discount(t) == pytest.approx(math.log(curve.discount(t)),
                                                  rel=1e-13)


def test_parallel_bump_shifts_all_rates(curve):
    b = curve.bumped(1e-4)
    for t in (0.5, 1.7, 4.0, 10.0):
        assert b.zero_rate(t) == pytest.approx(curve.zero_rate(t) + 1e-4,
                                               rel=1e-12)


def test_pillar_bump_local(curve):
    b = curve.bumped_pillar(1, 1e-4)
    assert b.zero_rate(2.0) == pytest.approx(0.012 + 1e-4)
    assert b.zero_rate(5.0) == pytest.approx(0.015)
    assert b.zero_rate(1.0) == pytest.approx(0.01)


def test_discount_vectorized(curve):
    ts = np.array([0.5, 1.0, 3.0])
    vals = curve.discount(ts)
    assert np.allclose(vals, [curve.discount(t) for t in ts])


def test_market_data_requires_spot_for_foreign(curve):
    usd = Curve(label="USD", times=(1.0,), zero_rates=(0.02,))
    with pytest.raises(ValueError):
        MarketData(domestic="EUR", domestic_curve=curve,
                   foreign_curves={"USD": usd})


def test_market_data_rejects_nonpositive_spot(curve):
    usd = Curve(label="USD", times=(1.0,), zero_rates=(0.02,))
    with pytest.raises(ValueError):
        MarketData(domestic="EUR", domestic_curve=curve,
                   foreign_curves={"USD": usd}, fx_spots={"USD": -1.0})


def test_load_market_data_roundtrip(tmp_path):
    path = tmp_path / "m.yaml"
    path.write_text(
        "domestic: EUR\n"
        "curves:\n"
        "- {label: EUR, times: [1.0, 5.0], zero_rates: [0.01, 0.02]}\n"
        "- {label: USD, times: [1.0], zero_rates: [0.015]}\n"
        "credit_curves:\n"
        "- {label: I, times: [1.0, 10.0], zero_rates: [0.002, 0.004]}\n"
        "fx_spots: {USD: 0.9}\n")
    m = load_market_data(path)
    assert m.domestic == "EUR"
    assert m.rate_curve("EUR").zero_rate(5.0) == pytest.approx(0.02)
    assert m.rate_curve("USD").zero_rate(1.0) == pytest.approx(0.015)
    assert m.credit_curve("I").zero_rate(10.0) == pytest.approx(0.004)
    assert m.fx_spots["USD"] == pytest.approx(0.9)


@pytest.mark.parametrize("extra, key", [
    ("fx_spot: {USD: 0.9}\n", "fx_spot"),
    ("- {label: USD, times: [1.0], zero_rates: [0.01], rates: [0.02]}\n", "rates"),
    ("credit_curves:\n- {label: I, times: [1.0], zero_rate: [0.002]}\n", "zero_rate"),
], ids=["top-level", "curve", "credit-curve"])
def test_load_market_data_unknown_key_rejected(tmp_path, extra, key):
    # a misspelt key must not load as if it were absent; `extra` follows
    # the curves list, so a list item continues it
    path = tmp_path / "m.yaml"
    path.write_text("domestic: EUR\n"
                    "curves:\n"
                    "- {label: EUR, times: [1.0, 5.0], zero_rates: [0.01, 0.02]}\n"
                    + extra)
    with pytest.raises(ValueError, match=f"unknown key.*'{key}'"):
        load_market_data(path)


@pytest.mark.parametrize("extra, msg", [
    ("fx_spots: {USD: high}\n", "fx_spots: USD must be a number, got 'high'"),
    ("- {label: USD, times: [1.0, x], zero_rates: [0.01, 0.02]}\n",
     "curves entry 1: times must be a number, got 'x'"),
    ("credit_curves:\n- {label: I, times: [1.0]}\n",
     "credit_curves entry 0: missing key(s) 'zero_rates'"),
    # a NaN spot used to pass and fail the run inside the simulation
    ("fx_spots: {USD: .nan}\n", "fx_spots: USD must be finite and positive, got nan"),
    ("fx_spots: {USD: -.inf}\n", "fx_spots: USD must be finite and positive, got -inf"),
    ("fx_spots: {USD: 0.0}\n", "fx_spots: USD must be finite and positive, got 0.0"),
], ids=["fx_spot", "curve_time", "credit_curve_rates", "fx_spot_nan", "fx_spot_inf",
        "fx_spot_zero"])
def test_load_market_data_bad_value_rejected(tmp_path, extra, msg):
    # these used to fail with a bare float() error or without naming the file
    path = tmp_path / "m.yaml"
    path.write_text("domestic: EUR\n"
                    "curves:\n"
                    "- {label: EUR, times: [1.0, 5.0], zero_rates: [0.01, 0.02]}\n"
                    + extra)
    with pytest.raises(ValueError, match=re.escape(f"market data file {path}: {msg}")):
        load_market_data(path)


def test_load_market_data_missing_domestic(tmp_path):
    path = tmp_path / "m.yaml"
    path.write_text("domestic: EUR\ncurves: []\n")
    with pytest.raises(ValueError):
        load_market_data(path)


def test_curve_validation():
    with pytest.raises(ValueError):
        Curve(label="x", times=(2.0, 1.0), zero_rates=(0.01, 0.02))
    with pytest.raises(ValueError):
        Curve(label="x", times=(1.0,), zero_rates=(0.01, 0.02))


def test_load_market_data_names_a_malformed_file(tmp_path):
    path = tmp_path / "m.yaml"
    path.write_text("domestic: EUR\ncurves: [{label: EUR\n")
    with pytest.raises(ValueError, match=re.escape(f"malformed market data file {path}: ")):
        load_market_data(path)
