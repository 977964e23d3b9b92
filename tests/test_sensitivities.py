import dataclasses

import numpy as np
import pytest

import wwrfva.mc
from wwrfva import sensitivities
from wwrfva.cli import main as cli_main
from wwrfva.exposure import BaseMoments
from wwrfva.fva import load_run_config, run_fva, run_fva_legs
from wwrfva.sensitivities import (TARGETS, BumpSpec, apply_bump, cross_gamma,
                                  default_size, fd_sensitivities,
                                  fd_sensitivity, parse_bump, write_sensi_csv)

from conftest import fixture_path, small_settings

TINY = dict(n_paths=3000, dates_per_year=2, substeps=2)


@pytest.fixture()
def tiny41(b41):
    inputs, settings = b41
    return inputs, small_settings(settings, method="approx_generic", **TINY)


# ---------------------------------------------------------------------------
# parsing and defaults

def test_parse_explicit(b41):
    inputs, _ = b41
    b = parse_bump("ir_parallel:EUR:0.0005", inputs)
    assert b.target == "ir_parallel" and b.qualifier == "EUR"
    assert b.size == pytest.approx(0.0005)
    assert b.scheme == "central"


def test_parse_default_size(b41):
    inputs, _ = b41
    b = parse_bump("credit_parallel:I", inputs)
    assert b.size == pytest.approx(1e-4)
    assert b.qualifier == "I"


def test_parse_shorthand_size_defaults_qualifier(b41):
    inputs, _ = b41
    b = parse_bump("ir_parallel:0.001", inputs)
    assert b.qualifier == "EUR"  # domestic by default
    assert b.size == pytest.approx(0.001)
    c = parse_bump("sigma_lambda:0.005", inputs)
    assert c.qualifier == "C"


def test_parse_correlation_pair(b41):
    inputs, _ = b41
    b = parse_bump("correlation:r_EUR/lambda_I:0.02", inputs)
    assert b.qualifier == "r_EUR:lambda_I"
    assert b.size == pytest.approx(0.02)
    d = parse_bump("correlation:r_EUR/lambda_C", inputs)
    assert d.size == pytest.approx(0.01)


def test_parse_pillar(b41):
    inputs, _ = b41
    b = parse_bump("ir_pillar:EUR@2", inputs)
    assert b.pillar == 2 and b.qualifier == "EUR"


def test_parse_relative_vol_defaults(b42):
    inputs, _ = b42
    assert default_size("sigma_fx", "USD", inputs) == pytest.approx(0.015)
    assert default_size("fx_spot", "GBP", inputs) == pytest.approx(
        0.01 * 1.15069)


def test_invalid_bumps(b41):
    inputs, _ = b41
    with pytest.raises(ValueError):
        parse_bump("nonsense:EUR", inputs)
    with pytest.raises(ValueError):
        BumpSpec(target="ir_parallel", qualifier="EUR", size=-1.0)
    with pytest.raises(ValueError):
        BumpSpec(target="ir_pillar", qualifier="EUR", size=1e-4)  # no pillar
    with pytest.raises(ValueError):
        BumpSpec(target="ir_parallel", qualifier="EUR", size=1e-4,
                 scheme="sideways")
    # a qualifier with no model parameters is named, not a bare KeyError
    for target, qualifier in (("sigma_r", "JPY"), ("sigma_fx", "EUR"),
                              ("sigma_lambda", "X"), ("fx_spot", "EUR")):
        with pytest.raises(ValueError, match=qualifier):
            apply_bump(inputs, BumpSpec(target=target, qualifier=qualifier,
                                        size=1e-3), +1.0)
        with pytest.raises(ValueError, match=qualifier):
            parse_bump(f"{target}:{qualifier}", inputs)


# ---------------------------------------------------------------------------
# applying bumps

def test_ir_parallel_bump_moves_curve(b41):
    inputs, _ = b41
    b = BumpSpec(target="ir_parallel", qualifier="EUR", size=1e-4)
    up = apply_bump(inputs, b, +1.0)
    base = inputs.market.rate_curve("EUR")
    bumped = up.market.rate_curve("EUR")
    for t in (1.0, 7.0, 30.0):
        assert bumped.zero_rate(t) == pytest.approx(base.zero_rate(t) + 1e-4,
                                                    rel=1e-12)
    # original inputs untouched
    assert inputs.market.rate_curve("EUR").zero_rate(7.0) == \
        pytest.approx(base.zero_rate(7.0))


def test_ir_pillar_bump_is_local(b41):
    inputs, _ = b41
    b = BumpSpec(target="ir_pillar", qualifier="EUR", size=1e-4, pillar=2)
    up = apply_bump(inputs, b, +1.0)
    base = inputs.market.rate_curve("EUR")
    bumped = up.market.rate_curve("EUR")
    assert bumped.zero_rates[2] == pytest.approx(base.zero_rates[2] + 1e-4)
    assert bumped.zero_rates[0] == base.zero_rates[0]
    assert bumped.zero_rates[-1] == base.zero_rates[-1]


@pytest.mark.parametrize("index", [-1, 6, 99])
def test_ir_pillar_index_out_of_range_rejected(b41, index):
    # -1 would bump the last pillar unnoticed, 99 fail with a bare IndexError
    inputs, _ = b41
    bump = parse_bump(f"ir_pillar:EUR@{index}", inputs)
    with pytest.raises(ValueError, match=rf"6 pillars: .* 0\.\.5, got {index}"):
        apply_bump(inputs, bump, +1.0)


@pytest.mark.parametrize("text", ["ir_pillar:EUR@x", "ir_pillar:EUR@", "ir_pillar:EUR@1.5"])
def test_ir_pillar_index_must_be_an_integer(b41, text):
    # int() used to fail with a bare "invalid literal for int()"
    inputs, _ = b41
    with pytest.raises(ValueError, match=rf"bump '{text}': .* CCY@INDEX"):
        parse_bump(text, inputs)


def test_credit_and_param_bumps(b41):
    inputs, _ = b41
    up = apply_bump(inputs, BumpSpec(target="credit_parallel", qualifier="C",
                                     size=1e-4), +1.0)
    assert up.market.credit_curve("C").zero_rate(5.0) == pytest.approx(
        inputs.market.credit_curve("C").zero_rate(5.0) + 1e-4, rel=1e-12)
    dn = apply_bump(inputs, BumpSpec(target="sigma_r", qualifier="EUR",
                                     size=1e-4), -1.0)
    assert dn.rate_params["EUR"]["sigma"] == pytest.approx(0.00284 - 1e-4)
    # the bumped inputs copy the tables they move; the originals stay
    assert inputs.rate_params["EUR"]["sigma"] == 0.00284
    assert inputs.market.credit_curve("C") is not up.market.credit_curve("C")
    assert up.portfolio is inputs.portfolio


def test_correlation_bump_and_range_check(b41):
    inputs, _ = b41
    b = BumpSpec(target="correlation", qualifier="lambda_I:r_EUR", size=0.01)
    up = apply_bump(inputs, b, +1.0)
    # flipped key is matched against the stored orientation
    assert up.correlations["r_EUR:lambda_I"] == pytest.approx(-0.34)
    assert inputs.correlations["r_EUR:lambda_I"] == -0.35
    big = BumpSpec(target="correlation", qualifier="r_EUR:lambda_C", size=0.6)
    with pytest.raises(ValueError):
        apply_bump(inputs, big, -1.0)  # -0.5 - 0.6 out of range


def test_sigma_lambda_bump_can_break_feller(b41):
    inputs, settings = b41
    # institution entity: 2 a theta = 0.001539; sigma jumping to 0.08 breaks it
    b = BumpSpec(target="sigma_lambda", qualifier="I", size=0.06)
    bumped = apply_bump(inputs, b, +1.0)
    from wwrfva.fva import build_model_set
    with pytest.raises(ValueError):
        build_model_set(bumped)


@pytest.mark.parametrize("cfg, text, vol", [
    ("single_swap.cfg", "sigma_r:EUR:0.01", "sigma to -0.00716"),
    ("portfolio.cfg", "sigma_fx:USD:0.2", "sigma_fx to -0.05"),
    ("single_swap.cfg", "sigma_lambda:C:0.1", "sigma to -0.02"),
], ids=["sigma_r", "sigma_fx", "sigma_lambda"])
def test_vol_bump_refuses_a_non_positive_vol(cfg, text, vol):
    inputs, _ = load_run_config(fixture_path(cfg))
    bump = parse_bump(text, inputs)
    apply_bump(inputs, bump, +1.0)
    with pytest.raises(ValueError, match=f"bump {bump.label} moves {vol}"):
        apply_bump(inputs, bump, -1.0)


def test_fx_spot_bump_refuses_a_non_positive_spot():
    # the down leg used to fail in the market data's own check, naming no bump
    inputs, _ = load_run_config(fixture_path("portfolio.cfg"))
    bump = parse_bump("fx_spot:USD:2", inputs)
    apply_bump(inputs, bump, +1.0)
    with pytest.raises(ValueError, match=r"bump fx_spot:USD moves the spot to -1\.08\d*; "
                                         "a spot must stay positive"):
        apply_bump(inputs, bump, -1.0)


# ---------------------------------------------------------------------------
# finite differences

def test_ir_delta_sign_receiver(tiny41):
    inputs, settings = tiny41
    row = fd_sensitivity(inputs, settings,
                         BumpSpec(target="ir_parallel", qualifier="EUR",
                                  size=1e-4))
    # receiver swap: rates up -> value and exposure down -> FVA down
    assert row.d_fva_total < 0.0
    assert row.d_fva_total == row.d_fva_indep + row.d_fva_wwr  # exact split


def test_forward_vs_central_consistent(tiny41):
    inputs, settings = tiny41
    bc = BumpSpec(target="sigma_r", qualifier="EUR", size=0.000284)
    bf = dataclasses.replace(bc, scheme="forward")
    central = fd_sensitivity(inputs, settings, bc)
    forward = fd_sensitivity(inputs, settings, bf)
    assert forward.scheme == "forward"
    assert forward.d_fva_total == pytest.approx(central.d_fva_total, rel=0.2)


def test_unrelated_bump_has_no_effect(b42):
    inputs, settings = b42
    settings = small_settings(settings, **TINY)
    # bump a correlation between factors that never meet in this portfolio
    b = BumpSpec(target="correlation", qualifier="lambda_I:fx_USD", size=0.01)
    base = run_fva(inputs, settings)
    up = run_fva(apply_bump(inputs, b, +1.0), settings)
    # approx method conditions on the domestic rate factor only; this
    # correlation enters neither the base cube nor the coefficients
    assert up.fva_indep == pytest.approx(base.fva_indep, rel=1e-12)
    assert up.fva_wwr == pytest.approx(base.fva_wwr, rel=1e-12)


def test_cross_gamma_symmetry(tiny41):
    inputs, settings = tiny41
    a = BumpSpec(target="ir_parallel", qualifier="EUR", size=1e-4)
    b = BumpSpec(target="credit_parallel", qualifier="C", size=1e-4)
    ab = cross_gamma(inputs, settings, a, b)
    ba = cross_gamma(inputs, settings, b, a)
    assert ab["d2_fva_total"] == pytest.approx(ba["d2_fva_total"], rel=1e-9)
    assert ab["d2_fva_total"] == pytest.approx(
        ab["d2_fva_indep"] + ab["d2_fva_wwr"], rel=1e-12)


def test_sensi_csv(tmp_path, tiny41):
    inputs, settings = tiny41
    row = fd_sensitivity(inputs, settings,
                         BumpSpec(target="credit_parallel", qualifier="I",
                                  size=1e-4))
    path = tmp_path / "sensi.csv"
    write_sensi_csv([row], path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("target,size,scheme")
    assert len(lines) == 2
    got = lines[1].split(",")
    assert got[0] == "credit_parallel:I"
    assert float(got[3]) + float(got[4]) == pytest.approx(float(got[5]))


def test_cross_gamma_rejects_forward_bumps(tiny41):
    inputs, settings = tiny41
    a = BumpSpec(target="ir_parallel", qualifier="EUR", size=1e-4)
    b = BumpSpec(target="credit_parallel", qualifier="C", size=1e-4,
                 scheme="forward")
    with pytest.raises(ValueError, match="central"):
        cross_gamma(inputs, settings, a, b)
    with pytest.raises(ValueError, match="central"):
        cross_gamma(inputs, settings, b, a)


# ---------------------------------------------------------------------------
# shared simulation passes: bit for bit one independent run per leg

# one bump per target in TARGETS, where the fixture has the factor
PORTFOLIO_BUMPS = ("ir_parallel:EUR", "ir_pillar:USD@2", "credit_parallel:C",
                   "sigma_r:GBP", "sigma_fx:USD", "sigma_lambda:I",
                   "fx_spot:GBP", "correlation:r_EUR/lambda_I")
SWAP_BUMPS = ("ir_parallel:EUR", "ir_pillar:EUR@2", "credit_parallel:C",
              "sigma_r:EUR", "sigma_lambda:C", "correlation:r_EUR/lambda_C")
PER_METHOD = [("portfolio.cfg", "approx_generic", PORTFOLIO_BUMPS),
              ("portfolio.cfg", "mc", PORTFOLIO_BUMPS),
              ("single_swap.cfg", "approx_analytic", SWAP_BUMPS)]


def tiny_run(cfg, method):
    inputs, settings = load_run_config(fixture_path(cfg))
    return inputs, small_settings(settings, n_paths=400, dates_per_year=1,
                                  substeps=1, method=method)


def reference_row(inputs, settings, bump):
    """The difference from one independent run_fva per leg."""
    leg = dataclasses.replace(settings, benchmark=False)
    up = run_fva(apply_bump(inputs, bump, +1.0), leg)
    if bump.scheme == "central":
        lo, den = run_fva(apply_bump(inputs, bump, -1.0), leg), 2.0 * bump.size
    else:
        lo, den = run_fva(inputs, leg), bump.size
    return ((up.fva_indep - lo.fva_indep) / den, (up.fva_wwr - lo.fva_wwr) / den)


@pytest.mark.parametrize("cfg, method, texts", PER_METHOD,
                         ids=[f"{c}-{m}" for c, m, _ in PER_METHOD])
def test_shared_legs_equal_independent_runs(cfg, method, texts):
    inputs, settings = tiny_run(cfg, method)
    central = [parse_bump(t, inputs) for t in texts]
    assert {b.target for b in central} == set(TARGETS) - (
        {"sigma_fx", "fx_spot"} if cfg == "single_swap.cfg" else set())
    forward = [dataclasses.replace(b, scheme="forward") for b in central]
    bumps = central + forward
    want = [reference_row(inputs, settings, b) for b in bumps]

    together = fd_sensitivities(inputs, settings, bumps)
    alone = [fd_sensitivity(inputs, settings, b) for b in bumps]
    for b, w, r, s in zip(bumps, want, together, alone):
        assert (r.d_fva_indep, r.d_fva_wwr) == w, (b.label, b.scheme)
        assert (s.d_fva_indep, s.d_fva_wwr) == w, (b.label, b.scheme)
        assert (r.target, r.scheme, r.size) == (b.label, b.scheme, b.size)

    a, b = central[0], central[2]   # ir_parallel x credit_parallel
    leg = dataclasses.replace(settings, benchmark=False)
    pp, pm, mp, mm = (run_fva(apply_bump(apply_bump(inputs, a, da), b, db), leg)
                      for da, db in ((1, 1), (1, -1), (-1, 1), (-1, -1)))
    den = 4.0 * a.size * b.size
    g = cross_gamma(inputs, settings, a, b)
    assert g["d2_fva_indep"] == (pp.fva_indep - pm.fva_indep - mp.fva_indep
                                 + mm.fva_indep) / den
    assert g["d2_fva_wwr"] == (pp.fva_wwr - pm.fva_wwr - mp.fva_wwr
                               + mm.fva_wwr) / den


@pytest.fixture()
def count_passes(monkeypatch):
    """The number of simulation passes started, read as a list's length:
    every pass draws from one fresh pair of generators."""
    passes = []
    make = wwrfva.mc._generators

    def generators(seed):
        passes.append(seed)
        return make(seed)

    monkeypatch.setattr("wwrfva.mc._generators", generators)
    return passes


@pytest.mark.parametrize("text, n_passes", [
    ("ir_parallel:EUR", 1), ("ir_pillar:USD@2", 1), ("fx_spot:USD", 1),
    ("credit_parallel:C", 1), ("correlation:r_EUR/lambda_I", 1),
    ("sigma_fx:GBP", 1), ("sigma_r:EUR", 2)])
def test_passes_per_central_bump(count_passes, text, n_passes):
    inputs, settings = tiny_run("portfolio.cfg", "approx_generic")
    fd_sensitivity(inputs, settings, parse_bump(text, inputs))
    assert len(count_passes) == n_passes


def test_cli_sensi_runs_one_pass(tmp_path, count_passes):
    rc = cli_main(["sensi", "--config", fixture_path("portfolio.cfg"),
                   "--paths", "400", "--dates-per-year", "1",
                   "--out", str(tmp_path),
                   "--bump", "ir_parallel:EUR", "--bump", "ir_parallel:USD",
                   "--bump", "credit_parallel:C", "--bump", "fx_spot:GBP",
                   "--bump", "correlation:r_EUR/lambda_I:0.01"])
    assert rc == 0
    assert len(count_passes) == 1
    assert len((tmp_path / "sensi.csv").read_text().strip().splitlines()) == 6


def test_cli_sensi_with_cross_runs_one_pass(tmp_path, count_passes, monkeypatch):
    # the README's call: two bumps and the cross of the same two, on one
    # pass; the 8 legs value 3 groups (EUR up, EUR down, EUR unbumped)
    records = set()
    enter = BaseMoments.enter

    def counted(self, *args):
        records.add(id(self))
        return enter(self, *args)

    monkeypatch.setattr(BaseMoments, "enter", counted)
    rc = cli_main(["sensi", "--config", fixture_path("single_swap.cfg"),
                   "--paths", "400", "--dates-per-year", "1", "--out", str(tmp_path),
                   "--bump", "ir_parallel:EUR", "--bump", "credit_parallel:C",
                   "--cross", "ir_parallel:EUR:1e-4", "credit_parallel:C:1e-4"])
    assert rc == 0
    assert len(count_passes) == 1
    assert len(records) == 3


@pytest.mark.parametrize("text, label", [("sigma_r:EUR:nan", "sigma_r:EUR"),
                                         ("ir_parallel:EUR:inf", "ir_parallel:EUR")])
def test_a_nan_or_infinite_bump_size_is_refused_before_any_pass(tmp_path, count_passes,
                                                                text, label):
    # a NaN size used to run the whole pass and then blame the model
    # parameters for the non-finite profile
    inputs, _ = tiny_run("single_swap.cfg", "approx_generic")
    with pytest.raises(ValueError, match=rf"bump {label}: the size must be positive "
                                         rf"and finite, got (nan|inf)"):
        parse_bump(text, inputs)
    rc = cli_main(["sensi", "--config", fixture_path("single_swap.cfg"),
                   "--paths", "400", "--dates-per-year", "1", "--out", str(tmp_path),
                   "--bump", text])
    assert rc == 1
    assert count_passes == []


def test_an_indefinite_correlation_leg_is_refused_before_any_pass(count_passes):
    # the down leg used to fail in its set-up as "correlation matrix is not
    # positive semi-definite", naming neither the bump, the leg nor the pair
    inputs, settings = tiny_run("portfolio.cfg", "approx_generic")
    bump = parse_bump("correlation:r_EUR/lambda_I:0.64", inputs)
    with pytest.raises(ValueError, match=r"bump leg \(correlation:r_EUR:lambda_I down\): "
                                         "correlation matrix is not positive semi-definite"):
        fd_sensitivity(inputs, settings, bump)
    assert count_passes == []


def test_central_and_forward_rows_of_one_bump_share_their_up_leg(monkeypatch):
    # a leg is its moves without the scheme: the two rows need 3 input sets
    inputs, settings = tiny_run("portfolio.cfg", "approx_generic")
    a = parse_bump("ir_parallel:EUR", inputs)
    bumps = [a, dataclasses.replace(a, scheme="forward")]
    sent = []

    def counted(legs, leg_settings):
        sent.append(len(legs))
        return run_fva_legs(legs, leg_settings)

    monkeypatch.setattr(sensitivities, "run_fva_legs", counted)
    rows = fd_sensitivities(inputs, settings, bumps)
    assert sent == [3]
    for b, r in zip(bumps, rows):
        assert (r.d_fva_indep, r.d_fva_wwr) == reference_row(inputs, settings, b)


def test_one_call_equals_separate_calls(count_passes):
    inputs, settings = tiny_run("portfolio.cfg", "approx_generic")
    a, b, vol = (parse_bump(t, inputs)
                 for t in ("ir_parallel:EUR", "credit_parallel:C", "sigma_r:EUR"))
    fwd_a, fwd_b = (dataclasses.replace(x, scheme="forward") for x in (a, b))
    bumps = [a, fwd_b, vol, fwd_a, b]
    rows = fd_sensitivities(inputs, settings, bumps, (a, b))
    # one pass for every curve leg, one per leg of the rate-vol bump
    assert len(count_passes) == 3

    alone = [fd_sensitivity(inputs, settings, x) for x in bumps]
    g = cross_gamma(inputs, settings, a, b)
    assert len(rows) == len(bumps) + 1
    for r, s in zip(rows, alone):
        assert (r.target, r.size, r.scheme, r.d_fva_indep, r.d_fva_wwr) == \
            (s.target, s.size, s.scheme, s.d_fva_indep, s.d_fva_wwr)
    cross = rows[-1]
    assert (cross.target, cross.size, cross.scheme, cross.method) == (
        "cross(ir_parallel:EUR;credit_parallel:C)", a.size * b.size, "cross",
        "approx_generic")
    assert (cross.d_fva_indep, cross.d_fva_wwr, cross.d_fva_total) == (
        g["d2_fva_indep"], g["d2_fva_wwr"], g["d2_fva_total"])
