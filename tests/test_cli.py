import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

from wwrfva import instruments, mc
from wwrfva.cli import _apply_overrides, build_parser, main
from wwrfva.fva import (RunSettings, build_correlation_for, build_model_set,
                        load_run_config, make_grid, read_profile_csv)
from wwrfva.mc import load_cube

from conftest import fixture_path

CFG = ["--config", fixture_path("single_swap.cfg")]
SMALL = ["--paths", "2000", "--dates-per-year", "2", "--method",
         "approx_generic"]


def test_fva_verb(tmp_path, capsys):
    rc = main(["fva", *CFG, *SMALL, "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fva_total=" in out and "method=approx_generic" in out
    doc = json.loads((tmp_path / "fva_report.json").read_text())
    assert doc["fva_total"] == pytest.approx(doc["fva_indep"] + doc["fva_wwr"])
    assert doc["peak_rss_mb"] > 0.0
    prof = read_profile_csv(tmp_path / "profile.csv")
    assert len(prof.dates) == 61


def test_fva_benchmark_flag(tmp_path, capsys):
    rc = main(["fva", *CFG, *SMALL, "--benchmark", "--out", str(tmp_path)])
    assert rc == 0
    assert "wwr_rd_vs_mc=" in capsys.readouterr().out
    doc = json.loads((tmp_path / "fva_report.json").read_text())
    assert doc["fva_wwr_mc"] is not None


def test_sensi_verb(tmp_path, capsys):
    rc = main(["sensi", *CFG, *SMALL, "--out", str(tmp_path),
               "--bump", "ir_parallel:EUR:1e-4",
               "--bump", "credit_parallel:I"])
    assert rc == 0
    lines = (tmp_path / "sensi.csv").read_text().strip().splitlines()
    assert len(lines) == 3
    assert "ir_parallel:EUR" in capsys.readouterr().out


def test_sensi_cross(tmp_path, capsys):
    rc = main(["sensi", *CFG, *SMALL, "--out", str(tmp_path),
               "--cross", "ir_parallel:EUR:1e-4", "credit_parallel:C:1e-4",
               "--bump", "credit_parallel:I", "--bump", "ir_parallel:EUR"])
    assert rc == 0
    lines = (tmp_path / "sensi.csv").read_text().strip().splitlines()
    # the first-order rows in --bump order, then the cross row
    assert [line.split(",")[0] for line in lines[1:]] == [
        "credit_parallel:I", "ir_parallel:EUR",
        "cross(ir_parallel:EUR;credit_parallel:C)"]  # the two bump labels, csv-safe
    assert [line.split(",")[2] for line in lines[1:]] == ["central", "central", "cross"]


@pytest.mark.parametrize("verb, artifact", [("fva", "profile.csv"),
                                             ("bounds", "bounds.csv")])
def test_grid_with_one_date_rejected(tmp_path, capsys, verb, artifact):
    # a quarter-year swap at one date a year: round(0.25 x 1) = 0 intervals
    book = tmp_path / "book.yaml"
    book.write_text("instruments:\n- {type: swap, currency: EUR, notional: 100.0,"
                    " fixed_rate: 0.013, expiry: 0.0, maturity: 0.25, frequency: 4}\n")
    cfg = tmp_path / "short.cfg"
    with open(fixture_path("single_swap.cfg")) as fh:
        text = fh.read()
    cfg.write_text(text.replace("market: ", f"market: {fixture_path('')}")
                   .replace("portfolio_single_swap.yaml", str(book)))
    rc = main([verb, "--config", str(cfg), "--paths", "200",
               "--dates-per-year", "1", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "two monitoring dates" in capsys.readouterr().err
    assert not (tmp_path / "out" / artifact).exists()


def test_single_path_rejected(tmp_path, capsys):
    # one path has no Monte Carlo standard error: the report would hold NaN
    rc = main(["fva", *CFG, "--paths", "1", "--dates-per-year", "2",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ValueError: n_paths must be at least 2")
    assert err.count("\n") == 1
    assert not (tmp_path / "out" / "fva_report.json").exists()


def test_negative_seed_rejected(tmp_path, capsys):
    # numpy would refuse it only at the start of the pass, naming no setting
    rc = main(["fva", *CFG, *SMALL, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: ValueError: seed must be non-negative")


def test_sensi_requires_bump(tmp_path, capsys):
    rc = main(["sensi", *CFG, *SMALL, "--out", str(tmp_path)])
    assert rc == 1
    assert "error: ValueError" in capsys.readouterr().err


def test_sensi_rejects_benchmark(tmp_path, capsys):
    # only fva runs the benchmark; elsewhere the flag would be ignored
    for verb, extra, output in (("sensi", ["--bump", "ir_parallel:EUR"], "sensi.csv"),
                                ("bounds", [], "bounds.csv"),
                                ("export-cube", [], "cube_base.bin")):
        rc = main([verb, *CFG, *SMALL, "--benchmark", "--out", str(tmp_path), *extra])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: ValueError: {verb} does not run the Monte "
                              "Carlo benchmark")
        assert err.count("\n") == 1
        assert not (tmp_path / output).exists()


def test_bounds_verb(tmp_path, capsys):
    rc = main(["bounds", *CFG, *SMALL, "--out", str(tmp_path),
               "--orders", "1,2"])
    assert rc == 0
    lines = (tmp_path / "bounds.csv").read_text().strip().splitlines()
    assert lines[0].startswith("date,family")
    assert len(lines) > 60


def test_bounds_verb_streams(tmp_path, monkeypatch):
    # the verb reads one date state at a time: no cube, no value matrix
    def refuse(*args, **kwargs):
        raise AssertionError("the bounds verb stored every date")

    monkeypatch.setattr(mc, "simulate", refuse)
    monkeypatch.setattr(instruments, "value_matrix", refuse)
    rc = main(["bounds", *CFG, *SMALL, "--out", str(tmp_path), "--orders", "1"])
    assert rc == 0
    assert len((tmp_path / "bounds.csv").read_text().splitlines()) == 1 + 60 * 8


def test_bounds_verb_past_maturity(tmp_path):
    # a horizon past the swap's maturity: the swap is worth 0 there, and so
    # are its rows' bounds and measured errors
    cfg = tmp_path / "long.cfg"
    with open(fixture_path("single_swap.cfg")) as fh:
        text = fh.read()
    cfg.write_text(text.replace("market: ", f"market: {fixture_path('')}")
                   .replace("portfolio: ", f"portfolio: {fixture_path('')}")
                   .replace("grid:\n", "grid:\n  horizon: 32.0\n"))
    rc = main(["bounds", "--config", str(cfg), "--paths", "2000",
               "--dates-per-year", "2", "--out", str(tmp_path)])
    assert rc == 0
    with open(tmp_path / "bounds.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if float(r["date"]) > 30.0]
    assert sorted({float(r["date"]) for r in rows}) == [30.5, 31.0, 31.5, 32.0]
    measured = [r for r in rows if r["measured_error"]]
    assert len(measured) == 4 * 5
    assert all(float(r["bound"]) == 0.0 for r in rows)
    assert all(float(r["measured_error"]) == 0.0 for r in measured)


def test_bounds_too_few_paths_rejected_before_drawing(tmp_path, monkeypatch, capsys):
    def no_draws(seed):
        raise AssertionError("paths were drawn")

    monkeypatch.setattr(mc, "_generators", no_draws)
    rc = main(["bounds", *CFG, "--paths", "500", "--dates-per-year", "2",
               "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ValueError: too few paths") and "\n" not in err
    assert not (tmp_path / "bounds.csv").exists()


@pytest.mark.parametrize("verb, mode", [("fva", "base"), ("bounds", "full")])
def test_a_pass_whose_valuation_scratch_does_not_fit_is_refused_before_drawing(
        tmp_path, monkeypatch, capsys, verb, mode):
    # room for the simulation state alone: the pass's bond exponentials (and
    # the exposure scratch of fva) do not fit, and no path is drawn
    def no_draws(seed):
        raise AssertionError("paths were drawn")

    inputs, settings = load_run_config(fixture_path("single_swap.cfg"))
    models = build_model_set(inputs)
    grid = make_grid(inputs, dataclasses.replace(settings, dates_per_year=2))
    stream = mc.PathStream(models, build_correlation_for(models, inputs.correlations),
                           grid, 2000, settings.seed, mode)
    monkeypatch.setattr(mc, "physical_memory_bytes", lambda: stream.state_bytes)
    monkeypatch.setattr(mc, "_generators", no_draws)
    rc = main([verb, *CFG, *SMALL, "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error: ValueError: the simulation state needs"), err
    assert "physical memory" in err and "\n" not in err


@pytest.mark.parametrize("value", ["abc", "-1", "1,-2", "1,,2", ""])
def test_bounds_orders_refused_before_drawing(tmp_path, monkeypatch, capsys, value):
    # "abc" used to fail in int() naming no flag, and "-1" only after the
    # stream had drawn its first intervals
    def no_draws(seed):
        raise AssertionError("paths were drawn")

    monkeypatch.setattr(mc, "_generators", no_draws)
    with pytest.raises(SystemExit) as exc:
        main(["bounds", *CFG, *SMALL, "--out", str(tmp_path), "--orders", value])
    assert exc.value.code == 2
    assert (f"argument --orders: expected comma-separated non-negative integers, "
            f"got {value!r}") in capsys.readouterr().err
    assert not (tmp_path / "bounds.csv").exists()


def _edited_config(tmp_path, name, old, new):
    """A copy of the fixture config `name` with `old` replaced by `new`,
    reading the fixtures' data files."""
    with open(fixture_path(name)) as fh:
        text = fh.read()
    assert old in text
    cfg = tmp_path / name
    cfg.write_text(text.replace("market: ", f"market: {fixture_path('')}")
                   .replace("portfolio: ", f"portfolio: {fixture_path('')}")
                   .replace(old, new))
    return cfg


TINY_FVA = ["--paths", "200", "--dates-per-year", "1", "--benchmark"]


@pytest.mark.parametrize("old, new, message, entered", [
    ("I: {x0: 0.0016939", "I: {x0: .nan",
     "config {cfg}: models.credit.I: x0 must be finite, got nan", []),
    ("I: {x0: 0.0016939", "I: {x0: .inf",
     "config {cfg}: models.credit.I: x0 must be finite, got inf", []),
    ("EUR: {x0: 0.0", "EUR: {x0: .nan",
     "config {cfg}: models.rates.EUR: x0 must be finite, got nan", []),
    ("a: 1.0e-5", "a: -0.5",
     "the exposure profile is not finite at date 1.0 (monitoring date 1, the first such)",
     [0, 1]),
], ids=["credit_x0_nan", "credit_x0_inf", "rate_x0_nan", "rate_a_overflows"])
def test_non_finite_fva_is_an_error(tmp_path, capsys, monkeypatch, old, new, message,
                                    entered):
    # each used to print fva_indep=nan ... wwr_rd_vs_mc=nan% and exit 0; a
    # reversion of -0.5 is finite, but the valuation's exponential overflows,
    # which used to run the whole pass and print four RuntimeWarnings first
    import wwrfva.fva
    dates = []
    real = wwrfva.fva.shared_pass

    def counted(streams):
        for states in real(streams):
            dates.append(states[0].index)
            yield states
    monkeypatch.setattr(wwrfva.fva, "shared_pass", counted)
    cfg = _edited_config(tmp_path, "single_swap.cfg", old, new)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["fva", "--config", str(cfg), *TINY_FVA, "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert rc == 1
    assert "nan" not in out
    assert message.format(cfg=cfg) in err
    assert not (tmp_path / "out" / "fva_report.json").exists()
    # the pass stops at the first date that is not finite, without warnings
    assert dates == entered
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_non_finite_bounds_is_an_error(tmp_path, capsys):
    # the bounds verb used to print 84 RuntimeWarnings and fail with
    # "OverflowError: math range error" in a later date's closed forms; it
    # stops at the first date whose value row is not finite, as fva does
    cfg = _edited_config(tmp_path, "single_swap.cfg", "a: 1.0e-5", "a: -0.5")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["bounds", "--config", str(cfg), "--paths", "1000",
                   "--dates-per-year", "1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1
    assert ("error: ValueError: the exposure profile is not finite at date 1.0 "
            "(monitoring date 1, the first such)") in err
    assert not (tmp_path / "out" / "bounds.csv").exists()
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_bounds_runs_where_the_rate_variance_is_large(tmp_path, capsys):
    # Var Y_r passes 22 by the last dates, where the eps1 constant at m = 4
    # used to overflow e^{2 m^2 Var Y_r} and end the verb with "OverflowError:
    # math range error" although fva runs the same config
    cfg = _edited_config(tmp_path, "single_swap.cfg", "a: 1.0e-5", "a: -0.2")
    rc = main(["bounds", "--config", str(cfg), "--paths", "1000", "--dates-per-year", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    rows = (tmp_path / "out" / "bounds.csv").read_text().splitlines()
    assert len(rows) > 1 and "nan" not in "".join(rows)


def test_negative_mean_reversion_runs(tmp_path, capsys):
    # a = -0.1 stays finite over the swap's 30 years, so the loader takes
    # a negative reversion
    cfg = _edited_config(tmp_path, "single_swap.cfg", "a: 1.0e-5", "a: -0.1")
    rc = main(["fva", "--config", str(cfg), *TINY_FVA, "--out", str(tmp_path)])
    assert rc == 0
    assert "nan" not in capsys.readouterr().out


def test_vol_bump_to_a_non_positive_vol_names_the_bump(tmp_path, capsys):
    # the down leg of sigma_r:EUR:0.01 moves sigma 0.00284 to -0.00716; it
    # used to fail with "sigma must be positive", naming neither
    rc = main(["sensi", *CFG, *SMALL, "--out", str(tmp_path),
               "--bump", "sigma_r:EUR:0.01"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "bump sigma_r:EUR moves sigma to -0.00716" in err
    assert not (tmp_path / "sensi.csv").exists()


def test_export_cube(tmp_path, capsys):
    rc = main(["export-cube", *CFG, *SMALL, "--mode", "full",
               "--out", str(tmp_path)])
    assert rc == 0
    cube = load_cube(tmp_path / "cube_full.bin")
    assert cube.mode == "full"
    assert cube.n_paths == 2000
    assert cube.y_I is not None


def test_override_precedence(tmp_path):
    rc = main(["fva", *CFG, *SMALL, "--seed", "9", "--n-r", "3",
               "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "fva_report.json").read_text())
    echo = doc["config_echo"]
    assert echo["seed"] == 9 and echo["n_r"] == 3
    assert echo["n_paths"] == 2000
    # every setting but `benchmark`
    assert set(echo) == {"method", "n_paths", "seed", "dates_per_year",
                         "substeps_per_interval", "horizon", "n_r", "n_a"}


def test_each_flag_overrides_its_setting():
    base = RunSettings()
    args = build_parser().parse_args(["fva", *CFG])
    assert _apply_overrides(base, args) == base
    args = build_parser().parse_args(
        ["fva", *CFG, "--method", "mc", "--seed", "3", "--paths", "500",
         "--dates-per-year", "2", "--n-r", "4", "--n-a", "6", "--benchmark"])
    assert _apply_overrides(base, args) == RunSettings(
        method="mc", seed=3, n_paths=500, dates_per_year=2, n_r=4, n_a=6,
        benchmark=True)


def test_bad_config_is_reported(tmp_path, capsys):
    rc = main(["fva", "--config", str(tmp_path / "missing.cfg")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_analytic_override_rejected_on_portfolio(tmp_path, capsys):
    rc = main(["fva", "--config", fixture_path("portfolio.cfg"),
               "--method", "approx_analytic", "--out", str(tmp_path)])
    assert rc == 1
    assert "single-swap" in capsys.readouterr().err


def _python_output(code: str) -> str:
    """The standard output of `python -c code` with this checkout's engine
    on the path."""
    import os
    import subprocess
    import sys

    import wwrfva
    src = os.path.dirname(os.path.dirname(os.path.abspath(wwrfva.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_engine_import_does_not_load_scipy():
    """The engine's normal-distribution functions come from numpy and the
    standard library (wwrfva.normal), so importing it loads no scipy
    module at all."""
    code = ("import sys, wwrfva.fva, wwrfva.bounds, wwrfva.sensitivities, wwrfva.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _python_output(code).strip() == "[]"


def test_bounds_run_does_not_load_numpy_ma(tmp_path):
    """The bound report's tail quantile is a partition, not np.quantile,
    whose first call imports numpy.ma inside the run."""
    argv = ["bounds", "--config", fixture_path("single_swap.cfg"), "--paths", "1000",
            "--dates-per-year", "1", "--out", str(tmp_path)]
    code = ("import sys; from wwrfva.cli import main; "
            f"assert main({argv!r}) == 0; print('numpy.ma' in sys.modules)")
    assert _python_output(code).splitlines()[-1] == "False"
