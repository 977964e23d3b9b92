"""numpy's state during the per-date passes (`mc.pass_numpy_state`): the
ufunc buffer is a pure performance setting, and the caller's buffer size
and error handling come back after a pass, also one that raises."""

import dataclasses

import numpy as np
import pytest

import wwrfva.fva
from wwrfva import mc
from wwrfva.bounds import bound_rows
from wwrfva.fva import (build_correlation_for, build_model_set, load_run_config,
                        make_grid, run_fva, run_fva_legs)
from wwrfva.instruments import PortfolioValuation
from wwrfva.mc import PASS_UFUNC_BUFFER, PathStream, pass_numpy_state
from wwrfva.sensitivities import fd_sensitivities, parse_bump

from conftest import fixture_path, small_settings

# numpy's own ufunc buffer size
NUMPY_DEFAULT_BUFFER = 8192
# a caller's buffer size that is neither numpy's default nor the pass's
CALLER_BUFFER = 4096


def test_pass_numpy_state_sets_and_restores():
    before = np.geterr()
    with pass_numpy_state():
        assert np.getbufsize() == PASS_UFUNC_BUFFER
        assert np.geterr() == {**before, "over": "ignore", "invalid": "ignore"}
    assert (np.getbufsize(), np.geterr()) == (NUMPY_DEFAULT_BUFFER, before)
    with pytest.raises(KeyError), pass_numpy_state():
        raise KeyError("inside")
    assert (np.getbufsize(), np.geterr()) == (NUMPY_DEFAULT_BUFFER, before)


def _under_caller_state(fn):
    """fn() with the caller's buffer at CALLER_BUFFER; returns what fn
    raised or returned, and the numpy state found right after it."""
    old = np.setbufsize(CALLER_BUFFER)
    try:
        try:
            out = fn()
        except ValueError as exc:
            out = exc
        return out, (np.getbufsize(), np.geterr())
    finally:
        np.setbufsize(old)


def _swap_inputs(rate_a=None):
    inputs, settings = load_run_config(fixture_path("single_swap.cfg"))
    if rate_a is not None:
        inputs.rate_params["EUR"]["a"] = rate_a
    return inputs, settings


def _bound_rows(inputs, settings):
    """The bounds verb's rows, streamed."""
    models = build_model_set(inputs)
    stream = PathStream(models, build_correlation_for(models, inputs.correlations),
                        make_grid(inputs, settings), settings.n_paths,
                        settings.seed, "full")
    valuation = PortfolioValuation(inputs.portfolio, models, stream.dates)
    return bound_rows(inputs.portfolio.single_swap, models, stream,
                      valuation.valued_pass(stream), settings.n_r)


# a reversion of -0.5 overflows the valuation at monitoring date 1
@pytest.mark.parametrize("rate_a", [None, -0.5], ids=["finite", "overflows"])
def test_passes_restore_the_callers_numpy_state(monkeypatch, rate_a):
    seen = []
    real = wwrfva.fva.book_rows

    def recorded(*args):
        seen.append((np.getbufsize(), np.geterr()["over"]))
        return real(*args)
    monkeypatch.setattr(wwrfva.fva, "book_rows", recorded)
    inputs, settings = _swap_inputs(rate_a)
    tiny = small_settings(settings, n_paths=1000, dates_per_year=1, benchmark=True)
    err = np.geterr()
    for fn in (lambda: run_fva_legs([inputs], tiny), lambda: _bound_rows(inputs, tiny)):
        out, state = _under_caller_state(fn)
        assert state == (CALLER_BUFFER, err)
        assert isinstance(out, ValueError) == (rate_a is not None)
        if rate_a is not None:
            assert "not finite at date 1.0 (monitoring date 1" in str(out)
    # the pass valued its dates under its own state
    assert seen and set(seen) == {(PASS_UFUNC_BUFFER, "ignore")}


def _outputs(under_buffer, monkeypatch):
    """Every output the buffer could reach, with the pass's buffer set to
    `under_buffer`: a sensitivity on the portfolio and a benchmark run,
    each at 2k paths, and the bound rows at 1k paths."""
    monkeypatch.setattr(mc, "PASS_UFUNC_BUFFER", under_buffer)
    inputs, settings = load_run_config(fixture_path("portfolio.cfg"))
    small = small_settings(settings, n_paths=2000, dates_per_year=2,
                           method="approx_generic")
    sensi = fd_sensitivities(inputs, small, [parse_bump("ir_parallel:EUR", inputs)])
    report = run_fva(inputs, dataclasses.replace(small, benchmark=True))
    profiles = [p.epe_indep.tobytes() + p.epe_wwr.tobytes()
                for p in (report.profile, report.benchmark_profile)]
    swap_inputs, swap_settings = _swap_inputs()
    rows = _bound_rows(swap_inputs, small_settings(swap_settings, n_paths=1000,
                                                   dates_per_year=1))
    # repr is exact for floats and treats NaN as equal to itself
    return (repr([dataclasses.astuple(r) for r in sensi]),
            repr(report.to_dict(include_timings=False)), profiles,
            repr([dataclasses.astuple(r) for r in rows]))


def test_the_buffer_keeps_every_bit(monkeypatch):
    assert PASS_UFUNC_BUFFER < NUMPY_DEFAULT_BUFFER == np.getbufsize()
    shipped = _outputs(PASS_UFUNC_BUFFER, monkeypatch)
    assert _outputs(NUMPY_DEFAULT_BUFFER, monkeypatch) == shipped
