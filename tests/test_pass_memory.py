"""A streamed pass checks its memory once, at the call that starts it, and
that check bounds what the pass then holds."""

import dataclasses
import tracemalloc

import pytest

import wwrfva.mc as mc
from conftest import fixture_path
from wwrfva.cli import main
from wwrfva.fva import load_run_config, run_fva
from wwrfva.sensitivities import fd_sensitivities, parse_bump

METHODS_BENCH = [(m, b) for m in ("approx_generic", "approx_analytic", "mc")
                 for b in (False, True)]
# three central bumps on one pass: six legs
SENSI_BUMPS = ("ir_parallel:EUR", "credit_parallel:C", "fx_spot:USD")


def _fva(n_paths, method, bench):
    inputs, settings = load_run_config(fixture_path("single_swap.cfg"))
    settings = dataclasses.replace(settings, n_paths=n_paths, dates_per_year=1,
                                   method=method, benchmark=bench)
    return lambda: run_fva(inputs, settings)


def _sensi(n_paths, bumps=SENSI_BUMPS):
    inputs, settings = load_run_config(fixture_path("portfolio.cfg"))
    settings = dataclasses.replace(settings, n_paths=n_paths, dates_per_year=1)
    parsed = [parse_bump(b, inputs) for b in bumps]
    return lambda: fd_sensitivities(inputs, settings, parsed)


def _verb(out, verb, n_paths, *extra):
    argv = [verb, "--config", fixture_path("single_swap.cfg"), "--paths", str(n_paths),
            "--dates-per-year", "1", "--out", str(out), *extra]
    return lambda: main(argv)


def _events(monkeypatch, fail):
    """The pass's memory checks and the starts of its draws, in order;
    with `fail`, the first draw raises."""
    events = []
    real_check, real_generators = mc.require_memory, mc._generators

    def check(n_bytes, what):
        events.append("check")
        return real_check(n_bytes, what)

    def generators(seed):
        events.append("draw")
        if fail:
            raise RuntimeError("a normal was drawn")
        return real_generators(seed)

    monkeypatch.setattr(mc, "require_memory", check)
    monkeypatch.setattr(mc, "_generators", generators)
    return events


@pytest.mark.parametrize("case", [
    *(f"fva {m} {b}" for m, b in METHODS_BENCH), "sensi", "bounds", "export-cube"])
def test_every_verb_checks_memory_once_before_any_normal_is_drawn(
        tmp_path, monkeypatch, capsys, case):
    verb, *rest = case.split()
    if verb == "fva":
        call = _fva(400, rest[0], rest[1] == "True")
    elif verb == "sensi":
        call = _sensi(400)
    else:
        call = _verb(tmp_path, verb, 1000)
    events = _events(monkeypatch, fail=True)
    if verb in ("bounds", "export-cube"):
        assert call() == 1
        assert "a normal was drawn" in capsys.readouterr().err
    else:
        with pytest.raises(RuntimeError, match="a normal was drawn"):
            call()
    assert events == ["check", "draw"]


def test_each_pass_of_a_call_is_checked_once_before_it_draws(monkeypatch):
    # a rate-vol bump moves the noise recursion, so each of its two legs
    # runs a pass of its own beside the curve bump's shared pass
    call = _sensi(400, ("ir_parallel:EUR", "sigma_r:EUR"))
    events = _events(monkeypatch, fail=False)
    call()
    assert events == ["check", "draw"] * 3


def _traced_peak(call):
    """The traced peak of `call` above what was allocated before it."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """Run each case once small: lazy imports and one-off caches belong
    to no pass."""
    out = tmp_path_factory.mktemp("warm")
    for m, b in METHODS_BENCH:
        _fva(1000, m, b)()
    _sensi(1000)()
    _verb(out, "bounds", 1000)()
    return out


@pytest.mark.parametrize("n_paths", [20_000, 50_000])
@pytest.mark.parametrize("case", [*(f"fva {m} {b}" for m, b in METHODS_BENCH),
                                  "sensi", "bounds"])
def test_the_memory_check_bounds_the_traced_peak(monkeypatch, warm, n_paths, case):
    # at these sizes the pass's rows dominate the call's peak; at 2k paths
    # the set-up objects (books, coefficients, closed forms) would
    verb, *rest = case.split()
    if verb == "fva":
        call = _fva(n_paths, rest[0], rest[1] == "True")
    elif verb == "sensi":
        call = _sensi(n_paths)
    else:
        call = _verb(warm, verb, n_paths)
    asked = []
    real = mc.require_memory

    def spy(n_bytes, what):
        asked.append(n_bytes)
        return real(n_bytes, what)

    monkeypatch.setattr(mc, "require_memory", spy)
    peak = _traced_peak(call)
    assert len(asked) == 1
    assert peak <= asked[0]
