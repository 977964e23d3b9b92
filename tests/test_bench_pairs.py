"""The no-regression verdict and the gain rule of scripts/bench_pairs.py on
synthetic runs."""

import importlib.util
import math
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98]  # relative IQR 3 %


@pytest.mark.parametrize("change, better, bound, expected", [
    ([1.30, 1.31, 1.29, 1.32, 1.28], "lower", 0.25, "worse"),
    ([1.10, 1.11, 1.09, 1.12, 1.08], "lower", 0.25, "within bound"),
    ([0.70, 0.71, 0.69, 0.72, 0.68], "lower", 0.25, "within bound"),
    ([0.70, 0.71, 0.69, 0.72, 0.68], "higher", 0.25, "worse"),
    ([1.30, 1.31, 1.29, 1.32, 1.28], "higher", 0.25, "within bound"),
    ([1.00, 1.01, 0.99, 1.02, 0.98], "lower", 0.02, "unresolved"),
    ([0.90, 0.91, 0.89, 0.92, 0.88], "lower", 0.02, "within bound"),
    ([1.01, 1.02, 1.00, 1.03, 0.99], "lower", 0.005, "worse"),
], ids=["slower", "slower_in_bound", "faster", "lower_when_higher_is_better",
        "higher_when_higher_is_better", "spread_over_bound",
        "spread_over_bound_but_every_run_better", "worse_beats_unresolved"])
def test_verdict(change, better, bound, expected):
    assert verdict(PARENT, change, better, bound)["verdict"] == expected


def test_verdict_figures():
    v = verdict(PARENT, [1.10, 0.95, 1.00, 1.05, 0.97], "lower", 0.1)
    assert v["parent_median"] == 1.00 and v["change_median"] == 1.00
    assert v["rel_change"] == 0.0
    assert v["parent_rel_iqr"] == pytest.approx(0.03)
    # pairs 2 and 5 ran lower on the change's side
    assert v["change_better"] == 2 and v["pairs"] == 5


def test_verdict_with_one_pair_is_unresolved_unless_better():
    assert verdict([1.0], [1.05], "lower", 0.25)["verdict"] == "unresolved"
    assert verdict([1.0], [0.95], "lower", 0.25)["verdict"] == "within bound"
    assert math.isinf(verdict([1.0], [1.0], "lower", 0.25)["parent_rel_iqr"])


def test_verdict_rejects_unknown_direction():
    with pytest.raises(ValueError, match="better"):
        verdict(PARENT, PARENT, "smaller", 0.25)


PARENT10 = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]  # IQR 2.25 %


@pytest.mark.parametrize("change, better, expected", [
    ([0.90] * 10, "lower", True),
    ([0.90] * 9 + [1.10], "lower", True),
    ([0.90] * 8 + [1.10] * 2, "lower", False),
    ([0.90] * 8 + [1.01, 0.99], "lower", False),
    ([0.99, 1.01, 0.97, 1.00, 0.98, 1.02, 0.96, 0.99, 1.00, 0.98], "lower", False),
    ([0.90] * 9, "lower", False),
    ([1.10] * 10, "higher", True),
    ([0.90] * 10, "higher", False),
], ids=["every_pair", "nine_of_ten", "eight_of_ten", "tie_counts_for_neither",
        "within_parent_iqr", "nine_pairs", "higher_is_better", "wrong_direction"])
def test_gain_rule(change, better, expected):
    parent = PARENT10[:len(change)]
    assert verdict(parent, change, better, 0.25)["gain"] is expected
