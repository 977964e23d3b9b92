"""The statistics of scripts/seed_spread.py on synthetic seed sets."""

import importlib.util
import math
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), "..", "scripts", "seed_spread.py")
_spec = importlib.util.spec_from_file_location("seed_spread", _PATH)
seed_spread = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(seed_spread)
spread = seed_spread.spread


def test_spread_figures():
    parent = [1.0, 2.0, 3.0, 4.0]       # mean 2.5, SD sqrt(5/3)
    change = [2.0, 4.0, 6.0, 8.0]       # mean 5.0, SD 2 sqrt(5/3)
    row = spread(parent, change)
    assert row["parent_mean"] == 2.5 and row["change_mean"] == 5.0
    assert row["parent_sd"] == pytest.approx(math.sqrt(5 / 3))
    assert row["change_sd"] == pytest.approx(2 * math.sqrt(5 / 3))
    # (5.0 - 2.5) / sqrt((5/3 + 20/3) / 4)
    assert row["z"] == pytest.approx(2.5 / math.sqrt(25 / 12))


def test_spread_sign_follows_the_change():
    assert spread([2.0, 4.0], [1.0, 3.0])["z"] < 0.0 < spread([1.0, 3.0], [2.0, 4.0])["z"]


def test_spread_without_spread():
    assert spread([1.0, 1.0], [1.0, 1.0])["z"] == 0.0
    assert spread([1.0, 1.0], [2.0, 2.0])["z"] == math.inf


@pytest.mark.parametrize("parent, change", [([1.0], [1.0]), ([1.0, 2.0], [1.0])])
def test_spread_needs_matched_seeds(parent, change):
    with pytest.raises(ValueError, match="same seeds"):
        spread(parent, change)


def test_parse_seeds():
    assert seed_spread.parse_seeds("1-12") == list(range(1, 13))
    assert seed_spread.parse_seeds("3,5,8") == [3, 5, 8]
    with pytest.raises(ValueError, match="two seeds"):
        seed_spread.parse_seeds("4")
