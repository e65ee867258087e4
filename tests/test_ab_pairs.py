"""The summary of ``tools/ab_pairs.py`` on made-up pairs: wins counted in the
metric's direction with ties for neither, the gain rule and the bound."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

LOWER = {"name": "latency_p50", "better": "lower", "bound": 0.15}
HIGHER = {"name": "min_digits", "better": "higher", "bound": 0.15}


def test_quartiles_match_numpy_percentiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert ab_pairs.quartiles(values) == (2.25, 3.5, 4.75)
    assert ab_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_clear_gain():
    base = [1.00, 1.02, 0.99, 1.01, 1.00, 1.03, 0.98, 1.00, 1.01, 1.02]
    head = [b - 0.1 for b in base]
    s = ab_pairs.summarise(LOWER, base, head)
    assert s["wins"] == 10 and s["gain"] and not s["regressed"]
    assert s["worse"] == pytest.approx(-0.1 / s["base"][1])


def test_ties_count_for_neither_and_spread_blocks_the_claim():
    base = [1.0, 2.0, 1.0, 2.0]
    head = [1.0, 1.9, 0.9, 1.9]
    s = ab_pairs.summarise(LOWER, base, head)
    assert s["wins"] == 3 and not s["gain"]  # 3 of 4, and 0.1 is inside base's spread


def test_higher_is_better_and_bound():
    s = ab_pairs.summarise(HIGHER, [10.0] * 4, [8.0] * 4)
    assert s["wins"] == 0 and not s["gain"]
    assert s["worse"] == pytest.approx(0.2) and s["regressed"]
    assert not ab_pairs.summarise(HIGHER, [10.0] * 4, [9.0] * 4)["regressed"]
