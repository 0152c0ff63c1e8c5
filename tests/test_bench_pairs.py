"""The pair comparison of ``tools/bench_pairs.py`` on fixed numbers; no
benchmark run is started."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

BASE = [40.0, 38.0, 41.0, 37.0, 39.0, 42.0, 38.5, 40.5, 39.5, 41.5]


def test_a_change_that_wins_every_pair_by_more_than_the_spread_may_claim_a_gain():
    change = [b - 5.0 for b in BASE]
    s = bench_pairs.summarise(BASE, change, "lower", 0.25)
    assert s["base"] == pytest.approx((38.625, 39.75, 40.875))
    assert s["change"] == pytest.approx((33.625, 34.75, 35.875))
    assert (s["wins"], s["pairs"], s["claim"], s["bound"]) == (10, 10, True, "ok")


def test_a_gain_smaller_than_the_spread_or_won_in_too_few_pairs_is_not_claimed():
    # 1.0 below in every pair, less than the base's quartile spread of 2.25.
    s = bench_pairs.summarise(BASE, [b - 1.0 for b in BASE], "lower", 0.25)
    assert (s["wins"], s["claim"], s["bound"]) == (10, False, "ok")
    # 5.0 below in eight pairs: wins 8 of 10.
    change = [b - 5.0 for b in BASE[:8]] + BASE[8:]
    s = bench_pairs.summarise(BASE, change, "lower", 0.25)
    assert (s["wins"], s["claim"]) == (8, False)


def test_ties_count_for_neither_side_and_higher_can_be_better():
    s = bench_pairs.summarise(BASE, BASE, "lower", 0.25)
    assert (s["wins"], s["claim"], s["bound"]) == (0, False, "ok")
    s = bench_pairs.summarise(BASE, [b + 5.0 for b in BASE], "higher", 0.25)
    assert (s["wins"], s["claim"], s["bound"]) == (10, True, "ok")


def test_the_bound_is_exceeded_or_unresolved():
    # 30 % worse in the median against a bound of 25 %.
    s = bench_pairs.summarise(BASE, [b * 1.3 for b in BASE], "lower", 0.25)
    assert (s["wins"], s["bound"]) == (0, "worse")
    # 1 % worse, within a 2 % bound, but the base's spread is 5.7 % of its
    # median, so the bound cannot be read off these runs.
    s = bench_pairs.summarise(BASE, [b * 1.01 for b in BASE], "lower", 0.02)
    assert s["bound"] == "unresolved"
    # Every change run better than every base run resolves a wide spread.
    s = bench_pairs.summarise(BASE, [30.0] * 10, "lower", 0.02)
    assert s["bound"] == "ok"
