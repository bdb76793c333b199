"""The verdict rule of scripts/bench_pairs.py: the change wins 9 of 10 pairs,
and the medians differ by more than the parent's interquartile range."""

import pathlib
import runpy

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
verdict = runpy.run_path(str(SCRIPT))["verdict"]

PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def test_nine_wins_beyond_the_parent_spread_are_a_gain():
    change = [0.8] * 9 + [1.5]
    assert verdict(PARENT, change, "lower", 0.25) == (9, "gain")


def test_eight_wins_are_no_gain():
    change = [0.8] * 8 + [1.5, 1.5]
    assert verdict(PARENT, change, "lower", 0.25) == (8, "no gain shown")


def test_a_gap_inside_the_parent_spread_is_no_gain():
    parent = [1.0, 1.2, 0.8, 1.3, 0.7, 1.0, 1.2, 0.8, 1.3, 0.7]
    change = [x - 0.05 for x in parent]
    assert verdict(parent, change, "lower", 0.25) == (10, "no gain shown")


def test_ties_count_for_neither_side():
    assert verdict(PARENT, list(PARENT), "lower", 0.25) == (0, "no gain shown")


def test_a_median_worse_by_more_than_the_bound_is_reported():
    assert verdict(PARENT, [1.11] * 10, "lower", 0.1) == (0, "worse beyond bound")
    assert verdict(PARENT, [1.09] * 10, "lower", 0.1) == (0, "no gain shown")


def test_higher_is_better_reverses_the_rule():
    assert verdict(PARENT, [1.2] * 10, "higher", 0.25) == (10, "gain")
    assert verdict(PARENT, [0.7] * 10, "higher", 0.25) == (0, "worse beyond bound")


def test_fewer_than_ten_pairs_support_no_claim():
    assert verdict([1.0], [0.5], "lower", 0.25) == (1, "gain, but fewer than 10 pairs")
