"""The gain rule of ``tools/pairs.py``, on made-up paired values: no
benchmark is run."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import pairs  # noqa: E402

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]


def test_wins_count_strictly_better_pairs_only():
    assert pairs.wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "lower") == 1
    assert pairs.wins([1.0, 2.0, 3.0], [0.5, 2.0, 4.0], "higher") == 1


@pytest.mark.parametrize("change,better,holds", [
    # Lower in every pair, by far more than the parent's quartile distance.
    ([v - 0.1 for v in PARENT], "lower", True),
    ([v + 0.1 for v in PARENT], "higher", True),
    # The wrong way round for the metric.
    ([v + 0.1 for v in PARENT], "lower", False),
    # Lower in 9 of 10 pairs: enough.
    ([v - 0.1 for v in PARENT[:9]] + [PARENT[9] + 0.1], "lower", True),
    # Lower in 8 of 10, the other two ties: ties count for neither side.
    ([v - 0.1 for v in PARENT[:8]] + PARENT[8:], "lower", False),
    # Lower in every pair, but by less than the parent's quartile distance.
    ([v - 0.005 for v in PARENT], "lower", False),
])
def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_past_the_quartiles(
        change, better, holds):
    assert pairs.gain_holds(PARENT, change, better) is holds


def test_one_pair_shows_no_gain():
    assert not pairs.gain_holds([1.0], [0.5], "lower")
