"""Tests for the gain rule of ``tools/bench_pairs.py`` on fixed pair lists."""

import sys
from pathlib import Path

import pytest

# bench_pairs imports record_bench from its own directory
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402

# quartiles 12.25 and 16.75 (distance 4.5), median 14.5
PARENT = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]


def _shifted(by):
    """The parent's runs, pair i moved by by[i]."""
    return [p + d for p, d in zip(PARENT, by)]


@pytest.mark.parametrize(
    "change,better,wins,holds",
    [
        # 10 of 10 wins, medians 5 apart
        (_shifted([-5] * 10), "lower", 10, True),
        (_shifted([5] * 10), "higher", 10, True),
        # 8 of 10 wins, medians still 5 apart
        (_shifted([-5] * 8 + [1] * 2), "lower", 8, False),
        # ties count for neither side: 9 wins and a tie hold, 5 and 5 do not
        (_shifted([-5] * 9 + [0]), "lower", 9, True),
        (_shifted([-5] * 5 + [0] * 5), "lower", 5, False),
        # 10 of 10 wins, but the medians 4 apart, inside the parent's spread
        (_shifted([-4] * 10), "lower", 10, False),
        # the parent's spread measured in the other direction too
        (_shifted([4] * 10), "higher", 10, False),
    ],
)
def test_gain_rule(change, better, wins, holds):
    assert bench_pairs.wins(PARENT, change, better) == wins
    assert bench_pairs.gain_holds(PARENT, change, better) is holds
