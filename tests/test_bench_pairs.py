"""Tests for ``tools/bench_pairs.py``: the gain rule on fixed pair lists, and
the two checkouts it runs from."""

import subprocess
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


def test_roots_are_fresh_copies_of_equal_path_length(tmp_path):
    # a repository whose working tree differs from its commit: one file
    # edited, one deleted, one new and untracked
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "a.py").write_text("committed\n")
    (repo / "b.py").write_text("deleted\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "a.py").write_text("edited\n")
    (repo / "b.py").unlink()
    (repo / "c.py").write_text("untracked\n")
    out = tmp_path / "out"
    out.mkdir()
    roots = bench_pairs.make_roots(repo, "HEAD", out)
    assert set(roots) == {"parent", "change"}
    assert len(str(roots["parent"])) == len(str(roots["change"]))

    def files(root):
        return {str(p.relative_to(root)): p.read_text() for p in root.rglob("*") if p.is_file()}

    assert files(roots["parent"]) == {"pkg/a.py": "committed\n", "b.py": "deleted\n"}
    assert files(roots["change"]) == {"pkg/a.py": "edited\n"}
