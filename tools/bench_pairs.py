"""Alternated parent/change pairs of one benchmark workload, with a
no-regression verdict per end-to-end metric.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --workload W [--pairs 10] [--base HEAD] [--seed 1]

The parent side runs from the files committed at ``--base``, unpacked by
``git archive`` into a temporary directory (the repository's worktrees are
left alone); the change side runs from the working tree.  Each pair runs
``perfbench/run.py --workload W --seed S --trace 0`` once on each side, each
in a fresh process, and the side that runs first alternates from pair to
pair.  The run length is ``run.py``'s own unless ``--seconds`` is given, and
is the same on both sides.

The metrics, their directions and their bounds are the ``end_to_end``
entries of ``BENCHMARK.json``.  For each metric the tool prints every pair,
each side's median and quartiles, how many pairs the change won (a tie
counts for neither side), and the change of the median relative to the
parent's, signed so that positive is worse, against the bound.  The verdict
is ``regression`` when that change exceeds the bound and ``within bound``
otherwise; it is ``unresolved`` when the distance between the parent's
quartiles, relative to its median, is wider than the bound, unless every
change run beats every parent run.  Last comes ``gain holds`` when the
change wins at least nine tenths of the pairs and its median is better than
the parent's by more than the distance between the parent's quartiles, and
``gain not shown`` otherwise (``gain_holds``).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from record_bench import run_workload

ROOT = Path(__file__).resolve().parent.parent


def unpack(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")


def run(root: Path, args, metrics: list[dict]) -> dict:
    result = run_workload(args.workload, args.seed, root, args.seconds)["result"]
    return {"failed": result["failed"],
            **{m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}}


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive")


def summary(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"median {q2:.5g} (quartiles {q1:.5g}-{q3:.5g})"


def wins(parent: list[float], change: list[float], better: str) -> int:
    """The pairs the change won; a tie counts for neither side."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def gain_holds(parent: list[float], change: list[float], better: str) -> bool:
    """The change wins at least nine tenths of the pairs, and its median is
    better than the parent's by more than the parent's quartile distance."""
    q1, median, q3 = quartiles(parent)
    sign = 1 if better == "lower" else -1
    return (10 * wins(parent, change, better) >= 9 * len(parent)
            and sign * (median - statistics.median(change)) > q3 - q1)


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The median's relative change (positive is worse) against the bound."""
    q1, median, q3 = quartiles(parent)
    sign = 1 if better == "lower" else -1
    worse = sign * (statistics.median(change) - median) / median
    beats_all = (max(change) < min(parent) if better == "lower"
                 else min(change) > max(parent))
    if (q3 - q1) / median > bound and not beats_all:
        state = "unresolved"
    else:
        state = "regression" if worse > bound else "within bound"
    return f"median {worse:+.1%} against bound {bound:.0%}: {state}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="the parent revision")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"--pairs {args.pairs}: the quartiles of each side need at least 2 pairs")

    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = json.load(fh)["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        unpack(args.base, Path(tmp))
        roots = {"parent": Path(tmp), "change": ROOT}
        for pair in range(args.pairs):
            sides = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in sides:
                runs[side].append(run(roots[side], args, metrics))
            print(f"pair {pair} ({sides[0]} first): " + "; ".join(
                f"{m['name']} {runs['parent'][-1][m['name']]:.5g} ->"
                f" {runs['change'][-1][m['name']]:.5g}" for m in metrics), file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs against {args.base}")
    for m in metrics:
        name, better = m["name"], m["better"]
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        gain = "gain holds" if gain_holds(parent, change, better) else "gain not shown"
        print(f"  {name} ({better} is better): parent {summary(parent)};"
              f" change {summary(change)};"
              f" change better in {wins(parent, change, better)} of {args.pairs};"
              f" {verdict(parent, change, better, m['bound'])}; {gain}")
    failed = [sum(r["failed"] for r in runs[side]) for side in ("parent", "change")]
    print(f"  failed: parent {failed[0]}, change {failed[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
