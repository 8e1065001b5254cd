"""Alternated parent/change pairs of one benchmark workload.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --workload W [--pairs 10] [--base HEAD] [--seed 1]

The parent side runs from the files committed at ``--base``, unpacked by
``git archive`` into a temporary directory (the repository's worktrees are
left alone); the change side runs from the working tree.  Each pair runs
``perfbench/run.py --workload W --seed S --trace 0`` once on each side, each
in a fresh process, and the side that runs first alternates from pair to
pair.  The run length is ``run.py``'s own unless ``--seconds`` is given, and
is the same on both sides.  For each end-to-end metric the tool prints every
pair, each side's median and quartiles, and how many pairs the change won
(lower wins; ties count for neither).  A gain holds when the change wins at
least nine tenths of the pairs and the medians differ by more than the
distance between the parent's quartiles.
"""

from __future__ import annotations

import argparse
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

from record_bench import run_workload

ROOT = Path(__file__).resolve().parent.parent
METRICS = ["wall_s", "instance_ms_p50", "setup_s", "peak_rss_mb"]


def unpack(rev: str, into: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")


def run(root: Path, args) -> dict:
    result = run_workload(args.workload, args.seed, root, args.seconds)["result"]
    return {"failed": result["failed"],
            **{name: result["metrics"][name]["value"] for name in METRICS}}


def summary(values: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {q2:.5g} (quartiles {q1:.5g}-{q3:.5g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--base", default="HEAD", help="the parent revision")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        unpack(args.base, Path(tmp))
        roots = {"parent": Path(tmp), "change": ROOT}
        for pair in range(args.pairs):
            sides = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in sides:
                runs[side].append(run(roots[side], args))
            print(f"pair {pair} ({sides[0]} first): " + "; ".join(
                f"{name} {runs['parent'][-1][name]:.5g} -> {runs['change'][-1][name]:.5g}"
                for name in METRICS), file=sys.stderr)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs against {args.base}")
    for name in METRICS:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = sum(c < p for p, c in zip(parent, change))
        print(f"  {name}: parent {summary(parent)}; change {summary(change)};"
              f" change lower in {wins} of {args.pairs}")
    failed = [sum(r["failed"] for r in runs[side]) for side in ("parent", "change")]
    print(f"  failed: parent {failed[0]}, change {failed[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
