"""Record the benchmark of one revision as ``BENCH_<short-rev>.json``.

Run from the root of a checkout:

    python3 tools/record_bench.py [--out-dir D]

For each of two runs and each workload named in ``BENCHMARK.json`` it
runs ``perfbench/run.py --workload W --seed 1 --trace 0`` in a fresh
process (seed 1 is the benchmark's default, and the run length is
``run.py``'s own) and keeps what the run printed: the last line, a JSON
object with the metrics, and the log lines before it.  The file also
holds the revision, whether ``src/`` or ``perfbench/`` differ from it,
the line count of ``src/paleyvec/*.py`` at the revision, the Python and
numpy versions and the CPU count.  A run that exits
non-zero stops the recording, and no file is written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
RUNS = 2


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout


def src_lines(rev: str) -> int:
    """Lines of ``src/paleyvec/*.py`` as committed at the revision."""
    paths = git("ls-tree", "--name-only", rev, "src/paleyvec/").split()
    return sum(git("show", f"{rev}:{path}").count("\n") for path in paths if path.endswith(".py"))


def run_workload(workload: str, seed: int, root: Path = ROOT,
                 seconds: float | None = None) -> dict:
    """One untraced run of the workload from the checkout at ``root``, for
    ``seconds`` when given (else ``run.py``'s own length)."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", "0"]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {root}: {' '.join(argv[1:])} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    *log, last = proc.stdout.strip().splitlines()
    return {"workload": workload, "seed": seed, "result": json.loads(last), "log": log}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out-dir", type=Path, default=ROOT, help="where the file goes")
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    rev = git("rev-parse", "--short", "HEAD").strip()
    record = {
        "rev": rev,
        "commit": git("rev-parse", "HEAD").strip(),
        "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench").strip()),
        "src_lines": src_lines(rev),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "command": f"perfbench/run.py --workload W --seed {SEED} --trace 0",
        "runs": [],
    }
    for run in range(RUNS):
        for workload in workloads:
            entry = run_workload(workload, SEED)
            record["runs"].append({"run": run, **entry})
            metrics = entry["result"]["metrics"]
            print(f"{workload} run {run}: wall_s {metrics['wall_s']['value']:.4g}, "
                  f"failed {entry['result']['failed']}", file=sys.stderr)
    path = args.out_dir / f"BENCH_{rev}.json"
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
