"""Self-tests of the benchmark, at the tiny size.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = ["sweep-lowdim", "solve-hard", "structure", "field-ladder"]


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert run.load_program().WORKLOADS.keys() == set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    summary = "\n".join(lines[:-1])
    for name, unit in want.items():
        assert name in summary and unit in summary
    assert "failed_frac" in summary


def _corrupt_sweep(golden):
    entries = golden["omega"]["2^1^3"]
    key = sorted(entries)[0]
    entries[key] += 1


def _corrupt_field_omegas(name):
    def corrupt(golden):
        for key in golden["omega"][name]:
            golden["omega"][name][key] += 1
    return corrupt


def _corrupt_ladder(golden):
    golden["fields"]["2^1^6"]["edges"] += 1


@pytest.mark.parametrize("workload, corrupt", [
    ("sweep-lowdim", _corrupt_sweep),
    ("solve-hard", _corrupt_field_omegas("2^1^5")),
    ("structure", _corrupt_field_omegas("2^1^3")),
    ("field-ladder", _corrupt_ladder),
])
def test_corrupted_golden_counts_as_failed(workload, corrupt):
    workloads = run.load_program()
    golden = copy.deepcopy(run.load_golden())
    corrupt(golden)
    result = run.measure(workloads, workload, seed=1, seconds=0.1, trace=False,
                         size="tiny", golden=golden, log=lambda *_: None)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "solve-hard", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
