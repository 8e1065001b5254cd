"""paleyvec benchmark: four workloads, end-to-end metrics, per-layer spans.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-lowdim --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics (set-up time,
wall time of the instance set, median instance latency, peak memory);
with ``--trace 1`` it alternates untraced and traced rounds and prints
the per-layer metrics, from spans recorded around each call the
benchmark makes, plus the tracing overhead.  Every computed result is
checked; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The traced
run's spans are written to ``.bench_out/trace-<workload>.json``.

The seed picks the 3^1^4 sample of ``structure`` and the sign-class
hyperplanes of ``solve-hard``, and shuffles instance order (except in
``field-ladder``); the default seed is 1 and seed 2 is held out for
checking claims.  Instances are repeated in rounds for the whole of
``--seconds``, and each instance counts at its fastest round.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import NullTracer, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
SETUP_REPEATS = 5  # fresh processes timed for setup_s; the median is reported
P95_MIN_SAMPLES = 200  # so that at least ten samples lie beyond the 95th percentile

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "instance_ms_p50": "ms",
    "peak_rss_mb": "MB",
}
# per-layer self time, reported as <span name>_ms
LAYER_SPANS = [
    "gf.build_field",
    "linalg.family",
    "linalg.enumerate_elements",
    "linalg.D_invariant",
    "linalg.contains_nonzero_square",
    "predict.predict_omega",
    "predict.bounds_report",
    "graph.build_graph",
    "graph.clique_number_exact",
    "graph.greedy_seed_clique",
    "graph.enumerate_maximal_cliques",
    "graph.decompose_clique",
]
LAYER_COUNTS = [
    "gf.fields_built",
    "linalg.contains_calls",
    "graph.vertices",
    "graph.edges",
    "graph.seed_gap",
    "graph.maximal_cliques",
]
PER_LAYER = {
    **{f"{name}_ms": "ms" for name in LAYER_SPANS},
    **{name: "count" for name in LAYER_COUNTS},
    "linalg.contains_us": "us",
    "graph.seed_optimal_frac": "ratio",
    "trace.overhead_frac": "ratio",
}
# spans of the benchmark itself, left out when naming the dominant layer
OWN_SPANS = {"instance", "setup"}


def load_program():
    """Put the repository's ``src`` on the path and import the workloads."""
    if not (ROOT / "src" / "paleyvec" / "__init__.py").is_file():
        raise SystemExit(f"error: no paleyvec sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def load_golden():
    with open(HERE / "golden.json") as fh:
        return json.load(fh)


def clear_caches():
    """Empty every functools cache in paleyvec, so field builds start cold."""
    for name, mod in list(sys.modules.items()):
        if name == "paleyvec" or name.startswith("paleyvec."):
            for obj in list(vars(mod).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def percentile(values, share):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def time_setups(workload, seed, size, repeats):
    """Seconds from process start to the end of set-up, in fresh processes."""
    out = []
    for _ in range(repeats):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--size", size, "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        out.append(float(proc.stdout.split()[-1]) - start)
    return out


def run_round(wl, insts, tracer):
    latencies, failures = [], []
    for inst in insts:
        start = time.perf_counter()
        try:
            problems = wl.run(tracer, inst)
        except Exception as exc:  # any error fails the instance; the run goes on
            problems = [f"{type(exc).__name__}: {exc}"]
        latencies.append(time.perf_counter() - start)
        if problems:
            failures.append((inst.key, problems))
    return latencies, failures


def ratio(part, whole):
    return part / whole if whole else 0.0


def fastest(rounds):
    """Each instance's fastest latency over rounds that ran the same instances."""
    return [min(column) for column in zip(*rounds)]


def layer_metrics(traced_rounds, untraced_rounds):
    """Per-layer metrics: the median over traced rounds of each round's value."""
    per_round = []
    for tracer in traced_rounds:
        selfs, counts = tracer.self_times(), tracer.counts  # both default to 0
        row = {f"{name}_ms": selfs[name] * 1e3 for name in LAYER_SPANS}
        row.update({name: counts[name] for name in LAYER_COUNTS})
        row["linalg.contains_us"] = ratio(selfs["linalg.contains"] * 1e6,
                                          counts["linalg.contains_calls"])
        row["graph.seed_optimal_frac"] = ratio(counts["graph.seed_optimal"],
                                               counts["graph.seed_probes"])
        per_round.append(row)
    out = {name: statistics.median([row[name] for row in per_round])
           for name in PER_LAYER if name in per_round[0]}
    traced = fastest([tracer.durations("instance") for tracer in traced_rounds])
    out["trace.overhead_frac"] = sum(traced) / sum(fastest(untraced_rounds)) - 1
    return out


def dominant_layer(tracer):
    selfs = {k: v for k, v in tracer.self_times().items() if k not in OWN_SPANS}
    return max(selfs, key=selfs.get)


def write_trace(workload, seed, traced_rounds):
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    rounds = []
    for tracer in traced_rounds:
        t0 = tracer.spans[0][2]
        rounds.append({
            "fields": ["name", "parent", "start_s", "end_s", "instance"],
            "spans": [[n, p, s - t0, e - t0, k] for n, p, s, e, k in tracer.spans],
            "counts": dict(tracer.counts),
        })
    path = out_dir / f"trace-{workload}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "rounds": rounds}, fh)
    return path


def measure(workloads, workload, seed, seconds, trace, size="full", golden=None, log=print):
    """Run one workload; return the result object printed as the last line."""
    wl = workloads.WORKLOADS[workload]
    sizes = workloads.SIZES[size]
    golden = load_golden() if golden is None else golden
    setups = [] if trace else time_setups(workload, seed, size, SETUP_REPEATS)

    null = NullTracer()
    insts = wl.setup(null, random.Random(seed), golden, sizes)
    walls, untraced_rounds, traced_rounds, failures = [], [], [], []
    attempted = 0
    # rounds alternate untraced and traced when tracing; a round starts
    # only if one more of the longest so far still ends within --seconds
    deadline = time.monotonic() + seconds
    longest = 0.0
    round_no = 0
    while True:
        traced = trace and round_no % 2 == 1
        clear_caches()
        gc.collect()
        start = time.monotonic()
        if traced:
            tracer = Tracer()
            with tracer.span("setup"):
                round_insts = wl.setup(tracer, random.Random(seed), golden, sizes)
            lat, fails = run_round(wl, round_insts, tracer)
            traced_rounds.append(tracer)
        else:
            lat, fails = run_round(wl, insts, null)
            walls.append(time.monotonic() - start)
            untraced_rounds.append(lat)
        attempted += len(lat)
        failures += fails
        longest = max(longest, time.monotonic() - start)
        round_no += 1
        done = not trace or traced_rounds
        if done and time.monotonic() + longest > deadline:
            break

    for key, problems in failures[:20]:
        print(f"FAILED {workload} {key}: {'; '.join(problems)}", file=sys.stderr)
    n = len(insts)
    log(f"workload {workload}, seed {seed}: {n} instances per round, "
        f"{len(walls)} untraced and {len(traced_rounds)} traced round(s)")
    if trace:
        metrics = layer_metrics(traced_rounds, untraced_rounds)
        path = write_trace(workload, seed, traced_rounds)
        log(f"  dominant layer by self time: {dominant_layer(traced_rounds[-1])}; spans in {path}")
        units = PER_LAYER
    else:
        # On a shared machine the CPU speed drifts over seconds, and
        # contention only ever slows an instance, so each instance counts
        # at its fastest round; wall_s is the instance set at those latencies.
        latencies = fastest(untraced_rounds)
        log(f"  round wall times (s): {' '.join(f'{w:.4g}' for w in walls)}")
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(latencies),
            "instance_ms_p50": statistics.median(latencies) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    for name, value in metrics.items():
        log(f"  {name:36s} {value:14.6g} {units[name]}")
    if not trace and n >= P95_MIN_SAMPLES:
        log(f"  {'instance_ms_p95':36s} {percentile(latencies, 0.95) * 1e3:14.6g} ms"
            f"  (n={len(latencies)})")
    log(f"  {'failed_frac':36s} {len(failures) / attempted:14.6g}  "
        f"({len(failures)} of {attempted})")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep-lowdim", "solve-hard", "structure", "field-ladder"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny is the self-test size")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workloads = load_program()
    if args.setup_only:
        wl = workloads.WORKLOADS[args.workload]
        wl.setup(NullTracer(), random.Random(args.seed), load_golden(), workloads.SIZES[args.size])
        print(time.monotonic())
        return 0
    result = measure(workloads, args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
