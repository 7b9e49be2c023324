"""Run dpfair benchmark workloads and print their metrics.

Usage, from the repository root::

    python3 bench/run.py --workload ef_allocate --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workload names, metric names and units come from ``BENCHMARK.json``.  Every
workload process is a fresh interpreter (``worker.py``) with numpy/BLAS
limited to one thread, so lru caches and peak RSS never carry over.

``--trace 0`` runs ``SETUP_REPEATS - 1`` set-up-only processes and one
measuring process and reports the end-to-end metrics; ``setup_s`` is the
median set-up time of all of them.  ``--trace 1`` runs one untraced and one
traced process for half of ``--seconds`` each, reports the per-layer
metrics, and is correct only if both produce the same output digest.

The summary goes to stdout first; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 only
when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_REPEATS = 5
TIME_BUDGET_S = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc


def _spawn(role, args, seconds, deadline, trace_out=None):
    cmd = [
        sys.executable, WORKER, "--role", role, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", repr(seconds), "--root", ROOT,
    ]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before the run finished")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
            stdout=subprocess.PIPE, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{role} process exceeded the time budget") from exc
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{role} process printed no result")
    return json.loads(lines[-1])


def _end_to_end(args, deadline):
    setups = [
        _spawn("setup", args, args.seconds, deadline)["setup_s"]
        for _ in range(SETUP_REPEATS - 1)
    ]
    run = _spawn("measure", args, args.seconds, deadline)
    setups.append(run["setup_s"])
    latencies = run["latencies"]
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_s": statistics.median(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": run["peak_rss_mb"],
        "guarantee_rate": run["guarantee_hits"] / run["guarantee_ops"],
    }
    return run, [run], metrics


def _per_layer(args, deadline):
    half = args.seconds / 2.0
    trace_dir = os.path.join(ROOT, ".bench_traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")
    plain = _spawn("measure", args, half, deadline)
    traced = _spawn("trace", args, half, deadline, trace_out)
    # Overhead over the ops both runs completed, so both time the same inputs.
    k = min(len(plain["latencies"]), len(traced["latencies"]))
    metrics = dict(traced["layers"])
    metrics["trace.overhead"] = sum(traced["latencies"][:k]) / sum(plain["latencies"][:k])
    if plain["digest"] != traced["digest"]:
        traced["problems"].append(
            f"traced digest {traced['digest']} != untraced digest {plain['digest']}"
        )
    return traced, [plain, traced], metrics


def _recorded_digest(workload, seed):
    try:
        with open(os.path.join(BENCH_DIR, "digests.json")) as handle:
            return json.load(handle).get(workload, {}).get(str(seed))
    except (OSError, json.JSONDecodeError):
        return None


def run_workload(spec, args):
    """Measure one workload, print its summary, and end with the result line."""
    deadline = time.monotonic() + TIME_BUDGET_S
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    main_run, runs, metrics = (_per_layer if args.trace else _end_to_end)(args, deadline)
    names = {m["name"] for m in declared}
    if set(metrics) != names:
        raise BenchError(f"metrics {sorted(set(metrics) ^ names)} differ from BENCHMARK.json")

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    recorded = _recorded_digest(args.workload, args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"sizes {json.dumps(main_run['sizes'], sort_keys=True)}")
    for r in runs:
        print(
            f"run: ops {r['attempted']}, failed {r['failed']} (errors {r['errors']}, "
            f"check failures {r['check_failures']}, degenerate {r['degenerate']}), "
            f"digest of first {r['guarantee_ops']} ops {r['digest']}"
        )
    if recorded is None:
        print("recorded digest: none for this seed")
    else:
        print(f"recorded digest: {'matches' if recorded == main_run['digest'] else 'differs'}")
    print(f"error_rate {failed / attempted:.6g} fraction ({failed} of {attempted} ops)")
    for problem in problems:
        print(f"problem: {problem}")
    for m in declared:
        extra = f" (n={len(main_run['latencies'])} ops)" if m["name"] == "latency_p50_s" else ""
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}{extra}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }), flush=True)


def main(argv=None):
    spec = _load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description="Run dpfair benchmark workloads.")
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    for name in workloads if args.workload == "all" else [args.workload]:
        run_workload(spec, argparse.Namespace(**{**vars(args), "workload": name}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        sys.exit(1)
