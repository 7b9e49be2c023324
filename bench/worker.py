"""One benchmark process: set up, warm up, run the closed loop, check outputs.

``run.py`` starts this script in a fresh interpreter for each role:

* ``setup``   -- import, generate inputs and run one warm-up op; report the
  set-up time only;
* ``measure`` -- set up, then time ops until ``--seconds`` of op time have
  passed and at least the workload's ``min_ops`` ops are done;
* ``trace``   -- ``measure`` with every layer wrapped by :mod:`tracing`.

The last line of stdout is one JSON object with the results.  The program
is imported from ``<root>/src`` and nowhere else.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

EXIT_NO_PROGRAM = 3


def _import_program(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import dpfair

    where = os.path.realpath(dpfair.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"dpfair was imported from {where}, not from {src}")


def run_role(role, workload, seed, seconds, trace_out=None):
    from dpfair import ef_em

    import tracing
    from workloads import digest_records

    tracer = None
    enumerate_cache = ef_em.connected_allocation_tuple
    enumerate_before = enumerate_cache.cache_info().misses
    if role == "trace":
        tracer = tracing.Tracer()
        tracing.install(tracer)  # the process ends with the run; nothing to undo
        tracer.set_phase("setup")

    inputs = [workload.make_input(seed, i) for i in range(workload.preload)]
    workload.run(workload.warmup_input())
    setup_s = time.perf_counter() - _START
    if role == "setup":
        return {"setup_s": setup_s}

    op = workload.run
    if tracer is not None:
        tracer.set_phase(None)
        op = tracer.wrap(tracing.OP_LAYER, workload.run, hot=False)
    score_before = ef_em._score_cached.cache_info()

    latencies, records = [], []
    counts = {"failed": 0, "errors": 0, "check_failures": 0, "degenerate": 0,
              "guarantee_hits": 0}
    problems = []
    timed = 0.0
    index = 0
    while index < workload.min_ops or timed < seconds:
        item = inputs[index] if index < len(inputs) else workload.make_input(seed, index)
        if tracer is not None:
            tracer.set_phase("ops")
        start = time.perf_counter()
        try:
            output = op(item)
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - start
        if tracer is not None:
            tracer.set_phase(None)
        timed += latency
        latencies.append(latency)

        if error is not None:
            counts["errors"] += 1
            record, guarantee, failed = {"error": error}, False, True
            problems.append(f"op {index}: {error}")
        else:
            outcome = workload.check(item, output)
            record, guarantee = outcome.record, outcome.guarantee
            failed = not outcome.ok or outcome.degenerate
            if not outcome.ok:
                counts["check_failures"] += 1
                problems.extend(f"op {index}: {p}" for p in outcome.problems)
            if outcome.degenerate:
                counts["degenerate"] += 1
                problems.append(f"op {index}: degenerate configuration")
        counts["failed"] += failed
        if index < workload.min_ops:
            # Digest, guarantee rate and peak RSS cover the same fixed prefix
            # in every run, so they do not depend on how many ops fit in it
            # (the EF score cache grows with every op).
            records.append(record)
            counts["guarantee_hits"] += guarantee
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        index += 1

    result = {
        "setup_s": setup_s,
        "latencies": latencies,
        "attempted": len(latencies),
        **counts,
        "guarantee_ops": workload.min_ops,
        "digest": digest_records(records),
        "peak_rss_mb": peak_rss_mb,
        "problems": problems[:20],
        "sizes": workload.sizes(),
    }
    if tracer is not None:
        score_after = ef_em._score_cached.cache_info()
        result["layers"] = tracing.layer_metrics(
            tracer,
            ops=len(latencies),
            op_wall_s=timed,
            score_cache=(score_after.hits - score_before.hits,
                         score_after.misses - score_before.misses),
            enumerate_misses=enumerate_cache.cache_info().misses - enumerate_before,
        )
        if trace_out:
            tracer.dump(trace_out)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace-out", default=None, help="where the trace role writes its spans")
    args = parser.parse_args(argv)

    try:
        _import_program(args.root)
    except ImportError as exc:
        sys.stderr.write(f"cannot import the program: {exc}\n")
        return EXIT_NO_PROGRAM

    import workloads

    workdir = os.path.join(args.root, ".bench_run", f"{args.workload}-{os.getpid()}")
    try:
        workload = workloads.make_workload(args.workload, workdir)
        result = run_role(args.role, workload, args.seed, args.seconds, args.trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
