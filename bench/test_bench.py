"""Self-tests of the benchmark: reference scorer, tracing wrappers, guards, runner.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import tracing  # noqa: E402
from workloads import (  # noqa: E402
    AuditCli,
    EfAllocate,
    KnifeAllocate,
    digest_records,
    reference_score,
)

from dpfair import ef_em  # noqa: E402
from dpfair.core import UtilityProfile  # noqa: E402


def _all_profiles(n, m, levels):
    for cells in itertools.product(range(levels), repeat=n * m):
        yield UtilityProfile.additive([cells[i * m : (i + 1) * m] for i in range(n)])


@pytest.mark.parametrize("n,m,levels", [(2, 3, 2), (2, 4, 2), (3, 3, 2), (2, 3, 3)])
def test_reference_score_matches_program_exhaustively(n, m, levels):
    allocations = list(ef_em.enumerate_connected_allocations(m, n))
    for profile in _all_profiles(n, m, levels):
        for g in range(1, m + 2):
            for allocation in allocations:
                expected = ef_em.score(profile, allocation, g)
                assert reference_score(profile.values, allocation.spans, g)[0] == expected


def test_ef_check_fails_an_unproven_guarantee():
    # With g = 1 and an agent holding nothing while valuing the other bundle,
    # no t qualifies; the program still returns -g, claiming EF-2g.
    profile = UtilityProfile.additive([[1, 1, 1, 1], [1, 1, 1, 1]])
    allocation = next(
        a for a in ef_em.enumerate_connected_allocations(4, 2) if a.spans[0] is None
    )
    score, qualified = reference_score(profile.values, allocation.spans, 1)
    assert not qualified and ef_em.score(profile, allocation, 1) == score == -1
    report = ef_em.EfRunReport(
        allocation=allocation, g=1, score=-1, candidate_count=8, epsilon=8.0, beta=0.1
    )
    outcome = EfAllocate(n=2, m=4).check((profile, None), report)
    assert not outcome.ok
    assert any("qualifies" in p for p in outcome.problems)


def _digest(workload, seed, ops):
    items = [workload.make_input(seed, i) for i in range(ops)]
    return digest_records([workload.check(item, workload.run(item)).record for item in items])


@pytest.mark.parametrize("make", [
    lambda workdir: EfAllocate(n=2, m=12),
    lambda workdir: KnifeAllocate(n=3, m=200),
    lambda workdir: AuditCli(workdir, trials=40),
], ids=["ef_allocate", "knife_allocate", "audit_cli"])
def test_tracing_leaves_outputs_unchanged(make, tmp_path):
    workload = make(str(tmp_path))
    originals = {
        (module, attr): getattr(module, attr)
        for namespaces, attr, *_ in tracing.TRACED
        for module in namespaces
    }
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    tracer.set_phase("ops")
    try:
        # Traced first, so the traced pass is the one that fills the caches.
        traced = _digest(workload, seed=7, ops=2)
    finally:
        tracer.set_phase(None)
        uninstall()
    assert traced == _digest(workload, seed=7, ops=2)
    assert sum(calls for calls, _ in tracer.stats["ops"].values()) > 0
    for (module, attr), original in originals.items():
        assert getattr(module, attr) is original


def test_self_times_add_up_to_span_time():
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    tracer.set_phase("ops")
    workload = EfAllocate(n=2, m=10)
    op = tracer.wrap(tracing.OP_LAYER, workload.run, hot=False)
    try:
        op(workload.make_input(3, 0))
    finally:
        tracer.set_phase(None)
        uninstall()
    (_, _, _, _, start, end), = [s for s in tracer.spans if s[2] == tracing.OP_LAYER]
    total_self = sum(self_s for _, self_s in tracer.stats["ops"].values())
    assert total_self == pytest.approx(end - start, rel=1e-6)


def test_knife_guard_trips_at_the_default_svt_constant():
    workload = KnifeAllocate(n=5, m=300, svt_constant=16.0)
    item = workload.make_input(1, 0)
    assert workload.check(item, workload.run(item)).degenerate


def test_ef_guard_trips_when_g_covers_the_items():
    workload = EfAllocate(n=3, m=8, epsilon=1.0)
    item = workload.make_input(1, 0)
    assert workload.check(item, workload.run(item)).degenerate


@pytest.mark.parametrize("workload", [KnifeAllocate(), EfAllocate()], ids=["knife", "ef"])
def test_workload_configurations_pass_the_guard(workload):
    item = workload.make_input(1, 0)
    outcome = workload.check(item, workload.run(item))
    assert outcome.ok and not outcome.degenerate


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=175,
    )


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run_bench(tmp_path, "--workload", "audit_cli", "--seed", "1", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_runner_prints_every_declared_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    proc = _run_bench(ROOT, "--workload", "audit_cli", "--seed", "2", "--seconds", "1",
                      "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["end_to_end"]
    }
