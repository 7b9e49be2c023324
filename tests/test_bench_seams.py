"""The names the benchmark in ``bench/`` reads from the package still exist.

``bench/worker.py`` reads two call counters' ``cache_info()`` in every run,
``bench/tracing.py`` rebinds the traced functions in every module that looks
them up, and ``bench/workloads.py`` checks every op against the profile's
``values``.  A change that renames or drops one of them, or changes what the
checks read, fails here, in the test suite, rather than in every benchmark
run.
"""

import importlib.util
import json
import sys
from pathlib import Path

from dpfair import cli, ef_em
from dpfair.cli import read_instance
from dpfair.core import PrivacyParams
from dpfair.ef_em import dp_ef_allocate
from dpfair.generators import bernoulli_profile
from dpfair.mechanisms import RandomStream
from dpfair.prop_knife import dp_moving_knife

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_workloads(monkeypatch):
    # Its dataclasses look their module up in sys.modules while being built.
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _bindings():
    # Every attribute of every dpfair module and of every class they define.
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dpfair"]
    classes = [
        value
        for module in modules
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__.startswith("dpfair")
    ]
    return {(id(ns), attr): value for ns in modules + classes for attr, value in vars(ns).items()}


def test_worker_cache_counters_exist(tmp_path, capsys):
    # The counters only count: after an allocation, an oracle and the
    # exhaustive score audit, neither holds an entry.
    path = tmp_path / "i.json"
    path.write_text(json.dumps({"n": 2, "m": 3, "scale": 1, "values": [[1, 0, 2], [2, 1, 0]]}))
    dp_ef_allocate(read_instance(str(path)), PrivacyParams(epsilon=2.0), RandomStream(0))
    assert cli.run(["oracle", "min-ef", "--instance", str(path)]) == cli.EXIT_OK
    argv = ["audit", "sensitivity", "--which", "score", "--n", "2", "--m", "3", "--g", "2"]
    assert cli.run(argv) == cli.EXIT_OK
    capsys.readouterr()
    for cache in (ef_em.connected_allocation_tuple, ef_em._score_cached):
        info = cache.cache_info()
        assert info.hits >= 0 and info.misses >= 0
        assert (info.maxsize, info.currsize) == (0, 0)


def test_tracer_installs_and_its_undo_restores_every_binding():
    tracing = _load_tracing()
    before = _bindings()
    uninstall = tracing.install(tracing.Tracer())
    try:
        rebound = {key for key, value in _bindings().items() if before.get(key) is not value}
        assert len(rebound) >= len(tracing.TRACED)
    finally:
        uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if before[key] is not value] == []


def test_tracer_counts_every_svt_of_a_knife_run():
    # The per-layer SVT metrics read the traced above_threshold's calls and
    # the queries its outcomes report: one call per agent of each step.
    tracing = _load_tracing()
    profile = bernoulli_profile(3, 200, RandomStream(5))
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        tracer.set_phase("ops")
        _, trace = dp_moving_knife(profile, PrivacyParams(2.0, 0.1, 1.0), RandomStream(6))
    finally:
        uninstall()
    calls, _ = tracer.stats["ops"]["mechanisms.above_threshold"]
    assert calls == sum(len(record.agents) for record in trace.records) > 0
    queries = tracer.counters["ops"]["svt.queries"]
    assert queries == sum(sum(record.svt_queries) for record in trace.records) > 0


def test_workload_checks_read_the_profile_values(monkeypatch):
    # One seeded op of each allocator workload passes the benchmark's own
    # untimed checks, and its reference scorer reads the profile's values.
    workloads = _load_workloads(monkeypatch)
    ef, knife = workloads.EfAllocate(), workloads.KnifeAllocate()
    for workload in (ef, knife):
        item = workload.make_input(1, 0)
        result = workload.run(item)
        outcome = workload.check(item, result)
        assert outcome.ok and not outcome.degenerate, outcome.problems
        if workload is ef:
            profile, _ = item
            score, qualified = workloads.reference_score(
                profile.values, result.allocation.spans, result.g
            )
            assert qualified and score == result.score
