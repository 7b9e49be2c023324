"""The names the benchmark in ``bench/`` reads from the package still exist.

``bench/worker.py`` reads two caches' ``cache_info()`` in every run, and
``bench/tracing.py`` rebinds the traced functions in every module that looks
them up.  A change that renames or drops one of them fails here, in the test
suite, rather than in every benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

from dpfair import ef_em

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
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


def test_worker_cache_counters_exist():
    for cache in (ef_em.connected_allocation_tuple, ef_em._score_cached):
        info = cache.cache_info()
        assert info.hits >= 0 and info.misses >= 0


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
