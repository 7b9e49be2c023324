"""Per-layer tracing for the benchmark, done from the benchmark's own files.

:func:`install` rebinds each traced function in every namespace where the
program looks it up, so the program itself is untouched.  A wrapper times
its call, charges the duration to its parent's child time, and records the
call in one of two forms:

* hot layers (called up to ~10^6 times per op) are aggregated per
  ``(parent, name)`` edge: calls, total and self time;
* every other layer keeps one span ``(id, parent id, name, start, end)``.

A layer's self time is its duration minus the time of its traced children.
Everything stays in memory until :meth:`Tracer.dump` writes it out.
Wrappers only read results and arguments; they never change either, and
while no phase is active they call straight through.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

from dpfair import audit, cli, core, ef_em, generators, mechanisms, oracles, prop_knife

PHASES = ("setup", "ops")


class Tracer:
    """Span store plus per-phase layer statistics."""

    def __init__(self):
        self.phase = None  # None: wrappers pass straight through
        self.stack = []  # open frames: [name, child_time, span_id]
        self.next_id = 0
        self.stats = {p: defaultdict(lambda: [0, 0.0]) for p in PHASES}  # name -> [calls, self_s]
        self.edges = {p: defaultdict(lambda: [0, 0.0, 0.0]) for p in PHASES}
        self.counters = {p: defaultdict(float) for p in PHASES}
        self.spans = []

    def set_phase(self, phase):
        if phase is not None and phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        self.phase = phase

    def count(self, key, amount=1.0):
        if self.phase is not None:
            self.counters[self.phase][key] += amount

    def wrap(self, name, fn, hot, on_result=None):
        """Return a traced stand-in for ``fn`` recorded as layer ``name``."""
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1] if stack else None
            if hot:
                span_id = None
            else:
                span_id = tracer.next_id
                tracer.next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self_time = duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                stat = tracer.stats[phase][name]
                stat[0] += 1
                stat[1] += self_time
                if hot:
                    edge = tracer.edges[phase][(parent[0] if parent else None, name)]
                    edge[0] += 1
                    edge[1] += duration
                    edge[2] += self_time
                else:
                    tracer.spans.append(
                        (span_id, parent[2] if parent else None, name, phase, start, end)
                    )
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        return traced

    def dump(self, path):
        doc = {
            "spans": [
                {"id": s, "parent": p, "name": n, "phase": ph, "start": a, "end": b}
                for s, p, n, ph, a, b in self.spans
            ],
            "edges": [
                {"phase": ph, "parent": parent, "name": name,
                 "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for ph in PHASES
                for (parent, name), v in sorted(self.edges[ph].items(), key=repr)
            ],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


# ---------------------------------------------------------------------------
# result hooks: counts measured where the work happens
# ---------------------------------------------------------------------------


def _on_above_threshold(tracer, args, outcome):
    tracer.count("svt.queries", outcome.queries_consumed)
    tracer.count("svt.fired", outcome.index is not None)


def _on_em(tracer, args, index):
    scores = args[2]
    top = max(scores)
    tracer.count("em.candidates", len(scores))
    tracer.count("em.distinct_scores", len(set(scores)))
    tracer.count("em.top_share", sum(1 for s in scores if s == top) / len(scores))


def _counting_cut_queries(tracer, fn):
    # _cut_queries is a generator function: its work runs inside the SVT loop
    # (and is timed there); this stand-in only records the range it scans.
    @functools.wraps(fn)
    def counted(profile, agent, lo, hi, *rest):
        tracer.count("svt.range_len", max(hi - lo + 1, 0))
        return fn(profile, agent, lo, hi, *rest)

    return counted


# (namespaces, attribute, layer name, hot, result hook).  A function is
# rebound in every namespace that looks it up at call time.
TRACED = (
    ((prop_knife, oracles), "f_value", "prop_knife.f_value", True, None),
    ((prop_knife,), "above_threshold", "mechanisms.above_threshold", True, _on_above_threshold),
    ((mechanisms,), "sample_laplace", "mechanisms.sample_laplace", True, None),
    ((ef_em,), "exponential_mechanism", "mechanisms.exponential_mechanism", True, _on_em),
    ((ef_em, oracles), "score", "ef_em.score", True, None),
    ((ef_em,), "is_ef_d_wrt_truncated", "core.is_ef_d_wrt_truncated", True, None),
    ((ef_em, oracles), "connected_allocation_tuple", "ef_em.enumerate", True, None),
    ((ef_em, cli), "dp_ef_allocate", "ef_em.dp_ef_allocate", True, None),
    ((core,), "scaled_truncated", "core.scaled_truncated", True, None),
    ((core, audit, cli, oracles), "is_ef_c", "core.is_ef_c", True, None),
    ((core, audit, cli, oracles), "is_prop_c", "core.is_prop_c", True, None),
    ((generators,), "bernoulli_profile", "generators.bernoulli_profile", False, None),
    ((oracles, audit), "exact_em_distribution", "oracles.exact_em_distribution", False, None),
    ((oracles,), "audit_f_sensitivity", "oracles.audit_f_sensitivity", False, None),
    ((oracles,), "audit_score_sensitivity", "oracles.audit_score_sensitivity", False, None),
    ((oracles,), "min_ef_c_connected", "oracles.min_ef_c_connected", False, None),
    ((audit,), "estimate_privacy_ratio", "audit.estimate_privacy_ratio", False, None),
    ((audit,), "fairness_failure_rate", "audit.fairness_failure_rate", False, None),
    ((audit,), "exact_em_ratio_check", "audit.exact_em_ratio_check", False, None),
    ((audit,), "anti_concentration_check", "audit.anti_concentration_check", False, None),
    ((cli,), "run", "cli.run", False, None),
)

# Layers that are entry points rather than work; their self time is glue.
ENTRY_LAYERS = ("ef_em.dp_ef_allocate", "cli.run")


def install(tracer):
    """Rebind every traced function; returns a callable that undoes it."""
    undo = []
    for namespaces, attr, name, hot, hook in TRACED:
        original = getattr(namespaces[0], attr)
        wrapped = tracer.wrap(name, original, hot, hook)
        for module in namespaces:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} is not the function it wraps")
            undo.append((module, attr, original))
            setattr(module, attr, wrapped)
    original_queries = prop_knife._cut_queries
    undo.append((prop_knife, "_cut_queries", original_queries))
    prop_knife._cut_queries = _counting_cut_queries(tracer, original_queries)
    prop = mechanisms.RandomStream.__dict__["generator"]
    undo.append((mechanisms.RandomStream, "generator", prop))
    mechanisms.RandomStream.generator = property(
        tracer.wrap("mechanisms.stream_generator", prop.fget, True)
    )

    def uninstall():
        for target, attr, original in reversed(undo):
            setattr(target, attr, original)

    return uninstall


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run
# ---------------------------------------------------------------------------

TIMED_LAYERS = (
    "prop_knife.f_value", "mechanisms.sample_laplace", "mechanisms.above_threshold",
    "ef_em.score", "core.is_ef_d_wrt_truncated", "core.scaled_truncated",
    "mechanisms.exponential_mechanism", "mechanisms.stream_generator",
    "core.is_ef_c", "core.is_prop_c", "generators.bernoulli_profile", "cli.run",
)
SELF_ONLY_LAYERS = (
    "oracles.exact_em_distribution", "oracles.audit_f_sensitivity",
    "oracles.audit_score_sensitivity", "oracles.min_ef_c_connected",
    "audit.estimate_privacy_ratio", "audit.fairness_failure_rate",
    "audit.exact_em_ratio_check", "audit.anti_concentration_check",
)
OP_LAYER = "op"  # the benchmark's own root span around each timed op


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, ops, op_wall_s, score_cache, enumerate_misses):
    """Per-layer numbers of the timed ops, per op unless a name says otherwise.

    ``score_cache`` is the ``(hits, misses)`` delta of ``_score_cached`` over
    the timed ops; ``enumerate_misses`` the candidate-cache misses over the
    whole process, set-up included, since enumeration belongs to set-up.
    """
    stats, counters = tracer.stats["ops"], tracer.counters["ops"]
    out = {}
    for name in TIMED_LAYERS:
        calls, self_s = stats.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls / ops
        out[f"{name}.self_s"] = self_s / ops
    for name in SELF_ONLY_LAYERS:
        out[f"{name}.self_s"] = stats.get(name, (0, 0.0))[1] / ops
    out["ef_em.dp_ef_allocate.calls"] = stats.get("ef_em.dp_ef_allocate", (0, 0.0))[0] / ops

    svt_calls = stats.get("mechanisms.above_threshold", (0, 0.0))[0]
    queries = counters["svt.queries"]
    out["mechanisms.above_threshold.queries"] = queries / ops
    out["mechanisms.above_threshold.fired_ratio"] = _ratio(counters["svt.fired"], svt_calls)
    out["prop_knife.queries_per_svt"] = _ratio(queries, svt_calls)
    out["prop_knife.scan_fraction"] = _ratio(queries, counters["svt.range_len"])

    em_calls = stats.get("mechanisms.exponential_mechanism", (0, 0.0))[0]
    out["mechanisms.exponential_mechanism.candidates"] = _ratio(counters["em.candidates"], em_calls)
    out["ef_em.distinct_scores"] = _ratio(counters["em.distinct_scores"], em_calls)
    out["ef_em.top_score_share"] = _ratio(counters["em.top_share"], em_calls)

    hits, misses = score_cache
    out["ef_em.score_cache_hit_ratio"] = _ratio(hits, hits + misses)
    checks = stats.get("core.is_ef_d_wrt_truncated", (0, 0.0))[0]
    out["ef_em.truncation_checks_per_score"] = _ratio(checks, misses)
    out["ef_em.enumerate.self_s"] = sum(
        tracer.stats[p].get("ef_em.enumerate", (0, 0.0))[1] for p in PHASES
    )
    out["ef_em.enumerate.misses"] = enumerate_misses
    out["generators.bernoulli_profile.setup_s"] = tracer.stats["setup"].get(
        "generators.bernoulli_profile", (0, 0.0)
    )[1]
    covered = sum(
        self_s for name, (_, self_s) in stats.items()
        if name not in ENTRY_LAYERS and name != OP_LAYER
    )
    out["trace.coverage"] = _ratio(covered, op_wall_s)
    return out
