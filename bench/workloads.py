"""The benchmark's workloads: inputs from a seed, the timed op, and its checks.

Each workload is a closed loop driven by one client: op ``i`` runs only
after op ``i - 1`` has finished.  Inputs come from the workload seed alone,
so a seed always replays the same sequence of ops.  ``run`` is the timed
op; ``check`` is untimed and returns an :class:`Outcome` whose ``record``
feeds the output digest.  The program is always reached through module
attributes (``ef_em.dp_ef_allocate``, ``cli.run``, ...) so that the traced
run sees the same calls the untraced run makes.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from dpfair import cli, ef_em, generators, prop_knife
from dpfair.audit import validate_knife_trace
from dpfair.core import PrivacyParams, UtilityProfile, is_ef_c, is_prop_c
from dpfair.mechanisms import RandomStream

# Stream tags keep the benchmark's input and mechanism draws apart.
_INPUT_TAG = 1
_MECHANISM_TAG = 2
# The warm-up op runs on the all-zero profile of the workload's shape: it
# lies outside every timed sequence, fills the per-shape caches and costs
# little beyond them, so set-up time is import, inputs and enumeration.
_WARMUP_SEED = 0x5EED


@dataclass(frozen=True)
class Outcome:
    ok: bool  # every invariant held
    degenerate: bool  # the degeneracy guard tripped
    guarantee: bool  # the output meets what the paper promises
    record: object  # JSON-serializable output summary for the digest
    problems: tuple = ()


# ---------------------------------------------------------------------------
# reference scorer for the EF allocator
# ---------------------------------------------------------------------------


def _sorted_prefix(row, span):
    if span is None:
        return 0, [0]
    values = sorted(row[span[0] - 1 : span[1]], reverse=True)
    prefix = [0]
    for v in values:
        prefix.append(prefix[-1] + v)
    return prefix[-1], prefix


def reference_score(values, spans, g):
    """Independent truncation score: ``(score, some t qualified)``.

    Agent ``i``'s value for bundle ``j`` with its ``k`` best items removed
    is ``total - prefix[min(k, size)]`` over the bundle's values sorted in
    descending order.  Returns ``(-t, True)`` for the least ``t in [g]``
    with ``trunc_i(A_i, g - t) >= trunc_i(A_j, g + t)`` for all ``i != j``,
    else ``(-g, False)``.
    """
    n = len(values)
    tables = [[_sorted_prefix(row, span) for span in spans] for row in values]

    def trunc(i, j, k):
        total, prefix = tables[i][j]
        return total - prefix[min(k, len(prefix) - 1)]

    for t in range(1, g + 1):
        if all(
            trunc(i, i, g - t) >= trunc(i, j, g + t)
            for i in range(n)
            for j in range(n)
            if j != i
        ):
            return -t, True
    return -g, False


def spans_tile(spans, n, m):
    """The spans give n agents disjoint intervals that tile [1, m]."""
    if len(spans) != n:
        return False
    cursor = 1
    for lo, hi in sorted(span for span in spans if span is not None):
        if lo != cursor or hi < lo:
            return False
        cursor = hi + 1
    return cursor == m + 1


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class EfAllocate:
    """One ``dp_ef_allocate`` call per op on a fresh uniform-integer profile.

    A fresh profile per op matters: ``_score_cached`` is keyed on the
    profile, so a reused profile would time cache hits.
    """

    name = "ef_allocate"
    min_ops = 3
    preload = 20

    def __init__(self, n=3, m=60, vmax=4, epsilon=8.0, beta=0.1):
        self.n, self.m, self.vmax = n, m, vmax
        self.params = PrivacyParams(epsilon=epsilon, beta=beta)

    def sizes(self):
        return {"n": self.n, "m": self.m, "values": [0, self.vmax], "scale": 1,
                "epsilon": self.params.epsilon, "beta": self.params.beta}

    def make_input(self, seed, index):
        rng = np.random.default_rng([seed, _INPUT_TAG, index])
        rows = rng.integers(0, self.vmax + 1, size=(self.n, self.m))
        return UtilityProfile.additive(rows.tolist()), RandomStream(seed, (_MECHANISM_TAG, index))

    def warmup_input(self):
        zero = generators.all_zero_profile(self.n, self.m)
        return zero, RandomStream(_WARMUP_SEED, (_MECHANISM_TAG,))

    def run(self, item):
        profile, stream = item
        return ef_em.dp_ef_allocate(profile, self.params, stream)

    def check(self, item, report):
        profile, _ = item
        spans = report.allocation.spans
        g = report.g
        problems = []
        if not spans_tile(spans, profile.n, profile.m):
            problems.append("spans do not tile [1, m]")
        expected, qualified = reference_score(profile.values, spans, g)
        if report.score != expected:
            problems.append(f"score {report.score} != reference {expected}")
        if not qualified:
            problems.append(f"no t in [1, {g}] qualifies, so ef_guarantee {report.ef_guarantee} is unproven")
        if not is_ef_c(profile, report.allocation, report.ef_guarantee):
            problems.append(f"allocation is not EF-{report.ef_guarantee}")
        return Outcome(
            ok=not problems,
            degenerate=g * profile.n >= profile.m,
            guarantee=is_ef_c(profile, report.allocation, 3 * g // 2),
            record={"spans": spans, "score": report.score, "g": g,
                    "candidates": report.candidate_count},
            problems=tuple(problems),
        )


class KnifeAllocate:
    """One ``dp_moving_knife`` call per op on a fresh Bernoulli profile."""

    name = "knife_allocate"
    min_ops = 3
    preload = 20

    def __init__(self, n=5, m=1500, epsilon=2.0, beta=0.1, svt_constant=1.0):
        self.n, self.m = n, m
        self.params = PrivacyParams(epsilon=epsilon, beta=beta, svt_constant=svt_constant)

    def sizes(self):
        return {"n": self.n, "m": self.m, "values": [0, 1], "scale": 1,
                "epsilon": self.params.epsilon, "beta": self.params.beta,
                "svt_constant": self.params.svt_constant}

    def make_input(self, seed, index):
        profile = generators.bernoulli_profile(
            self.n, self.m, RandomStream(seed, (_INPUT_TAG, index))
        )
        return profile, RandomStream(seed, (_MECHANISM_TAG, index))

    def warmup_input(self):
        zero = generators.all_zero_profile(self.n, self.m)
        return zero, RandomStream(_WARMUP_SEED, (_MECHANISM_TAG,))

    def run(self, item):
        profile, stream = item
        return prop_knife.dp_moving_knife(profile, self.params, stream)

    def check(self, item, result):
        profile, _ = item
        allocation, trace = result
        problems = []
        if not validate_knife_trace(trace, profile.n, profile.m):
            problems.append("knife trace is invalid")
        budget = prop_knife.exact_budget_total(self.params.epsilon, trace.levels_used())
        if budget > Fraction(self.params.epsilon):
            problems.append(f"budget {budget} exceeds epsilon")
        for agent, lo, hi in trace.leaves:
            if allocation.spans[agent - 1] != ((lo, hi) if hi >= lo else None):
                problems.append(f"leaf of agent {agent} disagrees with its span")
        if not spans_tile(allocation.spans, profile.n, profile.m):
            problems.append("spans do not tile [1, m]")
        records = trace.records
        degenerate = not records or records[0].split <= records[0].lo or any(
            r.g_b >= r.hi - r.lo + 1 for r in records
        )
        c = prop_knife.proof_chain_c(profile.m, profile.n, self.params)
        return Outcome(
            ok=not problems,
            degenerate=degenerate,
            guarantee=is_prop_c(profile, allocation, c),
            record={
                "spans": allocation.spans,
                "leaves": trace.leaves,
                "records": [
                    [r.agents, r.lo, r.hi, r.depth, r.level, r.epsilon_b, r.g_b,
                     r.h_values, r.svt_fired, r.split, r.left_agents, r.right_agents]
                    for r in records
                ],
            },
            problems=tuple(problems),
        )


class AuditCli:
    """One fixed battery of in-process CLI commands per op.

    Tiny instance files are written at setup; the op's seed is the only
    thing that changes from op to op.  Thousands of allocator calls on one
    tiny profile make per-call overhead the cost.
    """

    name = "audit_cli"
    min_ops = 5
    preload = 50

    def __init__(self, workdir, trials=8000, epsilon=1.0, beta=0.1):
        self.workdir = workdir
        self.trials = trials
        self.epsilon = epsilon
        self.beta = beta
        self.battery = self._write_battery()

    def sizes(self):
        return {"ratio_pair": {"n": 2, "m": 4}, "fairness_instance": {"n": 3, "m": 8},
                "values": [0, 1], "epsilon": self.epsilon, "beta": self.beta,
                "trials": self.trials}

    def _write(self, name, values):
        path = os.path.join(self.workdir, name)
        with open(path, "w") as handle:
            json.dump({"n": len(values), "m": len(values[0]), "scale": 1, "values": values}, handle)
        return path

    def _write_battery(self):
        # Instances are fixed: the op's input is its seed.
        os.makedirs(self.workdir, exist_ok=True)
        a = self._write("pair_a.json", [[1, 0, 1, 1], [0, 1, 1, 0]])
        b = self._write("pair_b.json", [[1, 1, 1, 1], [0, 1, 1, 0]])
        c = self._write("fair.json", [[1, 0, 1, 1, 0, 0, 1, 1], [0, 1, 1, 0, 1, 0, 0, 1],
                                      [1, 1, 0, 0, 0, 1, 1, 0]])
        trials = self.trials
        eps = ["--epsilon", str(self.epsilon), "--beta", str(self.beta)]
        pair = ["--instance1", a, "--instance2", b]
        g_fair = ef_em.scoring_truncation_budget(8, 3, self.epsilon, self.beta)
        return [
            ["audit", "privacy-ratio", "--algorithm", "ef", *pair, "--trials", str(trials), *eps],
            ["audit", "privacy-ratio", "--algorithm", "prop", *pair, "--trials", str(trials // 4), *eps],
            ["audit", "privacy-ratio", "--exact", "--g", "2", *pair, *eps],
            ["audit", "fairness-rate", "--algorithm", "ef", "--instance", c, "--criterion", "EF",
             "--c", str(3 * g_fair // 2), "--trials", str(trials // 4), *eps],
            ["audit", "sensitivity", "--which", "f", "--n", "2", "--m", "3", "--g", "2"],
            ["audit", "sensitivity", "--which", "score", "--n", "2", "--m", "3", "--g", "2"],
            ["oracle", "min-ef", "--instance", c],
            ["sweep", "--ns", "2", "--ms", "4,5", "--epsilons", str(self.epsilon), "--betas",
             str(self.beta), "--algorithm", "ef", "--trials", str(trials // 40)],
            ["audit", "anti-concentration", "--lemma", "2.10", "--k", "100",
             "--trials", str(trials * 25)],
        ]

    def _out(self, k):
        return os.path.join(self.workdir, f"report_{k}.json")

    def make_input(self, seed, index):
        return int(np.random.default_rng([seed, _INPUT_TAG, index]).integers(0, 2**31))

    def warmup_input(self):
        return _WARMUP_SEED

    def run(self, op_seed):
        return [
            cli.run([*argv, "--seed", str(op_seed), "--out", self._out(k)])
            for k, argv in enumerate(self.battery)
        ]

    def check(self, op_seed, codes):
        problems = []
        reports = []
        verdicts = []
        for k, code in enumerate(codes):
            if code != cli.EXIT_OK:
                problems.append(f"command {k} exited {code}")
            try:
                with open(self._out(k)) as handle:
                    report = json.load(handle)
            except (OSError, json.JSONDecodeError) as exc:
                problems.append(f"command {k} report unreadable: {exc}")
                reports.append(None)
                continue
            report.pop("timing", None)
            # Instance paths differ between processes; the digest leaves them out.
            report.get("parameters", {}).pop("instance", None)
            reports.append(report)
            result = report.get("result")
            if isinstance(result, dict) and "passed" in result:
                verdicts.append(bool(result["passed"]))
        return Outcome(
            ok=not problems,
            degenerate=False,
            guarantee=bool(verdicts) and all(verdicts),
            record={"codes": codes, "reports": reports},
            problems=tuple(problems),
        )


def make_workload(name, workdir):
    if name == "ef_allocate":
        return EfAllocate()
    if name == "knife_allocate":
        return KnifeAllocate()
    if name == "audit_cli":
        return AuditCli(workdir)
    raise ValueError(f"unknown workload {name!r}")


def digest_records(records):
    """Canonical SHA-256 of a sequence of output records."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
