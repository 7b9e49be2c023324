"""Empirical verification harness for the private allocators.

Audits come in two modes.  Exact mode compares closed-form output
distributions outcome by outcome and must pass with nothing beyond a 1e-9
float slack; sampled mode estimates per-outcome frequencies, attaches
Wilson intervals, and flags only confident violations (a lower confidence
bound above the target ratio).  Sampling can falsify a privacy claim but
never prove it, so every report records which mode produced the verdict.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .core import (
    Adjacency,
    PrivacyParams,
    UtilityProfile,
    adjacency_distance,
    is_ef_c,
    is_prop_c,
)
from .ef_em import DEFAULT_ENUMERATION_CAP
from .mechanisms import RandomStream, monte_carlo_count
from .oracles import exact_em_distribution
from .prop_knife import KnifeTrace

EXACT_SLACK = 1e-9
WILSON_Z = 3.0  # three-sigma margins throughout

# A mechanism maps (profile, stream, k) to k outcomes drawn in turn from
# the one stream, or to a mapping of those outcomes to their counts, so it
# can build its fixed state once per input.
Mechanism = Callable[[UtilityProfile, RandomStream, int], Iterable]


def draw_counts(
    mechanism: Mechanism, profile: UtilityProfile, stream: RandomStream, k: int
) -> Counter:
    """How often each outcome occurs among the mechanism's ``k`` draws on one input."""
    counts = Counter(mechanism(profile, stream, k))
    if sum(counts.values()) != k:
        raise ValueError(f"the mechanism returned {sum(counts.values())} outcomes, not {k}")
    return counts


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval, ``WILSON_Z`` sigmas wide, for a binomial proportion."""
    if trials < 1:
        raise ValueError("need at least one trial")
    p, z = successes / trials, WILSON_Z
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


@dataclass(frozen=True)
class RatioReport:
    """Per-outcome comparison of a mechanism's distribution on two inputs."""

    outcomes: tuple
    p1: tuple[float, ...]
    p2: tuple[float, ...]
    max_log_ratio: float
    max_log_ratio_ci: tuple[float, float]
    samples: int  # per input; 0 in exact mode
    bound: float  # e^epsilon, or e^(k epsilon) for group audits
    mode: str  # "exact" or "sampled"
    flagged: tuple  # outcomes with a confident (or exact) bound violation

    @property
    def passed(self) -> bool:
        return not self.flagged


def ratio_report_from_distributions(
    d1: Mapping, d2: Mapping, bound: float
) -> RatioReport:
    """Exact-mode report: flag any outcome whose probability ratio beats the bound."""
    outcomes = sorted(set(d1) | set(d2), key=repr)
    p1 = tuple(float(d1.get(o, 0.0)) for o in outcomes)
    p2 = tuple(float(d2.get(o, 0.0)) for o in outcomes)
    flagged = []
    max_log = 0.0
    for o, a, b in zip(outcomes, p1, p2):
        if a > (bound + EXACT_SLACK) * b or b > (bound + EXACT_SLACK) * a:
            flagged.append(o)
        if a > 0 and b > 0:
            max_log = max(max_log, abs(math.log(a / b)))
        elif a != b:
            max_log = math.inf
    return RatioReport(
        outcomes=tuple(outcomes),
        p1=p1,
        p2=p2,
        max_log_ratio=max_log,
        max_log_ratio_ci=(max_log, max_log),
        samples=0,
        bound=bound,
        mode="exact",
        flagged=tuple(flagged),
    )


def exact_em_ratio_check(
    p1: UtilityProfile,
    p2: UtilityProfile,
    params: PrivacyParams,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    g: Optional[int] = None,
) -> RatioReport:
    """Exact privacy-ratio audit of the envy-free allocator on two profiles.

    The target bound is e^(k epsilon) where k is the edit distance between
    the profiles; for adjacent profiles (k = 1) this is the plain privacy
    ratio, for farther pairs it is the group-privacy bound.  ``g`` overrides
    the allocator's truncation budget; the formula value exceeds m at desk
    scale, where distributions are uniform and the check is vacuous, so a
    small explicit ``g`` is what gives the audit teeth.
    """
    k = adjacency_distance(p1, p2, Adjacency.AGENT_ITEM_LEVEL)
    bound = math.exp(k * params.epsilon)
    d1 = exact_em_distribution(p1, params, enumeration_cap, g=g)
    d2 = exact_em_distribution(p2, params, enumeration_cap, g=g)
    return ratio_report_from_distributions(d1, d2, bound)


def _sampled_ratio_report(
    mechanism: Mechanism,
    p1: UtilityProfile,
    p2: UtilityProfile,
    bound: float,
    samples: int,
    stream: RandomStream,
) -> RatioReport:
    if samples < 1:
        raise ValueError("need at least one sample per input")
    counts1 = draw_counts(mechanism, p1, stream.child(1), samples)
    counts2 = draw_counts(mechanism, p2, stream.child(2), samples)
    outcomes = sorted(set(counts1) | set(counts2), key=repr)
    p1_hat = tuple(counts1[o] / samples for o in outcomes)
    p2_hat = tuple(counts2[o] / samples for o in outcomes)
    flagged = []
    max_log = 0.0
    max_ci = (0.0, 0.0)
    for o in outcomes:
        c1, c2 = counts1[o], counts2[o]
        lo1, hi1 = wilson_interval(c1, samples)
        lo2, hi2 = wilson_interval(c2, samples)
        # Confident violation in either direction: even the most favorable
        # probabilities inside the intervals would break the bound.
        if lo1 > bound * hi2 or lo2 > bound * hi1:
            flagged.append(o)
        if c1 > 0 and c2 > 0:
            log_ratio = abs(math.log(c1 / c2))
            if log_ratio > max_log:
                max_log = log_ratio
                ci_lo = math.log(lo1 / hi2) if c1 >= c2 else math.log(lo2 / hi1)
                ci_hi = math.log(hi1 / lo2) if c1 >= c2 else math.log(hi2 / lo1)
                max_ci = (ci_lo, ci_hi)
    return RatioReport(
        outcomes=tuple(outcomes),
        p1=p1_hat,
        p2=p2_hat,
        max_log_ratio=max_log,
        max_log_ratio_ci=max_ci,
        samples=samples,
        bound=bound,
        mode="sampled",
        flagged=tuple(flagged),
    )


def estimate_privacy_ratio(
    mechanism: Mechanism,
    p1: UtilityProfile,
    p2: UtilityProfile,
    epsilon: float,
    samples: int,
    stream: RandomStream,
) -> RatioReport:
    """Sampled privacy-ratio audit of a black-box mechanism against e^epsilon.

    For profiles k cells apart, pass ``k * epsilon`` to audit group privacy.
    """
    return _sampled_ratio_report(mechanism, p1, p2, math.exp(epsilon), samples, stream)


@dataclass(frozen=True)
class EmpiricalProbability:
    """A Monte-Carlo frequency with its Wilson confidence interval."""

    hits: int
    trials: int
    ci_low: float
    ci_high: float

    @property
    def estimate(self) -> float:
        return self.hits / self.trials

    @property
    def sigma(self) -> float:
        p = self.estimate
        return math.sqrt(p * (1 - p) / self.trials)


def _empirical(hits: int, trials: int) -> EmpiricalProbability:
    lo, hi = wilson_interval(hits, trials)
    return EmpiricalProbability(hits=hits, trials=trials, ci_low=lo, ci_high=hi)


def fairness_failure_rate(
    mechanism: Mechanism,
    profile: UtilityProfile,
    criterion: str,
    c: int,
    trials: int,
    stream: RandomStream,
) -> EmpiricalProbability:
    """Fraction of mechanism runs whose output fails EF-c or PROP-c.

    The ``trials`` runs are drawn in turn from ``stream``; each distinct
    output is checked once and counted as often as it was drawn.
    """
    criterion = criterion.upper()
    if criterion not in ("EF", "PROP"):
        raise ValueError("criterion must be 'EF' or 'PROP'")
    check = is_ef_c if criterion == "EF" else is_prop_c
    if trials < 1:
        raise ValueError("need at least one trial")
    counts = draw_counts(mechanism, profile, stream, trials)
    failures = sum(
        count for allocation, count in counts.items() if not check(profile, allocation, c)
    )
    return _empirical(failures, trials)


_ANTI_CONCENTRATION_CHUNK = 1 << 16


def anti_concentration_check(
    lemma: str,
    k: int,
    gamma: Optional[float],
    trials: int,
    stream: RandomStream,
) -> EmpiricalProbability:
    """Monte-Carlo check of the fair-coin sum anti-concentration bounds.

    ``lemma="2.10"`` estimates the lower-tail probability
    Pr[S < k/2 - 0.1*sqrt(k)], whose target is at least 1/4.
    ``lemma="2.11"`` estimates the upper-tail probability
    Pr[S > k/2 + 0.1*sqrt(k log gamma)], whose target is at least
    0.1/gamma for gamma in [2, 2^(k/4)].
    """
    if lemma not in ("2.10", "2.11"):
        raise ValueError("lemma must be '2.10' or '2.11'")
    if k < 100:
        raise ValueError("the bounds are stated for k >= 100")
    if trials < 1:
        raise ValueError("need at least one trial")
    if lemma == "2.11":
        if gamma is None or not 2 <= gamma <= 2 ** (k / 4):
            raise ValueError("gamma must lie in [2, 2^(k/4)]")
        threshold = k / 2 + 0.1 * math.sqrt(k * math.log(gamma))
    else:
        threshold = k / 2 - 0.1 * math.sqrt(k)

    def count(generator: np.random.Generator, batch: int) -> int:
        sums = generator.binomial(k, 0.5, size=batch)
        if lemma == "2.10":
            return int(np.sum(sums < threshold))
        return int(np.sum(sums > threshold))

    hits = monte_carlo_count(stream, trials, _ANTI_CONCENTRATION_CHUNK, count)
    return _empirical(hits, trials)


def parallel_structure_ok(trace: KnifeTrace) -> bool:
    """Each agent's row is touched in at most one recursion branch per depth."""
    by_depth: dict[int, list] = {}
    for record in trace.records:
        by_depth.setdefault(record.depth, []).append(record.agents)
    for groups in by_depth.values():
        seen: set[int] = set()
        for agents in groups:
            if seen.intersection(agents):
                return False
            seen.update(agents)
    return True


def validate_knife_trace(trace: KnifeTrace, n: int, m: int) -> bool:
    """Every agent in exactly one leaf, and the nonempty leaf ranges tile [1, m]."""
    agents = sorted(agent for agent, _, _ in trace.leaves)
    if agents != list(range(1, n + 1)):
        return False
    ranges = sorted((lo, hi) for _, lo, hi in trace.leaves if hi >= lo)
    cursor = 1
    for lo, hi in ranges:
        if lo != cursor:
            return False
        cursor = hi + 1
    return cursor == m + 1 and parallel_structure_ok(trace)
