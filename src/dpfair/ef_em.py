"""Private envy-free allocator: exponential mechanism over connected allocations.

The allocator enumerates every connected allocation, scores each one by how
little truncation it needs before becoming approximately envy-free, and runs
the exponential mechanism on those scores.  The score has sensitivity at
most 1 under agent-by-item adjacency, which is what makes the whole
procedure epsilon-DP.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .core import (
    ConnectedAllocation,
    EnumerationCapError,
    PrivacyParams,
    UtilityProfile,
    is_ef_c,
    is_ef_d_wrt_truncated,
    least_true,
    min_ef_c,
    threshold_counts,
)
from .mechanisms import RandomStream, exponential_mechanism

DEFAULT_ENUMERATION_CAP = 10**7
# Candidates times g cells per block of the batched scorer, which bounds its
# temporaries however large the candidate set or g is.
_SCORE_BLOCK_CELLS = 1 << 15


@dataclass(frozen=True)
class EfRunReport:
    """Outcome of one allocator run plus the metadata needed to audit it."""

    allocation: ConnectedAllocation
    g: int
    score: int  # in [-g, -1], recomputable from (profile, allocation, g)
    candidate_count: int
    epsilon: float
    beta: float
    # Set only when the score is -g and EF-2g fails: then no t in [g]
    # qualified, the score certifies nothing, and this is min_ef_c.
    fallback_guarantee: Optional[int] = None

    @property
    def ef_guarantee(self) -> int:
        """A c for which the allocation is proven EF-c: g + |score|, or the fallback."""
        if self.fallback_guarantee is not None:
            return self.fallback_guarantee
        return self.g - self.score


def count_connected_allocations(m: int, n: int) -> int:
    """Number of distinct connected allocations of ``m`` items to ``n`` agents."""
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    if m == 0:
        return 1
    return sum(
        math.comb(n, k) * math.factorial(k) * math.comb(m - 1, k - 1)
        for k in range(1, min(n, m) + 1)
    )


def enumerate_connected_allocations(m: int, n: int) -> Iterator[ConnectedAllocation]:
    """Yield every distinct connected allocation exactly once.

    An allocation is determined by which ``k`` agents receive nonempty
    intervals, their left-to-right order, and a composition of ``m`` into
    ``k`` positive parts; compositions are encoded as cut positions.
    """
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    if m == 0:
        yield ConnectedAllocation(spans=(None,) * n)
        return
    agents = range(1, n + 1)
    for k in range(1, min(n, m) + 1):
        for chosen in itertools.combinations(agents, k):
            for order in itertools.permutations(chosen):
                for cuts in itertools.combinations(range(1, m), k - 1):
                    bounds = (0, *cuts, m)
                    spans: list = [None] * n
                    for block, agent in enumerate(order):
                        spans[agent - 1] = (bounds[block] + 1, bounds[block + 1])
                    yield ConnectedAllocation(spans=tuple(spans))


@lru_cache(maxsize=256)
def connected_allocation_tuple(m: int, n: int) -> tuple[ConnectedAllocation, ...]:
    """Materialized candidate set, cached across repeated runs on one shape."""
    return tuple(enumerate_connected_allocations(m, n))


def capped_candidates(
    profile: UtilityProfile, enumeration_cap: int
) -> tuple[ConnectedAllocation, ...]:
    """Every connected allocation of the profile's shape, refusing oversized sets.

    Raises :class:`EnumerationCapError` when there are more than
    ``enumeration_cap`` candidates; a silently truncated candidate set would
    void both the privacy guarantee and every exhaustive oracle.
    """
    count = count_connected_allocations(profile.m, profile.n)
    if count > enumeration_cap:
        raise EnumerationCapError(
            f"{count} connected allocations exceed the enumeration cap {enumeration_cap}"
        )
    return connected_allocation_tuple(profile.m, profile.n)


def score(profile: UtilityProfile, allocation: ConnectedAllocation, g: int) -> int:
    """Score in ``[-g, -1]``: minus the least truncation budget that works.

    Returns ``-t`` for the smallest ``t in [g]`` such that the allocation is
    envy-free up to ``2t`` items under ``(g - t)``-truncated utilities, and
    ``-g`` if no ``t`` qualifies.  As ``t`` grows, each agent's own bundle
    is truncated less and every other bundle more, so the qualifying set is
    upward closed (for general monotone tables too) and is searched.  This is
    the definition; :func:`scored_candidates` computes it for a whole
    candidate set at once.
    """
    if g < 1:
        raise ValueError("g must be a positive integer")
    t = least_true(lambda t: is_ef_d_wrt_truncated(profile, allocation, 2 * t, g - t), 1, g)
    return -min(t, g)


def scored_candidates(
    profile: UtilityProfile, g: int, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[tuple[ConnectedAllocation, ...], np.ndarray]:
    """Every connected allocation (see :func:`capped_candidates`) and its :func:`score`.

    The scores are a read-only integer array in candidate order, cached per
    ``(profile, g)``: the audit loops run the allocator on one or two
    profiles thousands of times.
    """
    candidates = capped_candidates(profile, enumeration_cap)
    if g < 1:
        raise ValueError("g must be a positive integer")
    return candidates, _score_cached(profile, g)


@lru_cache(maxsize=8)
def _score_cached(profile: UtilityProfile, g: int) -> np.ndarray:
    candidates = connected_allocation_tuple(profile.m, profile.n)
    if profile.kind == "additive" and max(map(sum, profile.values)) < 2**63:
        scores = _additive_scores(profile, candidates, g)
    else:  # general tables, or sums that int64 arithmetic would wrap
        scores = [score(profile, allocation, g) for allocation in candidates]
    scores = np.asarray(scores, dtype=np.min_scalar_type(-g))
    scores.flags.writeable = False
    return scores


def _additive_scores(
    profile: UtilityProfile, candidates: tuple[ConnectedAllocation, ...], g: int
) -> np.ndarray:
    """:func:`score` of every candidate of an additive profile, in blocks of candidates.

    An agent's k-truncated bundle value is ``sum(w * max(held - k, 0))`` over
    the thresholds ``(w, c)`` of its row's :func:`~dpfair.core.threshold_counts`,
    ``held`` being a difference of two entries of ``c``.  Every t in ``[1, g]``
    is tested at once, and since the qualifying set is upward closed (see
    :func:`score`), the least qualifying t is ``g + 1`` minus their number.
    """
    n = profile.n
    bounds = np.array(
        [span or (1, 0) for allocation in candidates for span in allocation.spans],
        dtype=np.intp,
    ).reshape(len(candidates), n, 2)
    starts, ends = bounds[:, :, 0] - 1, bounds[:, :, 1]  # items [s, e), 0-based; empty is [0, 0)
    tables = [
        (np.array([w for w, _ in table], dtype=np.int64),
         np.array([c for _, c in table], dtype=np.int64).reshape(-1, profile.m + 1))
        for table in map(threshold_counts, profile.values)
    ]
    own_k = np.arange(g - 1, -1, -1)  # g - t for t = 1..g
    other_k = np.arange(g + 1, 2 * g + 1)  # g + t
    block = max(1, _SCORE_BLOCK_CELLS // g)
    qualifying = np.empty(len(candidates), dtype=np.int64)
    for first in range(0, len(candidates), block):
        s, e = starts[first : first + block], ends[first : first + block]
        passes = np.ones((len(s), g), dtype=bool)
        for i, (weights, counts) in enumerate(tables):
            held = counts[:, e] - counts[:, s]  # (threshold, candidate, bundle)
            own = _truncated(weights, held[:, :, i], own_k)
            for j in range(n):
                if j != i:
                    passes &= own >= _truncated(weights, held[:, :, j], other_k)
        qualifying[first : first + len(s)] = passes.sum(axis=1)
    return np.maximum(qualifying - (g + 1), -g)  # -min(least t, g)


def _truncated(weights, held, ks) -> np.ndarray:
    """k-truncated values of a block of bundles: one row per bundle, one column per k."""
    value = np.zeros((held.shape[1], len(ks)), dtype=np.int64)
    for w, c in zip(weights, held):
        value += w * np.maximum(c[:, None] - ks, 0)
    return value


def scoring_truncation_budget(m: int, n: int, epsilon: float, beta: float) -> int:
    """The truncation budget g = 4 * ceil(1 + log((mn)^n / beta) / epsilon)."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return 4 * math.ceil(1 + (n * math.log(m * n) - math.log(beta)) / epsilon)


def dp_ef_allocate(
    profile: UtilityProfile,
    params: PrivacyParams,
    stream: RandomStream,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
) -> EfRunReport:
    """Run the private envy-free allocator once.

    With probability at least ``1 - beta`` the chosen allocation scores
    within ``2 * log(count / beta) / epsilon`` of the best score and is
    envy-free up to ``3g/2`` items.  The candidate set is the set of
    distinct connected allocations, which is exponential in ``n``; the
    enumeration cap turns oversized instances into a hard error (see
    :func:`capped_candidates`).
    """
    if profile.m < 1:
        raise ValueError("allocator needs at least one item")
    g = scoring_truncation_budget(profile.m, profile.n, params.epsilon, params.beta)
    candidates, scores = scored_candidates(profile, g, enumeration_cap)
    index = exponential_mechanism(stream, candidates, scores, params.epsilon)
    allocation, chosen = candidates[index], int(scores[index])
    fallback = None
    if chosen == -g and not is_ef_c(profile, allocation, 2 * g):
        fallback = min_ef_c(profile, allocation)
    return EfRunReport(
        allocation=allocation,
        g=g,
        score=chosen,
        candidate_count=len(candidates),
        epsilon=params.epsilon,
        beta=params.beta,
        fallback_guarantee=fallback,
    )
