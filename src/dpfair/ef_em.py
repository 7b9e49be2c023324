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
from collections import Counter
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
from .mechanisms import (
    RandomStream,
    em_cumulative,
    em_draw,
    exponential_mechanism,  # not called here; bench/tracing.py expects it bound in this module
)

DEFAULT_ENUMERATION_CAP = 10**7
# 8-byte cells of buffers per block of the batched scorer (512 KB), which
# bounds them however large the candidate set, g or the rows' value sets are.
_SCORE_BLOCK_CELLS = 1 << 16
SpanBounds = tuple[np.ndarray, np.ndarray]  # (starts, ends); see _span_bounds


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
    ``k`` positive parts; compositions are encoded as cut positions.  This
    loop order is the candidate order, which :func:`_span_bounds` follows.
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


def _span_bounds(m: int, n: int) -> SpanBounds:
    """Every candidate's bundles as 0-based item intervals ``[start, end)``.

    Two ``(n, K)`` arrays in the order of :func:`enumerate_connected_allocations`,
    built without materializing the candidates; an empty bundle is ``[0, 0)``.
    Per ``k``, row ``r`` of one ``(comb(m - 1, k - 1), k + 1)`` array is
    ``(0, *cuts, m)`` for the r-th cut combination, and it serves every
    left-to-right order of ``k`` bundle holders.
    """
    dtype = np.min_scalar_type(m)
    starts = np.zeros((n, count_connected_allocations(m, n)), dtype=dtype)
    ends = np.zeros_like(starts)
    first = 0
    for k in range(1, min(n, m) + 1):
        count = math.comb(m - 1, k - 1)
        bounds = np.empty((count, k + 1), dtype=dtype)
        bounds[:, 0], bounds[:, k] = 0, m
        cuts = itertools.chain.from_iterable(itertools.combinations(range(1, m), k - 1))
        bounds[:, 1:k] = np.fromiter(cuts, dtype, count * (k - 1)).reshape(count, k - 1)
        for chosen in itertools.combinations(range(1, n + 1), k):
            for order in itertools.permutations(chosen):
                last = first + count
                for block, agent in enumerate(order):
                    starts[agent - 1, first:last] = bounds[:, block]
                    ends[agent - 1, first:last] = bounds[:, block + 1]
                first = last
    return starts, ends


@lru_cache(maxsize=256)
def connected_allocation_tuple(m: int, n: int) -> tuple[ConnectedAllocation, ...]:
    """Materialized candidate set, cached per shape, for exhaustive audits of tiny shapes."""
    return tuple(enumerate_connected_allocations(m, n))


def capped_candidates(
    profile: UtilityProfile, enumeration_cap: int
) -> Iterator[ConnectedAllocation]:
    """Every connected allocation of the profile's shape, lazily, refusing oversized sets.

    Raises :class:`EnumerationCapError` at the call when there are more than
    ``enumeration_cap`` candidates; a silently truncated candidate set would
    void both the privacy guarantee and every exhaustive oracle.
    """
    count = count_connected_allocations(profile.m, profile.n)
    if count > enumeration_cap:
        raise EnumerationCapError(
            f"{count} connected allocations exceed the enumeration cap {enumeration_cap}"
        )
    return enumerate_connected_allocations(profile.m, profile.n)


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
) -> tuple[SpanBounds, np.ndarray]:
    """Every connected allocation's :func:`_span_bounds` and :func:`score`.

    Both are read-only arrays in candidate order.  The last ``(profile, g)``
    is cached, for callers that repeat :func:`dp_ef_allocate` on one profile.
    """
    capped_candidates(profile, enumeration_cap)  # raises past the cap
    if g < 1:
        raise ValueError("g must be a positive integer")
    return _score_cached(profile, g)


@lru_cache(maxsize=1)
def _score_cached(profile: UtilityProfile, g: int) -> tuple[SpanBounds, np.ndarray]:
    bounds = _span_bounds(profile.m, profile.n)
    if profile.kind == "additive" and max(map(sum, profile.values)) < 2**63:
        scores = _additive_scores(profile, g, bounds)
    else:  # general tables, or sums that int64 arithmetic would wrap
        candidates = enumerate_connected_allocations(profile.m, profile.n)
        scores = [score(profile, allocation, g) for allocation in candidates]
    scores = np.asarray(scores, dtype=np.min_scalar_type(-g))
    for array in (*bounds, scores):
        array.flags.writeable = False
    return bounds, scores


def _additive_scores(profile: UtilityProfile, g: int, bounds: SpanBounds) -> np.ndarray:
    """:func:`score` of every candidate of an additive profile, in blocks of candidates.

    An agent's k-truncated bundle value is ``w @ max(held - k, 0)`` over the
    thresholds ``(w, c)`` of its row's :func:`~dpfair.core.threshold_counts`,
    ``held`` being a difference of two entries of ``c``.  A candidate passes
    at t when every agent i has ``own_i(g - t) >= other_ij(g + t)`` for every
    j.  The passing t are upward closed (see :func:`score`), so a binary
    descent over ``[1, g - 1]`` finds how many t fail; the least passing t is
    one more, and failing them all scores ``-g``.

    A probe tests every agent at once: all rows' ``D`` thresholds share one
    count table, and one ``(n, D)`` block-diagonal weight matrix gives every
    agent's value of every bundle in one matmul.  Cost: ``ceil(log2 g)``
    probes of about a dozen numpy calls per block, each O(n * n * D) per
    candidate.  The arithmetic is float64 when every row sums below 2**53, so
    every product and partial sum is an integer that BLAS adds exactly in any
    order, and int64 otherwise (sums from 2**63 go to :func:`score`).
    Memory: beside the ``(n, K)`` span bounds and the scores, one set of
    buffers serves every block: held and truncated counts (``n * D`` cells
    per candidate each) and bundle values (``n * n``); a probe adds ``n``
    row maxima and O(1) more.  That is at most ``n * (2 * D + n + 2) + 3``
    cells of 8 bytes per candidate, and a block has as many candidates as
    keep that within ``_SCORE_BLOCK_CELLS``.
    """
    n = profile.n
    starts, ends = bounds
    tables = list(map(threshold_counts, profile.values))
    # An all-zero row has no thresholds: its agent values every bundle at 0 and envies none.
    owner = np.repeat(np.arange(n), [len(table) for table in tables])
    d = len(owner)
    dtype = np.float64 if max(map(sum, profile.values)) < 2**53 else np.int64
    counts = np.array([c for table in tables for _, c in table], dtype=dtype)
    counts = counts.reshape(d, profile.m + 1)
    weights = np.zeros((n, d), dtype=dtype)
    weights[owner, np.arange(d)] = [w for table in tables for w, _ in table]
    # +1 on the bundle of the threshold row's owner, -1 on every other bundle
    sign = np.where(owner[:, None] == np.arange(n), 1, -1).astype(dtype)[:, :, None]
    block = max(1, _SCORE_BLOCK_CELLS // (n * (2 * d + n + 2) + 3))
    # One set of buffers serves every block, so no block faults in fresh pages;
    # a shorter last block uses their prefixes.
    size = min(block, starts.shape[1])
    held_buf, x_buf = np.empty(d * n * size, dtype=dtype), np.empty(d * n * size, dtype=dtype)
    value_buf = np.empty(n * n * size, dtype=dtype)
    failing = np.empty(starts.shape[1], dtype=np.int64)
    for first in range(0, starts.shape[1], block):
        s, e = starts[:, first : first + block], ends[:, first : first + block]
        width = s.shape[1]
        held = held_buf[: d * n * width].reshape(d, n, width)  # (threshold, bundle, candidate)
        x = x_buf[: d * n * width].reshape(d, n, width)  # the probe's truncated counts
        value = value_buf[: n * n * width].reshape(n, n, width)  # [agent, bundle, candidate]
        # The bounds are in range; mode "clip" writes to out without the copy "raise" makes.
        np.take(counts, e, axis=1, out=held, mode="clip")
        held -= np.take(counts, s, axis=1, out=x, mode="clip")
        held -= g  # held - g - t items are left after the g + t largest go
        below = np.zeros(width, dtype=dtype)  # every t <= below fails; no probe casts t
        step = (1 << (g - 1).bit_length()) >> 1
        while step:
            t = np.minimum(below + step, g - 1)
            np.multiply(sign, t, out=x)
            x += held  # the own bundle loses its g - t >= 1 largest items
            np.maximum(x, 0, out=x)
            np.matmul(weights, x.reshape(d, n * width), out=value.reshape(n, n * width))
            fails = (value.diagonal().T < value.max(axis=1)).any(axis=0)
            below[fails] += step
            step >>= 1
        failing[first : first + width] = below
    return -np.minimum(failing + 1, g)


def scoring_truncation_budget(m: int, n: int, epsilon: float, beta: float) -> int:
    """The truncation budget g = 4 * ceil(1 + log((mn)^n / beta) / epsilon)."""
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    return 4 * math.ceil(1 + (n * math.log(m * n) - math.log(beta)) / epsilon)


@dataclass(frozen=True, eq=False)
class EfSampler:
    """The private envy-free allocator prepared for one ``(profile, params)``.

    Holds the state that no draw changes: the truncation budget ``g``, the
    candidates' span bounds, their scores and the exponential mechanism's
    cumulative weights.  A draw consumes exactly one uniform of the stream,
    so :meth:`draw_many` and :meth:`counts` equal as many
    :func:`dp_ef_allocate` calls on one stream.
    """

    profile: UtilityProfile
    params: PrivacyParams
    g: int
    bounds: SpanBounds
    scores: np.ndarray
    cumulative: np.ndarray

    @classmethod
    def prepare(
        cls,
        profile: UtilityProfile,
        params: PrivacyParams,
        enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    ) -> "EfSampler":
        """Bound, score and weigh every candidate (see :func:`scored_candidates`)."""
        if profile.m < 1:
            raise ValueError("allocator needs at least one item")
        g = scoring_truncation_budget(profile.m, profile.n, params.epsilon, params.beta)
        bounds, scores = scored_candidates(profile, g, enumeration_cap)
        cumulative = em_cumulative(scores, params.epsilon)
        return cls(profile, params, g, bounds, scores, cumulative)

    def draw(self, stream: RandomStream) -> int:
        """Index of one candidate drawn by the exponential mechanism."""
        return em_draw(stream.generator, self.cumulative)

    def draw_many(self, stream: RandomStream, k: int) -> np.ndarray:
        """Indices of ``k`` candidates drawn in turn from one stream."""
        return em_draw(stream.generator, self.cumulative, k)

    def allocation(self, index: int) -> ConnectedAllocation:
        """Candidate ``index``, the ``index``-th of :func:`enumerate_connected_allocations`."""
        spans = zip(*(bound[:, index].tolist() for bound in self.bounds))
        return ConnectedAllocation(spans=tuple((s + 1, e) if s != e else None for s, e in spans))

    def counts(self, stream: RandomStream, k: int) -> Counter:
        """How often each allocation occurs among ``k`` draws in turn from one stream."""
        tally = np.bincount(self.draw_many(stream, k), minlength=len(self.scores))
        return Counter({self.allocation(i): int(tally[i]) for i in np.flatnonzero(tally).tolist()})

    def report(self, index: int) -> EfRunReport:
        """The run report of candidate ``index``, with its certified guarantee."""
        allocation, chosen = self.allocation(index), int(self.scores[index])
        fallback = None
        if chosen == -self.g and not is_ef_c(self.profile, allocation, 2 * self.g):
            fallback = min_ef_c(self.profile, allocation)
        return EfRunReport(
            allocation=allocation,
            g=self.g,
            score=chosen,
            candidate_count=len(self.scores),
            epsilon=self.params.epsilon,
            beta=self.params.beta,
            fallback_guarantee=fallback,
        )


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
    :func:`capped_candidates`).  Repeated runs on one input are cheaper
    through :class:`EfSampler`.
    """
    sampler = EfSampler.prepare(profile, params, enumeration_cap)
    return sampler.report(sampler.draw(stream))
