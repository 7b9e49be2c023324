"""Private proportional allocator: recursive moving knife with noisy cut selection.

The allocator splits the agent set in half at every level of a recursion
tree.  Each agent privately reports (via the above-threshold mechanism) the
leftmost knife position at which she would accept the left piece for the
smaller group; the median report becomes the cut.  Privacy budgets follow a
geometric schedule over the recursion levels -- coarse early cuts are cheap
because later levels can still correct them -- and the per-level budgets sum
to at most the total budget.  An agent's cut values come from the
breakpoints of the agent's cut-acceptance function, found first only up to
the SVT's threshold g_b/2, and past it only when the agent's SVT reads that
far.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .core import ConnectedAllocation, PrivacyParams, UtilityProfile, least_true
from .mechanisms import RandomStream, SvtOutcome, above_threshold

_ADDITIVE_ONLY = "the moving-knife allocator requires additive utilities"
# The breakpoint search cuts each c's interval into _FAN_OUT parts per step,
# and holds at most _SEARCH_CHUNK values of c at a time.
_FAN_OUT = 4
_SEARCH_CHUNK = 8192
# knife_samples keeps at most this many recursion steps and as many runs.
_MEMO_CAP = 256
# A call on some number of agents: its level b, epsilon_b, g_b, n_left and n_right.
_Step = tuple[int, float, int, int, int]


@dataclass(frozen=True)
class KnifeRecord:
    """One recursion step: who was present, what was queried, where the cut fell."""

    agents: tuple[int, ...]
    lo: int
    hi: int  # hi < lo encodes an empty item range
    depth: int  # distance from the root call
    level: int  # b = ceil(log2 |agents|); budget level shared by equal-size calls
    epsilon_b: float
    g_b: int
    h_values: tuple[tuple[int, int], ...]  # (agent, h) in ascending agent order
    svt_fired: tuple[bool, ...]  # False where the fallback h = hi was used
    svt_queries: tuple[int, ...]  # cut values each agent's SVT evaluated
    split: int
    left_agents: tuple[int, ...]
    right_agents: tuple[int, ...]


@dataclass(frozen=True)
class KnifeTrace:
    """Full recursion trace of one allocator run."""

    records: tuple[KnifeRecord, ...]
    leaves: tuple[tuple[int, int, int], ...]  # (agent, lo, hi), hi < lo if empty

    def levels_used(self) -> tuple[int, ...]:
        return tuple(sorted({record.level for record in self.records}))


def level_epsilon_exact(epsilon: float, b: int) -> Fraction:
    """Budget for level ``b``, epsilon / (2 * 1.5**b), as an exact rational."""
    return Fraction(epsilon) * Fraction(2 ** (b - 1), 3**b)


def exact_budget_total(epsilon: float, levels: Iterable[int]) -> Fraction:
    """Exact sum of the distinct per-level budgets actually used."""
    return sum((level_epsilon_exact(epsilon, b) for b in set(levels)), Fraction(0))


def truncation_budget(m: int, n: int, epsilon_b: float, beta: float, upsilon: float) -> int:
    """Per-level truncation budget g_b = 8 * ceil(upsilon * log(mn/beta) / epsilon_b) < 2**62."""
    x = upsilon * math.log(m * n / beta) / epsilon_b
    if not (math.isfinite(x) and 8 * math.ceil(x) < 2**62):  # a cut's g_b + c is int64
        raise ValueError(
            f"epsilon_b={epsilon_b}, beta={beta} and svt_constant={upsilon} give g_b >= 2**62"
        )
    return 8 * math.ceil(x)


def budget_schedule(
    m: int, n: int, params: PrivacyParams
) -> dict[int, tuple[float, int]]:
    """Map each recursion level b = 1..ceil(log2 n) to its (epsilon_b, g_b)."""
    if n < 2 or m < 1:
        return {}
    top = math.ceil(math.log2(n))
    schedule = {}
    for b in range(1, top + 1):
        eps_b = float(level_epsilon_exact(params.epsilon, b))
        schedule[b] = (eps_b, truncation_budget(m, n, eps_b, params.beta, params.svt_constant))
    return schedule


def f_value(
    profile: UtilityProfile,
    agent: int,
    lo: int,
    hi: int,
    h: int,
    g_b: int,
    n_left: int,
    n_right: int,
) -> int:
    """Largest acceptable imbalance level for a cut at ``h``, in ``[0, g_b]``.

    Returns the largest ``t in [g_b]`` for which the left piece ``[lo, h]``,
    truncated by ``g_b + t`` items and weighted by the right group size, is
    still worth at least the right piece ``[h+1, hi]`` truncated by
    ``g_b - t`` and weighted by the left group size -- or 0 when no ``t``
    works.  Truncating more on the left and less on the right as ``t`` grows
    makes the qualifying set downward closed, so the least rejected ``t`` is
    searched with :func:`~dpfair.core.least_true`.  The value is
    nondecreasing in ``h``: moving an item into the left piece never lowers
    its truncated value and never raises the right piece's.  This is the
    definition; the allocator computes every cut of a range at once from
    the breakpoints of this function.  Like :func:`dp_moving_knife`, it
    accepts only additive profiles.
    """
    if not 1 <= lo <= h <= hi <= profile.m:
        raise ValueError(f"invalid range lo={lo} h={h} hi={hi} for m={profile.m}")
    if n_left < 1 or n_right < 1:
        raise ValueError("group sizes must be positive")
    if g_b < 1:
        raise ValueError("g_b must be a positive integer")
    if profile.kind != "additive":
        raise ValueError(_ADDITIVE_ONLY)
    row = profile.values[agent - 1, lo - 1 : hi].tolist()  # Python ints: sums cannot wrap
    left = sorted(row[: h - lo + 1])
    right = sorted(row[h - lo + 1 :])

    def rejected(t: int) -> bool:
        # k-truncated value of an ascending piece: the sum of all but its k largest items.
        kept_left = sum(left[: max(len(left) - g_b - t, 0)])
        kept_right = sum(right[: max(len(right) - g_b + t, 0)])
        return n_right * kept_left < n_left * kept_right

    return least_true(rejected, 1, g_b) - 1


class _Wavelet:
    """Wavelet matrix of a row: the sum of the ``k`` smallest items of any interval.

    Level ``i`` reads bit ``i`` (from the top) of each item's rank among
    the row's distinct values and holds prefix counts of the items whose bit
    is 0 and prefix sums of their values; the next level lists the 0-items
    before the 1-items, each in order (the wavelet matrix of SPIRE 2012).  A
    query descends the levels once, taking the whole 0-side of its interval
    whenever the ``k`` smallest reach past it (Gagie, Navarro & Puglisi, TCS
    2012, arXiv:1011.4532).  Memory is O(L log D) for ``L`` items of ``D``
    distinct values.
    """

    def __init__(self, values: np.ndarray):
        distinct, ranks = np.unique(values, return_inverse=True)
        depth = (len(distinct) - 1).bit_length()
        # int32 counts: a row of 2**31 Python ints would not fit in memory anyway.
        self.zeros = np.zeros((depth, len(values) + 1), dtype=np.int32)
        self.sums = np.zeros((depth, len(values) + 1), dtype=values.dtype)
        for level in range(depth):
            ones = (ranks >> (depth - 1 - level)) & 1
            zero = ones == 0
            np.cumsum(zero, out=self.zeros[level, 1:])
            np.cumsum(np.where(zero, values, 0), out=self.sums[level, 1:])
            order = np.concatenate([np.flatnonzero(zero), np.flatnonzero(ones)])
            ranks, values = ranks[order], values[order]
        self.leaves = values  # items in their last level's order

    def smallest(self, bounds: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Sum of the ``k`` smallest items of each interval ``[bounds[0], bounds[1])``.

        Each ``k`` is at most its interval's length.
        """
        total = 0
        for zeros, sums in zip(self.zeros, self.sums):
            at = zeros[bounds]  # where the interval's 0-items start and stop below
            in_zeros = at[1] - at[0]
            # The k smallest reach past this level's 0-items: take all of them.
            past = k > in_zeros
            ends = sums[bounds]
            total = total + (ends[1] - ends[0]) * past
            k = k - in_zeros * past
            bounds = np.where(past, bounds - at + zeros[-1], at)
        # What is left of k are copies of the one value the descent reached.
        return total + k * self.leaves[np.minimum(bounds[0], len(self.leaves) - 1)]


def _breakpoints(
    row: np.ndarray, g_b: int, n_left: int, n_right: int, c_from: int, c_to: int
) -> np.ndarray:
    # Ascending offsets H(c) - lo of the least cut with f >= c on a row of
    # `size` items, for c from max(1, g_b - size + 2, c_from) to c_to; every
    # c below max(1, g_b - size + 2) has H(c) = lo.  t = c is rejected at no
    # cut past H(c).  int64 rows keep the weighted sums below 2**62 (see
    # _cut_queries), and object ones are Python ints.
    size = len(row)
    # At j = 0 the right piece keeps max(size - 1 - g_b + c, 0) items, none
    # for c <= g_b - size + 1; at j = size - 1 - g_b + c it keeps none for c.
    c = np.arange(max(1, g_b - size + 2, c_from), c_to + 1)
    if not len(c):
        return np.zeros(0, dtype=np.int64)
    # The count bracket.  Let lo_v and hi_v be the row's least and greatest
    # positive values and T its count of positive items.  A piece holding p
    # positive items, truncated by k, is worth between lo_v * max(p - k, 0)
    # and hi_v * max(p - k, 0).  At cut j the left piece [0, j] holds
    # P = counts[j] of them and is truncated by a = g_b + c, the right piece
    # holds T - P and is truncated by b = g_b - c, and t = c is accepted
    # when n_right times the left's value is at least n_left times the
    # right's.  So t = c is surely rejected while x * max(P - a, 0) <
    # y * max(T - P - b, 0) for (x, y) = (n_right * hi_v, n_left * lo_v),
    # and surely accepted once x * max(P - a, 0) >= y * max(T - P - b, 0)
    # for (x, y) = (n_right * lo_v, n_left * hi_v).  The left side grows
    # with P and the right side falls, so the least P with left >= right
    # is min(need, ceil((y * need + x * a) / (x + y))) with need =
    # max(T - b, 0).  P grows with j, so the first cut holding that many
    # positive items bounds H(c): from below for the first (x, y), from
    # above for the second.  Where the row's positive values are all equal
    # the two agree and leave nothing to bisect.
    positive = row > 0
    counts = np.cumsum(positive)
    # hi_v is 1 on an all-zero row, whose need is 0, so that x + y > 0.
    hi_v = max(row.max(), 1)
    lo_v = row[positive].min(initial=hi_v)
    # Line 0 holds the first (x, y) and line 1 the second, in the row's
    # dtype: an object row's products stay Python ints.
    x = np.array([[n_right * hi_v], [n_right * lo_v]], dtype=row.dtype)
    y = np.array([[n_left * lo_v], [n_left * hi_v]], dtype=row.dtype)
    # A left piece truncated by the range length keeps nothing, as by any
    # larger a, so a is clamped to it; then y * need + x * a is at most
    # 2 * max(n_left, n_right) * hi_v * size, below 2**63 for int64 values.
    a = np.minimum(g_b + c, size)
    need = np.maximum(counts[-1] - g_b + c, 0)
    least = np.minimum(need, -(-(y * need + x * a) // (x + y))).astype(np.int64)
    below, above = np.searchsorted(counts, least)
    # At j = size - 1 - g_b + c the right piece keeps nothing.
    above = np.minimum(above, size - 1 - g_b + c)
    (unsettled,) = np.nonzero(below < above)
    if len(unsettled):
        wavelet = _Wavelet(row)
        for part in range(0, len(unsettled), _SEARCH_CHUNK):
            k = unsettled[part : part + _SEARCH_CHUNK]
            below[k] = _bisect(wavelet, size, c[k], below[k], above[k], g_b, n_left, n_right)
    return below


def _bisect(
    wavelet: _Wavelet,
    size: int,
    c: np.ndarray,
    below: np.ndarray,
    above: np.ndarray,
    g_b: int,
    n_left: int,
    n_right: int,
) -> np.ndarray:
    # Fan-out bisection for every entry at once: H(c) - lo lies in
    # [below, above], and t = c is accepted at above.
    probes = _FAN_OUT - 1
    fan = np.arange(1, _FAN_OUT)
    n = len(c) * probes
    # The left piece of a probe is [0, split) and keeps split - g_b - c
    # items; the right one is [split, size) and keeps size - g_b + c - split.
    bounds = np.zeros((2, 2 * n), dtype=np.int64)
    bounds[1, n:] = size
    left_kept = np.repeat(-g_b - c, probes)
    right_kept = np.repeat(size - g_b + c, probes)
    kept = np.empty(2 * n, dtype=np.int64)
    while (below < above).any():
        width = above - below
        split = (below[:, None] + width[:, None] * fan // _FAN_OUT + 1).ravel()
        bounds[1, :n] = bounds[0, n:] = split
        np.add(split, left_kept, out=kept[:n])
        np.subtract(right_kept, split, out=kept[n:])
        sums = wavelet.smallest(bounds, np.maximum(kept, 0, out=kept))
        rejected = n_right * sums[:n] < n_left * sums[n:]
        # Acceptance is monotone in j, so the first r probes are rejected:
        # keep the gap between probe r - 1 and probe r.
        r = rejected.reshape(-1, probes).sum(axis=1)
        below, above = (
            np.where(r > 0, below + width * r // _FAN_OUT + 1, below),
            np.where(r < probes, below + width * (r + 1) // _FAN_OUT, above),
        )
    return below


def dp_moving_knife(
    profile: UtilityProfile,
    params: PrivacyParams,
    stream: RandomStream,
) -> tuple[ConnectedAllocation, KnifeTrace]:
    """Run the private moving-knife allocator once.

    Only additive profiles are accepted.  Agents are queried in ascending
    index order within each recursion step and the left branch recurses
    before the right one, so a fixed stream replays the identical
    allocation.  Ranges that run out of items recurse with empty ranges so
    the procedure stays total when ``m < n``.
    """
    return next(knife_samples(profile, params, stream, 1))


def knife_samples(
    profile: UtilityProfile,
    params: PrivacyParams,
    stream: RandomStream,
    k: int,
) -> Iterator[tuple[ConnectedAllocation, KnifeTrace]]:
    """``k`` runs of :func:`dp_moving_knife` in turn on one stream, lazily.

    The budget schedule and the root call's cut values (every run's root
    call scans ``[1, m]`` at the top level; ``n * m`` values) are computed
    once for all of them, and a root agent's breakpoints past g_b/2, once
    an SVT has read that far, serve the later runs too.  Each run is made
    only when the iterator reaches it, so a caller that keeps only the
    allocations never holds ``k`` traces.  A recursion step is fixed by
    its range, its depth and its SVT outcomes, and a run by its steps, so
    runs that repeat one share their frozen records, allocation and trace;
    at most ``_MEMO_CAP`` of each are kept.
    """
    if profile.kind != "additive":
        raise ValueError(_ADDITIVE_ONLY)
    steps = _knife_steps(profile.m, profile.n, params)
    roots: list[np.ndarray | _CutValues] = []
    if steps:
        _, _, g_b, n_left, n_right = steps[profile.n]
        roots = _cut_queries(profile, tuple(profile.agents), 1, profile.m, g_b, n_left, n_right)
    memo: dict[tuple, KnifeRecord] = {}
    runs: dict[tuple, tuple[ConnectedAllocation, KnifeTrace]] = {}
    return (_knife_run(profile, steps, roots, stream, memo, runs) for _ in range(k))


def _group_sizes(size: int) -> tuple[int, int]:
    # A call on `size` agents sends the larger half left.
    return size - size // 2, size // 2


def _knife_steps(m: int, n: int, params: PrivacyParams) -> dict[int, _Step]:
    # The _Step of a call on `size` agents, for size = 2..n in ascending
    # order.  Empty for n = 1 or m = 0.
    schedule = budget_schedule(m, n, params)
    steps = {}
    if schedule:
        for size in range(2, n + 1):
            b = math.ceil(math.log2(size))
            steps[size] = (b, *schedule[b], *_group_sizes(size))
    return steps


def _knife_run(
    profile: UtilityProfile,
    steps: dict[int, _Step],
    roots: list[np.ndarray | _CutValues],
    stream: RandomStream,
    memo: dict[tuple, KnifeRecord],
    runs: dict[tuple, tuple[ConnectedAllocation, KnifeTrace]],
) -> tuple[ConnectedAllocation, KnifeTrace]:
    # The recursion in preorder, left branch first, on an explicit stack.
    # `memo` maps (agents, lo, hi, depth, SVT outcomes) to the step's record
    # and `runs` maps a run's step keys to its (allocation, trace).
    spans: list = [None] * profile.n
    keys: list[tuple] = []
    records: list[KnifeRecord] = []
    leaves: list[tuple[int, int, int]] = []
    if profile.m == 0:
        leaves = [(agent, 1, 0) for agent in profile.agents]
        pending = []
    else:
        pending = [(tuple(profile.agents), 1, profile.m, 0)]
    while pending:
        agents, lo, hi, depth = pending.pop()
        if len(agents) == 1:
            agent = agents[0]
            if hi >= lo:
                spans[agent - 1] = (lo, hi)
            leaves.append((agent, lo, hi))
            continue
        b, eps_b, g_b, n_left, n_right = steps[len(agents)]
        if depth == 0:
            cuts = roots
        else:
            cuts = _cut_queries(profile, agents, lo, hi, g_b, n_left, n_right)
        outcomes = [above_threshold(stream, q, g_b / 2.0, eps_b) for q in cuts]
        key = (agents, lo, hi, depth, tuple(outcomes))
        record = memo.get(key)
        if record is None:
            record = _record(agents, lo, hi, depth, b, eps_b, g_b, n_left, outcomes)
            if len(memo) < _MEMO_CAP:
                memo[key] = record
        keys.append(key)
        records.append(record)
        pending.append((record.right_agents, record.split + 1, hi, depth + 1))
        pending.append((record.left_agents, lo, record.split, depth + 1))
    run_key = tuple(keys)
    run = runs.get(run_key)
    if run is None:
        allocation = ConnectedAllocation(spans=tuple(spans))
        run = allocation, KnifeTrace(records=tuple(records), leaves=tuple(leaves))
        if len(runs) < _MEMO_CAP:
            runs[run_key] = run
    return run


def _record(
    agents: tuple[int, ...],
    lo: int,
    hi: int,
    depth: int,
    level: int,
    epsilon_b: float,
    g_b: int,
    n_left: int,
    outcomes: list[SvtOutcome],
) -> KnifeRecord:
    # The recursion step whose agents' SVT runs gave `outcomes`.
    hs = []
    fired = []
    for agent, outcome in zip(agents, outcomes):
        if outcome.index is None:
            # Exhaustion is a low-probability noise event; the sentinel
            # h = hi is where the query provably equals g_b >= tau.
            hs.append((agent, hi))
            fired.append(False)
        else:
            hs.append((agent, lo + outcome.index))
            fired.append(True)
    # Ties in the reported cut positions break by agent index (hs is
    # already in ascending agent order, so the sort is stable on it).
    ranked = sorted(hs, key=lambda pair: pair[1])
    split = ranked[n_left - 1][1]
    return KnifeRecord(
        agents=agents,
        lo=lo,
        hi=hi,
        depth=depth,
        level=level,
        epsilon_b=epsilon_b,
        g_b=g_b,
        h_values=tuple(hs),
        svt_fired=tuple(fired),
        svt_queries=tuple(outcome.queries_consumed for outcome in outcomes),
        split=split,
        left_agents=tuple(sorted(agent for agent, _ in ranked[:n_left])),
        right_agents=tuple(sorted(agent for agent, _ in ranked[n_left:])),
    )


def _cut_queries(
    profile: UtilityProfile,
    agents: tuple[int, ...],
    lo: int,
    hi: int,
    g_b: int,
    n_left: int,
    n_right: int,
) -> list[np.ndarray | _CutValues]:
    # Each agent's f_value at h = lo..hi: the number of c in [1, g_b] whose
    # breakpoint H(c) is at most h.  Every row is read here, and its first
    # chunk of c, up to the SVT's threshold g_b / 2, searched here.  Where
    # that is every c the values are an array, and otherwise a _CutValues
    # that searches the rest when read past them.  hi < lo gives no queries.
    if hi < lo:
        return [np.zeros(0, dtype=np.int64) for _ in agents]
    # _breakpoints' weighted sums over a row stay below 2**62 in int64 when
    # max_v * size * max(n_left, n_right) does, which this bound implies
    # (size <= m); past it they run on Python ints.
    fits = profile.max_value * profile.m * max(n_left, n_right) < 2**62
    size = hi - lo + 1
    c_min = max(1, g_b - size + 2)
    first = g_b // 2 if c_min <= g_b // 2 else g_b  # the last c of each first chunk
    offsets = np.arange(size)
    cuts = []
    for agent in agents:
        row = profile.values[agent - 1, lo - 1 : hi]
        if not fits:
            row = row.astype(object)
        points = _breakpoints(row, g_b, n_left, n_right, 1, first)
        # The c below c_min have H(c) = lo.
        values = c_min - 1 + np.searchsorted(points, offsets, side="right")
        if first < g_b:
            rest = partial(_breakpoints, row, g_b, n_left, n_right, first + 1, g_b)
            values = _CutValues(values, int(points[-1]), rest)
        cuts.append(values)
    return cuts


class _CutValues:
    """One agent's cut values at offsets 0..L-1 of a step's range, searched as read.

    Slices are int64 arrays.  ``values`` counts the breakpoints H(c) of the
    c up to some c' < g_b.  Every c past c' has H(c) >= H(c'), so the
    values below ``ready`` = H(c') are already exact.  A slice that reaches
    past them calls ``search_rest`` for the breakpoints of the remaining c,
    once for the source's lifetime.
    """

    __slots__ = ("_values", "ready", "_search_rest")

    def __init__(self, values: np.ndarray, ready: int, search_rest: Callable[[], np.ndarray]):
        self._values, self.ready, self._search_rest = values, ready, search_rest

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self[:])

    def __getitem__(self, key: slice) -> np.ndarray:
        offsets = range(*key.indices(len(self._values)))
        if offsets and max(offsets[0], offsets[-1]) >= self.ready:
            rest = self._search_rest()
            # The new breakpoints all lie at or past `ready`: no value below it changes.
            self._values += np.searchsorted(rest, np.arange(len(self._values)), side="right")
            self.ready, self._search_rest = len(self._values), None
        return self._values[key]


def proof_chain_c(m: int, n: int, params: PrivacyParams) -> int:
    """Explicit PROP-c bound from chaining the per-level accuracy guarantees.

    Follows every root-to-leaf path of the (deterministic) recursion-size
    tree and sums ceil(2 * g_b / size) over the path; the bound is the worst
    path.  This is the quantity the high-probability analysis controls, with
    no asymptotic constants hidden.
    """
    # chain[size]: the worst path from a call on `size` agents, each step
    # adding ceil(2 g_b / size) in integers.
    chain = {1: 0}
    for size, (_, _, g_b, n_left, n_right) in _knife_steps(m, n, params).items():
        chain[size] = -(-2 * g_b // size) + max(chain[n_left], chain[n_right])
    return chain.get(n, 0)  # 0 for n = 1 or m = 0
