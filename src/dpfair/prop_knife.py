"""Private proportional allocator: recursive moving knife with noisy cut selection.

The allocator splits the agent set in half at every level of a recursion
tree.  Each agent privately reports (via the above-threshold mechanism) the
leftmost knife position at which she would accept the left piece for the
smaller group; the median report becomes the cut.  Privacy budgets follow a
geometric schedule over the recursion levels -- coarse early cuts are cheap
because later levels can still correct them -- and the per-level budgets sum
to at most the total budget.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .core import ConnectedAllocation, PrivacyParams, UtilityProfile, least_true
from .mechanisms import RandomStream, above_threshold

_ADDITIVE_ONLY = "the moving-knife allocator requires additive utilities"


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
    """Per-level truncation budget g_b = 8 * ceil(upsilon * log(mn/beta) / epsilon_b)."""
    return 8 * math.ceil(upsilon * math.log(m * n / beta) / epsilon_b)


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
    first step of the incremental scan the allocator runs over ``h = lo..hi``.
    Like :func:`dp_moving_knife`, it accepts only additive profiles.
    """
    return next(_cut_values(profile, agent, lo, hi, h, g_b, n_left, n_right))


def _cut_values(
    profile: UtilityProfile,
    agent: int,
    lo: int,
    hi: int,
    h: int,
    g_b: int,
    n_left: int,
    n_right: int,
) -> Iterator[int]:
    # Yields f_value at h, h+1, ..., hi.  Each piece is sorted once,
    # ascending; a step moves item h+1 from the right piece to the left one.
    if not 1 <= lo <= h <= hi <= profile.m:
        raise ValueError(f"invalid range lo={lo} h={h} hi={hi} for m={profile.m}")
    if n_left < 1 or n_right < 1:
        raise ValueError("group sizes must be positive")
    if g_b < 1:
        raise ValueError("g_b must be a positive integer")
    if profile.kind != "additive":
        raise ValueError(_ADDITIVE_ONLY)
    row = profile.values[agent - 1]
    left = sorted(row[lo - 1 : h])
    right = sorted(row[h:hi])
    left_total = sum(left)
    right_total = sum(right)

    def rejected(t: int) -> bool:
        # k-truncated value of an ascending piece: total minus its k largest.
        # Probed t exceed g_b - len(right), so the right slice start is >= 1.
        kept_left = left_total - sum(left[max(len(left) - g_b - t, 0) :])
        kept_right = right_total - sum(right[len(right) - g_b + t :])
        return n_right * kept_left < n_left * kept_right

    least = 1
    while True:
        # No t <= g_b - len(right) is rejected (the right piece is truncated
        # to nothing), and since f is nondecreasing in h, neither is any t
        # below the previous answer.
        least = least_true(rejected, max(least, g_b - len(right) + 1), g_b)
        yield least - 1
        if h == hi:
            return
        item = row[h]  # item h + 1
        del right[bisect_left(right, item)]
        insort(left, item)
        left_total += item
        right_total -= item
        h += 1


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
    if profile.kind != "additive":
        raise ValueError(_ADDITIVE_ONLY)
    spans: list = [None] * profile.n
    records: list[KnifeRecord] = []
    leaves: list[tuple[int, int, int]] = []
    schedule = budget_schedule(profile.m, profile.n, params)

    def recurse(agents: tuple[int, ...], lo: int, hi: int, depth: int) -> None:
        if len(agents) == 1:
            agent = agents[0]
            if hi >= lo:
                spans[agent - 1] = (lo, hi)
            leaves.append((agent, lo, hi))
            return
        b = math.ceil(math.log2(len(agents)))
        eps_b, g_b = schedule[b]
        n_right = len(agents) // 2
        n_left = len(agents) - n_right
        hs = []
        fired = []
        queries = []
        for agent in agents:
            outcome = above_threshold(
                stream,
                _cut_queries(profile, agent, lo, hi, g_b, n_left, n_right),
                tau=g_b / 2.0,
                epsilon=eps_b,
            )
            queries.append(outcome.queries_consumed)
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
        left_agents = tuple(sorted(agent for agent, _ in ranked[:n_left]))
        right_agents = tuple(sorted(agent for agent, _ in ranked[n_left:]))
        records.append(
            KnifeRecord(
                agents=agents,
                lo=lo,
                hi=hi,
                depth=depth,
                level=b,
                epsilon_b=eps_b,
                g_b=g_b,
                h_values=tuple(hs),
                svt_fired=tuple(fired),
                svt_queries=tuple(queries),
                split=split,
                left_agents=left_agents,
                right_agents=right_agents,
            )
        )
        recurse(left_agents, lo, split, depth + 1)
        recurse(right_agents, split + 1, hi, depth + 1)

    if profile.m == 0:
        for agent in profile.agents:
            leaves.append((agent, 1, 0))
    else:
        recurse(tuple(profile.agents), 1, profile.m, 0)
    allocation = ConnectedAllocation(spans=tuple(spans))
    return allocation, KnifeTrace(records=tuple(records), leaves=tuple(leaves))


def _cut_queries(
    profile: UtilityProfile,
    agent: int,
    lo: int,
    hi: int,
    g_b: int,
    n_left: int,
    n_right: int,
) -> Iterator[float]:
    # Lazy: the threshold mechanism stops at the first accepted position, so
    # later cut values are never computed.  hi < lo yields no queries.
    if hi < lo:
        return iter(())
    return map(float, _cut_values(profile, agent, lo, hi, lo, g_b, n_left, n_right))


def proof_chain_c(m: int, n: int, params: PrivacyParams) -> int:
    """Explicit PROP-c bound from chaining the per-level accuracy guarantees.

    Follows every root-to-leaf path of the (deterministic) recursion-size
    tree and sums ceil(2 * g_b / size) over the path; the bound is the worst
    path.  This is the quantity the high-probability analysis controls, with
    no asymptotic constants hidden.
    """
    if n == 1 or m == 0:
        return 0
    schedule = budget_schedule(m, n, params)
    worst = 0

    def walk(size: int, acc: int) -> None:
        nonlocal worst
        if size == 1:
            worst = max(worst, acc)
            return
        b = math.ceil(math.log2(size))
        _, g_b = schedule[b]
        term = -(-2 * g_b // size)  # ceil(2 g_b / size) in integers
        n_right = size // 2
        n_left = size - n_right
        walk(n_left, acc + term)
        walk(n_right, acc + term)

    walk(n, 0)
    return worst
