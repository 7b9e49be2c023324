"""Instance generators: random profiles and hard-instance families.

Two kinds of instances are produced here.  Random Bernoulli profiles back
the probabilistic lower-bound experiments for agent-level privacy; the
packing families are the explicit binary constructions whose accepted
allocations are pairwise disjoint across variants, which is what forces the
lower bounds for agent-by-item privacy on connected allocations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .audit import Mechanism, draw_counts
from .core import Adjacency, UtilityProfile, adjacency_distance, is_ef_c, is_prop_c
from .mechanisms import RandomStream, monte_carlo_count

_MC_CHUNK = 1024  # trials per derived substream in vectorized experiments


def bernoulli_profile(n: int, m: int, stream: RandomStream) -> UtilityProfile:
    """Binary profile with independent fair-coin entries."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    # Drawn a row at a time into bools: beside them only one row's int64
    # draw and the profile's own int64 copy are held, not a second (n, m)
    # int64 array.  The rows equal one (n, m) draw and leave the generator
    # in the same state.
    generator = stream.generator
    bits = np.empty((n, m), dtype=bool)
    for row in bits:
        row[:] = generator.integers(0, 2, size=m)
    return UtilityProfile(n=n, m=m, scale=1, values=bits)


def all_zero_profile(n: int, m: int) -> UtilityProfile:
    """The all-zero binary profile."""
    if n < 1 or m < 0:
        raise ValueError(f"need n >= 1 and m >= 0, got n={n} and m={m}")
    return UtilityProfile(n=n, m=m, scale=1, values=np.zeros((n, m), dtype=np.int64))


@dataclass(frozen=True)
class PackingFamily:
    """A base profile plus variants that demand mutually exclusive cuts.

    Agents 1 and 2 are all-zero in the base profile and value exactly one
    width-``block_width`` block of low-index items in each variant; agents
    3..n value a fixed suffix in every member.  Each variant is within
    ``expected_distance`` single-cell edits of the base.
    """

    base: UtilityProfile
    variants: tuple[UtilityProfile, ...]
    n: int
    m: int
    c: int
    T: int
    block_width: int
    expected_distance: int


_ZETA = 0.01  # the constant factor of both default-c formulas


def default_ef_packing_c(m: int, epsilon: float, n: int) -> int:
    return math.floor(_ZETA * min(math.log(m) / epsilon, m / n, math.sqrt(m)))


def default_prop_packing_c(m: int, epsilon: float, n: int) -> int:
    return math.floor(
        _ZETA * min(math.log(m / n) / (epsilon * n), m / n, math.sqrt(m / n))
    )


def _packing_family(
    n: int,
    m: int,
    c: Optional[int],
    T: Optional[int],
    epsilon: Optional[float],
    default_c: Callable[[int, float, int], int],
    shape: Callable[[int], tuple[int, int, int]],
    width_name: str,
) -> PackingFamily:
    # The one construction behind both families; ``shape(c)`` gives the
    # family's block width, default-T divisor and suffix start.
    if n < 3:
        raise ValueError("the packing construction needs n >= 3")
    if c is None:
        if epsilon is None:
            raise ValueError("either an explicit c or epsilon for the default formula")
        if not 0 < epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
        c = default_c(m, epsilon, n)
    if c < 1:
        raise ValueError("need c >= 1 (the construction is void at c = 0)")
    width, t_divisor, suffix_start = shape(c)
    if T is None:
        T = m // t_divisor
    if T < 1:
        raise ValueError("need T >= 1")
    if width * T > m:
        raise ValueError(f"blocks exceed the item line: {width_name} * T must be <= m")
    if suffix_start < 1:
        raise ValueError("suffix block would underflow the item line")
    values = np.zeros((n, m), dtype=np.int64)
    values[2:, suffix_start - 1 :] = 1
    block = np.arange(m) // width
    members = []  # agents 1 and 2 value block t in variant t; t = 0 (the base) matches none
    for t in range(T + 1):
        values[:2] = block == t - 1
        members.append(UtilityProfile(n=n, m=m, scale=1, values=values))  # a copy
    return PackingFamily(
        base=members[0], variants=tuple(members[1:]), n=n, m=m, c=c, T=T,
        block_width=width, expected_distance=2 * width,
    )


def ef_packing_family(
    n: int,
    m: int,
    c: Optional[int] = None,
    T: Optional[int] = None,
    epsilon: Optional[float] = None,
) -> PackingFamily:
    """Envy-freeness packing family with block width 2c+1.

    Defaults follow the asymptotic construction (which needs ``epsilon`` and
    yields c = 0 below m of roughly 10^4); explicit small ``c >= 1``
    overrides keep the family meaningful at desk scale.
    """
    # (width, default-T divisor 2 * width + 2, suffix start) for a given c
    return _packing_family(
        n, m, c, T, epsilon, default_ef_packing_c,
        lambda c: (2 * c + 1, 4 * c + 4, m - (c + 1) * (n - 2)), "(2c+1)",
    )


def prop_packing_family(
    n: int,
    m: int,
    c: Optional[int] = None,
    T: Optional[int] = None,
    epsilon: Optional[float] = None,
) -> PackingFamily:
    """Proportionality packing family with block width nc+1.

    Every agent in a variant values exactly nc+1 items, so each needs at
    least one valued item for PROP-c to hold.
    """
    # (width, default-T divisor 2 * width, suffix start) for a given c
    return _packing_family(
        n, m, c, T, epsilon, default_prop_packing_c,
        lambda c: (n * c + 1, 2 * n * c + 2, m - c * n), "(nc+1)",
    )


def verify_packing_distances(family: PackingFamily) -> bool:
    """Every variant sits at exactly the family's expected edit distance."""
    return all(
        adjacency_distance(family.base, variant, Adjacency.AGENT_ITEM_LEVEL)
        == family.expected_distance
        for variant in family.variants
    )


# ---------------------------------------------------------------------------
# probabilistic lower-bound experiments
# ---------------------------------------------------------------------------


def _block_allocation_sizes(n: int, m: int, bundle_size: int) -> list[int]:
    # Agents 1..n-1 get bundle_size contiguous items each; agent n absorbs
    # the remainder.  Agent 1 is the designated agent in both experiments.
    sizes = [bundle_size] * (n - 1)
    sizes.append(m - bundle_size * (n - 1))
    if sizes[-1] < 0:
        raise ValueError("bundles exceed the item count")
    return sizes


def small_bundle_profile_experiment(
    n: int,
    m: int,
    bundle_size: int,
    c: int,
    trials: int,
    stream: RandomStream,
    variant: str = "prop",
) -> float:
    """Violation frequency of a fixed allocation under random binary utilities.

    The allocation assigns contiguous blocks: agent 1 (the designated agent)
    gets the first ``bundle_size`` items, agents 2..n-1 get equal blocks and
    agent n the remainder.  With additive utilities the violation event for
    agent 1 depends only on agent 1's row, so only that row is sampled; each
    trial draws the row i.i.d. Ber(1/2).

    ``variant="prop"`` estimates Pr[allocation is not PROP-c for agent 1];
    ``variant="ef"`` estimates Pr[allocation is not EF-c for agent 1], which
    requires all bundles to have at least ``bundle_size`` items so that
    agent 1's bundle is among the smallest (the regime the bound addresses).
    """
    if variant not in ("prop", "ef"):
        raise ValueError("variant must be 'prop' or 'ef'")
    if trials < 1:
        raise ValueError("need at least one trial")
    if n < 2 or not 1 <= bundle_size <= m:
        raise ValueError("need n >= 2 and 1 <= bundle_size <= m")
    sizes = _block_allocation_sizes(n, m, bundle_size)
    if variant == "ef" and any(size < bundle_size for size in sizes):
        raise ValueError("the EF experiment needs every bundle >= bundle_size")
    boundaries = np.cumsum([0] + sizes)

    def count(generator: np.random.Generator, batch: int) -> int:
        # int8 rows keep the chunk small even at m = 40000; sums accumulate in int64
        rows = generator.integers(0, 2, size=(batch, m), dtype=np.int8)
        own = rows[:, : boundaries[1]].sum(axis=1, dtype=np.int64)
        total = rows.sum(axis=1, dtype=np.int64)
        if variant == "prop":
            outside = total - own
            best_outside = np.minimum(c, outside)
            return int(np.sum(n * (own + best_outside) < total))
        bad = np.zeros(batch, dtype=bool)
        for other in range(1, n):
            counts = rows[:, boundaries[other] : boundaries[other + 1]].sum(
                axis=1, dtype=np.int64
            )
            bad |= counts - np.minimum(c, counts) > own
        return int(np.sum(bad))

    return monte_carlo_count(stream, trials, _MC_CHUNK, count) / trials


@dataclass(frozen=True)
class AgentLevelWitness:
    """A candidate hard input for an agent-level privacy lower bound."""

    base: UtilityProfile  # all-zero input actually fed to the mechanism
    witness: UtilityProfile  # base with one row replaced; adjacent at agent level
    agent: int
    criterion: str
    c: int
    violation_rate: float  # fraction of sampled outputs unfair for `agent` w.r.t. witness


def search_agent_level_witness(
    mechanism: Mechanism,
    n: int,
    m: int,
    criterion: str,
    c: int,
    runs: int,
    candidate_rows: int,
    stream: RandomStream,
) -> AgentLevelWitness:
    """Monte-Carlo search for an agent-level hard instance against a mechanism.

    Samples the mechanism's output distribution on the all-zero profile (its
    ``runs`` outputs drawn in one call on ``stream.child(0)``), then searches
    random single-agent utility rows for the (agent, row) pair under which
    the sampled outputs are most frequently unfair to that agent.  Each
    distinct output is checked once and counted as often as it was drawn.
    The averaging argument behind the lower bounds guarantees a good
    witness exists; it does not exhibit one, hence the search.
    """
    if criterion not in ("ef", "prop"):
        raise ValueError("criterion must be 'ef' or 'prop'")
    if runs < 1:
        raise ValueError("need at least one run")
    check = is_ef_c if criterion == "ef" else is_prop_c
    base = all_zero_profile(n, m)
    counts = draw_counts(mechanism, base, stream.child(0), runs)
    row_stream = stream.child(1).generator
    best: Optional[AgentLevelWitness] = None
    for _ in range(candidate_rows):
        row = row_stream.integers(0, 2, size=m)
        for agent in range(1, n + 1):
            values = np.zeros((n, m), dtype=np.int64)
            values[agent - 1] = row
            candidate = UtilityProfile(n=n, m=m, scale=1, values=values)
            failures = sum(
                count
                for allocation, count in counts.items()
                if not check(candidate, allocation, c)
            )
            rate = failures / runs
            if best is None or rate > best.violation_rate:
                best = AgentLevelWitness(
                    base=base,
                    witness=candidate,
                    agent=agent,
                    criterion=criterion,
                    c=c,
                    violation_rate=rate,
                )
    assert best is not None
    return best
