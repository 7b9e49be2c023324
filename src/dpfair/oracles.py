"""Exact brute-force baselines for the private allocators.

These oracles enumerate rather than approximate: minimal achievable
fairness parameters over all connected allocations, closed-form output
distributions of the exponential-mechanism allocator, and exhaustive
sensitivity audits over complete binary-profile universes.  They exist to
check the fast paths and the privacy lemmas, so they deliberately favor
transparency over speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import (
    ConnectedAllocation,
    PrivacyParams,
    UtilityProfile,
    is_ef_c,
    is_prop_c,
    min_ef_c,
    min_prop_c,
)
from .ef_em import (
    DEFAULT_ENUMERATION_CAP,
    capped_candidates,
    connected_allocation_tuple,  # not called here; bench/tracing.py expects it bound in this module
    enumerate_connected_allocations,
    score,
    scoring_truncation_budget,
)
from .mechanisms import em_weights
from .prop_knife import f_value

SENSITIVITY_UNIVERSE_MAX_CELLS = 8


@dataclass(frozen=True)
class SensitivityReport:
    """Worst observed change of an audited function across adjacent inputs."""

    max_delta: int
    witness: Optional[tuple]  # inputs and context achieving max_delta
    pairs_examined: int


def _least_c_over_candidates(holds, least_c, profile, enumeration_cap) -> int:
    # Only a candidate that passes at best - 1 can lower the running minimum.
    best = profile.m + 1
    for allocation in capped_candidates(profile, enumeration_cap):
        if best == 0:
            break
        if holds(profile, allocation, best - 1):
            best = least_c(profile, allocation)
    return best


def min_ef_c_connected(
    profile: UtilityProfile, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> int:
    """Smallest c for which some connected allocation is EF-c (exhaustive)."""
    return _least_c_over_candidates(is_ef_c, min_ef_c, profile, enumeration_cap)


def min_prop_c_connected(
    profile: UtilityProfile, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> int:
    """Smallest c for which some connected allocation is PROP-c (exhaustive)."""
    return _least_c_over_candidates(is_prop_c, min_prop_c, profile, enumeration_cap)


def ef2_connected_exists(
    profile: UtilityProfile, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Whether a connected EF2 allocation exists.

    Expected to be true on every monotone instance; a false return means the
    harness itself is broken, not that a counterexample was found.
    """
    allocations = capped_candidates(profile, enumeration_cap)
    return any(is_ef_c(profile, allocation, 2) for allocation in allocations)


def exact_em_distribution(
    profile: UtilityProfile,
    params: PrivacyParams,
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP,
    g: Optional[int] = None,
) -> dict[ConnectedAllocation, float]:
    """Closed-form output distribution of the envy-free allocator.

    Probabilities are exp(epsilon * score / 2), max-shifted and normalized;
    they sum to 1 up to float rounding and every outcome has strictly
    positive mass.  ``g`` defaults to the allocator's own formula value;
    note that the formula gives g > m at desk scale, where every score
    collapses to -1 and the distribution is uniform.  Pass a small ``g``
    explicitly to audit a non-degenerate distribution.
    """
    allocations = capped_candidates(profile, enumeration_cap)
    if g is None:
        g = scoring_truncation_budget(profile.m, profile.n, params.epsilon, params.beta)
    weights = em_weights([score(profile, a, g) for a in allocations], params.epsilon)
    probabilities = weights / weights.sum()
    return {a: float(p) for a, p in zip(allocations, probabilities)}


def binary_profiles(n: int, m: int, scale: int = 1) -> list[UtilityProfile]:
    """All 2^(n*m) binary additive profiles, in bitmask order."""
    cells = n * m
    out = []
    for bits in range(1 << cells):
        values = tuple(
            tuple(scale if bits >> (i * m + j) & 1 else 0 for j in range(m))
            for i in range(n)
        )
        out.append(UtilityProfile(n=n, m=m, scale=scale, values=values))
    return out


def _adjacent_binary_pairs(n: int, m: int, scale: int = 1):
    # Each unordered adjacent pair is generated once by flipping a 0-cell up.
    profiles = binary_profiles(n, m, scale)
    for bits, profile in enumerate(profiles):
        for cell in range(n * m):
            if not bits >> cell & 1:
                yield profile, profiles[bits | 1 << cell]


def _check_universe(n: int, m: int) -> None:
    if n * m > SENSITIVITY_UNIVERSE_MAX_CELLS:
        raise ValueError(
            f"exhaustive audit universe limited to n*m <= {SENSITIVITY_UNIVERSE_MAX_CELLS}"
        )


def audit_score_sensitivity(m: int, n: int, g: int) -> SensitivityReport:
    """Exhaustively verify the allocator score moves by at most 1 per cell edit.

    Scans every pair of binary profiles differing in one cell and every
    connected allocation; the claimed bound is 1.
    """
    _check_universe(n, m)
    allocations = list(enumerate_connected_allocations(m, n))
    score_table = {
        profile: [score(profile, a, g) for a in allocations]
        for profile in binary_profiles(n, m)
    }
    max_delta = 0
    witness = None
    pairs = 0
    for p1, p2 in _adjacent_binary_pairs(n, m):
        pairs += 1
        for a, s1, s2 in zip(allocations, score_table[p1], score_table[p2]):
            delta = abs(s1 - s2)
            if delta > max_delta:
                max_delta = delta
                witness = (p1, p2, a)
    return SensitivityReport(max_delta=max_delta, witness=witness, pairs_examined=pairs)


def audit_f_sensitivity(
    m: int,
    n: int,
    g_b: int,
    n_left: Optional[int] = None,
    n_right: Optional[int] = None,
) -> SensitivityReport:
    """Exhaustively verify the cut-acceptance function moves by at most 1.

    Covers every agent, every item range, every cut position inside it, and
    every adjacent binary-profile pair.  Group sizes default to the halving
    used by the allocator at the top level.
    """
    _check_universe(n, m)
    if n_right is None:
        n_right = max(n // 2, 1)
    if n_left is None:
        n_left = max(n - n_right, 1)
    positions = [
        (lo, hi, h)
        for lo in range(1, m + 1)
        for hi in range(lo, m + 1)
        for h in range(lo, hi + 1)
    ]
    max_delta = 0
    witness = None
    pairs = 0
    for p1, p2 in _adjacent_binary_pairs(n, m):
        pairs += 1
        for agent in range(1, n + 1):
            for lo, hi, h in positions:
                f1 = f_value(p1, agent, lo, hi, h, g_b, n_left, n_right)
                f2 = f_value(p2, agent, lo, hi, h, g_b, n_left, n_right)
                delta = abs(f1 - f2)
                if delta > max_delta:
                    max_delta = delta
                    witness = (p1, p2, agent, lo, hi, h)
    return SensitivityReport(max_delta=max_delta, witness=witness, pairs_examined=pairs)
