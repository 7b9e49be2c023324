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

import numpy as np

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
    _allocations,
    capped_candidates,
    connected_allocation_tuple,
    score,  # not called here; bench/tracing.py expects it bound in this module
    scored_candidates,
    scoring_truncation_budget,
)
from .mechanisms import em_weights
from .prop_knife import _group_sizes, f_value

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
    return any(is_ef_c(profile, a, 2) for a in capped_candidates(profile, enumeration_cap))


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
    if g is None:
        g = scoring_truncation_budget(profile.m, profile.n, params.epsilon, params.beta)
    bounds, scores = scored_candidates(profile, g, enumeration_cap)
    weights = em_weights(scores, params.epsilon)
    return {a: float(p) for a, p in zip(_allocations(*bounds), weights / weights.sum())}


def binary_profiles(n: int, m: int, scale: int = 1) -> list[UtilityProfile]:
    """All 2^(n*m) binary additive profiles, in bitmask order."""
    # Bit i * m + j of a profile's index is cell (i, j).
    cells = np.arange(1 << n * m)[:, None] >> np.arange(n * m) & 1
    return [
        UtilityProfile(n=n, m=m, scale=scale, values=bits.reshape(n, m) * scale)
        for bits in cells
    ]


def _max_adjacent_delta(n: int, m: int, contexts: list, row) -> SensitivityReport:
    """Largest |row(p1)[k] - row(p2)[k]| over adjacent binary p1, p2 and every k.

    ``row(p)`` lists an audited function's values on ``p`` at each of the
    ``contexts``, in order, and is called once per profile; each unordered
    adjacent pair is generated once, by flipping a 0-cell of p1 up.  The
    witness is ``(p1, p2, contexts[k])``.
    """
    if n < 1 or m < 1:  # no cell, so no adjacent pair: the audit would pass vacuously
        raise ValueError(f"need n >= 1 and m >= 1 to have adjacent pairs, got n={n} and m={m}")
    if n * m > SENSITIVITY_UNIVERSE_MAX_CELLS:
        raise ValueError(
            f"exhaustive audit universe limited to n*m <= {SENSITIVITY_UNIVERSE_MAX_CELLS}"
        )
    profiles = binary_profiles(n, m)
    table = [row(profile) for profile in profiles]
    max_delta = 0
    witness = None
    pairs = 0
    for bits, row in enumerate(table):
        for cell in range(n * m):
            if bits >> cell & 1:
                continue
            pairs += 1
            flipped = bits | 1 << cell
            for x, v1, v2 in zip(contexts, row, table[flipped]):
                delta = abs(v1 - v2)
                if delta > max_delta:
                    max_delta = delta
                    witness = (profiles[bits], profiles[flipped], x)
    return SensitivityReport(max_delta=max_delta, witness=witness, pairs_examined=pairs)


def audit_score_sensitivity(m: int, n: int, g: int) -> SensitivityReport:
    """Exhaustively verify the allocator score moves by at most 1 per cell edit.

    Scans every pair of binary profiles differing in one cell and every
    connected allocation ``a``, scored by the allocator's own
    :func:`scored_candidates`; the claimed bound is 1.  The witness is
    ``(p1, p2, a)``.
    """
    allocations = connected_allocation_tuple(m, n)
    return _max_adjacent_delta(
        n, m, allocations, lambda p: scored_candidates(p, g)[1].tolist()
    )


def audit_f_sensitivity(m: int, n: int, g_b: int) -> SensitivityReport:
    """Exhaustively verify the cut-acceptance function moves by at most 1.

    Covers every agent, every item range, every cut position inside it, and
    every adjacent binary-profile pair, with the group sizes of the
    allocator's top-level halving.  The witness is
    ``(p1, p2, (agent, lo, hi, h))``.
    """
    n_left, n_right = _group_sizes(max(n, 2))
    positions = [
        (agent, lo, hi, h)
        for agent in range(1, n + 1)
        for lo in range(1, m + 1)
        for hi in range(lo, m + 1)
        for h in range(lo, hi + 1)
    ]
    return _max_adjacent_delta(
        n, m, positions, lambda p: [f_value(p, *x, g_b, n_left, n_right) for x in positions]
    )
