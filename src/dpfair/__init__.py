"""Differentially private fair division of indivisible items.

The package bundles two private allocators over connected allocations (an
exponential-mechanism envy-free allocator and a recursive moving-knife
proportional allocator), the exact fairness machinery they rest on,
brute-force oracles, hard-instance generators, and an empirical
privacy/fairness auditor.
"""

from .core import (
    Adjacency,
    ConnectedAllocation,
    EnumerationCapError,
    PrivacyParams,
    UtilityProfile,
    adjacency_distance,
    bundle_utility,
    is_ef_c,
    is_ef_d_wrt_truncated,
    is_prop_c,
    min_ef_c,
    min_prop_c,
    top_k_utility,
    truncated_utility,
)
from .ef_em import (
    EfRunReport,
    EfSampler,
    count_connected_allocations,
    dp_ef_allocate,
    enumerate_connected_allocations,
    score,
    scoring_truncation_budget,
)
from .mechanisms import RandomStream, SvtOutcome, above_threshold, exponential_mechanism, sample_laplace
from .prop_knife import (
    KnifeRecord,
    KnifeTrace,
    dp_moving_knife,
    exact_budget_total,
    f_value,
    knife_samples,
    proof_chain_c,
)

__all__ = [
    "Adjacency",
    "ConnectedAllocation",
    "EfRunReport",
    "EfSampler",
    "EnumerationCapError",
    "KnifeRecord",
    "KnifeTrace",
    "PrivacyParams",
    "RandomStream",
    "SvtOutcome",
    "UtilityProfile",
    "above_threshold",
    "adjacency_distance",
    "bundle_utility",
    "count_connected_allocations",
    "dp_ef_allocate",
    "dp_moving_knife",
    "enumerate_connected_allocations",
    "exact_budget_total",
    "exponential_mechanism",
    "f_value",
    "is_ef_c",
    "is_ef_d_wrt_truncated",
    "is_prop_c",
    "knife_samples",
    "min_ef_c",
    "min_prop_c",
    "proof_chain_c",
    "sample_laplace",
    "score",
    "scoring_truncation_budget",
    "top_k_utility",
    "truncated_utility",
]

__version__ = "0.1.0"
