"""Why the privacy guarantees cannot be much better: lower-bound machinery.

Two constructions are demonstrated.  The packing families force any
accurate connected allocator to distinguish inputs that are only a few
edits apart -- their acceptable-output sets are provably disjoint.  The
random-profile experiments show that a fixed allocation fails fairness for
a random utility row with constant probability, which is the engine behind
the agent-level impossibility results.
"""

from dpfair import EfSampler, PrivacyParams, RandomStream, is_ef_c
from dpfair.ef_em import connected_allocation_tuple
from dpfair.generators import (
    ef_packing_family,
    search_agent_level_witness,
    small_bundle_profile_experiment,
)

# --- packing: disjoint acceptance sets --------------------------------------
family = ef_packing_family(n=3, m=20, c=1, T=2)
print(f"packing family: m={family.m}, block width {family.block_width}, "
      f"T={family.T} variants, edit distance {family.expected_distance}")

candidates = connected_allocation_tuple(20, 3)
sets = [
    {i for i, a in enumerate(candidates) if is_ef_c(variant, a, family.c)}
    for variant in family.variants
]
print(f"EF{family.c} acceptance sets: sizes {[len(s) for s in sets]}, "
      f"overlap {len(sets[0] & sets[1])}")
print("disjoint sets + group privacy  =>  no accurate eps-DP connected allocator")
print()

# --- random profiles vs a fixed allocation ----------------------------------
# A bundle holding 1/4 of the items fails PROP1 for its owner with
# probability >= 1/8 when utilities are fair coins (here it is far higher).
rate = small_bundle_profile_experiment(
    n=4, m=4000, bundle_size=1000, c=1, trials=20_000, stream=RandomStream(2)
)
print(f"fixed small bundle, random Ber(1/2) row: not-PROP1 rate = {rate:.4f} (>= 0.125)")
print()

# --- searching for an agent-level witness ------------------------------------
# Feed the envy-free allocator the all-zero profile and search for a single
# replacement row that makes its outputs unfair for one agent.  Agent-level
# privacy then forces the same failure (up to e^eps) on the witness input.
params = PrivacyParams(epsilon=1.0, beta=0.1)
mechanism = lambda profile, stream, k: EfSampler.prepare(profile, params).counts(stream, k)
witness = search_agent_level_witness(
    mechanism, n=2, m=6, criterion="ef", c=1,
    runs=60, candidate_rows=30, stream=RandomStream(8),
)
print("agent-level witness search against the envy-free allocator (n=2, m=6):")
print(f"  worst row found targets agent {witness.agent}: "
      f"row = {witness.witness.values[witness.agent - 1]}")
print(f"  fraction of sampled outputs not EF{witness.c} for that agent: "
      f"{witness.violation_rate:.3f}")
print("  (the averaging argument guarantees such a row exists; the search finds one)")
