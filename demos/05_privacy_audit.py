"""Auditing the allocators: exact ratios, sampled ratios, group privacy.

Exact mode compares closed-form output distributions outcome by outcome --
a proof-grade check wherever the output space is enumerable.  Sampled mode
can only falsify privacy, never prove it, so its reports carry Wilson
confidence intervals and flag only confident violations.
"""

import math

from dpfair import EfSampler, PrivacyParams, RandomStream, UtilityProfile
from dpfair.audit import (
    anti_concentration_check,
    estimate_privacy_ratio,
    exact_em_ratio_check,
    fairness_failure_rate,
)
from dpfair.generators import ef_packing_family
from dpfair.oracles import audit_score_sensitivity

params = PrivacyParams(epsilon=1.0, beta=0.1)

# Two adjacent inputs: agent 2's value for item 3 flips.
p1 = UtilityProfile.additive([[1, 0, 1, 1], [0, 1, 0, 0]])
p2 = UtilityProfile.additive([[1, 0, 1, 1], [0, 1, 1, 0]])

exact = exact_em_ratio_check(p1, p2, params, g=2)
print("exact ratio audit of the envy-free allocator (adjacent pair, g=2):")
print(f"  outcomes: {len(exact.outcomes)}, bound e^eps = {exact.bound:.4f}")
print(f"  max |log ratio| = {exact.max_log_ratio:.4f}  -> passed: {exact.passed}")

# A sampled audit prepares the allocator once per input and draws every run
# of that input, in turn, from one stream.
mechanism = lambda profile, stream, k: EfSampler.prepare(profile, params).counts(stream, k)
sampled = estimate_privacy_ratio(mechanism, p1, p2, params.epsilon,
                                 samples=5000, stream=RandomStream(1))
print()
print("sampled ratio audit (5000 runs per input, 3-sigma Wilson intervals):")
print(f"  flagged outcomes: {len(sampled.flagged)}  -> passed: {sampled.passed}")

# Group privacy: the packing family's base and variant differ in 4c+2 cells,
# so the chain bound is e^((4c+2) eps).
family = ef_packing_family(n=3, m=12, c=1, T=1)
group = exact_em_ratio_check(family.base, family.variants[0], params)
print()
print("group-privacy audit on a packing pair (edit distance 6):")
print(f"  bound e^(6 eps) = {group.bound:.1f}  -> passed: {group.passed}")

# Sensitivity audits back the privacy proofs: the EM score moves by at most
# 1 under any single-cell edit, exhaustively over all binary profiles.
sens = audit_score_sensitivity(m=4, n=2, g=2)
print()
print(f"score sensitivity, exhaustive over {sens.pairs_examined} adjacent pairs:"
      f" max |delta| = {sens.max_delta} (bound: 1)")

# Fairness side: how often does a run miss its self-certified guarantee?
rate = fairness_failure_rate(mechanism, p1, "EF", c=6, trials=2000,
                             stream=RandomStream(5))
print()
print(f"EF6 failure rate over 2000 runs: {rate.estimate:.4f} "
      f"(CI [{rate.ci_low:.4f}, {rate.ci_high:.4f}])")

# The coin-flip tail bounds used by the lower-bound experiments.
tail = anti_concentration_check("2.10", k=100, gamma=None, trials=200_000,
                                stream=RandomStream(9))
print()
print(f"fair-coin lower tail: estimate {tail.estimate:.4f} >= 0.25 "
      f"(exact value {sum(math.comb(100, i) for i in range(49)) / 2**100:.4f})")
