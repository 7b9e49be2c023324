import math

import pytest

from dpfair.audit import (
    anti_concentration_check,
    estimate_privacy_ratio,
    exact_em_ratio_check,
    fairness_failure_rate,
    parallel_structure_ok,
    ratio_report_from_distributions,
    validate_knife_trace,
    wilson_interval,
)
from dpfair.core import ConnectedAllocation, PrivacyParams, is_ef_c, is_prop_c
from dpfair.ef_em import EfSampler, scoring_truncation_budget
from dpfair.generators import ef_packing_family
from dpfair.mechanisms import RandomStream
from dpfair.prop_knife import KnifeRecord, KnifeTrace, dp_moving_knife, knife_samples

from conftest import random_additive_profile
from test_core import binary_profile_from_bits


def ef_mechanism(params):
    def mechanism(profile, stream, k):
        sampler = EfSampler.prepare(profile, params)
        return [sampler.allocation(i) for i in sampler.draw_many(stream, k).tolist()]

    return mechanism


def prop_mechanism(params):
    return lambda profile, stream, k: [a for a, _ in knife_samples(profile, params, stream, k)]


# ---------------------------------------------------------------------------
# Wilson intervals
# ---------------------------------------------------------------------------


def test_wilson_interval_basics():
    lo, hi = wilson_interval(50, 100)
    assert 0 < lo < 0.5 < hi < 1
    lo0, hi0 = wilson_interval(0, 100)
    assert lo0 == 0.0 and hi0 > 0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


# ---------------------------------------------------------------------------
# privacy-ratio audits
# ---------------------------------------------------------------------------


def test_constant_mechanism_has_unit_ratios():
    fixed = ConnectedAllocation(spans=((1, 3), None))
    p1 = binary_profile_from_bits(2, 3, 0b000111)
    p2 = binary_profile_from_bits(2, 3, 0b000110)
    report = estimate_privacy_ratio(
        lambda profile, stream, k: [fixed] * k, p1, p2, epsilon=1.0, samples=500,
        stream=RandomStream(1),
    )
    assert report.mode == "sampled"
    assert report.outcomes == (fixed,)
    assert report.p1 == (1.0,) and report.p2 == (1.0,)
    assert report.max_log_ratio == 0.0
    assert report.passed


def test_detects_a_blatantly_nonprivate_mechanism():
    # leaks the input deterministically: adjacent inputs give disjoint outputs
    def leaky(profile, stream, k):
        if profile.values[0][0]:
            return [ConnectedAllocation(spans=((1, 3), None))] * k
        return [ConnectedAllocation(spans=(None, (1, 3)))] * k

    p1 = binary_profile_from_bits(2, 3, 0b000000)
    p2 = binary_profile_from_bits(2, 3, 0b000001)
    report = estimate_privacy_ratio(
        leaky, p1, p2, epsilon=1.0, samples=2000, stream=RandomStream(2)
    )
    assert not report.passed
    assert len(report.flagged) == 2


def test_ef_allocator_passes_sampled_audit_on_adjacent_pair():
    params = PrivacyParams(epsilon=1.0, beta=0.1)
    p1 = binary_profile_from_bits(2, 3, 0b101001)
    p2 = binary_profile_from_bits(2, 3, 0b101011)
    report = estimate_privacy_ratio(
        ef_mechanism(params), p1, p2, params.epsilon, samples=20_000,
        stream=RandomStream(3),
    )
    assert report.passed


def test_prop_allocator_passes_sampled_audit_on_adjacent_pair():
    params = PrivacyParams(epsilon=2.0, beta=0.1)
    p1 = binary_profile_from_bits(2, 3, 0b111000)
    p2 = binary_profile_from_bits(2, 3, 0b011000)
    report = estimate_privacy_ratio(
        prop_mechanism(params), p1, p2, params.epsilon, samples=10_000,
        stream=RandomStream(4),
    )
    assert report.passed


def test_exact_em_ratio_check_on_adjacent_pair():
    params = PrivacyParams(epsilon=1.0, beta=0.1)
    p1 = binary_profile_from_bits(2, 3, 0b110100)
    p2 = binary_profile_from_bits(2, 3, 0b110101)
    report = exact_em_ratio_check(p1, p2, params)
    assert report.mode == "exact"
    assert report.bound == pytest.approx(math.e)
    assert report.passed
    assert report.max_log_ratio <= params.epsilon + 1e-9


def test_exact_ratio_report_flags_violations():
    d1 = {"a": 0.9, "b": 0.1}
    d2 = {"a": 0.1, "b": 0.9}
    report = ratio_report_from_distributions(d1, d2, bound=2.0)
    assert not report.passed
    assert set(report.flagged) == {"a", "b"}


def test_group_privacy_identical_inputs():
    params = PrivacyParams(epsilon=1.0, beta=0.1)
    p = binary_profile_from_bits(2, 3, 0b010101)
    # a group audit at edit distance k passes k * epsilon to the sampled audit
    report = estimate_privacy_ratio(
        ef_mechanism(params), p, p, 0 * params.epsilon, samples=5000, stream=RandomStream(5)
    )
    assert report.bound == pytest.approx(1.0)  # k = 0
    assert report.passed


def test_group_privacy_exact_on_packing_pair():
    # smaller sibling of the acceptance check: m = 8, k = 4c+2 = 6
    family = ef_packing_family(n=3, m=8, c=1, T=1)
    params = PrivacyParams(epsilon=0.5, beta=0.1)
    report = exact_em_ratio_check(family.base, family.variants[0], params)
    assert report.bound == pytest.approx(math.exp(6 * 0.5))
    assert report.passed


def test_group_privacy_exact_random_pair_distance_three():
    params = PrivacyParams(epsilon=1.0, beta=0.1)
    p1 = binary_profile_from_bits(2, 3, 0b000000)
    p2 = binary_profile_from_bits(2, 3, 0b001011)
    report = exact_em_ratio_check(p1, p2, params)
    assert report.bound == pytest.approx(math.exp(3.0))
    assert report.passed


# ---------------------------------------------------------------------------
# fairness failure rate
# ---------------------------------------------------------------------------


def test_failure_rate_zero_at_c_equal_m():
    params = PrivacyParams(epsilon=1.0, beta=0.1)
    p = binary_profile_from_bits(2, 3, 0b011010)
    for criterion in ("EF", "PROP"):
        report = fairness_failure_rate(
            ef_mechanism(params), p, criterion, c=3, trials=300, stream=RandomStream(6)
        )
        assert report.hits == 0
        assert report.estimate == 0.0


def test_ef_allocator_failure_rate_at_guarantee():
    params = PrivacyParams(epsilon=2.0, beta=0.1)
    p = binary_profile_from_bits(2, 4, 0b10011010)
    g = scoring_truncation_budget(4, 2, params.epsilon, params.beta)
    report = fairness_failure_rate(
        ef_mechanism(params), p, "EF", c=3 * g // 2, trials=1000, stream=RandomStream(7)
    )
    sigma = math.sqrt(params.beta * (1 - params.beta) / 1000)
    assert report.estimate <= params.beta + 3 * sigma


@pytest.mark.parametrize("epsilon", [0.5, 2.0, 8.0, 50.0])
def test_failure_rate_equals_a_per_trial_count(rng, epsilon):
    params = PrivacyParams(epsilon=epsilon, beta=0.1, svt_constant=0.1)
    p = random_additive_profile(rng, n=3, m=int(rng.integers(2, 9)), max_value=3)
    for criterion, check, mechanism in (("EF", is_ef_c, ef_mechanism(params)),
                                        ("PROP", is_prop_c, prop_mechanism(params))):
        for c in (0, 1, 2):
            report = fairness_failure_rate(mechanism, p, criterion, c, 200, RandomStream(c))
            draws = mechanism(p, RandomStream(c), 200)
            assert report.hits == sum(not check(p, a, c) for a in draws)
            assert report.trials == 200


def test_audits_reject_a_mechanism_that_miscounts_its_draws():
    fixed = ConnectedAllocation(spans=((1, 3), None))
    p = binary_profile_from_bits(2, 3, 0)
    short = lambda profile, stream, k: [fixed] * (k - 1)  # noqa: E731
    with pytest.raises(ValueError, match="not 10"):
        fairness_failure_rate(short, p, "EF", 0, 10, RandomStream(0))
    with pytest.raises(ValueError, match="not 10"):
        estimate_privacy_ratio(short, p, p, 1.0, 10, RandomStream(0))


def test_failure_rate_validation():
    params = PrivacyParams(epsilon=1.0)
    p = binary_profile_from_bits(2, 3, 0)
    with pytest.raises(ValueError):
        fairness_failure_rate(ef_mechanism(params), p, "MMS", 0, 10, RandomStream(0))
    with pytest.raises(ValueError):
        fairness_failure_rate(ef_mechanism(params), p, "EF", 0, 0, RandomStream(0))


# ---------------------------------------------------------------------------
# anti-concentration
# ---------------------------------------------------------------------------


def test_lower_tail_bound_and_exact_value():
    report = anti_concentration_check("2.10", k=100, gamma=None, trials=100_000,
                                      stream=RandomStream(8))
    assert report.estimate >= 0.25 - 3 * report.sigma
    exact = sum(math.comb(100, i) for i in range(49)) / 2**100
    assert abs(report.estimate - exact) <= 4 * report.sigma


def test_upper_tail_bound():
    for gamma in (2.0, 8.0):
        report = anti_concentration_check("2.11", k=100, gamma=gamma, trials=100_000,
                                          stream=RandomStream(9))
        target = 0.1 / gamma
        assert report.estimate >= target - 3 * report.sigma


def test_anti_concentration_validation():
    with pytest.raises(ValueError):
        anti_concentration_check("2.12", 100, None, 10, RandomStream(0))
    with pytest.raises(ValueError):
        anti_concentration_check("2.10", 50, None, 10, RandomStream(0))
    with pytest.raises(ValueError):
        anti_concentration_check("2.11", 100, 1.5, 10, RandomStream(0))


def test_upper_tail_takes_every_k_it_states():
    # 2 ** (k / 4) overflows a float from k ~ 4100, so the range is checked on logs.
    assert anti_concentration_check("2.11", 20_000, 3.0, 100, RandomStream(11)).trials == 100
    anti_concentration_check("2.11", 100, 2.0**25, 10, RandomStream(0))
    with pytest.raises(ValueError, match="gamma"):
        anti_concentration_check("2.11", 100, 2.0**25 * 1.000001, 10, RandomStream(0))


def test_anti_concentration_rejects_a_k_past_numpys_binomial():
    assert anti_concentration_check("2.10", 2**63 - 1, None, 10, RandomStream(0)).trials == 10
    for lemma, gamma in (("2.10", None), ("2.11", 3.0)):
        with pytest.raises(ValueError, match="k="):
            anti_concentration_check(lemma, 2**63, gamma, 10, RandomStream(0))


def test_anti_concentration_deterministic():
    a = anti_concentration_check("2.10", 100, None, 50_000, RandomStream(10))
    b = anti_concentration_check("2.10", 100, None, 50_000, RandomStream(10))
    assert a == b


# ---------------------------------------------------------------------------
# trace structure
# ---------------------------------------------------------------------------


def test_real_traces_validate():
    p = binary_profile_from_bits(3, 4, 0b101101100011)
    params = PrivacyParams(epsilon=1.0, beta=0.1)
    for seed in range(5):
        _, trace = dp_moving_knife(p, params, RandomStream(seed))
        assert parallel_structure_ok(trace)
        assert validate_knife_trace(trace, 3, 4)


def _record(agents, depth):
    return KnifeRecord(
        agents=agents, lo=1, hi=2, depth=depth, level=1, epsilon_b=0.1, g_b=8,
        h_values=tuple((a, 1) for a in agents), svt_fired=(True,) * len(agents),
        svt_queries=(1,) * len(agents), split=1, left_agents=agents[:1], right_agents=agents[1:],
    )


def test_parallel_structure_rejects_overlap():
    trace = KnifeTrace(
        records=(_record((1, 2), 0), _record((2, 3), 0)),
        leaves=((1, 1, 1), (2, 2, 2), (3, 3, 2)),
    )
    assert not parallel_structure_ok(trace)


def test_validate_knife_trace_rejects_missing_agent_or_gap():
    good_leaves = ((1, 1, 1), (2, 2, 3))
    assert validate_knife_trace(KnifeTrace(records=(), leaves=good_leaves), 2, 3)
    assert not validate_knife_trace(KnifeTrace(records=(), leaves=good_leaves[:1]), 2, 3)
    gap = ((1, 1, 1), (2, 3, 3))
    assert not validate_knife_trace(KnifeTrace(records=(), leaves=gap), 2, 3)
