import math
from collections import Counter

import pytest

from dpfair.core import EnumerationCapError, PrivacyParams, UtilityProfile
from dpfair.ef_em import dp_ef_allocate, enumerate_connected_allocations
from dpfair.mechanisms import RandomStream
from dpfair.oracles import (
    audit_f_sensitivity,
    audit_score_sensitivity,
    binary_profiles,
    ef2_connected_exists,
    exact_em_distribution,
    min_ef_c_connected,
    min_prop_c_connected,
)

from conftest import brute_is_ef_c, brute_is_prop_c, random_additive_profile
from test_core import binary_profile_from_bits


def test_min_ef_on_easy_instances():
    zero = UtilityProfile.additive([[0, 0], [0, 0]])
    assert min_ef_c_connected(zero) == 0
    even = UtilityProfile.additive([[1, 1], [1, 1]])
    assert min_ef_c_connected(even) == 0


def test_min_prop_on_easy_instances():
    zero = UtilityProfile.additive([[0, 0], [0, 0]])
    assert min_prop_c_connected(zero) == 0


def test_min_prop_single_contested_item_instance():
    # u1 = u2 = (1, 0): every connected allocation starves someone of the
    # sole valued item, so PROP0 fails everywhere but PROP1 is reachable.
    p = UtilityProfile.additive([[1, 0], [1, 0]])
    expected = None
    for c in range(p.m + 1):
        if any(
            brute_is_prop_c(p, a, c) for a in enumerate_connected_allocations(p.m, p.n)
        ):
            expected = c
            break
    assert expected == 1  # frozen from the definition-level scan above
    assert min_prop_c_connected(p) == expected


def test_min_oracles_agree_with_definition_level_scans(rng):
    profiles = [random_additive_profile(rng, n=2, m=4, max_value=3) for _ in range(15)]
    profiles += [random_additive_profile(rng, n=3, m=4, max_value=3) for _ in range(5)]
    # not subadditive: the split {1}/{2} is PROP-c for no c (min_prop_c = m + 1)
    profiles.append(UtilityProfile.general(tables=[(0, 0, 0, 10), (0, 0, 0, 10)]))
    for p in profiles:
        allocations = list(enumerate_connected_allocations(p.m, p.n))
        brute_ef, brute_prop = (
            next(
                (c for c in range(p.m + 1) if any(brute(p, a, c) for a in allocations)),
                p.m + 1,
            )
            for brute in (brute_is_ef_c, brute_is_prop_c)
        )
        assert min_ef_c_connected(p) == brute_ef
        assert min_prop_c_connected(p) == brute_prop


def test_connected_ef2_always_exists_on_random_binary_instances(rng):
    for _ in range(200):
        p = binary_profile_from_bits(2, 5, int(rng.integers(0, 1 << 10)))
        assert min_ef_c_connected(p) <= 2
        assert min_prop_c_connected(p) <= min_ef_c_connected(p)


def test_ef2_existence_exhaustive_small_binary():
    for m in (1, 2, 3, 4):
        for bits in range(1 << (2 * m)):
            assert ef2_connected_exists(binary_profile_from_bits(2, m, bits))


def test_ef2_existence_on_random_additive_instances(rng):
    for _ in range(500):
        p = random_additive_profile(rng, n=3, m=6, max_value=9)
        assert ef2_connected_exists(p)


def test_enumeration_cap_is_enforced():
    p = UtilityProfile.additive([[1, 2, 3], [1, 1, 1]])
    with pytest.raises(EnumerationCapError):
        min_ef_c_connected(p, enumeration_cap=3)


# ---------------------------------------------------------------------------
# exact mechanism distribution
# ---------------------------------------------------------------------------


def test_exact_distribution_uniform_on_all_zero():
    zero = UtilityProfile.additive([[0, 0, 0], [0, 0, 0]])
    dist = exact_em_distribution(zero, PrivacyParams(epsilon=1.0, beta=0.1))
    assert len(dist) == 6
    for probability in dist.values():
        assert abs(probability - 1 / 6) < 1e-12


def test_exact_distribution_sums_to_one_with_positive_mass(rng):
    for epsilon in (0.5, 1.0, 3.0):
        p = binary_profile_from_bits(2, 4, int(rng.integers(0, 1 << 8)))
        dist = exact_em_distribution(p, PrivacyParams(epsilon=epsilon, beta=0.1))
        assert abs(sum(dist.values()) - 1.0) < 1e-12
        assert all(probability > 0 for probability in dist.values())


def test_exact_distribution_against_monte_carlo():
    profile = binary_profile_from_bits(2, 4, 0b01111001)
    params = PrivacyParams(epsilon=2.0, beta=0.1)
    exact = exact_em_distribution(profile, params)
    stream = RandomStream(2024)
    trials = 1_000_000
    counts = Counter()
    for _ in range(trials):
        counts[dp_ef_allocate(profile, params, stream).allocation] += 1
    for allocation, probability in exact.items():
        sigma = math.sqrt(probability * (1 - probability) / trials)
        assert abs(counts[allocation] / trials - probability) <= 3 * sigma + 1e-12


# ---------------------------------------------------------------------------
# sensitivity audits
# ---------------------------------------------------------------------------


def test_score_sensitivity_small_universes():
    report = audit_score_sensitivity(3, 2, 2)
    assert report.max_delta <= 1
    assert report.pairs_examined == 6 * (1 << 6) // 2
    # m=4 at g=2 is where scores vary; the bound is attained there
    tight = audit_score_sensitivity(4, 2, 2)
    assert tight.max_delta == 1
    assert tight.witness is not None


def test_score_sensitivity_single_agent_is_constant():
    report = audit_score_sensitivity(3, 1, 2)
    assert report.max_delta == 0


def test_f_sensitivity_small_universes():
    assert audit_f_sensitivity(3, 2, 2).max_delta <= 1


def test_f_sensitivity_bound_is_attained_with_a_witness():
    from dpfair.prop_knife import f_value

    report = audit_f_sensitivity(3, 2, 2)
    assert report.pairs_examined == 6 * (1 << 6) // 2 == 192
    assert report.max_delta == 1
    p1, p2, (agent, lo, hi, h) = report.witness
    assert sum(a != b for r1, r2 in zip(p1.values, p2.values) for a, b in zip(r1, r2)) == 1
    # the audit's own group sizes at n = 2: one agent on each side
    f1 = f_value(p1, agent, lo, hi, h, 2, 1, 1)
    assert abs(f1 - f_value(p2, agent, lo, hi, h, 2, 1, 1)) == 1


def test_f_sensitivity_zero_vs_one_cell_at_right_end():
    zero = binary_profile_from_bits(2, 3, 0)
    flipped = binary_profile_from_bits(2, 3, 0b000001)
    from dpfair.prop_knife import f_value

    for g_b in (1, 2, 4):
        delta = abs(
            f_value(zero, 1, 1, 3, 3, g_b, 1, 1) - f_value(flipped, 1, 1, 3, 3, g_b, 1, 1)
        )
        assert delta <= 1


def test_sensitivity_universe_guard():
    with pytest.raises(ValueError):
        audit_score_sensitivity(5, 2, 2)


def test_binary_profiles_enumeration():
    profiles = binary_profiles(2, 2)
    assert len(profiles) == 16
    assert len(set(profiles)) == 16
    assert all(p.is_binary() for p in profiles)
