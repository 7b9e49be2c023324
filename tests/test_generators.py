import math

import numpy as np
import pytest

from dpfair.core import Adjacency, ConnectedAllocation, adjacency_distance, bundle_utility
from dpfair.ef_em import score
from dpfair.generators import (
    AgentLevelWitness,
    all_zero_profile,
    bernoulli_profile,
    default_ef_packing_c,
    ef_packing_family,
    prop_packing_family,
    search_agent_level_witness,
    small_bundle_profile_experiment,
    verify_packing_distances,
)
from dpfair.mechanisms import RandomStream
from dpfair.oracles import min_ef_c_connected


# ---------------------------------------------------------------------------
# random profiles
# ---------------------------------------------------------------------------


def test_bernoulli_profile_mean_near_half():
    profile = bernoulli_profile(100, 10_000, RandomStream(8))
    mean = sum(sum(row) for row in profile.values) / 1_000_000
    assert abs(mean - 0.5) < 0.002


def test_bernoulli_profile_deterministic_under_seed():
    a = bernoulli_profile(3, 7, RandomStream(55))
    b = bernoulli_profile(3, 7, RandomStream(55))
    assert a == b
    assert a != bernoulli_profile(3, 7, RandomStream(56))


def test_bernoulli_rows_equal_one_draw_and_leave_the_same_state():
    for n, m in ((1, 1), (3, 7), (4, 1001), (2, 64)):
        stream, reference = RandomStream(11, (1,)), RandomStream(11, (1,))
        profile = bernoulli_profile(n, m, stream)
        generator = reference.generator
        assert profile.values.tolist() == generator.integers(0, 2, size=(n, m)).tolist()
        assert stream.generator.bit_generator.state == generator.bit_generator.state
        assert [stream.uniform() for _ in range(5)] == [reference.uniform() for _ in range(5)]


def test_bernoulli_profile_cells_uncorrelated_across_seeds():
    trials = 10_000
    xs = np.empty(trials)
    ys = np.empty(trials)
    for seed in range(trials):
        profile = bernoulli_profile(2, 2, RandomStream(seed))
        xs[seed] = profile.values[0][0]
        ys[seed] = profile.values[1][1]
    covariance = float(np.mean(xs * ys) - xs.mean() * ys.mean())
    sigma = 1 / (4 * math.sqrt(trials))
    assert abs(covariance) <= 3 * sigma


def test_all_zero_profile_properties():
    zero = all_zero_profile(2, 3)
    assert bundle_utility(zero, 1, [1, 2, 3]) == 0
    assert min_ef_c_connected(zero) == 0
    allocation = ConnectedAllocation(spans=((1, 2), (3, 3)))
    assert score(zero, allocation, 4) == -1


def test_all_zero_profile_names_a_bad_shape():
    assert all_zero_profile(2, 0).m == 0  # an empty item line is a shape
    with pytest.raises(ValueError, match=r"n >= 1 and m >= 0, got n=2 and m=-1"):
        all_zero_profile(2, -1)
    with pytest.raises(ValueError, match=r"got n=0 and m=2"):
        all_zero_profile(0, 2)


# ---------------------------------------------------------------------------
# packing families
# ---------------------------------------------------------------------------


def test_ef_packing_block_structure():
    family = ef_packing_family(n=3, m=20, c=1, T=2)
    u1 = family.variants[0]
    assert [j for j in range(1, 21) if u1.values[0][j - 1]] == [1, 2, 3]
    assert u1.values[0].tolist() == u1.values[1].tolist()
    u2 = family.variants[1]
    assert [j for j in range(1, 21) if u2.values[0][j - 1]] == [4, 5, 6]
    # agents >= 3 value the fixed suffix in every family member
    suffix = [j for j in range(1, 21) if family.base.values[2][j - 1]]
    assert suffix == [18, 19, 20]
    assert all(v.values[2].tolist() == family.base.values[2].tolist() for v in family.variants)


def test_ef_packing_distances():
    family = ef_packing_family(n=3, m=20, c=1, T=2)
    assert family.expected_distance == 6
    assert verify_packing_distances(family)
    for variant in family.variants:
        assert adjacency_distance(family.base, variant, Adjacency.AGENT_ITEM_LEVEL) == 6


def test_ef_packing_default_T():
    family = ef_packing_family(n=3, m=20, c=1)
    assert family.T == 2  # floor(20 / (4c+4))
    supports = [
        frozenset(j for j in range(1, 21) if v.values[0][j - 1])
        for v in family.variants
    ]
    assert supports[0].isdisjoint(supports[1])


def test_ef_packing_parameter_validation():
    with pytest.raises(ValueError):
        ef_packing_family(n=2, m=20, c=1, T=2)
    with pytest.raises(ValueError):
        ef_packing_family(n=3, m=20, c=0, T=1)
    with pytest.raises(ValueError):
        ef_packing_family(n=3, m=6, c=1, T=3)  # blocks exceed the line
    with pytest.raises(ValueError):
        ef_packing_family(n=3, m=20, T=2)  # default c needs epsilon


def test_ef_packing_suffix_underflow():
    # blocks fit (3 * 1 <= 5), but agents 3..10 need (c+1)(n-2) = 16 suffix items
    with pytest.raises(ValueError, match="underflow"):
        ef_packing_family(n=10, m=5, c=1, T=1)


def test_prop_packing_parameter_validation():
    with pytest.raises(ValueError, match="n >= 3"):
        prop_packing_family(n=2, m=24, c=1, T=2)
    with pytest.raises(ValueError, match="c >= 1"):
        prop_packing_family(n=3, m=24, c=0, T=1)
    with pytest.raises(ValueError, match="T >= 1"):
        prop_packing_family(n=3, m=24, c=1, T=0)
    with pytest.raises(ValueError, match="exceed"):
        prop_packing_family(n=3, m=6, c=1, T=2)  # (nc+1) * T = 8 > 6
    with pytest.raises(ValueError, match="epsilon"):
        prop_packing_family(n=3, m=24, T=2)  # default c needs epsilon


@pytest.mark.parametrize("maker", [ef_packing_family, prop_packing_family])
@pytest.mark.parametrize("c", [1, 2, 3])
def test_packing_expected_distance_is_twice_the_block_width(maker, c):
    family = maker(n=3, m=40, c=c)
    assert family.expected_distance == 2 * family.block_width
    assert verify_packing_distances(family)


def test_ef_packing_asymptotic_default_c_is_zero_at_desk_scale():
    # the asymptotic default only becomes nontrivial around m of 10^4
    assert default_ef_packing_c(m=1000, epsilon=1.0, n=3) == 0
    assert default_ef_packing_c(m=20000, epsilon=0.001, n=3) >= 1


def test_prop_packing_structure_and_distances():
    family = prop_packing_family(n=3, m=24, c=1, T=3)
    assert family.T == 3 and family.block_width == 4
    assert family.expected_distance == 8
    assert verify_packing_distances(family)
    for variant in family.variants:
        for agent in range(1, 4):
            valued = sum(variant.values[agent - 1])
            assert valued == 3 * 1 + 1  # every agent values exactly nc+1 items


def test_prop_packing_default_T():
    family = prop_packing_family(n=3, m=24, c=1)
    assert family.T == 3  # floor(24 / (2nc+2))


def test_packing_blocks_sit_left_of_the_suffix():
    for family in (ef_packing_family(3, 20, 1, 2), prop_packing_family(3, 24, 1, 3)):
        last_block_end = family.block_width * family.T
        suffix_start = next(
            j for j in range(1, family.m + 1) if family.base.values[2][j - 1]
        )
        assert last_block_end <= family.m / 2 < suffix_start


def test_packing_profiles_are_binary_and_valid():
    family = ef_packing_family(3, 20, 1, 2)
    assert family.base.is_binary()
    assert all(v.is_binary() for v in family.variants)


# ---------------------------------------------------------------------------
# probabilistic experiments
# ---------------------------------------------------------------------------


def test_small_bundle_prop_violation_rate_small_scale():
    # modest scale version of the 1/8 lower bound: m=4000, |A_1|=1000
    rate = small_bundle_profile_experiment(
        n=4, m=4000, bundle_size=1000, c=1, trials=4000, stream=RandomStream(17)
    )
    sigma = math.sqrt(0.125 * 0.875 / 4000)
    assert rate >= 0.125 - 3 * sigma


def test_small_bundle_with_c_equal_m_never_violates():
    rate = small_bundle_profile_experiment(
        n=4, m=400, bundle_size=100, c=400, trials=500, stream=RandomStream(18)
    )
    assert rate == 0.0


def test_small_bundle_ef_variant_rate():
    # equal bundles, c = 0 (the asymptotic c formula floors to 0 here)
    rate = small_bundle_profile_experiment(
        n=4,
        m=4000,
        bundle_size=1000,
        c=0,
        trials=10_000,
        stream=RandomStream(19),
        variant="ef",
    )
    sigma = math.sqrt(0.01 * 0.99 / 10_000)
    assert rate >= 0.01 - 3 * sigma


def test_small_bundle_experiment_determinism_and_validation():
    kwargs = dict(n=3, m=300, bundle_size=100, c=1, trials=300)
    a = small_bundle_profile_experiment(stream=RandomStream(4), **kwargs)
    b = small_bundle_profile_experiment(stream=RandomStream(4), **kwargs)
    assert a == b
    with pytest.raises(ValueError):
        small_bundle_profile_experiment(
            n=3, m=10, bundle_size=5, c=1, trials=10, stream=RandomStream(0), variant="ef"
        )
    with pytest.raises(ValueError):
        small_bundle_profile_experiment(
            n=3, m=10, bundle_size=5, c=1, trials=10, stream=RandomStream(0), variant="nope"
        )


def test_search_agent_level_witness_against_a_constant_mechanism():
    # a mechanism that ignores its input and dumps everything on agent 1
    fixed = ConnectedAllocation(spans=((1, 6), None))

    def constant_mechanism(profile, stream, k):
        return [fixed] * k

    witness = search_agent_level_witness(
        constant_mechanism,
        n=2,
        m=6,
        criterion="prop",
        c=0,
        runs=20,
        candidate_rows=40,
        stream=RandomStream(77),
    )
    assert isinstance(witness, AgentLevelWitness)
    assert witness.base == all_zero_profile(2, 6)
    assert adjacency_distance(witness.base, witness.witness, Adjacency.AGENT_LEVEL) <= 1
    # agent 2 gets nothing, so any row valuing something breaks PROP0 for her
    assert witness.agent == 2
    assert witness.violation_rate == 1.0
    with pytest.raises(ValueError):
        search_agent_level_witness(
            constant_mechanism, n=2, m=6, criterion="prop", c=0, runs=0,
            candidate_rows=1, stream=RandomStream(77),
        )
