import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpfair.ef_em as ef_em
from dpfair import cli
from dpfair.core import (
    ConnectedAllocation,
    EnumerationCapError,
    PrivacyParams,
    UtilityProfile,
    is_ef_c,
    is_ef_d_wrt_truncated,
    min_ef_c,
)
from dpfair.ef_em import (
    EfSampler,
    connected_allocation_tuple,
    count_connected_allocations,
    dp_ef_allocate,
    enumerate_connected_allocations,
    score,
    scored_candidates,
    scoring_truncation_budget,
)
from dpfair.mechanisms import RandomStream
from dpfair.oracles import ef2_connected_exists, exact_em_distribution, min_ef_c_connected

from conftest import (
    brute_is_ef_d_wrt_truncated,
    brute_score,
    random_additive_profile,
    random_general_profile,
)
from test_core import binary_profile_from_bits


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts():
    assert count_connected_allocations(1, 1) == 1
    assert count_connected_allocations(2, 2) == 4
    assert count_connected_allocations(3, 2) == 6
    assert count_connected_allocations(0, 3) == 1


def test_enumeration_m2_n2_exhaustive_listing():
    spans = {a.spans for a in enumerate_connected_allocations(2, 2)}
    assert spans == {
        ((1, 2), None),
        (None, (1, 2)),
        ((1, 1), (2, 2)),
        ((2, 2), (1, 1)),
    }


@pytest.mark.parametrize("m,n", [(0, 2), (1, 1), (3, 2), (4, 2), (4, 3), (5, 3), (6, 4)])
def test_enumeration_distinct_valid_and_complete(m, n):
    seen = set()
    for allocation in enumerate_connected_allocations(m, n):
        assert allocation.n == n and allocation.m == m
        assert allocation.spans not in seen
        seen.add(allocation.spans)
    assert len(seen) == count_connected_allocations(m, n)


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------


def test_score_on_all_zero_profile():
    zero = UtilityProfile.additive([[0, 0, 0], [0, 0, 0]])
    for allocation in enumerate_connected_allocations(3, 2):
        for g in (1, 2, 5):
            assert score(zero, allocation, g) == -1


def test_score_with_g_one_is_always_minus_one(rng):
    for _ in range(10):
        p = binary_profile_from_bits(2, 3, int(rng.integers(0, 1 << 6)))
        for allocation in enumerate_connected_allocations(3, 2):
            assert score(p, allocation, 1) == -1


def test_score_single_agent_is_minus_one():
    p = UtilityProfile.additive([[4, 2, 1]])
    for allocation in enumerate_connected_allocations(3, 1):
        assert score(p, allocation, 3) == -1


def test_score_matches_definition_level_recomputation(rng):
    # 0b00001111: agent 1 values everything, agent 2 nothing; dumping all
    # items on agent 2 then scores -2 at g=2
    profiles = [binary_profile_from_bits(2, 4, 0b00001111)]
    profiles += [binary_profile_from_bits(2, 4, int(rng.integers(0, 1 << 8))) for _ in range(5)]
    profiles += [random_additive_profile(rng, n=3, m=6, max_value=4) for _ in range(2)]
    profiles += [random_general_profile(rng, n, m) for n, m in ((2, 6), (2, 7), (3, 5))]
    seen = set()
    for p in profiles:
        for allocation in enumerate_connected_allocations(p.m, p.n):
            for g in (2, 3, 6, 9):
                value = score(p, allocation, g)
                assert value == brute_score(p, allocation, g)
                no_t = not brute_is_ef_d_wrt_truncated(p, allocation, 2 * g, 0)
                seen.add((g, value, no_t))
    assert (2, -2, False) in seen  # found at the second probe
    assert (3, -3, False) in seen  # found by bisecting past the gallop
    assert (2, -2, True) in seen and (3, -3, True) in seen  # no t qualifies
    assert (9, -1, False) in seen  # found at the first probe


# Largest m per n at which brute_score over every candidate stays near 0.5 s.
_BRUTE_MAX_M = {1: 8, 2: 8, 3: 5, 4: 4}


@st.composite
def _additive_score_cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, _BRUTE_MAX_M[n]))
    palette = draw(st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True))
    values = tuple(
        (0,) * m
        if draw(st.booleans()) and draw(st.booleans())  # a zero row, one time in four
        else tuple(draw(st.sampled_from((0, *palette))) for _ in range(m))
        for _ in range(n)
    )
    scale = draw(st.integers(1, 3))
    g = draw(st.sampled_from((1, 2, 3, m + 1)))
    return UtilityProfile(n=n, m=m, scale=scale, values=values), g


@settings(max_examples=60, deadline=None)
@given(_additive_score_cases())
def test_batched_scores_match_the_brute_definition(case):
    p, g = case
    bounds, scores = scored_candidates(p, g)
    candidates = connected_allocation_tuple(p.m, p.n)
    assert all(map(np.array_equal, bounds, ef_em._span_bounds(p.m, p.n)))
    assert scores.tolist() == [brute_score(p, a, g) for a in candidates]


@pytest.mark.parametrize("cells", [1, 406])
def test_batched_scores_do_not_depend_on_the_block_size(monkeypatch, rng, cells):
    # A block holds cells // (n(2D + n + 2) + 3) candidates, at least one, for
    # D thresholds over all rows.  This profile has D = 8, so 66 cells per
    # candidate: the blocks hold 1 and 6 candidates; 6 does not divide 171.
    p = random_additive_profile(rng, n=3, m=8, max_value=4)
    g = 3
    candidates = connected_allocation_tuple(p.m, p.n)
    assert len(candidates) == 171
    assert sum(len(set(row) - {0}) for row in p.values) == 8
    bounds = ef_em._span_bounds(p.m, p.n)
    expected = ef_em._additive_scores(p, g, bounds)
    monkeypatch.setattr(ef_em, "_SCORE_BLOCK_CELLS", cells)
    got = ef_em._additive_scores(p, g, bounds)
    assert got.tolist() == expected.tolist() == [score(p, a, g) for a in candidates]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_span_bounds_follow_the_candidate_order(n):
    params = PrivacyParams(epsilon=1.0)
    for m in range(9):  # m < n and m = 0 included
        starts, ends = ef_em._span_bounds(m, n)
        spans = [a.spans for a in connected_allocation_tuple(m, n)]
        assert starts.shape == ends.shape == (n, len(spans))
        # 0-based items [start, end); an empty bundle is [0, 0)
        assert starts.T.tolist() == [[span[0] - 1 if span else 0 for span in row] for row in spans]
        assert ends.T.tolist() == [[span[1] if span else 0 for span in row] for row in spans]
        if m:  # the allocator needs an item
            sampler = EfSampler.prepare(UtilityProfile.additive([[0] * m] * n), params)
            assert [sampler.allocation(i).spans for i in range(len(spans))] == spans


def _least_qualifying_t(p, allocation, g):
    # The score's least t, searched linearly; g + 1 when no t in [1, g] qualifies.
    return next(
        (t for t in range(1, g + 1) if is_ef_d_wrt_truncated(p, allocation, 2 * t, g - t)), g + 1
    )


_ZEROS_THEN_ONES = [[0, 0] + [1] * 12, [1] * 14]
_DISTINCT_ROWS = [
    np.random.default_rng(9).choice(1000, 12, replace=False).tolist(),  # D close to m
    [0] * 12,
    np.random.default_rng(10).integers(0, 1000, 12).tolist(),
]


@pytest.mark.parametrize(
    "values,g,reached",
    [
        # Agent 1 values items 3..14 at 1 each.  Holding only worthless items,
        # it envies a bundle of q of them until t >= q - g, so some splits
        # qualify only at t = g and some at no t (least t = g + 1).  Neither
        # g is of the form 2^j - 1.
        (_ZEROS_THEN_ONES, 5, {1, 5, 6}),
        (_ZEROS_THEN_ONES, 6, {1, 6, 7}),
        # g = 2m + 3 truncates every bundle to nothing, so t = 1 qualifies.
        ([[1, 0, 2, 3, 1], [0] * 5, [2, 2, 1, 0, 4]], 13, {1}),
        (_DISTINCT_ROWS, 5, {1, 5, 6}),
        (_DISTINCT_ROWS, 6, {1, 6}),
    ],
)
def test_bisection_matches_the_definition_at_both_ends(values, g, reached):
    # reached: least t values (g + 1 meaning none qualifies) that some candidate has
    p = UtilityProfile.additive(values)
    candidates = connected_allocation_tuple(p.m, p.n)
    least = [_least_qualifying_t(p, a, g) for a in candidates]
    assert reached <= set(least)
    expected = [-min(t, g) for t in least]
    assert ef_em._additive_scores(p, g, ef_em._span_bounds(p.m, p.n)).tolist() == expected
    assert [score(p, a, g) for a in candidates] == expected


def test_batched_scores_at_the_benchmark_size_cover_every_level():
    # n = 3, m = 60, values 0..4, epsilon 8, beta 0.1: g = 16 and 10,623
    # candidates.  The sample takes the first three candidates of each level
    # plus 100 random ones.
    rows = np.random.default_rng(60).integers(0, 5, size=(3, 60))
    p = UtilityProfile.additive(rows.tolist())
    g = scoring_truncation_budget(60, 3, 8.0, 0.1)
    assert g == 16
    _, scores = scored_candidates(p, g)
    candidates = connected_allocation_tuple(p.m, p.n)
    assert len(candidates) == 10_623
    assert set(scores.tolist()) == set(range(-g, 0))
    sample = {int(k) for level in range(-g, 0) for k in np.flatnonzero(scores == level)[:3]}
    sample |= set(np.random.default_rng(0).choice(len(candidates), 100, replace=False).tolist())
    for k in sorted(sample):
        assert scores[k] == score(p, candidates[k], g)


@pytest.mark.parametrize(
    "values",
    [
        [[2**62, 1], [1, 2**62]],
        [[2**63, 0], [0, 1]],
        # Five times the first row's maximum wraps int64, so no probe may
        # credit a bundle with more than it holds.  At g = 20, agent 1
        # holding items 1..38 has least t = 17.
        [[2**61] + [0] * 38, [0] + [1] * 37 + [0]],
    ],
)
def test_scores_with_row_sums_near_and_beyond_int64(values):
    # Row sums from 2**53 up to 2**63 are scored in batch in int64 (below
    # 2**53, in float64); 2**63 does not fit, so that profile is scored
    # candidate by candidate.
    p = UtilityProfile.additive(values)
    candidates = connected_allocation_tuple(p.m, p.n)
    for g in (1, 2, 3, 20):
        _, scores = scored_candidates(p, g)
        assert scores.tolist() == [score(p, a, g) for a in candidates]


@pytest.mark.parametrize(
    "low,high,big,float_path",
    [
        # The first row sums to 2**53 - 1, the largest sum scored in float64.
        (2**50 + 1, 2**50 + 2, 2**51 - 2**49 - 1, True),
        # The first row sums past 2**53, where float64 would round high to
        # low and tie them: only the int64 path tells them apart.
        (2**53, 2**53 + 1, 2**53 + 2, False),
    ],
)
def test_scores_at_the_float64_boundary(low, high, big, float_path):
    # Agent 1 holds items 1..2 and agent 2 items 3..6.  At g = 2 the probe
    # t = 1 leaves agent 1 its item 2 (low) and agent 2's item 6 (high), so
    # agent 1 envies and the candidate scores -2 exactly when low < high.
    p = UtilityProfile.additive([[big, low, big, big, big, high], [1] * 6])
    assert (sum(p.values[0]) < 2**53) == float_path
    assert float_path or float(low) == float(high)
    _, scores = scored_candidates(p, 2)
    candidates = connected_allocation_tuple(p.m, p.n)
    assert scores.tolist() == [score(p, a, 2) for a in candidates]
    split = ConnectedAllocation(spans=((1, 2), (3, 6)))
    assert scores[candidates.index(split)] == -2


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, {1: 9, 2: 8, 3: 6, 4: 5}[n]))
    top = draw(st.sampled_from((1, 4, 50, 10**6, 2**50)))
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(("zero", "top only", "random", "random")))
        if kind == "zero":
            rows.append((0,) * m)
        elif kind == "top only":  # one threshold, weighing the profile's largest value
            at = draw(st.integers(0, m - 1))
            rows.append(tuple(top if j == at else 0 for j in range(m)))
        else:
            rows.append(tuple(draw(st.lists(st.integers(0, top), min_size=m, max_size=m))))
    g = draw(st.sampled_from((1, 2, 3, 4, 5, 8, 16, 17, 32)))
    return UtilityProfile.additive(rows), g


@settings(max_examples=200, deadline=None)
@given(_kernel_cases())
def test_batched_scores_equal_the_score_function(case):
    p, g = case
    _, scores = scored_candidates(p, g)
    assert scores.tolist() == [score(p, a, g) for a in connected_allocation_tuple(p.m, p.n)]


def test_general_profiles_score_by_the_definition(rng):
    p = random_general_profile(rng, 2, 5)
    candidates = connected_allocation_tuple(p.m, p.n)
    for g in (1, 2, 3, 6):
        _, scores = scored_candidates(p, g)
        assert scores.tolist() == [brute_score(p, a, g) for a in candidates]


def test_score_vector_is_read_only_and_compact():
    p = UtilityProfile.additive([[1, 0, 2], [0, 3, 1]])
    _, scores = scored_candidates(p, 3)
    assert scores.dtype == np.int8 and not scores.flags.writeable
    _, scores = scored_candidates(p, 200)
    assert scores.dtype == np.int16


def test_scoring_truncation_budget_example():
    assert scoring_truncation_budget(3, 2, 1.0, 0.1) == 28
    assert scoring_truncation_budget(4, 2, 2.0, 0.1) == 20


# ---------------------------------------------------------------------------
# the full allocator
# ---------------------------------------------------------------------------


def test_allocator_uniform_on_all_zero_profile():
    zero = UtilityProfile.additive([[0, 0, 0], [0, 0, 0]])
    params = PrivacyParams(epsilon=1.0, beta=0.1)
    stream = RandomStream(99)
    trials = 30_000
    # The same draws as 30,000 dp_ef_allocate calls on the stream, in one batch.
    sampler = EfSampler.prepare(zero, params)
    drawn = [sampler.allocation(i) for i in sampler.draw_many(stream, trials).tolist()]
    counts = Counter(allocation.spans for allocation in drawn)
    assert len(counts) == 6
    expected = trials / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 20.5  # 0.001 quantile, 5 dof


def test_allocator_matches_exact_distribution():
    profile = binary_profile_from_bits(2, 4, 0b10110110)
    params = PrivacyParams(epsilon=2.0, beta=0.1)
    exact = exact_em_distribution(profile, params)
    stream = RandomStream(123)
    trials = 100_000
    # The same draws as 10^5 dp_ef_allocate calls on the stream, in one batch.
    counts = EfSampler.prepare(profile, params).counts(stream, trials)
    for allocation, probability in exact.items():
        sigma = math.sqrt(probability * (1 - probability) / trials)
        assert abs(counts[allocation] / trials - probability) <= 3 * sigma + 1e-12


def test_allocator_report_fields_and_guarantee():
    profile = binary_profile_from_bits(2, 4, 0b01101001)
    params = PrivacyParams(epsilon=2.0, beta=0.1)
    report = dp_ef_allocate(profile, params, RandomStream(5))
    assert report.g == 20
    assert report.candidate_count == 8
    assert -report.g <= report.score <= -1
    assert report.score == score(profile, report.allocation, report.g)
    assert report.score > -report.g  # the score certifies its own guarantee
    assert report.ef_guarantee == report.g - report.score
    assert is_ef_c(profile, report.allocation, report.ef_guarantee)


@pytest.mark.parametrize("last_value, qualifies", [(1, False), (0, True)])
def test_guarantee_when_the_chosen_score_is_minus_g(last_value, qualifies):
    # A huge epsilon gives the least budget g = 8.  Agent 1 holds one item it
    # values at 0; agent 2 holds 2g + 1 items, 2g of which agent 1 values at
    # 1 and the last at ``last_value``.  Either way the score is -g: with
    # last_value 1 no t in [g] qualifies and EF-2g fails, so the guarantee
    # falls back to the least c; with 0, t = g qualifies and EF-2g is kept.
    params = PrivacyParams(epsilon=1e6, beta=0.5)
    g = scoring_truncation_budget(18, 2, params.epsilon, params.beta)
    assert g == 8
    profile = UtilityProfile.additive([[0] + [1] * (2 * g) + [last_value], [1] * (2 * g + 2)])
    forced = ConnectedAllocation(spans=((1, 1), (2, 2 * g + 2)))
    sampler = EfSampler.prepare(profile, params)
    report = sampler.report(connected_allocation_tuple(profile.m, profile.n).index(forced))
    assert report.allocation == forced
    assert report.score == score(profile, forced, g) == -g
    assert is_ef_d_wrt_truncated(profile, forced, 2 * g, 0) == qualifies
    assert is_ef_c(profile, forced, 2 * g) == qualifies
    assert report.ef_guarantee == min_ef_c(profile, forced) == 2 * g + (not qualifies)


def test_allocator_rejects_oversized_instances():
    profile = binary_profile_from_bits(2, 4, 0)
    with pytest.raises(EnumerationCapError):
        dp_ef_allocate(profile, PrivacyParams(epsilon=1.0), RandomStream(0), enumeration_cap=7)


def test_allocator_requires_items():
    empty = UtilityProfile.additive([[], []])
    with pytest.raises(ValueError):
        dp_ef_allocate(empty, PrivacyParams(epsilon=1.0), RandomStream(0))


@pytest.mark.parametrize("epsilon", [0.5, 2.0, 8.0, 50.0])
def test_sampler_equals_sequential_allocator_calls(rng, epsilon):
    # One uniform per draw: k draws from one stream are k dp_ef_allocate calls on it.
    params = PrivacyParams(epsilon=epsilon, beta=0.1)
    for case in range(8):
        n, m = int(rng.integers(2, 4)), int(rng.integers(1, 8))
        if case == 7:
            profile = random_general_profile(rng, n, min(m, 4))
        else:
            profile = random_additive_profile(rng, n, m, max_value=int(rng.integers(1, 7)))
        sampler = EfSampler.prepare(profile, params)
        stream = RandomStream(case)
        sequential = [dp_ef_allocate(profile, params, stream) for _ in range(150)]
        indices = sampler.draw_many(RandomStream(case), 150)
        assert [sampler.report(i) for i in indices.tolist()] == sequential
        drawn = sampler.draw_many(RandomStream(case), 150).tolist()
        assert [sampler.allocation(i) for i in drawn] == [r.allocation for r in sequential]
        # the batch leaves the stream where the single draws left it
        assert sampler.draw(stream) == sampler.draw_many(RandomStream(case), 151)[-1]


def test_sampler_counts_equal_counted_samples(rng):
    params = PrivacyParams(epsilon=2.0, beta=0.1)
    for case in range(4):
        profile = random_additive_profile(rng, n=2 + case % 2, m=4, max_value=3)
        sampler = EfSampler.prepare(profile, params)
        counted, sampled = RandomStream(case), RandomStream(case)
        drawn = sampler.draw_many(sampled, 5_000).tolist()
        assert sampler.counts(counted, 5_000) == Counter(map(sampler.allocation, drawn))
        assert counted.generator.bit_generator.state == sampled.generator.bit_generator.state


def test_allocator_deterministic_replay():
    profile = binary_profile_from_bits(2, 4, 0b1011)
    params = PrivacyParams(epsilon=1.0, beta=0.2)
    a = dp_ef_allocate(profile, params, RandomStream(77))
    b = dp_ef_allocate(profile, params, RandomStream(77))
    assert a == b


def test_seeded_output_is_pinned():
    # Recorded before candidates were scored in one batched pass; any change
    # to a score, to the candidate order or to the draw moves some span.
    params = PrivacyParams(epsilon=8.0, beta=0.1)
    expected = {
        1: ((42, 60), (1, 20), (21, 41)),
        2: ((25, 43), (1, 24), (44, 60)),
        3: ((1, 19), (20, 38), (39, 60)),
    }
    for seed, spans in expected.items():
        rows = np.random.default_rng(seed).integers(0, 5, size=(3, 60))
        report = dp_ef_allocate(UtilityProfile.additive(rows.tolist()), params, RandomStream(seed))
        assert report.allocation.spans == spans
        assert (report.score, report.g, report.candidate_count) == (-1, 16, 10_623)


def test_exact_distribution_is_pinned():
    # Recorded before candidates were scored in one batched pass: g = 2 gives
    # two score levels, and every probability must match to the last bit.
    p = UtilityProfile.additive([[2, 1, 3, 1], [1, 1, 2, 0]])
    distribution = exact_em_distribution(p, PrivacyParams(epsilon=2.0, beta=0.1), g=2)
    low = ConnectedAllocation(spans=(None, (1, 4)))
    assert len(distribution) == 8
    for allocation, probability in distribution.items():
        pinned = "0x1.990725950fc88p-5" if allocation == low else "0x1.15f69a161add6p-3"
        assert probability.hex() == pinned


def test_score_cache_holds_one_vector_per_profile_and_g(tmp_path):
    cache = ef_em._score_cached
    assert cache.cache_info().maxsize <= 16
    p = UtilityProfile.additive([[3, 1, 4, 1, 5], [9, 2, 6, 5, 3]])
    params = PrivacyParams(epsilon=3.0, beta=0.1)
    before = cache.cache_info()
    first = dp_ef_allocate(p, params, RandomStream(1))
    second = dp_ef_allocate(p, params, RandomStream(2))
    after = cache.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    assert type(first.score) is int and type(second.score) is int
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": 2, "m": 5, "scale": 1, "values": [list(r) for r in p.values]}))
    out = tmp_path / "report.json"
    argv = ["allocate-ef", "--instance", str(path), "--epsilon", "3", "--seed", "1", "--out", str(out)]
    assert cli.run(argv) == cli.EXIT_OK
    metadata = json.loads(out.read_text())["metadata"]
    assert type(metadata["score"]) is int and metadata["score"] == first.score


def test_prepare_memory_is_bounded_by_the_span_bounds_and_weights():
    # n = 3, m = 200, epsilon 4: 119,403 candidates.  The span bounds, scores
    # and cumulative weights take 15 bytes per candidate (1.8 MB); the score
    # descent adds a few transient K-long arrays.  Candidate objects would add
    # about 345 bytes each (41 MB).
    rows = np.random.default_rng(200).integers(0, 5, size=(3, 200))
    profile = UtilityProfile.additive(rows.tolist())
    misses = ef_em._score_cached.cache_info().misses
    tracemalloc.start()
    try:
        sampler = EfSampler.prepare(profile, PrivacyParams(epsilon=4.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ef_em._score_cached.cache_info().misses == misses + 1  # scored here, not cached
    assert len(sampler.scores) == 119_403
    assert peak < 8 * 2**20


def test_score_cache_holds_only_the_last_profile():
    # Eight distinct profiles of one shape leave one entry's span bounds and
    # scores behind, not one copy per profile.
    rows = np.random.default_rng(8).integers(0, 5, size=(8, 3, 150))
    params = PrivacyParams(epsilon=4.0)
    tracemalloc.start()
    try:
        for block in rows:
            report = dp_ef_allocate(UtilityProfile.additive(block.tolist()), params, RandomStream(0))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    bounds, scores = scored_candidates(UtilityProfile.additive(rows[-1].tolist()), report.g)
    entry = sum(array.nbytes for array in (*bounds, scores))
    assert entry > 2**18
    assert held < 2 * entry


def test_allocator_and_oracles_build_no_candidate_tuple(rng):
    # Every caller outside the exhaustive sensitivity audit iterates the
    # candidates lazily or reads them from the span bounds.
    params = PrivacyParams(epsilon=2.0, beta=0.1)
    additive = random_additive_profile(rng, n=3, m=11, max_value=3)
    general = random_general_profile(rng, 2, 9)
    before = connected_allocation_tuple.cache_info()
    for p in (additive, general):
        dp_ef_allocate(p, params, RandomStream(0))
        exact_em_distribution(p, params, g=2)
        min_ef_c_connected(p)
        ef2_connected_exists(p)
    assert connected_allocation_tuple.cache_info() == before
