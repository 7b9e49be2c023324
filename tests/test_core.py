import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpfair import cli
from dpfair.core import (
    Adjacency,
    ConnectedAllocation,
    PrivacyParams,
    UtilityProfile,
    adjacency_distance,
    bundle_utility,
    is_ef_c,
    is_ef_d_wrt_truncated,
    is_prop_c,
    least_true,
    min_ef_c,
    min_prop_c,
    scaled_bundle,
    scaled_truncated,
    threshold_counts,
    top_k_utility,
    truncated_utility,
)
from dpfair.ef_em import enumerate_connected_allocations

from conftest import (
    brute_bundle,
    brute_is_ef_c,
    brute_is_ef_d_wrt_truncated,
    brute_is_prop_c,
    brute_top_k,
    brute_truncated,
    random_additive_profile,
    random_general_profile,
)


def binary_profile_from_bits(n, m, bits):
    values = tuple(
        tuple((bits >> (i * m + j)) & 1 for j in range(m)) for i in range(n)
    )
    return UtilityProfile(n=n, m=m, scale=1, values=values)


# ---------------------------------------------------------------------------
# profile construction and validation
# ---------------------------------------------------------------------------


def test_profile_shape_validation():
    with pytest.raises(ValueError):
        UtilityProfile(n=2, m=2, scale=1, values=((1, 2),))
    with pytest.raises(ValueError):
        UtilityProfile(n=1, m=2, scale=1, values=((1, -2),))
    with pytest.raises(ValueError):
        UtilityProfile(n=1, m=2, scale=0, values=((1, 2),))


def test_general_profile_validation():
    # not monotone: {1} worth more than {1,2}
    with pytest.raises(ValueError):
        UtilityProfile.general(tables=[(0, 5, 1, 4)])
    # empty set must be worth 0
    with pytest.raises(ValueError):
        UtilityProfile.general(tables=[(1, 1, 1, 1)])
    good = UtilityProfile.general(tables=[(0, 2, 3, 4)])
    assert good.kind == "general" and good.m == 2 and good.values.tolist() == [[2, 3]]
    with pytest.raises(ValueError):
        UtilityProfile(n=1, m=17, scale=1, values=((0,) * 17,), kind="general",
                       tables=((0,) * (1 << 17),))


def test_non_integer_values_raise_type_error():
    # int() would truncate 0.7 to 0 and parse "2"; construction refuses both.
    with pytest.raises(TypeError):
        UtilityProfile.additive([[0.7, 1]])
    with pytest.raises(TypeError):
        UtilityProfile.additive([["2", 1]])
    with pytest.raises(TypeError):
        UtilityProfile.general([(0, 1.5, 2, 3)])
    with pytest.raises(TypeError):
        UtilityProfile(n=1, m=2, scale=1, values=((0.5, 1),))


def test_every_integer_container_gives_one_profile():
    rows = [[3, 0, 2], [1, 4, 0]]
    profiles = [
        UtilityProfile.additive(np.array(rows, dtype=np.int64)),
        UtilityProfile.additive([np.array(row, dtype=np.int64) for row in rows]),
        UtilityProfile(n=2, m=3, scale=1, values=rows),
        UtilityProfile.additive(tuple(map(tuple, rows))),
        UtilityProfile.additive(np.array(rows, dtype=np.int32)),
        UtilityProfile.additive(np.array(rows, dtype=np.uint64)),
        UtilityProfile.additive(np.array(rows, dtype=object)),
    ]
    assert all(p == profiles[0] and hash(p) == hash(profiles[0]) for p in profiles)
    for p in profiles:
        # One (n, m) int64 array per profile, never the caller's.
        assert type(p.values) is np.ndarray and p.values.dtype == np.int64
        assert p.values.shape == (2, 3) and p.values.tolist() == rows
    assert len({id(p.values) for p in profiles}) == len(profiles)
    general = UtilityProfile.general(np.array([[0, 2, 3, 4]], dtype=np.int64))
    assert general == UtilityProfile.general([(0, 2, 3, 4)])
    assert all(type(v) is int for v in general.tables[0])
    assert general.values.dtype == np.int64 and general.values.tolist() == [[2, 3]]
    flags = UtilityProfile.additive([[True, False]])
    assert flags == UtilityProfile.additive(np.array([[True, False]]))
    assert flags.values.dtype == np.int64 and flags.values.tolist() == [[1, 0]]
    ints = UtilityProfile.additive([[1, 0]])
    assert flags == ints and hash(flags) == hash(ints)


def test_values_are_read_only():
    p = UtilityProfile.additive([[1, 2], [3, 4]])
    assert not p.values.flags.writeable
    with pytest.raises(ValueError):
        p.values[0, 0] = 7
    with pytest.raises(ValueError):
        p.values[1] += 1
    assert p.values.tolist() == [[1, 2], [3, 4]]


def test_writing_the_source_after_construction_leaves_the_profile_unchanged():
    for dtype in (np.int64, np.int32, np.uint64, bool):
        source = np.ones((2, 3), dtype=dtype)
        p = UtilityProfile(n=2, m=3, scale=1, values=source)
        before = hash(p)
        source[0, 0] = 0
        source[1] = 0
        assert p.values.tolist() == [[1, 1, 1], [1, 1, 1]]
        assert hash(p) == before and p == UtilityProfile.additive([[1] * 3] * 2)
    rows = [[5, 6]]
    p = UtilityProfile.additive(rows)
    rows[0][0] = 9
    assert p.values.tolist() == [[5, 6]]


def test_an_ndarray_or_memoryview_source_is_never_aliased():
    # Whether the array is used as given, viewed, or stacked from its rows.
    for dtype in (np.int64, np.int32):
        for make in (
            lambda a: UtilityProfile.additive(a),
            lambda a: UtilityProfile(n=2, m=3, scale=1, values=a),
            lambda a: UtilityProfile(n=2, m=3, scale=1, values=a[:, ::-1][:, ::-1]),
            lambda a: UtilityProfile.additive(list(a)),
            lambda a: UtilityProfile.additive([memoryview(row) for row in a]),
        ):
            source = np.arange(6, dtype=dtype).reshape(2, 3)
            p = make(source)
            source[0, 0] = 7
            source[1] += 1
            assert p.values.tolist() == [[0, 1, 2], [3, 4, 5]]


def test_an_ndarray_source_is_copied_once():
    source = np.arange(64 * 10**5, dtype=np.int64).reshape(64, 10**5)
    for make in (UtilityProfile.additive, lambda a: UtilityProfile.additive(list(a))):
        tracemalloc.start()
        try:
            p = make(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(p.values, source)
        del p
        assert peak <= 1.1 * source.nbytes


def test_profiles_differ_in_any_cell_or_field():
    base = UtilityProfile.additive([[1, 2], [3, 4]])
    assert base != UtilityProfile.additive([[1, 2], [3, 5]])
    assert base != UtilityProfile.additive([[1, 2], [3, 4]], scale=2)
    assert base != UtilityProfile.additive([[1, 2, 0], [3, 4, 0]])
    assert base != "not a profile"
    same = UtilityProfile.additive(np.array([[1, 2], [3, 4]]))
    assert len({base, same, UtilityProfile.additive([[1, 2], [3, 5]])}) == 2


def test_values_past_int64_are_stored_as_python_ints():
    for big in (2**63, 2**63 + 1, 2**64, 2**70):
        rows = [[big, 0], [1, 2]]
        p = UtilityProfile.additive(rows)
        assert p.values.dtype == object
        assert all(type(v) is int for v in p.values.flat) and p.values.tolist() == rows
        assert p.max_value == big
        doc = cli.profile_to_dict(p)
        assert doc["values"] == rows
        again = cli.profile_from_dict(json.loads(json.dumps(doc)))
        assert again == p and hash(again) == hash(p) and again.values.dtype == object
    # numpy reads [[2**63]] as uint64 and [[2**63, 0], [0, 1]] as float64.
    unsigned = UtilityProfile.additive(np.array([[2**63]], dtype=np.uint64))
    assert unsigned == UtilityProfile.additive([[2**63]])
    assert UtilityProfile.additive([[2**63 - 1]]).values.dtype == np.int64


def test_ragged_rows_keep_the_shape_message():
    for values in ([[1, 2], [3]], [[1], [2, 3]], [(1, 2), ()]):
        with pytest.raises(ValueError, match="values matrix must be exactly n x m"):
            UtilityProfile(n=2, m=2, scale=1, values=values)
    with pytest.raises(ValueError, match="values matrix must be exactly n x m"):
        UtilityProfile(n=3, m=2, scale=1, values=np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(TypeError):
        UtilityProfile(n=1, m=2, scale=1, values=[[[1], [2]]])


def test_int64_rows_near_2_62_sum_exactly():
    # An int64 sum of these wraps (numpy warns, and warnings are errors).
    row = np.full((1, 3), 2**62 + 1, dtype=np.int64)
    p = UtilityProfile(n=1, m=3, scale=1, values=row)
    assert scaled_bundle(p, 1, (1, 2, 3)) == 3 * 2**62 + 3


def test_binary_predicate():
    assert UtilityProfile.additive([[0, 1], [1, 1]]).is_binary()
    assert not UtilityProfile.additive([[0, 2]]).is_binary()
    assert UtilityProfile.additive([[0, 3]], scale=3).is_binary()


def test_connected_allocation_validation():
    ConnectedAllocation(spans=((1, 2), (3, 3)))
    ConnectedAllocation(spans=(None, (1, 3)))
    with pytest.raises(ValueError):
        ConnectedAllocation(spans=((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        ConnectedAllocation(spans=((1, 1), (3, 3)))  # gap
    with pytest.raises(ValueError):
        ConnectedAllocation(spans=((2, 1),))  # inverted span


def test_privacy_params_have_no_adjacency_knob():
    # both allocators are private under agent-by-item adjacency only
    with pytest.raises(TypeError):
        PrivacyParams(epsilon=1.0, adjacency=Adjacency.AGENT_LEVEL)


# ---------------------------------------------------------------------------
# bundle / truncated / top-k utilities
# ---------------------------------------------------------------------------


def test_bundle_utility_examples():
    p = UtilityProfile.additive([[3, 1, 2]])
    assert bundle_utility(p, 1, [1, 2, 3]) == 6
    assert bundle_utility(p, 1, []) == 0
    g = UtilityProfile.general(tables=[(0, 1, 1, 2)])
    assert bundle_utility(g, 1, []) == 0


def test_bundle_utility_matches_per_item_summation(rng):
    for _ in range(25):
        bits = int(rng.integers(0, 1 << 8))
        p = binary_profile_from_bits(2, 4, bits)
        for agent in (1, 2):
            for size in range(5):
                items = tuple(int(v) for v in rng.choice(4, size=size, replace=False) + 1)
                assert bundle_utility(p, agent, items) == brute_bundle(p, agent, items)


def test_bundle_utility_index_errors():
    p = UtilityProfile.additive([[1, 2]])
    with pytest.raises(IndexError):
        bundle_utility(p, 2, [1])
    with pytest.raises(IndexError):
        bundle_utility(p, 1, [3])
    # The first item out of range is named, whichever end it is past.
    with pytest.raises(IndexError, match=r"^item 0 out of range \[1, 2\]$"):
        bundle_utility(p, 1, [2, 0, 5])
    with pytest.raises(IndexError, match=r"^item 5 out of range \[1, 2\]$"):
        bundle_utility(p, 1, [1, 5, 0])


def test_truncated_utility_examples():
    p = UtilityProfile.additive([[3, 1, 2]])
    assert truncated_utility(p, 1, [1, 2, 3], 1) == 3
    assert truncated_utility(p, 1, [1, 2, 3], 3) == 0
    assert truncated_utility(p, 1, [1, 2], 5) == 0


def test_truncated_utility_general_matches_brute_force(rng):
    for _ in range(8):
        p = random_general_profile(rng, n=1, m=4)
        items = tuple(int(v) for v in rng.choice(4, size=3, replace=False) + 1)
        for k in range(5):
            assert truncated_utility(p, 1, items, k) == brute_truncated(p, 1, items, k)


def test_top_k_utility_examples():
    p = UtilityProfile.additive([[3, 1, 2]])
    assert top_k_utility(p, 1, [1, 2, 3], 2) == 5
    assert top_k_utility(p, 1, [1, 2, 3], 0) == 0


def test_top_k_utility_general_matches_brute_force(rng):
    for _ in range(8):
        p = random_general_profile(rng, n=1, m=4)
        items = tuple(int(v) for v in rng.choice(4, size=3, replace=False) + 1)
        for k in range(4):
            assert top_k_utility(p, 1, items, k) == brute_top_k(p, 1, items, k)


def test_fractional_scale_is_exact():
    p = UtilityProfile.additive([[1, 1, 1]], scale=3)
    assert bundle_utility(p, 1, [1, 2, 3]) == 1
    assert truncated_utility(p, 1, [1, 2, 3], 1) == Fraction(2, 3)


# ---------------------------------------------------------------------------
# fairness checkers
# ---------------------------------------------------------------------------


def test_is_ef_c_examples():
    same = UtilityProfile.additive([[1, 1], [1, 1]])
    split = ConnectedAllocation(spans=((1, 1), (2, 2)))
    assert is_ef_c(same, split, 0)

    skew = UtilityProfile.additive([[0, 1], [0, 1]])
    assert not is_ef_c(skew, split, 0)
    assert is_ef_c(skew, split, 1)


def test_is_ef_c_matches_brute_force_on_binary_instances(rng):
    allocations = list(enumerate_connected_allocations(4, 2))
    for _ in range(12):
        p = binary_profile_from_bits(2, 4, int(rng.integers(0, 1 << 8)))
        for allocation in allocations:
            for c in range(4):
                assert is_ef_c(p, allocation, c) == brute_is_ef_c(p, allocation, c)


def test_is_prop_c_examples():
    p = UtilityProfile.additive([[1, 1], [1, 1]])
    assert is_prop_c(p, ConnectedAllocation(spans=((1, 1), (2, 2))), 0)
    dump = ConnectedAllocation(spans=(None, (1, 2)))
    assert not is_prop_c(p, dump, 0)
    assert is_prop_c(p, dump, 1)


def test_is_prop_c_matches_brute_force(rng):
    allocations = list(enumerate_connected_allocations(5, 3))
    for _ in range(10):
        p = random_additive_profile(rng, n=3, m=5)
        for allocation in rng.choice(len(allocations), size=8, replace=False):
            allocation = allocations[int(allocation)]
            for c in range(3):
                assert is_prop_c(p, allocation, c) == brute_is_prop_c(p, allocation, c)


def test_ef_d_wrt_truncated_examples(rng):
    zero = UtilityProfile.additive([[0, 0, 0], [0, 0, 0]])
    for allocation in enumerate_connected_allocations(3, 2):
        assert is_ef_d_wrt_truncated(zero, allocation, 0, 0)
        assert is_ef_d_wrt_truncated(zero, allocation, 2, 1)

    # k = 0 reduces exactly to plain EF-d
    for _ in range(10):
        p = binary_profile_from_bits(2, 3, int(rng.integers(0, 1 << 6)))
        for allocation in enumerate_connected_allocations(3, 2):
            for d in range(3):
                assert is_ef_d_wrt_truncated(p, allocation, d, 0) == is_ef_c(
                    p, allocation, d
                )


def test_ef_d_wrt_truncated_matches_brute_force(rng):
    allocations = list(enumerate_connected_allocations(4, 2))
    for _ in range(6):
        p = binary_profile_from_bits(2, 4, int(rng.integers(0, 1 << 8)))
        for allocation in allocations:
            assert is_ef_d_wrt_truncated(p, allocation, 0, 1) == brute_is_ef_d_wrt_truncated(
                p, allocation, 0, 1
            )


def test_empty_instance_is_trivially_fair():
    p = UtilityProfile.additive([[], []])
    empty = ConnectedAllocation(spans=(None, None))
    assert is_ef_c(p, empty, 0)
    assert is_prop_c(p, empty, 0)


def test_single_agent_is_vacuously_fair():
    p = UtilityProfile.additive([[5, 1]])
    whole = ConnectedAllocation(spans=((1, 2),))
    assert is_ef_c(p, whole, 0)
    assert is_prop_c(p, whole, 0)


def _assert_min_c_matches_brute_scan(p, allocations):
    for allocation in allocations:
        for fast, brute in ((min_ef_c, brute_is_ef_c), (min_prop_c, brute_is_prop_c)):
            least = next((c for c in range(p.m + 1) if brute(p, allocation, c)), p.m + 1)
            assert fast(p, allocation) == least


def test_min_c_matches_brute_scan_on_all_small_binary_profiles():
    shapes = [(n, m) for n in range(1, 7) for m in range(1, 7) if n * m <= 6]
    for n, m in shapes:
        allocations = list(enumerate_connected_allocations(m, n))
        for bits in range(1 << (n * m)):
            _assert_min_c_matches_brute_scan(binary_profile_from_bits(n, m, bits), allocations)


def test_min_c_matches_brute_scan_on_general_profiles(rng):
    for n, m in ((2, 2), (2, 3), (3, 3)):
        allocations = list(enumerate_connected_allocations(m, n))
        for _ in range(6):
            _assert_min_c_matches_brute_scan(random_general_profile(rng, n, m), allocations)


def test_least_true_matches_brute_scan():
    for lo in (0, 1, 2):
        for hi in range(lo - 1, lo + 13):  # hi = lo - 1 is the empty range
            # below lo: true everywhere; above hi: true nowhere in range
            for threshold in range(lo - 1, hi + 3):
                probes = []

                def check(x):
                    assert lo <= x <= hi
                    probes.append(x)
                    return x >= threshold

                brute = next((x for x in range(lo, hi + 1) if x >= threshold), hi + 1)
                assert least_true(check, lo, hi) == brute
                assert len(probes) == len(set(probes))
                assert len(probes) <= 2 * (hi - lo + 2).bit_length()
                if brute == lo <= hi:
                    assert len(probes) == 1  # keeps all-(-1) scoring at one check each


def test_min_prop_c_without_subadditivity_exceeds_m():
    # each agent values only the pair: neither single item makes up a share
    p = UtilityProfile.general(tables=[(0, 0, 0, 10), (0, 0, 0, 10)])
    split = ConnectedAllocation(spans=((1, 1), (2, 2)))
    assert min_prop_c(p, split) == 3
    assert not any(is_prop_c(p, split, c) for c in range(10))
    assert min_ef_c(p, split) == 0


# ---------------------------------------------------------------------------
# adjacency distance
# ---------------------------------------------------------------------------


def test_adjacency_distance_examples():
    p1 = UtilityProfile.additive([[1, 0], [0, 1]])
    assert adjacency_distance(p1, p1, Adjacency.AGENT_ITEM_LEVEL) == 0
    assert adjacency_distance(p1, p1, Adjacency.AGENT_LEVEL) == 0
    p2 = UtilityProfile.additive([[1, 1], [0, 1]])
    assert adjacency_distance(p1, p2, Adjacency.AGENT_ITEM_LEVEL) == 1
    assert adjacency_distance(p1, p2, Adjacency.AGENT_LEVEL) == 1
    p3 = UtilityProfile.additive([[0, 1], [1, 0]])
    assert adjacency_distance(p1, p3, Adjacency.AGENT_ITEM_LEVEL) == 4
    assert adjacency_distance(p1, p3, Adjacency.AGENT_LEVEL) == 2


def test_adjacency_distance_shape_mismatch():
    p1 = UtilityProfile.additive([[1, 0]])
    p2 = UtilityProfile.additive([[1, 0, 0]])
    with pytest.raises(ValueError):
        adjacency_distance(p1, p2, Adjacency.AGENT_ITEM_LEVEL)


# ---------------------------------------------------------------------------
# invariants and properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=(1 << 8) - 1),
    k=st.integers(min_value=0, max_value=5),
)
def test_truncation_monotone_in_k(bits, k):
    p = binary_profile_from_bits(2, 4, bits)
    items = (1, 2, 3, 4)
    assert truncated_utility(p, 1, items, 0) == bundle_utility(p, 1, items)
    assert truncated_utility(p, 1, items, k + 1) <= truncated_utility(p, 1, items, k)
    assert truncated_utility(p, 1, items, k) <= bundle_utility(p, 1, items)


@settings(max_examples=40, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=(1 << 6) - 1),
    d=st.integers(min_value=0, max_value=3),
    k=st.integers(min_value=0, max_value=3),
    index=st.integers(min_value=0, max_value=5),
)
def test_ef_under_truncation_implies_plain_ef(bits, d, k, index):
    p = binary_profile_from_bits(2, 3, bits)
    allocation = list(enumerate_connected_allocations(3, 2))[index]
    if is_ef_d_wrt_truncated(p, allocation, d, k):
        assert is_ef_c(p, allocation, d + k)


def test_ef_implies_prop_for_additive_exhaustive():
    # every binary profile at n=2, m=3 and every connected allocation
    allocations = list(enumerate_connected_allocations(3, 2))
    for bits in range(1 << 6):
        p = binary_profile_from_bits(2, 3, bits)
        for allocation in allocations:
            for c in range(4):
                if is_ef_c(p, allocation, c):
                    assert is_prop_c(p, allocation, c)


@settings(max_examples=40, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=(1 << 8) - 1),
    c=st.integers(min_value=0, max_value=3),
    index=st.integers(min_value=0, max_value=7),
)
def test_checkers_monotone_in_c(bits, c, index):
    p = binary_profile_from_bits(2, 4, bits)
    allocation = list(enumerate_connected_allocations(4, 2))[index]
    if is_ef_c(p, allocation, c):
        assert is_ef_c(p, allocation, c + 1)
    if is_prop_c(p, allocation, c):
        assert is_prop_c(p, allocation, c + 1)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    general=st.booleans(),
    g=st.integers(min_value=2, max_value=6),
)
def test_score_predicate_monotone_in_t(seed, general, g):
    # EF-2t under (g - t)-truncated utilities: once it holds, it holds for
    # every larger t, which is what lets the EF score be searched
    rng = np.random.default_rng(seed)
    if general:
        n, m = 2, 7
        p = random_general_profile(rng, n, m)
    else:
        n, m = 3, 9
        p = random_additive_profile(rng, n, m, max_value=4)
    for allocation in enumerate_connected_allocations(m, n):
        holds = [is_ef_d_wrt_truncated(p, allocation, 2 * t, g - t) for t in range(1, g + 1)]
        assert holds == sorted(holds)


# Rows drawn from a palette of up to 10 distinct values, some past int64.
_palettes = st.lists(
    st.one_of(st.integers(0, 12), st.integers(2**63 - 2, 2**70)),
    min_size=1, max_size=10, unique=True,
)


@settings(max_examples=80, deadline=None)
@example(row=[])
@example(row=[0, 0, 0, 0])
@example(row=[3, 3, 0, 3, 1, 1])
@example(row=[2**63, 0, 2**63 + 1, 2**64, 2**63])
@given(row=_palettes.flatmap(lambda palette: st.lists(st.sampled_from(palette), max_size=12)))
def test_threshold_counts_give_every_truncated_interval(row):
    p = UtilityProfile.additive([row])
    owner, w, c = threshold_counts(p.values)
    owner, w, c = owner.tolist(), w.tolist(), c.tolist()
    assert owner == [0] * len(w) == [0] * len(c) and all(v > 0 for v in w)
    for s in range(len(row) + 1):
        for e in range(s, len(row) + 1):
            # Counts fall as thresholds rise, so a sum may stop at its first zero term.
            held = [counts[e] - counts[s] for counts in c]
            assert held == sorted(held, reverse=True)
            for k in range(len(row) + 3):
                form = sum(v * max(h - k, 0) for v, h in zip(w, held))
                assert form == scaled_truncated(p, 1, range(s + 1, e + 1), k)


def test_fast_paths_agree_with_brute_force_small(rng):
    # additive fast paths vs definition-level brute force for m <= 5
    for _ in range(40):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 6))
        p = random_additive_profile(rng, n, m)
        items = tuple(
            int(v) for v in rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False) + 1
        )
        k = int(rng.integers(0, m + 2))
        assert truncated_utility(p, 1, items, k) == brute_truncated(p, 1, items, k)
        assert top_k_utility(p, 1, items, k) == brute_top_k(p, 1, items, k)
