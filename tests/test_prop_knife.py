import math
import tracemalloc
from collections import Counter, deque
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpfair.prop_knife as prop_knife
from dpfair.audit import parallel_structure_ok, validate_knife_trace
from dpfair.core import ConnectedAllocation, PrivacyParams, UtilityProfile, is_prop_c
from dpfair.generators import bernoulli_profile
from dpfair.mechanisms import RandomStream, SvtOutcome, above_threshold
from dpfair.oracles import binary_profiles
from dpfair.prop_knife import (
    budget_schedule,
    dp_moving_knife,
    exact_budget_total,
    f_value,
    knife_samples,
    level_epsilon_exact,
    proof_chain_c,
)

from conftest import brute_truncated, random_additive_profile


# ---------------------------------------------------------------------------
# budget schedule
# ---------------------------------------------------------------------------


def test_level_budgets_exact_values():
    assert level_epsilon_exact(1.0, 1) == Fraction(1, 3)
    assert level_epsilon_exact(1.0, 2) == Fraction(2, 9)
    assert level_epsilon_exact(1.0, 3) == Fraction(4, 27)


def test_schedule_budgets_round_the_closed_form():
    # 2 * 1.5**b is exact in floating point for b <= 33, so both forms round
    # the same real number; the knife's g_b values depend on it.
    stream = RandomStream(5).generator
    for epsilon in [0.1, 1.0, 2.0, 8.0, *stream.uniform(1e-3, 20.0, size=200)]:
        params = PrivacyParams(epsilon=float(epsilon))
        for b, (eps_b, _) in budget_schedule(100, 2**12, params).items():
            assert eps_b == float(epsilon) / (2.0 * 1.5**b)


def test_partial_sums_follow_the_geometric_closed_form():
    for top in range(1, 12):
        partial = sum(Fraction(2 ** (b - 1), 3**b) for b in range(1, top + 1))
        assert partial == 1 - Fraction(2, 3) ** top
    # the infinite series sums to 1, so every finite schedule stays under budget


def test_budget_total_under_epsilon_for_all_n_up_to_64():
    for epsilon in (1.0, 0.3, 2.7):
        for n in range(2, 65):
            levels = range(1, math.ceil(math.log2(n)) + 1)
            assert exact_budget_total(epsilon, levels) <= Fraction(epsilon)


def test_schedule_g_values_are_positive_multiples_of_eight():
    schedule = budget_schedule(200, 4, PrivacyParams(epsilon=5.0, beta=0.1))
    assert set(schedule) == {1, 2}
    for _, g_b in schedule.values():
        assert g_b > 0 and g_b % 8 == 0
    assert schedule[1][1] == 696 and schedule[2][1] == 1040


# ---------------------------------------------------------------------------
# the cut-acceptance function
# ---------------------------------------------------------------------------


def test_f_value_all_zero_profile_returns_g_everywhere():
    zero = UtilityProfile.additive([[0, 0, 0, 0]])
    for h in range(1, 5):
        assert f_value(zero, 1, 1, 4, h, 3, 1, 1) == 3


def test_f_value_single_valued_item():
    p = UtilityProfile.additive([[1, 0]])
    assert f_value(p, 1, 1, 2, 1, 2, 1, 1) == 2


def test_f_value_at_right_end_equals_g():
    p = UtilityProfile.additive([[3, 1, 4, 1]])
    for g_b in (1, 2, 5):
        assert f_value(p, 1, 1, 4, 4, g_b, 1, 2) == g_b


def test_f_value_invalid_range():
    p = UtilityProfile.additive([[1, 1]])
    with pytest.raises(ValueError):
        f_value(p, 1, 2, 1, 1, 2, 1, 1)
    with pytest.raises(ValueError):
        f_value(p, 1, 1, 2, 3, 2, 1, 1)


def brute_f(profile, agent, lo, hi, h, g_b, n_left, n_right):
    qualifying = [
        t
        for t in range(1, g_b + 1)
        if brute_truncated(profile, agent, range(lo, h + 1), g_b + t) / n_left
        >= brute_truncated(profile, agent, range(h + 1, hi + 1), g_b - t) / n_right
    ]
    return max(qualifying) if qualifying else 0


def test_f_value_matches_definition_level_recomputation(rng):
    for _ in range(6):
        m = int(rng.integers(2, 7))
        p = random_additive_profile(rng, n=2, m=m, max_value=3)
        for agent in (1, 2):
            for lo in range(1, m + 1):
                for hi in range(lo, m + 1):
                    for h in range(lo, hi + 1):
                        for g_b in (1, 3, 8):  # 8 exceeds every range
                            assert f_value(p, agent, lo, hi, h, g_b, 2, 1) == brute_f(
                                p, agent, lo, hi, h, g_b, 2, 1
                            )


def sorted_f(row, lo, hi, h, g_b, n_left, n_right):
    # Linear scan over t on freshly sorted pieces; the k-truncated value of an
    # additive piece is the sum of all but its k largest items.
    def kept(piece, k):
        return sum(sorted(piece)[: max(len(piece) - k, 0)])

    left, right = row[lo - 1 : h], row[h:hi]
    qualifying = [
        t
        for t in range(1, g_b + 1)
        if n_right * kept(left, g_b + t) >= n_left * kept(right, g_b - t)
    ]
    return max(qualifying) if qualifying else 0


def test_scan_matches_per_position_f_value(rng):
    starts_inside = 0
    for _ in range(60):
        m = int(rng.integers(1, 40))
        p = random_additive_profile(rng, n=2, m=m, max_value=10)
        lo = int(rng.integers(1, m + 1))
        hi = int(rng.integers(lo, m + 1))
        h0 = int(rng.integers(lo, hi + 1))
        starts_inside += h0 > lo
        n_left, n_right = (int(v) for v in rng.choice([1, 2, 3, 5], size=2, replace=False))
        for g_b in (1, 2, 3, 7, hi - lo + 2):  # the last exceeds the range
            (cuts,) = prop_knife._cut_queries(p, (2,), lo, hi, g_b, n_left, n_right)
            scan = list(cuts[h0 - lo :])
            per_position = [
                f_value(p, 2, lo, hi, h, g_b, n_left, n_right) for h in range(h0, hi + 1)
            ]
            assert scan == per_position
            assert per_position == [
                sorted_f(p.values[1], lo, hi, h, g_b, n_left, n_right)
                for h in range(h0, hi + 1)
            ]
    assert starts_inside > 0


def test_scan_stays_exact_past_int64(rng):
    # Values near 2**70 that differ in their lowest bits: int64 would wrap
    # them and floats would round them together.
    for _ in range(30):
        m = int(rng.integers(1, 25))
        row = [2**70 + int(v) if v else 0 for v in rng.integers(0, 5, size=m)]
        p = UtilityProfile.additive([row])
        lo = int(rng.integers(1, m + 1))
        hi = int(rng.integers(lo, m + 1))
        n_left, n_right = (int(v) for v in rng.choice([1, 2, 3], size=2))
        for g_b in (1, 2, 5, hi - lo + 2):
            expected = [sorted_f(row, lo, hi, h, g_b, n_left, n_right) for h in range(lo, hi + 1)]
            (cuts,) = prop_knife._cut_queries(p, (1,), lo, hi, g_b, n_left, n_right)
            assert list(cuts) == expected
            assert [
                f_value(p, 1, lo, hi, h, g_b, n_left, n_right) for h in range(lo, hi + 1)
            ] == expected


def test_cut_queries_past_the_fit_bound_equal_f_value(monkeypatch, rng):
    # Rows near 2**62, int64 but past the bound max_v * m *
    # max(n_left, n_right) < 2**62, and at 2**63 + 1, stored as Python
    # ints: every step runs on object rows, and every agent's values equal
    # f_value at every h.
    original = prop_knife._breakpoints
    dtypes = []

    def logged(values, *rest):
        dtypes.append(values.dtype)
        return original(values, *rest)

    monkeypatch.setattr(prop_knife, "_breakpoints", logged)
    for top in (2**62 - 3, 2**62 + 5, 2**63 + 1):
        for _ in range(8):
            m = int(rng.integers(2, 20))
            cells = rng.integers(0, 6, size=(3, m)).tolist()
            rows = [[top - v if v < 4 else 0 for v in row] for row in cells]
            p = UtilityProfile.additive(rows)
            assert p.values.dtype == (object if top > 2**63 else np.int64)
            lo = int(rng.integers(1, m + 1))
            hi = int(rng.integers(lo, m + 1))
            n_left, n_right = (int(v) for v in rng.choice([1, 2, 3], size=2))
            assert p.max_value * p.m * max(n_left, n_right) >= 2**62
            for g_b in (1, 2, 5, hi - lo + 2):
                cuts = prop_knife._cut_queries(p, (1, 2, 3), lo, hi, g_b, n_left, n_right)
                for agent, values in zip((1, 2, 3), cuts):
                    assert list(values) == [
                        f_value(p, agent, lo, hi, h, g_b, n_left, n_right)
                        for h in range(lo, hi + 1)
                    ]
    assert dtypes and all(dtype == object for dtype in dtypes)


def test_the_fit_bound_reads_the_group_sizes_not_the_agent_count():
    # One row near 2**61 fits int64 against n = 1, but weighted by a right
    # group of 2 the count bracket's y * need + x * a reaches 2**63.
    p = UtilityProfile.additive([[0, 2**61 - 1]])
    (cuts,) = prop_knife._cut_queries(p, (1,), 1, 2, 1, 1, 2)
    assert list(cuts) == [f_value(p, 1, 1, 2, h, 1, 1, 2) for h in (1, 2)] == [0, 1]


def test_the_fit_bound_does_not_count_the_other_rows(monkeypatch):
    # Four agents split 2 and 2 over four items just below 2**58.  Sums
    # over all four rows laid end to end, weighted by 2, could reach 2**63,
    # but no sum spans two rows, and one row's stay below 2**61: the rows
    # stay int64.
    dtypes = []
    original = prop_knife._breakpoints

    def logged(row, *rest):
        dtypes.append(row.dtype)
        return original(row, *rest)

    monkeypatch.setattr(prop_knife, "_breakpoints", logged)
    top = 2**58 - 1
    p = UtilityProfile.additive(
        [[top, 0, top - 1, top], [0, top, top, 0], [top - 2, top - 2, 0, top], [top, top, top, top]]
    )
    assert p.max_value * p.n * p.m * 2 >= 2**62 > p.max_value * p.m * 2
    for g_b in (1, 2, 3, 5):
        for lo in range(1, 5):
            for hi in range(lo, 5):
                cuts = prop_knife._cut_queries(p, p.agents, lo, hi, g_b, 2, 2)
                assert [list(values) for values in cuts] == [
                    [f_value(p, agent, lo, hi, h, g_b, 2, 2) for h in range(lo, hi + 1)]
                    for agent in p.agents
                ]
    assert dtypes and all(dtype == np.int64 for dtype in dtypes)


def test_cut_queries_of_an_empty_range_are_empty():
    p = UtilityProfile.additive([[1, 2, 3]])
    assert [list(cuts) for cuts in prop_knife._cut_queries(p, (1,), 3, 2, 8, 1, 1)] == [[]]


@settings(max_examples=100, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=60),
    n_left=st.integers(min_value=1, max_value=4),
    n_right=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_f_value_nondecreasing_in_h(size, n_left, n_right, data):
    row = data.draw(st.lists(st.integers(min_value=0, max_value=10), min_size=size, max_size=size))
    p = UtilityProfile.additive([row])
    span = data.draw(st.integers(min_value=1, max_value=size))
    lo = data.draw(st.integers(min_value=1, max_value=size - span + 1))
    hi = lo + span - 1
    # Small g_b keeps most of the left piece, so its sums span many items.
    g_b = data.draw(st.integers(1, 3) | st.integers(1, span + 2))
    values = [f_value(p, 1, lo, hi, h, g_b, n_left, n_right) for h in range(lo, hi + 1)]
    assert values == sorted(values)
    # The allocator counts breakpoints, which describe f only because of this order.
    (cuts,) = prop_knife._cut_queries(p, (1,), lo, hi, g_b, n_left, n_right)
    assert list(cuts) == values


def test_f_value_rejects_general_kind():
    general = UtilityProfile.general(tables=[(0, 2, 0, 2, 1, 3, 1, 3)])
    with pytest.raises(ValueError, match="additive"):
        f_value(general, 1, 1, 3, 2, 1, 1, 1)


# ---------------------------------------------------------------------------
# the full allocator
# ---------------------------------------------------------------------------


def test_single_agent_gets_everything():
    p = UtilityProfile.additive([[1, 2, 3]])
    allocation, trace = dp_moving_knife(p, PrivacyParams(epsilon=1.0), RandomStream(1))
    assert allocation.spans == ((1, 3),)
    assert trace.records == ()
    assert validate_knife_trace(trace, 1, 3)


def test_no_items_yields_all_empty():
    p = UtilityProfile.additive([[], [], []])
    allocation, trace = dp_moving_knife(p, PrivacyParams(epsilon=1.0), RandomStream(1))
    assert allocation.spans == (None, None, None)
    assert validate_knife_trace(trace, 3, 0)


def test_rejects_general_utilities():
    p = UtilityProfile.general(tables=[(0, 1, 1, 2), (0, 1, 1, 2)])
    with pytest.raises(ValueError):
        dp_moving_knife(p, PrivacyParams(epsilon=1.0), RandomStream(1))


@pytest.mark.parametrize("n,m", [(2, 5), (3, 7), (4, 2), (5, 1), (6, 13), (8, 8)])
def test_outputs_are_valid_partitions_with_valid_traces(n, m, rng):
    params = PrivacyParams(epsilon=1.5, beta=0.2)
    for seed in range(5):
        p = random_additive_profile(rng, n, m, max_value=4)
        allocation, trace = dp_moving_knife(p, params, RandomStream(seed))
        assert allocation.n == n and allocation.m == m
        assert validate_knife_trace(trace, n, m)
        assert parallel_structure_ok(trace)
        budget = exact_budget_total(params.epsilon, trace.levels_used())
        assert budget <= Fraction(params.epsilon)


def test_deterministic_replay():
    p = UtilityProfile.additive([[3, 1, 4, 1, 5], [9, 2, 6, 5, 3]])
    params = PrivacyParams(epsilon=2.0, beta=0.1)
    a = dp_moving_knife(p, params, RandomStream(42))
    b = dp_moving_knife(p, params, RandomStream(42))
    assert a == b


def test_seeded_output_is_pinned():
    # Recorded before the cut scan became incremental; any change to the cut
    # values or to the order of the SVT draws moves some split or h value.
    params = PrivacyParams(epsilon=2.0, beta=0.1, svt_constant=1.0)
    p = bernoulli_profile(5, 300, RandomStream(7))
    allocation, trace = dp_moving_knife(p, params, RandomStream(11))
    assert allocation.spans == ((1, 1), None, (162, 300), (2, 5), (6, 161))
    assert [(r.agents, r.lo, r.hi, r.g_b, r.split, r.h_values) for r in trace.records] == [
        ((1, 2, 3, 4, 5), 1, 300, 264, 5, ((1, 5), (2, 2), (3, 11), (4, 1), (5, 5))),
        ((1, 2, 4), 1, 5, 176, 1, ((1, 1), (2, 1), (4, 1))),
        ((1, 2), 1, 1, 120, 1, ((1, 1), (2, 1))),
        ((3, 5), 6, 300, 120, 161, ((3, 179), (5, 161))),
    ]
    for record in trace.records:
        assert all(record.svt_fired)
        assert record.svt_queries == tuple(h - record.lo + 1 for _, h in record.h_values)


def test_seeded_output_is_pinned_where_every_level_scans():
    # The benchmark's knife shape: g_b = 304/208/136 is below every range, so
    # each SVT run walks hundreds of positions deep into the incremental scan.
    # Recorded before the scan kept its piece sums at cursors.
    params = PrivacyParams(epsilon=2.0, beta=0.1, svt_constant=1.0)
    p = bernoulli_profile(5, 1500, RandomStream(7))
    allocation, trace = dp_moving_knife(p, params, RandomStream(11))
    assert allocation.spans == ((1, 440), (441, 716), (1330, 1500), (717, 1017), (1018, 1329))
    assert [(r.agents, r.lo, r.hi, r.g_b, r.split) for r in trace.records] == [
        ((1, 2, 3, 4, 5), 1, 1500, 304, 1017),
        ((1, 2, 4), 1, 1017, 208, 716),
        ((1, 2), 1, 716, 136, 440),
        ((3, 5), 1018, 1500, 136, 1329),
    ]
    assert [(r.h_values, r.svt_queries) for r in trace.records] == [
        (((1, 881), (2, 1017), (3, 1020), (4, 953), (5, 1037)), (881, 1017, 1020, 953, 1037)),
        (((1, 679), (2, 716), (4, 716)), (679, 716, 716)),
        (((1, 440), (2, 487)), (440, 487)),
        (((3, 1345), (5, 1329)), (328, 312)),
    ]
    assert all(all(record.svt_fired) for record in trace.records)


def test_prop_c_at_the_proof_chain_bound_in_the_papers_regime():
    # n = 2, m = 20000 at the default svt_constant: g_b = 2480 is below m, so
    # the cut is not forced to the range ends and the guarantee is not vacuous.
    params = PrivacyParams(epsilon=2.0, beta=0.1)
    m = 20000
    p = bernoulli_profile(2, m, RandomStream(0))
    allocation, trace = dp_moving_knife(p, params, RandomStream(100))
    (root,) = trace.records
    assert root.g_b == 2480 < m
    assert 1 < root.split < m
    c = proof_chain_c(m, 2, params)
    assert c == root.g_b
    assert is_prop_c(p, allocation, c)
    assert not is_prop_c(p, ConnectedAllocation(spans=((1, m), None)), c)


def test_svt_fallback_uses_right_end_sentinel(monkeypatch):
    monkeypatch.setattr(
        prop_knife, "above_threshold", lambda *a, **k: SvtOutcome(None, 0)
    )
    p = UtilityProfile.additive([[1, 1, 1], [1, 1, 1]])
    allocation, trace = dp_moving_knife(p, PrivacyParams(epsilon=1.0), RandomStream(9))
    record = trace.records[0]
    assert record.svt_fired == (False, False)
    assert all(h == record.hi for _, h in record.h_values)
    assert record.split == 3
    assert allocation.spans == ((1, 3), None)
    assert validate_knife_trace(trace, 2, 3)


def test_tiebreak_is_stable_by_agent_index(monkeypatch):
    # identical reported positions: agents with the lowest indices go left
    monkeypatch.setattr(
        prop_knife, "above_threshold", lambda *a, **k: SvtOutcome(0, 1)
    )
    p = UtilityProfile.additive([[1] * 4] * 4)
    _, trace = dp_moving_knife(p, PrivacyParams(epsilon=1.0), RandomStream(9))
    root = trace.records[0]
    assert root.left_agents == (1, 2)
    assert root.right_agents == (3, 4)


class _LoggingValues:
    """Values that log ``(row index, 0-based position)`` for every cell an index reads.

    Any numpy index works: a row, a cell, a row and a slice, or an array of
    rows and a slice; the cells it selects are the ones logged.
    """

    def __init__(self, values, log):
        self._values = values
        self._cells = np.indices(values.shape)  # each cell's row index and position
        self.log = log

    def __getitem__(self, key):
        rows, positions = (grid[key] for grid in self._cells)
        self.log.extend(zip(np.ravel(rows).tolist(), np.ravel(positions).tolist()))
        return self._values[key]


class _SpyProfile:
    """Duck-typed profile that records which agent rows are read."""

    def __init__(self, profile, log):
        self.n = profile.n
        self.m = profile.m
        self.scale = profile.scale
        self.kind = profile.kind
        self.agents = profile.agents
        # The profile's own once-read maximum, like n and m, not a row read.
        self.max_value = profile.max_value
        self.values = _LoggingValues(profile.values, log)


def test_f_value_reads_only_the_queried_agents_row(rng):
    p = random_additive_profile(rng, n=3, m=5)
    log = []
    spy = _SpyProfile(p, log)
    f_value(spy, 2, 2, 4, 3, 4, 2, 1)
    assert {row for row, _ in log} == {1}
    assert {position + 1 for _, position in log} == {2, 3, 4}


def test_allocator_reads_each_row_only_inside_its_own_branch(monkeypatch, rng):
    # A step's cut values are built in one call that reads its agents' rows
    # before it returns, so every read belongs to the build that started last.
    log = []
    original = prop_knife._cut_queries

    def marked(profile, agents, lo, hi, *rest):
        log.append(("scan", agents, lo, hi))
        return original(profile, agents, lo, hi, *rest)

    monkeypatch.setattr(prop_knife, "_cut_queries", marked)
    p = random_additive_profile(rng, n=4, m=9)
    _, trace = dp_moving_knife(_SpyProfile(p, log), PrivacyParams(epsilon=2.0), RandomStream(3))
    steps = {(record.agents, record.lo, record.hi) for record in trace.records}
    scan = None
    reads = 0
    for entry in log:
        if entry[0] == "scan":
            scan = entry
            assert scan[1:] in steps
            continue
        assert scan is not None
        _, agents, lo, hi = scan
        row, position = entry
        assert row + 1 in agents and lo <= position + 1 <= hi
        reads += 1
    assert reads > 0


def _assert_samples_equal_sequential_calls(p, params, seed, k):
    # Equal runs, and the generator left in one state, with and without a
    # buffered 32-bit half drawn first.  Returns the sampled runs' records.
    records = []
    for buffered in (False, True):
        stream, twin = RandomStream(seed), RandomStream(seed)
        if buffered:
            for s in (stream, twin):
                s.generator.integers(0, 1000, dtype=np.int32)
        sequential = [dp_moving_knife(p, params, stream) for _ in range(k)]
        sampled = list(knife_samples(p, params, twin, k))
        assert sampled == sequential
        assert twin.generator.bit_generator.state == stream.generator.bit_generator.state
        records.extend(record for _, trace in sampled for record in trace.records)
    return records


@pytest.mark.parametrize("epsilon", [0.5, 2.0, 8.0, 50.0])
def test_knife_samples_equal_sequential_allocator_calls(rng, epsilon):
    for case, svt_constant in enumerate((0.02, 0.1, 1.0, 16.0)):
        params = PrivacyParams(epsilon=epsilon, beta=0.1, svt_constant=svt_constant)
        n, m = int(rng.integers(2, 7)), int(rng.integers(0, 40))
        p = random_additive_profile(rng, n, m, max_value=int(rng.choice([1, 4, 50, 10**6])))
        _assert_samples_equal_sequential_calls(p, params, case, 30)
    # At n = 5-7 the recursion is three levels deep, so memoized records
    # below the root are shared between runs.  At n = 11 and m = 2 a half
    # often gets no items, and at epsilon <= 2 one group of agents then meets
    # one empty range with equal outcomes at two depths within these 30 runs.
    cases = [
        (random_additive_profile(rng, n, m, max_value=4), svt_constant)
        for n, m, svt_constant in ((5, 20, 0.02), (6, 30, 0.1), (7, 39, 1.0))
    ]
    cases.append((UtilityProfile.additive([[1, 1]] * 11), 0.02))
    shared_depths = set()
    for p, svt_constant in cases:
        params = PrivacyParams(epsilon=epsilon, beta=0.1, svt_constant=svt_constant)
        records = _assert_samples_equal_sequential_calls(p, params, 7, 30)
        uses = Counter(id(record) for record in records)  # `records` keeps each id alive
        shared_depths.update(record.depth for record in records if uses[id(record)] > 1)
    assert max(shared_depths) >= 2


def _counted_builds(monkeypatch):
    # Logs (agents, lo, hi) for every cut-value build.
    builds = []
    original = prop_knife._cut_queries

    def counted(profile, agents, lo, hi, *rest):
        builds.append((agents, lo, hi))
        return original(profile, agents, lo, hi, *rest)

    monkeypatch.setattr(prop_knife, "_cut_queries", counted)
    return builds


def test_knife_samples_build_each_agents_root_cut_values_once(monkeypatch, rng):
    # At n = 2 every query is at the root, whose range and level never change.
    builds = _counted_builds(monkeypatch)
    p = random_additive_profile(rng, n=2, m=12)
    params = PrivacyParams(epsilon=2.0, svt_constant=0.1)
    runs = list(knife_samples(p, params, RandomStream(5), 200))
    assert len(runs) == 200
    assert builds == [((1, 2), 1, 12)]


def test_knife_memos_hold_memory_to_their_cap_not_to_the_run_count(monkeypatch):
    # At n = 4, m = 400 and svt_constant 0.1 nearly every run's SVT outcomes
    # are new, so memos without a cap would hold a trace for every run.
    p = bernoulli_profile(4, 400, RandomStream(3))
    params = PrivacyParams(epsilon=2.0, beta=0.1, svt_constant=0.1)
    k, cap = 256, 16
    assert len({hash(trace) for _, trace in knife_samples(p, params, RandomStream(3), k)}) > 240

    def memory(memo_cap):
        # Memory held after 2 * cap runs (both memos are full by then) and
        # the peak over the remaining runs.
        monkeypatch.setattr(prop_knife, "_MEMO_CAP", memo_cap)
        runs = knife_samples(p, params, RandomStream(3), k)
        tracemalloc.start()
        try:
            deque(islice(runs, 2 * cap), maxlen=0)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            deque(runs, maxlen=0)
            return held, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    held, peak = memory(cap)
    held_uncapped, peak_uncapped = memory(10**9)
    assert peak - held < (peak_uncapped - held_uncapped) / 3


def test_papers_regime_at_n8_m100000():
    # g_b < m / n at every level, so PROP-c at the proof chain's c is a real
    # promise: 7066 against 12500 items per agent.
    params = PrivacyParams(epsilon=2.0, beta=0.1)
    n, m = 8, 10**5
    p = bernoulli_profile(n, m, RandomStream(0))
    allocation, trace = dp_moving_knife(p, params, RandomStream(1))
    assert validate_knife_trace(trace, n, m)
    assert exact_budget_total(params.epsilon, trace.levels_used()) <= Fraction(params.epsilon)
    c = proof_chain_c(m, n, params)
    assert c == 7066 < m // n
    assert is_prop_c(p, allocation, c)


def test_failure_rate_at_proof_chain_c_is_low(rng):
    params = PrivacyParams(epsilon=4.0, beta=0.2)
    p = random_additive_profile(rng, n=3, m=30, max_value=100)
    c = proof_chain_c(30, 3, params)
    failures = 0
    runs = 100
    for seed in range(runs):
        allocation, _ = dp_moving_knife(p, params, RandomStream(1000 + seed))
        if not is_prop_c(p, allocation, c):
            failures += 1
    sigma = math.sqrt(params.beta * (1 - params.beta) / runs)
    assert failures / runs <= params.beta + 3 * sigma


def test_proof_chain_c_zero_cases():
    params = PrivacyParams(epsilon=1.0)
    assert proof_chain_c(10, 1, params) == 0
    assert proof_chain_c(0, 4, params) == 0


def test_proof_chain_c_known_value():
    params = PrivacyParams(epsilon=5.0, beta=0.1, svt_constant=16.0)
    # n = 4: both path sums are ceil(2 g_2 / 4) + ceil(2 g_1 / 2)
    assert proof_chain_c(200, 4, params) == 1216


@settings(max_examples=200, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=60),
    distinct=st.booleans(),
    n_left=st.integers(min_value=1, max_value=5),
    n_right=st.integers(min_value=1, max_value=5),
    data=st.data(),
)
def test_breakpoint_scan_matches_freshly_sorted_pieces(size, distinct, n_left, n_right, data):
    # Rows full of duplicates (values 0..3) and rows of distinct values; g_b
    # up to two past the range, so the probed pieces keep every size from
    # empty to full.
    values = st.integers(min_value=0, max_value=10**6 if distinct else 3)
    row = data.draw(st.lists(values, min_size=size, max_size=size, unique=distinct))
    p = UtilityProfile.additive([row])
    span = data.draw(st.integers(min_value=1, max_value=size))
    lo = data.draw(st.integers(min_value=1, max_value=size - span + 1))
    hi = lo + span - 1
    h0 = data.draw(st.integers(min_value=lo, max_value=hi))
    # Small g_b keeps most of the left piece, so its sums span many items.
    g_b = data.draw(st.integers(min_value=1, max_value=3) | st.integers(min_value=1, max_value=span + 2))
    (cuts,) = prop_knife._cut_queries(p, (1,), lo, hi, g_b, n_left, n_right)
    assert list(cuts[h0 - lo :]) == [
        sorted_f(row, lo, hi, h, g_b, n_left, n_right) for h in range(h0, hi + 1)
    ]


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    size=st.integers(min_value=1, max_value=30),
    n_left=st.integers(min_value=1, max_value=4),
    n_right=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_cut_queries_equal_each_agents_f_value(n, size, n_left, n_right, data):
    # Any subset of a step's agents, and rows near 2**70 among int64 rows:
    # each agent's values come from its own row, in its own dtype.
    def row():
        wide = data.draw(st.booleans())
        items = st.integers(min_value=0, max_value=4).map(lambda v: 2**70 + v if wide and v else v)
        return data.draw(st.lists(items, min_size=size, max_size=size))

    p = UtilityProfile.additive([row() for _ in range(n)])
    lo = data.draw(st.integers(min_value=1, max_value=size))
    hi = data.draw(st.integers(min_value=lo, max_value=size))
    agents = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=1))))
    g_b = data.draw(st.integers(min_value=1, max_value=3) | st.integers(min_value=1, max_value=hi - lo + 3))
    cuts = prop_knife._cut_queries(p, agents, lo, hi, g_b, n_left, n_right)
    assert [list(values) for values in cuts] == [
        [f_value(p, agent, lo, hi, h, g_b, n_left, n_right) for h in range(lo, hi + 1)]
        for agent in agents
    ]


def test_knife_allocate_shape_passes_views_of_the_profile_rows(monkeypatch):
    # Each agent's row reaches _breakpoints as a view of the profile's
    # int64 values, so a step copies no row.
    rows = []
    original = prop_knife._breakpoints

    def logged(row, *rest):
        rows.append(row)
        return original(row, *rest)

    monkeypatch.setattr(prop_knife, "_breakpoints", logged)
    params = PrivacyParams(epsilon=2.0, beta=0.1, svt_constant=1.0)
    for seed in range(3):
        p = bernoulli_profile(5, 1500, RandomStream(seed, (1,)))
        rows.clear()
        dp_moving_knife(p, params, RandomStream(seed, (2,)))
        assert len(rows) >= p.n
        assert all(row.dtype == np.int64 and np.shares_memory(row, p.values) for row in rows)


@pytest.mark.parametrize("g_b", [40, 400, 1003])
def test_breakpoints_on_a_row_of_many_distinct_values(monkeypatch, g_b):
    # 1000 distinct values below 10**6 give the wavelet ten levels.  At
    # g_b = 40 and 400 the count bracket leaves cuts open, and they are
    # searched on it; at g_b = 1003 the row holds at most 2 * g_b positive
    # items, and counts of them settle every cut.
    calls = []
    original = prop_knife._bisect

    def counted(*args):
        calls.append(len(args[3]))
        return original(*args)

    monkeypatch.setattr(prop_knife, "_bisect", counted)
    rng = np.random.default_rng(g_b)
    row = [int(v) for v in rng.choice(10**6, size=1000, replace=False)]
    p = UtilityProfile.additive([row])
    lo, hi = 1, 1000
    expected = [f_value(p, 1, lo, hi, h, g_b, 3, 2) for h in range(lo, hi + 1)]
    (cuts,) = prop_knife._cut_queries(p, (1,), lo, hi, g_b, 3, 2)
    assert list(cuts) == expected
    assert len(set(expected)) > 10
    assert bool(calls) == (sum(v > 0 for v in row) > 2 * g_b)


@settings(max_examples=150, deadline=None)
@given(
    distinct=st.integers(min_value=0, max_value=3),
    scale=st.sampled_from([1, 2**40, 2**61]),
    size=st.integers(min_value=1, max_value=30),
    agents=st.integers(min_value=1, max_value=3),
    n_left=st.integers(min_value=1, max_value=4),
    n_right=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_count_bracket_cut_values_equal_f_value(
    distinct, scale, size, agents, n_left, n_right, data
):
    # Rows whose positive values take at most three distinct values, all
    # zero at distinct = 0.  Values near 2**61 put the rows into object
    # dtype.  Values near 2**40 with g_b up to 2**24 stay int64, though
    # n * hi_v * (L + 2 * g_b) passes 2**63 unless a is clamped to L.
    # g_b runs from small to past the range.  With one distinct positive
    # value, or at most 2 * g_b positive items a row, the counts settle
    # every cut, so nothing is bisected.
    if scale == 2**61:
        pool = [2**61 - v for v in range(distinct)]
    else:
        pool = [scale * (v + 1) for v in range(distinct)]
    items = st.sampled_from([0, *pool])
    p = UtilityProfile.additive(
        [data.draw(st.lists(items, min_size=size, max_size=size)) for _ in range(agents)]
    )
    g_b = data.draw(
        st.integers(min_value=1, max_value=size + 3)
        | st.integers(min_value=2**20, max_value=2**24)
    )
    with pytest.MonkeyPatch.context() as patch:
        if distinct <= 1 or all(sum(v > 0 for v in row) <= 2 * g_b for row in p.values):
            patch.setattr(prop_knife, "_bisect", None)
        cuts = prop_knife._cut_queries(p, p.agents, 1, size, g_b, n_left, n_right)
        values = [list(cut) for cut in cuts]
    assert values == [
        [f_value(p, agent, 1, size, h, g_b, n_left, n_right) for h in range(1, size + 1)]
        for agent in p.agents
    ]


def test_knife_allocate_shape_settles_every_cut_by_counts(monkeypatch):
    # Bernoulli rows have one positive value, so neither a wavelet nor a
    # bisection is needed at the knife_allocate benchmark's shape.
    def unused(*args):
        raise AssertionError("a Bernoulli row left a cut open")

    params = PrivacyParams(epsilon=2.0, beta=0.1, svt_constant=1.0)
    profiles = [bernoulli_profile(5, 1500, RandomStream(seed, (1,))) for seed in range(3)]
    expected = [
        dp_moving_knife(p, params, RandomStream(seed, (2,))) for seed, p in enumerate(profiles)
    ]
    monkeypatch.setattr(prop_knife, "_bisect", unused)
    monkeypatch.setattr(prop_knife, "_Wavelet", unused)
    for seed, p in enumerate(profiles):
        assert dp_moving_knife(p, params, RandomStream(seed, (2,))) == expected[seed]


def _logged_extensions(monkeypatch):
    # Logs every search past a source's first chunk of c, one row per call.
    rows = []
    original = prop_knife._breakpoints

    def logged(row, g_b, n_left, n_right, c_from, c_to):
        if c_from > 1:
            rows.append(row)
        return original(row, g_b, n_left, n_right, c_from, c_to)

    monkeypatch.setattr(prop_knife, "_breakpoints", logged)
    return rows


@settings(max_examples=100, deadline=None)
@given(
    top=st.sampled_from([2, 50, 10**6, 2**61]),
    size=st.integers(min_value=1, max_value=40),
    agents=st.integers(min_value=1, max_value=5),
    g_b=st.integers(min_value=1, max_value=80),
    n_left=st.integers(min_value=1, max_value=4),
    n_right=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_lazy_cut_values_equal_f_value_in_any_pieces(
    top, size, agents, g_b, n_left, n_right, data
):
    # Values near 2**61 put the rows past the fit bound, into object dtype,
    # where size * max(n_left, n_right) > 2.  A source is read whole or in
    # pieces taken in random order; no piece ends at its first chunk's end,
    # so one piece crosses H(g_b // 2).
    items = st.integers(min_value=0, max_value=top - 1)
    if top == 2**61:
        items = st.integers(min_value=0, max_value=3).map(lambda v: 2**61 - v if v else 0)
    p = UtilityProfile.additive(
        [data.draw(st.lists(items, min_size=size, max_size=size)) for _ in range(agents)]
    )
    with pytest.MonkeyPatch.context() as patch:
        extended = _logged_extensions(patch)
        cuts = prop_knife._cut_queries(p, p.agents, 1, size, g_b, n_left, n_right)
        for agent, cut in zip(p.agents, cuts):
            ready = getattr(cut, "ready", size)  # an array where every c was searched
            ends = data.draw(st.sets(st.integers(min_value=0, max_value=size)))
            ends = sorted((ends - {ready}) | {0, size})
            pieces = data.draw(st.permutations(list(zip(ends, ends[1:]))))
            values = [0] * size
            for start, stop in pieces:
                piece = cut[start:stop]
                assert piece.dtype == np.int64
                values[start:stop] = piece.tolist()
            assert values == [
                f_value(p, agent, 1, size, h, g_b, n_left, n_right) for h in range(1, size + 1)
            ]
            assert list(cut) == values
    # Each source searched the rest of its row's c once, however it was read.
    sources = [cut for cut in cuts if not isinstance(cut, np.ndarray)]
    assert len(extended) == len(sources) == len({id(row) for row in extended})


@pytest.mark.parametrize("n, m", [(2, 3), (2, 4)])
def test_cut_values_equal_f_value_on_the_sensitivity_audit_universe(monkeypatch, n, m):
    # `audit sensitivity --which f` bounds f_value over every binary profile,
    # range and cut, with these group sizes; the allocator runs on the cut
    # values, which must be f_value exactly there.
    n_right = max(n // 2, 1)
    n_left = max(n - n_right, 1)
    extended = _logged_extensions(monkeypatch)
    for g_b in (1, 2, 3, 8):
        for p in binary_profiles(n, m):
            for lo in range(1, m + 1):
                for hi in range(lo, m + 1):
                    cuts = prop_knife._cut_queries(p, p.agents, lo, hi, g_b, n_left, n_right)
                    for agent, cut in zip(p.agents, cuts):
                        assert cut[:].tolist() == [
                            f_value(p, agent, lo, hi, h, g_b, n_left, n_right)
                            for h in range(lo, hi + 1)
                        ], (p.values.tolist(), agent, lo, hi, g_b)
    # g_b = 2 on 3 or 4 items, and 3 on 4, leave the c past g_b // 2 to the
    # lazy rest search, which reading in full runs.
    assert extended


def test_svt_on_lazy_cut_values_equals_the_svt_on_their_array(monkeypatch):
    # At epsilon = 50 the noise is small, so an SVT fires near the first
    # offset where f reaches g_b / 2, which is where a source's first chunk
    # ends: many SVTs read past it and make the source search the rest.
    rng = np.random.default_rng(16)
    extended = _logged_extensions(monkeypatch)
    runs = searches = 0
    for case in range(40):
        size = int(rng.integers(20, 400))
        g_b = 8 * int(rng.integers(1, 20))
        agents = int(rng.integers(1, 6))
        p = random_additive_profile(rng, agents, size, max_value=int(rng.choice([1, 4, 50])))
        arrays = [cut[:] for cut in prop_knife._cut_queries(p, p.agents, 1, size, g_b, 3, 2)]
        cuts = prop_knife._cut_queries(p, p.agents, 1, size, g_b, 3, 2)
        before = len(extended)
        for agent, (cut, array) in enumerate(zip(cuts, arrays)):
            stream, twin = RandomStream(case, (agent,)), RandomStream(case, (agent,))
            assert above_threshold(stream, cut, g_b / 2.0, 50.0) == above_threshold(
                twin, array, g_b / 2.0, 50.0
            )
            assert stream.generator.bit_generator.state == twin.generator.bit_generator.state
            runs += 1
        searches += len(extended) - before
    assert searches > runs / 2


def test_knife_searches_about_half_the_values_of_c(monkeypatch):
    # At the knife_allocate benchmark's shape the SVTs fire below g_b / 2,
    # so the c past it are rarely searched.
    searched = []
    original = prop_knife._breakpoints

    def counted(*args):
        points = original(*args)
        searched.append(points.size)  # rows times values of c
        return points

    monkeypatch.setattr(prop_knife, "_breakpoints", counted)
    params = PrivacyParams(epsilon=2.0, beta=0.1, svt_constant=1.0)
    for seed in range(3):
        p = bernoulli_profile(5, 1500, RandomStream(seed, (1,)))
        searched.clear()
        _, trace = dp_moving_knife(p, params, RandomStream(seed, (2,)))
        every_c = sum(
            len(record.agents) * min(record.g_b, max(record.hi - record.lo, 0))
            for record in trace.records
        )
        assert sum(searched) <= 0.6 * every_c
