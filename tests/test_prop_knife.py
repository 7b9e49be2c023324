import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpfair.prop_knife as prop_knife
from dpfair.audit import parallel_structure_ok, validate_knife_trace
from dpfair.core import ConnectedAllocation, PrivacyParams, UtilityProfile, is_prop_c
from dpfair.generators import bernoulli_profile
from dpfair.mechanisms import RandomStream, SvtOutcome
from dpfair.prop_knife import (
    budget_schedule,
    dp_moving_knife,
    exact_budget_total,
    f_value,
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
            scan = list(prop_knife._cut_values(p, 2, lo, hi, h0, g_b, n_left, n_right))
            per_position = [
                f_value(p, 2, lo, hi, h, g_b, n_left, n_right) for h in range(h0, hi + 1)
            ]
            assert scan == per_position
            assert per_position == [
                sorted_f(p.values[1], lo, hi, h, g_b, n_left, n_right)
                for h in range(h0, hi + 1)
            ]
            queries = prop_knife._cut_queries(p, 2, lo, hi, g_b, n_left, n_right)
            assert list(queries)[h0 - lo :] == [float(v) for v in scan]
    assert starts_inside > 0


def test_cut_queries_of_an_empty_range_are_empty():
    p = UtilityProfile.additive([[1, 2, 3]])
    assert list(prop_knife._cut_queries(p, 1, 3, 2, 8, 1, 1)) == []


@settings(max_examples=50, deadline=None)
@given(
    row=st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=25),
    g_b=st.integers(min_value=1, max_value=30),
    n_left=st.integers(min_value=1, max_value=4),
    n_right=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_f_value_nondecreasing_in_h(row, g_b, n_left, n_right, data):
    p = UtilityProfile.additive([row])
    lo = data.draw(st.integers(min_value=1, max_value=len(row)))
    hi = data.draw(st.integers(min_value=lo, max_value=len(row)))
    values = [f_value(p, 1, lo, hi, h, g_b, n_left, n_right) for h in range(lo, hi + 1)]
    assert values == sorted(values)


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


class _LoggingRows:
    """Rows that log ``(row index, 0-based position)`` for every item read."""

    def __init__(self, rows, log):
        self._rows = rows
        self.log = log

    def __getitem__(self, index):
        return _LoggingRow(self._rows[index], index, self.log)


class _LoggingRow:
    def __init__(self, row, index, log):
        self._row = row
        self._index = index
        self._log = log

    def __getitem__(self, key):
        positions = range(len(self._row))[key]
        if isinstance(key, int):
            positions = (positions,)
        self._log.extend((self._index, position) for position in positions)
        return self._row[key]


class _SpyProfile:
    """Duck-typed profile that records which agent rows are read."""

    def __init__(self, profile, log):
        self.n = profile.n
        self.m = profile.m
        self.scale = profile.scale
        self.kind = profile.kind
        self.agents = profile.agents
        self.values = _LoggingRows(profile.values, log)


def test_f_value_reads_only_the_queried_agents_row(rng):
    p = random_additive_profile(rng, n=3, m=5)
    log = []
    spy = _SpyProfile(p, log)
    f_value(spy, 2, 2, 4, 3, 4, 2, 1)
    assert {row for row, _ in log} == {1}
    assert {position + 1 for _, position in log} == {2, 3, 4}


def test_allocator_reads_each_row_only_inside_its_own_branch(monkeypatch, rng):
    # Scans run one after another (an abandoned scan is never resumed), so
    # every read belongs to the scan that started last.
    log = []
    original = prop_knife._cut_values

    def marked(profile, agent, lo, hi, *rest):
        log.append(("scan", agent, lo, hi))
        yield from original(profile, agent, lo, hi, *rest)

    monkeypatch.setattr(prop_knife, "_cut_values", marked)
    p = random_additive_profile(rng, n=4, m=9)
    _, trace = dp_moving_knife(_SpyProfile(p, log), PrivacyParams(epsilon=2.0), RandomStream(3))
    ranges = {}
    for record in trace.records:
        ranges.setdefault((record.lo, record.hi), set()).update(record.agents)
    scan = None
    reads = 0
    for entry in log:
        if entry[0] == "scan":
            scan = entry
            _, agent, lo, hi = scan
            assert agent in ranges[(lo, hi)]
            continue
        assert scan is not None
        _, agent, lo, hi = scan
        row, position = entry
        assert row == agent - 1 and lo <= position + 1 <= hi
        reads += 1
    assert reads > 0


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
