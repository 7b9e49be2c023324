import math
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpfair.mechanisms import (
    _READ_AHEAD,
    RandomStream,
    SvtOutcome,
    above_threshold,
    em_cumulative,
    em_draw,
    exponential_mechanism,
    sample_laplace,
)


def laplace_draws(seed, scale, count):
    stream = RandomStream(seed)
    return np.array([sample_laplace(stream, scale) for _ in range(count)])


# ---------------------------------------------------------------------------
# random stream
# ---------------------------------------------------------------------------


def test_stream_determinism():
    a = [sample_laplace(RandomStream(42), 1.0) for _ in range(1)]
    b = [sample_laplace(RandomStream(42), 1.0) for _ in range(1)]
    assert a == b
    s1, s2 = RandomStream(42), RandomStream(42)
    assert [sample_laplace(s1, 1.0) for _ in range(50)] == [
        sample_laplace(s2, 1.0) for _ in range(50)
    ]


def test_stream_ids_give_distinct_substreams():
    base = RandomStream(7)
    c0 = base.child(0)
    c1 = base.child(1)
    assert [sample_laplace(c0, 1.0) for _ in range(5)] != [
        sample_laplace(c1, 1.0) for _ in range(5)
    ]
    # children are stable regardless of when they are derived
    again = RandomStream(7).child(0)
    assert sample_laplace(again, 1.0) == sample_laplace(RandomStream(7).child(0), 1.0)


class _OneAtATime:
    """The stream read-ahead must imitate: each uniform drawn alone when read."""

    def __init__(self, seed):
        self.generator = RandomStream(seed).generator
        self._restart()

    def _restart(self):
        self.start = self.generator.bit_generator.state
        self.drawn = []  # uniforms drawn since `start`
        self.read = 0  # how many of them were read and not stepped back over

    def uniform(self):
        if self.read == len(self.drawn):
            self.drawn.append(self.generator.random())
        self.read += 1
        return self.drawn[self.read - 1]

    def step_back(self, count):
        self.read -= count

    def settled(self):
        # The generator after exactly the uniforms read, drawn one at a time.
        if self.read < len(self.drawn):
            self.generator.bit_generator.state = self.start
            for _ in range(self.read):
                self.generator.random()
        self.drawn = self.drawn[: self.read]
        return self.generator


_STREAM_OPS = st.one_of(
    st.tuples(st.just("uniform"), st.integers(1, 300)),
    st.tuples(st.just("uniforms"), st.integers(0, 3000)),
    st.tuples(st.just("step_back"), st.integers(0, 3000)),
    st.tuples(st.just("random"), st.integers(0, 50)),
    st.tuples(st.just("int32"), st.integers(1, 3)),
)


@settings(max_examples=150, deadline=None)
@given(ops=st.lists(_STREAM_OPS, max_size=40), seed=st.integers(min_value=0, max_value=2**32))
# A scalar run that spends the read-ahead exactly, and one that refills it
# by one read, each followed by a block read and a direct generator call.
@example(ops=[("uniform", _READ_AHEAD), ("uniforms", 10), ("random", 5)], seed=5)
@example(ops=[("uniform", _READ_AHEAD + 1), ("uniforms", 10), ("random", 5)], seed=5)
def test_read_ahead_equals_one_at_a_time_draws(ops, seed):
    # Scalar reads, block reads, step-backs over (part of) the last read, and
    # direct generator calls, one of which may leave a buffered 32-bit half,
    # read the values of a twin that draws each uniform alone and leave the
    # generator in the twin's state.
    stream, twin = RandomStream(seed), _OneAtATime(seed)
    last = 0  # uniforms of the last read that may still be stepped back over
    for op, size in ops:
        if op == "uniform":
            for _ in range(size):
                assert stream.uniform() == twin.uniform()
            last = 1
        elif op == "uniforms":
            block = stream.uniforms(size)
            assert block.tolist() == [twin.uniform() for _ in range(size)]
            last = size
        elif op == "step_back":
            count = min(size, last)
            stream.step_back(count)
            twin.step_back(count)
            last -= count
        else:
            generator, reference = stream.generator, twin.settled()
            if op == "random":
                assert generator.random(size).tolist() == reference.random(size).tolist()
            else:
                assert generator.integers(0, 10**6, size, dtype=np.int32).tolist() == (
                    reference.integers(0, 10**6, size, dtype=np.int32).tolist()
                )
            twin._restart()
            last = 0
    assert stream.generator.bit_generator.state == twin.settled().bit_generator.state


def test_step_back_stays_inside_the_buffer():
    stream = RandomStream(3)
    with pytest.raises(ValueError):
        stream.step_back(1)
    first = stream.uniforms(5).tolist()
    stream.step_back(5)
    assert stream.uniforms(5).tolist() == first
    with pytest.raises(ValueError):
        stream.step_back(6)


# ---------------------------------------------------------------------------
# Laplace sampler
# ---------------------------------------------------------------------------


def test_laplace_rejects_bad_scale():
    with pytest.raises(ValueError):
        sample_laplace(RandomStream(0), 0.0)
    with pytest.raises(ValueError):
        sample_laplace(RandomStream(0), -1.0)


def test_laplace_median_is_zero():
    draws = laplace_draws(seed=1, scale=1.0, count=1_000_000)
    assert abs(np.median(draws)) < 0.01


def test_laplace_mean_absolute_value():
    draws = laplace_draws(seed=2, scale=2.0, count=1_000_000)
    assert abs(np.abs(draws).mean() - 2.0) < 0.02


def test_laplace_tail_probability():
    # P(X > b ln 2) = (1/2) e^(-ln 2) = 1/4
    draws = laplace_draws(seed=3, scale=1.0, count=1_000_000)
    assert abs(np.mean(draws > math.log(2)) - 0.25) < 0.005


# ---------------------------------------------------------------------------
# exponential mechanism
# ---------------------------------------------------------------------------


def test_em_rejects_bad_input():
    with pytest.raises(ValueError):
        exponential_mechanism(RandomStream(0), [], [], 1.0)
    with pytest.raises(ValueError):
        exponential_mechanism(RandomStream(0), ["a"], [0.0, 1.0], 1.0)


def test_em_uniform_when_scores_equal():
    stream = RandomStream(11)
    counts = np.zeros(4)
    trials = 100_000
    for _ in range(trials):
        counts[exponential_mechanism(stream, list("abcd"), [2.0] * 4, 1.0)] += 1
    expected = trials / 4
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # chi-square with 3 dof: 16.3 is the 0.001 quantile
    assert chi2 < 16.3


def test_em_uniform_when_epsilon_zero():
    stream = RandomStream(12)
    counts = np.zeros(3)
    trials = 60_000
    for _ in range(trials):
        counts[exponential_mechanism(stream, list("abc"), [0.0, -50.0, -100.0], 0.0)] += 1
    expected = trials / 3
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 13.8  # 0.001 quantile, 2 dof


def test_em_two_candidate_ratio():
    # scores (0, -1), epsilon 2: P(first)/P(second) = e
    stream = RandomStream(13)
    trials = 1_000_000
    # The same draws as 10^6 exponential_mechanism calls on the stream, in one batch.
    picks = em_draw(stream.generator, em_cumulative([0.0, -1.0], 2.0), trials)
    first = int(np.count_nonzero(picks == 0))
    ratio = first / (trials - first)
    assert abs(ratio - math.e) / math.e < 0.05


@pytest.mark.parametrize("epsilon", [0.5, 2.0, 8.0, 50.0])
def test_em_batched_draw_equals_sequential_calls(epsilon):
    rng = np.random.default_rng(int(epsilon * 10))
    for seed in range(20):
        scores = rng.integers(-12, 0, size=int(rng.integers(1, 30))).tolist()
        candidates = list(range(len(scores)))
        stream = RandomStream(seed)
        sequential = [exponential_mechanism(stream, candidates, scores, epsilon) for _ in range(200)]
        batched = em_draw(RandomStream(seed).generator, em_cumulative(scores, epsilon), 200)
        assert batched.tolist() == sequential
        # and the stream continues where 200 single draws leave it
        assert em_draw(stream.generator, em_cumulative(scores, epsilon)) == em_draw(
            RandomStream(seed).generator, em_cumulative(scores, epsilon), 201
        )[-1]


def test_em_exact_probability_ratio_bound():
    # analytic privacy check on the computed probability vectors themselves
    rng = np.random.default_rng(5)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        epsilon = float(rng.uniform(0.1, 4.0))
        s1 = rng.uniform(-30, 0, size=k)
        s2 = s1 + rng.uniform(-1, 1, size=k)  # entrywise within 1

        def probabilities(scores):
            w = np.exp(epsilon * (scores - scores.max()) / 2.0)
            return w / w.sum()

        p1, p2 = probabilities(s1), probabilities(s2)
        assert np.all(p1 <= np.exp(epsilon) * p2 * (1 + 1e-9))
        assert np.all(p2 <= np.exp(epsilon) * p1 * (1 + 1e-9))


def test_em_no_underflow_with_deep_scores():
    # max-shift keeps the top candidate's weight at 1 even for scores near -g
    stream = RandomStream(21)
    scores = [-1.0, -2000.0]
    picks = {exponential_mechanism(stream, ["a", "b"], scores, 50.0) for _ in range(50)}
    assert picks == {0}


# ---------------------------------------------------------------------------
# above-threshold
# ---------------------------------------------------------------------------


def test_svt_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        above_threshold(RandomStream(0), [1.0], 0.0, 0.0)


def test_svt_huge_margin_selects_first():
    hits = 0
    runs = 10_000
    stream = RandomStream(31)
    for _ in range(runs):
        out = above_threshold(stream, [10.0 + 1e6] * 5, tau=10.0, epsilon=1.0)
        if out.index == 0:
            hits += 1
    assert hits / runs > 0.999


def test_svt_huge_deficit_selects_none():
    misses = 0
    runs = 10_000
    stream = RandomStream(32)
    for _ in range(runs):
        out = above_threshold(stream, [10.0 - 1e6] * 5, tau=10.0, epsilon=1.0)
        if out.index is None:
            misses += 1
    assert misses / runs > 0.999
    assert out.queries_consumed == 5


def test_svt_accuracy_at_the_standard_constant():
    # 64 queries at tau - alpha followed by one at tau + alpha, with alpha at
    # the upsilon = 16 accuracy radius: the final query should win almost always.
    epsilon, beta, h = 1.0, 0.05, 64
    alpha = 16 * math.log(h / beta) / epsilon
    queries = [100.0 - alpha] * h + [100.0 + alpha]
    stream = RandomStream(33)
    wins = 0
    runs = 10_000
    for _ in range(runs):
        out = above_threshold(stream, queries, tau=100.0, epsilon=epsilon)
        if out.index == h:
            wins += 1
    assert wins / runs >= 0.95


def test_svt_lazy_consumption():
    for fired in (2, 40):
        evaluated = []

        def queries():
            for value in [0.0] * fired + [1e9] * 3:
                evaluated.append(value)
                yield value

        out = above_threshold(RandomStream(34), queries(), tau=100.0, epsilon=1.0)
        assert out == SvtOutcome(index=fired, queries_consumed=fired + 1)
        assert len(evaluated) == fired + 1  # nothing past the selected query was evaluated


def reference_above_threshold(stream, queries, tau, epsilon):
    # The textbook loop: one sample_laplace call per consumed query.
    rho = sample_laplace(stream, 2.0 / epsilon)
    for index, value in enumerate(queries):
        if value + sample_laplace(stream, 4.0 / epsilon) >= tau + rho:
            return SvtOutcome(index=index, queries_consumed=index + 1)
    return SvtOutcome(index=None, queries_consumed=len(queries))


def test_svt_reads_sequences_without_slices_one_query_at_a_time():
    # A deque has a length but takes no slice; a range slices to a range.
    values = [0.0, 3.0, 90.0, 1.0, 200.0]
    for queries in (deque(values), range(0, 300, 60)):
        stream, twin = RandomStream(8), RandomStream(8)
        assert above_threshold(stream, queries, 100.0, 1.0) == reference_above_threshold(
            twin, list(queries), 100.0, 1.0
        )
        assert stream.generator.bit_generator.state == twin.generator.bit_generator.state


class _ReadySource:
    # Queries of which only the first `ready` are ready; logs every slice read.
    def __init__(self, values, ready):
        self.values, self.ready, self.reads = values, ready, []

    def __len__(self):
        return len(self.values)

    def __getitem__(self, key):
        self.reads.append(range(*key.indices(len(self.values))))
        return self.values[key]


class _UnreadySource:
    # A length, numpy slices and iteration, but no `ready`; logs every slice.
    def __init__(self, values):
        self.values, self.slices = values, []

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values.tolist())

    def __getitem__(self, key):
        self.slices.append(key)
        return self.values[key]


@pytest.mark.parametrize("fired", [5, 4000])
def test_svt_reads_a_source_without_ready_one_query_at_a_time(fired):
    values = np.full(5000, -10**9, dtype=np.int64)
    values[fired:] = 10**9
    source = _UnreadySource(values)
    stream, twin = RandomStream(14), RandomStream(14)
    outcome = above_threshold(stream, source, 0.0, 1.0)
    assert outcome == reference_above_threshold(twin, values.tolist(), 0.0, 1.0)
    assert outcome == SvtOutcome(index=fired, queries_consumed=fired + 1)
    assert stream.generator.bit_generator.state == twin.generator.bit_generator.state
    assert source.slices == []


@settings(max_examples=200, deadline=None)
@given(
    length=st.integers(min_value=0, max_value=1500),
    tau=st.integers(min_value=0, max_value=60),
    epsilon=st.floats(min_value=0.05, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
def test_svt_reads_past_a_sources_ready_queries_only_when_none_of_them_fires(
    length, tau, epsilon, seed, data
):
    values = np.random.default_rng(seed).integers(0, 41, size=length)
    ready = data.draw(st.integers(min_value=0, max_value=length))
    source = _ReadySource(values, ready)
    stream, twin = RandomStream(seed), RandomStream(seed)
    outcome = above_threshold(stream, source, float(tau), epsilon)
    assert outcome == reference_above_threshold(twin, values.tolist(), float(tau), epsilon)
    assert stream.generator.bit_generator.state == twin.generator.bit_generator.state
    reads = [read for read in source.reads if read]
    assert all(read[-1] < ready or read[0] >= ready for read in reads)
    if outcome.index is not None and outcome.index < ready:
        assert all(read[-1] < ready for read in reads)


@pytest.mark.parametrize("ready,fired", [(20, 5), (32, 31), (1000, 900), (4096, 4000)])
def test_svt_reads_a_source_that_fires_before_ready_in_one_slice(ready, fired):
    values = np.full(5000, -10**9, dtype=np.int64)
    values[fired:] = 10**9
    source = _ReadySource(values, ready)
    stream, twin = RandomStream(12), RandomStream(12)
    outcome = above_threshold(stream, source, 0.0, 1.0)
    assert outcome == reference_above_threshold(twin, values.tolist(), 0.0, 1.0)
    assert outcome == SvtOutcome(index=fired, queries_consumed=fired + 1)
    assert stream.generator.bit_generator.state == twin.generator.bit_generator.state
    assert [read for read in source.reads if read] == [range(0, ready)]


def test_svt_memory_stays_within_one_block_on_a_long_source():
    # A never-firing 10^6-long source is compared 4096 queries at a time, so
    # its uniforms and noise are never all held at once.
    values = np.zeros(10**6, dtype=np.int64)
    stream = RandomStream(13)
    tracemalloc.start()
    try:
        outcome = above_threshold(stream, values, 1e9, 1.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome == SvtOutcome(index=None, queries_consumed=10**6)
    assert peak < 2**20


@settings(max_examples=200, deadline=None)
@given(
    queries=st.lists(st.integers(min_value=0, max_value=40), max_size=30),
    tau=st.integers(min_value=0, max_value=40),
    epsilon=st.floats(min_value=0.01, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_svt_draws_the_reference_loops_noise_in_order(queries, tau, epsilon, seed):
    stream, twin = RandomStream(seed), RandomStream(seed)
    values = [float(q) for q in queries]
    assert above_threshold(stream, values, float(tau), epsilon) == reference_above_threshold(
        twin, values, float(tau), epsilon
    )
    assert stream.generator.bit_generator.state == twin.generator.bit_generator.state


def _edge(threshold, noise, accepted):
    # The query at which `query + noise >= threshold` flips, as float addition
    # decides it: the least accepted value or the greatest rejected one.
    value = threshold - noise
    while value + noise >= threshold:
        value = math.nextafter(value, -math.inf)
    while math.nextafter(value, math.inf) + noise < threshold:
        value = math.nextafter(value, math.inf)
    return math.nextafter(value, math.inf) if accepted else value


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(min_value=0, max_value=64) | st.integers(min_value=4_000, max_value=10_000),
    step=st.integers(min_value=0, max_value=10_000),
    depth=st.integers(min_value=-2, max_value=40),
    near_start=st.integers(min_value=0, max_value=9_999),
    near_count=st.integers(min_value=0, max_value=300),
    edge=st.sampled_from(["rejected", "accepted", -1e-9, 1e-9]),
    buffered=st.booleans(),
    as_array=st.booleans(),
    epsilon=st.floats(min_value=0.05, max_value=50.0),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_block_svt_equals_the_textbook_loop(
    length, step, depth, near_start, near_count, edge, buffered, as_array, epsilon, seed
):
    # A step function from `depth` noise scales below tau to 40 above it.  A
    # list is compared one query at a time; an array long enough is compared
    # in fixed 4096-query blocks and crosses a block boundary.  A run of
    # queries sits where each one's own noise meets tau + rho: on either side
    # of the float boundary, where numpy's log1p may decide otherwise, or a
    # relative 1e-9 off it; a run of rejected ones is read to its end.  A
    # small tau keeps the noise comparable to tau + rho, where a last-bit
    # change flips a decision.  A buffered 32-bit half must survive the rewind.
    tau, scale = 1.0, 4.0 / epsilon
    streams = [RandomStream(seed) for _ in range(3)]
    if buffered:
        for stream in streams:
            stream.generator.integers(0, 1000, dtype=np.int32)
    stream, twin, spy = streams
    threshold = tau + sample_laplace(spy, 2.0 / epsilon)
    noise = [sample_laplace(spy, scale) for _ in range(length)]
    values = [tau - depth * scale if i < step else tau + 40 * scale for i in range(length)]
    near_start %= length + 1
    for i in range(near_start, min(near_start + near_count, length)):
        if isinstance(edge, str):
            values[i] = _edge(threshold, noise[i], edge == "accepted")
        else:
            values[i] = (threshold - noise[i]) * (1.0 + edge)
    queries = np.array(values) if as_array else values
    assert above_threshold(stream, queries, tau, epsilon) == reference_above_threshold(
        twin, values, tau, epsilon
    )
    assert stream.generator.bit_generator.state == twin.generator.bit_generator.state


@pytest.mark.parametrize("accepted", [True, False])
def test_block_svt_remakes_a_decision_numpy_rounds_the_other_way(accepted):
    # numpy's log1p may differ from math.log1p in the last bit.  One query
    # of an array compared as one block sits on the float boundary of its own
    # noise, at the first position where numpy's noise decides it the other
    # way; the other queries are far below tau, except a last one far above.
    epsilon, tau, length = 2.0, 1.0, 3000
    scale = 4.0 / epsilon
    for seed in range(100):
        spy = RandomStream(seed)
        threshold = tau + sample_laplace(spy, 2.0 / epsilon)
        state = spy.generator.bit_generator.state
        p = np.maximum(spy.generator.random(length), 2.0**-53) - 0.5
        numpy_noise = -scale * np.copysign(1.0, p) * np.log1p(-2.0 * np.abs(p))
        spy.generator.bit_generator.state = state
        noise = [sample_laplace(spy, scale) for _ in range(length)]
        flips = [
            i
            for i in range(100, length)
            if (_edge(threshold, noise[i], accepted) + numpy_noise[i] >= threshold) != accepted
        ]
        if flips:
            break
    position = flips[0]
    values = [tau - 40 * scale] * length
    values[position] = _edge(threshold, noise[position], accepted)
    values[-1] = tau + 40 * scale
    stream, twin = RandomStream(seed), RandomStream(seed)
    outcome = above_threshold(stream, np.array(values), tau, epsilon)
    assert outcome == reference_above_threshold(twin, values, tau, epsilon)
    assert outcome.index == (position if accepted else length - 1)
    assert stream.generator.bit_generator.state == twin.generator.bit_generator.state
