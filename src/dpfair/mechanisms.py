"""Reusable differentially private primitives on a seeded random stream.

Everything here is deterministic given a :class:`RandomStream`: the same
``(seed, stream id)`` replays the same draws bit for bit, and distinct
stream ids yield statistically independent substreams (backed by numpy's
``SeedSequence`` spawn keys).
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np


# A scalar read that refills a stream's buffer draws _READ_AHEAD doubles.
_READ_AHEAD = 256


class RandomStream:
    """Seeded source of reproducible randomness.

    A stream is addressed by a 64-bit master seed plus a stream id; child
    streams extend the id into a path of counters, which lets callers hand
    independent substreams to parallel trials without coordinating.  A
    stream is single-owner: its draws come from one stateful generator.

    The uniforms that :func:`sample_laplace` and :func:`above_threshold`
    read come from a read-ahead buffer: ``generator.random(size)`` yields
    the same doubles as ``size`` one-at-a-time draws, so a read is the next
    buffered double and a step back is a move of the read position.  A
    scalar read past the buffer draws the next 256 doubles; a block read
    past it draws exactly its block.  The
    :attr:`generator` property first puts the generator where one-at-a-time
    draws would have left it, so buffered reads and direct generator calls
    interleave as if every uniform had been drawn alone.  A generator taken
    from the property stays in step only until the next buffered read.
    """

    def __init__(self, seed: int, stream_id: int | tuple[int, ...] = ()):
        self.seed = int(seed)
        if isinstance(stream_id, int):
            stream_id = (stream_id,)
        self.path = tuple(int(x) for x in stream_id)
        self._generator: Optional[np.random.Generator] = None
        # The buffer as an array, and as a list for scalar reads (None when
        # a block read drew it), the read position in it and the generator's
        # state before it was drawn (None while no buffer is held).
        self._block: np.ndarray = np.empty(0)
        self._values: Optional[list[float]] = None
        self._position = 0
        self._saved: Optional[dict] = None

    @property
    def generator(self) -> np.random.Generator:
        """The generator, where one-at-a-time draws of every read uniform leave it."""
        return self._sync()

    def _sync(self) -> np.random.Generator:
        # Drop the buffer, leaving the generator after its consumed doubles:
        # restore the state from before the buffer and redraw them, unless
        # all were consumed.  (bit_generator.advance would drop a buffered
        # 32-bit half.)
        if self._generator is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._generator = np.random.Generator(np.random.PCG64(seq))
        elif self._saved is not None:
            if self._position < len(self._block):
                self._generator.bit_generator.state = self._saved
                self._generator.random(self._position)
            self._saved = None
            self._block, self._values, self._position = np.empty(0), None, 0
        return self._generator

    def _reserve(self, count: int, listed: bool) -> int:
        # Buffer at least `count` unread uniforms, as a list too if `listed`,
        # and return the read position.  A refill restarts the buffer at the
        # read position, so the unread tail is read again from the new one.
        # A scalar refill reads _READ_AHEAD doubles ahead; a block read draws
        # its block alone.
        position = self._position
        if position + count <= len(self._block) and (self._values is not None or not listed):
            return position
        generator = self._sync()
        self._saved = generator.bit_generator.state
        self._block = generator.random(max(count, _READ_AHEAD) if listed else count)
        self._values = self._block.tolist() if listed else None
        return 0

    def uniform(self) -> float:
        """The next uniform in [0, 1), as ``generator.random()`` would draw it."""
        position = self._reserve(1, True)
        self._position = position + 1
        return self._values[position]

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` uniforms, as a read-only view of the buffer."""
        position = self._reserve(count, False)
        self._position = position + count
        view = self._block[position : position + count]
        view.flags.writeable = False
        return view

    def step_back(self, count: int) -> None:
        """Unread ``count`` uniforms of the last read, so they are read again next."""
        if not 0 <= count <= self._position:
            raise ValueError(f"cannot step back {count} of {self._position} buffered reads")
        self._position -= count

    def child(self, index: int) -> "RandomStream":
        """Independent substream; ``child(i)`` is stable across runs."""
        return RandomStream(self.seed, self.path + (int(index),))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.path})"


class SvtOutcome(NamedTuple):
    """Result of one above-threshold run.

    ``index`` is the 0-based position of the selected query, or ``None``
    when the sequence was exhausted; ``queries_consumed`` counts how many
    queries were actually evaluated.  A plain named tuple, so outcomes hash
    and compare as cheaply as the pairs they are.
    """

    index: Optional[int]
    queries_consumed: int


def sample_laplace(stream: RandomStream, scale: float) -> float:
    """One draw from Laplace(0, scale) via the inverse CDF.

    The draw maps a uniform ``v in [0, 1)`` through ``p = v - 1/2`` and
    ``x = -scale * sgn(p) * log(1 - 2|p|)``.  The single measure-zero input
    ``v = 0`` is nudged to ``2**-53``, which truncates the left tail around
    ``37 * scale``; the right tail is truncated symmetrically by the float
    grid itself.
    """
    if scale <= 0:
        raise ValueError("Laplace scale must be positive")
    return _laplace(stream.uniform(), scale)


def _laplace(v: float, scale: float) -> float:
    # The inverse-CDF transform of sample_laplace, applied to the uniform v.
    if v == 0.0:
        v = 2.0 ** -53
    p = v - 0.5
    return -scale * math.copysign(1.0, p) * math.log1p(-2.0 * abs(p))


def em_weights(scores: Sequence[float], epsilon: float) -> np.ndarray:
    """Unnormalized exponential-mechanism weights exp(epsilon * (s - max s) / 2).

    Selection probabilities are invariant under a common shift of the
    scores, and shifting by the maximum keeps the top weight at 1 so it can
    never underflow.
    """
    shifted = np.asarray(scores, dtype=np.float64)
    return np.exp(epsilon * (shifted - shifted.max()) / 2.0)


def em_cumulative(scores: Sequence[float], epsilon: float) -> np.ndarray:
    """Cumulative :func:`em_weights`, the fixed state of every exponential-mechanism draw."""
    return np.cumsum(em_weights(scores, epsilon))


def em_draw(
    generator: np.random.Generator, cumulative: np.ndarray, size: Optional[int] = None
) -> int | np.ndarray:
    """Index drawn in proportion to the weights behind ``cumulative``: one uniform per draw.

    ``size=None`` draws one ``int``; an integer ``size`` draws an array of
    that many indices, equal to as many one-at-a-time draws from the same
    generator, because ``generator.random(size)`` is that many successive
    uniforms.
    """
    u = generator.random(size) * cumulative[-1]
    index = np.minimum(np.searchsorted(cumulative, u, side="right"), len(cumulative) - 1)
    return index if size is not None else int(index)


def exponential_mechanism(
    stream: RandomStream,
    candidates: Sequence,
    scores: Sequence[float],
    epsilon: float,
) -> int:
    """Select an index with probability proportional to exp(epsilon * score / 2).

    The caller guarantees each score has sensitivity at most 1.  The draw is
    :func:`em_draw` on :func:`em_cumulative`.
    """
    if len(candidates) == 0:
        raise ValueError("candidate list must be nonempty")
    if len(scores) != len(candidates):
        raise ValueError("need exactly one score per candidate")
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    return em_draw(stream.generator, em_cumulative(scores, epsilon))


# above_threshold reads an ndarray, or a source that declares `ready`, in
# slices of at most _SVT_BLOCK queries.  A slice shorter than _SVT_SCALAR is compared one query at a time,
# so a short read never pays a numpy block's fixed cost.  numpy's log1p may
# differ from math.log1p in the last bit, so a block decision within a
# relative _SVT_MARGIN of the threshold is remade with the scalar transform.
_SVT_SCALAR = 32
_SVT_BLOCK = 4096
_SVT_MARGIN = 1e-9


def above_threshold(
    stream: RandomStream,
    queries: Iterable[float],
    tau: float,
    epsilon: float,
) -> SvtOutcome:
    """Standard AboveThreshold: first query that beats a noisy threshold.

    Draws one Laplace(2/epsilon) threshold perturbation, then compares each
    query plus fresh Laplace(4/epsilon) noise against it, stopping at the
    first success.  Each query's noise is the next uniform of the stream,
    mapped as :func:`sample_laplace` maps it, so the outcome and the
    stream's final state equal those of the one-query-at-a-time loop.

    A numpy array, or a source that declares ``ready`` -- an object with a
    length whose slices are numpy arrays, of which the first ``ready``
    values are ready and the rest are computed on demand -- is read in
    consecutive slices of at most 4096 queries, and no slice crosses
    ``ready``, so the rest is read only when no query before it is
    selected.  A slice of 32 or more is compared as one numpy block of
    uniforms read ahead by the stream; on acceptance inside it the stream
    steps back over the uniforms past the selected query.  Any other source
    (a list, tuple, range, deque or generator) is consumed lazily, one query
    at a time and never past the selected index, so callers may pass a
    generator whose elements are expensive to evaluate.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    threshold = tau + sample_laplace(stream, 2.0 / epsilon)
    scale = 4.0 / epsilon
    if not (isinstance(queries, np.ndarray) or hasattr(queries, "ready")):
        consumed = 0
        for value in queries:
            consumed += 1
            if value + _laplace(stream.uniform(), scale) >= threshold:
                return SvtOutcome(consumed - 1, consumed)
        return SvtOutcome(None, consumed)
    length = len(queries)
    ready = getattr(queries, "ready", length)
    start = 0
    while start < length:
        stop = start + _SVT_BLOCK
        block = queries[start : ready if start < ready < stop else stop]
        size = len(block)
        if size < _SVT_SCALAR:
            first = position = stream._reserve(size, True)
            uniforms = stream._values
            for value in block.tolist():
                noise = _laplace(uniforms[position], scale)
                position += 1
                if value + noise >= threshold:
                    stream._position = position
                    return SvtOutcome(start + position - first - 1, start + position - first)
            stream._position = position
        else:
            index = _first_above(block, stream.uniforms(size), threshold, scale)
            if index is not None:
                stream.step_back(size - index - 1)
                return SvtOutcome(start + index, start + index + 1)
        start += size
    return SvtOutcome(None, length)


def _first_above(
    values: np.ndarray, uniforms: np.ndarray, threshold: float, scale: float
) -> Optional[int]:
    # First index at which value + Laplace noise of its uniform reaches the
    # threshold, decided as the scalar loop decides it, or None.
    p = np.maximum(uniforms, 2.0**-53) - 0.5  # _laplace's nudge of v = 0
    noise = -scale * np.copysign(1.0, p) * np.log1p(-2.0 * np.abs(p))
    noisy = values + noise
    margin = _SVT_MARGIN * (np.abs(values) + np.abs(noise) + abs(threshold))
    for index in np.flatnonzero(noisy >= threshold - margin):
        if (
            noisy[index] >= threshold + margin[index]
            or float(values[index]) + _laplace(float(uniforms[index]), scale) >= threshold
        ):
            return int(index)
    return None


def monte_carlo_count(
    stream: RandomStream,
    trials: int,
    chunk: int,
    count: Callable[[np.random.Generator, int], int],
) -> int:
    """Sum of ``count(generator, batch)`` over ``trials`` split into chunks.

    Chunk ``i`` holds at most ``chunk`` trials and draws from
    ``stream.child(i)``, so vectorized experiments replay identically for a
    fixed chunk size.
    """
    hits = 0
    for chunk_index, done in enumerate(range(0, trials, chunk)):
        hits += count(stream.child(chunk_index).generator, min(chunk, trials - done))
    return hits
