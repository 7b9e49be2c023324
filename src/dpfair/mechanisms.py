"""Reusable differentially private primitives on a seeded random stream.

Everything here is deterministic given a :class:`RandomStream`: the same
``(seed, stream id)`` replays the same draws bit for bit, and distinct
stream ids yield statistically independent substreams (backed by numpy's
``SeedSequence`` spawn keys).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np


class RandomStream:
    """Seeded source of reproducible randomness.

    A stream is addressed by a 64-bit master seed plus a stream id; child
    streams extend the id into a path of counters, which lets callers hand
    independent substreams to parallel trials without coordinating.  A
    stream is single-owner: its draws come from one stateful generator.
    """

    def __init__(self, seed: int, stream_id: int | tuple[int, ...] = ()):
        self.seed = int(seed)
        if isinstance(stream_id, int):
            stream_id = (stream_id,)
        self.path = tuple(int(x) for x in stream_id)
        self._generator: Optional[np.random.Generator] = None

    @property
    def generator(self) -> np.random.Generator:
        if self._generator is None:
            seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
            self._generator = np.random.Generator(np.random.PCG64(seq))
        return self._generator

    def child(self, index: int) -> "RandomStream":
        """Independent substream; ``child(i)`` is stable across runs."""
        return RandomStream(self.seed, self.path + (int(index),))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, stream_id={self.path})"


@dataclass(frozen=True)
class SvtOutcome:
    """Result of one above-threshold run.

    ``index`` is the 0-based position of the selected query, or ``None``
    when the sequence was exhausted; ``queries_consumed`` counts how many
    queries were actually evaluated.
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
    return _laplace(stream.generator.random(), scale)


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


# above_threshold compares its first _SVT_HEAD queries one at a time, so a
# short run never pays a numpy block's fixed cost; later queries go in
# blocks that double from 256 up to _SVT_BLOCK.  numpy's log1p may differ
# from math.log1p in the last bit, so a block decision within a relative
# _SVT_MARGIN of the threshold is remade with the scalar transform.
_SVT_HEAD = 32
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
    stream's final state equal those of the one-query-at-a-time loop.  The
    first 32 queries are consumed lazily and never past the selected index,
    so callers may pass a generator whose elements are expensive to
    evaluate.  Later ones are read and compared in numpy blocks of up to
    4096; on acceptance inside a block the stream is restored to its state
    before the block, buffered 32-bit half included, and advanced by exactly
    the draws of the queries up to the selected one.  A numpy array of
    queries is sliced into blocks without a copy.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    rho = sample_laplace(stream, 2.0 / epsilon)
    threshold = tau + rho
    scale = 4.0 / epsilon
    generator = stream.generator
    random = generator.random
    if isinstance(queries, np.ndarray):
        head, rest = queries[:_SVT_HEAD].tolist(), queries[_SVT_HEAD:]
    else:
        rest = iter(queries)
        head = islice(rest, _SVT_HEAD)
    consumed = 0
    for value in head:
        if value + _laplace(random(), scale) >= threshold:
            return SvtOutcome(index=consumed, queries_consumed=consumed + 1)
        consumed += 1
    for block in _query_blocks(rest):
        saved = generator.bit_generator.state
        uniforms = random(len(block))
        index = _first_above(block, uniforms, threshold, scale)
        if index is not None:
            generator.bit_generator.state = saved
            random(index + 1)
            return SvtOutcome(index=consumed + index, queries_consumed=consumed + index + 1)
        consumed += len(block)
    return SvtOutcome(index=None, queries_consumed=consumed)


def _query_blocks(rest: np.ndarray | Iterator[float]) -> Iterator[np.ndarray]:
    # The queries after the head, in blocks of 256, 512, ... up to _SVT_BLOCK.
    start, size = 0, 256
    while True:
        if isinstance(rest, np.ndarray):
            block = rest[start : start + size]
        else:
            block = np.fromiter(islice(rest, size), dtype=np.float64)
        if not len(block):
            return
        yield block
        start += size
        size = min(2 * size, _SVT_BLOCK)


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
