"""The three private primitives: Laplace noise, exponential mechanism,
above-threshold selection.

Everything is driven by a seeded stream: rerunning this script reproduces
the identical output, and distinct stream ids give independent substreams.
"""

import math

import numpy as np

from dpfair import RandomStream, above_threshold, exponential_mechanism, sample_laplace
from dpfair.mechanisms import em_cumulative, em_draw

# --- Laplace noise ---------------------------------------------------------
stream = RandomStream(seed=2024)
draws = np.array([sample_laplace(stream, scale=2.0) for _ in range(100_000)])
print("Laplace(0, 2) over 10^5 draws:")
print(f"  median  = {np.median(draws):+.4f}   (target 0)")
print(f"  mean|X| = {np.abs(draws).mean():.4f}    (target 2 = the scale)")
print(f"  P(X > 2 ln 2) = {np.mean(draws > 2 * math.log(2)):.4f}  (target 0.25)")

# --- exponential mechanism -------------------------------------------------
# Three candidates with scores 0, -1, -2 at epsilon = 2: each score step
# costs a factor e in selection probability.
stream = RandomStream(seed=7)
scores = [0.0, -1.0, -2.0]
first = exponential_mechanism(stream, ["a", "b", "c"], scores, 2.0)  # one draw, one uniform
# The other 199,999 draws in one batch, which reads the same uniforms in turn
# as that many more exponential_mechanism calls.
counts = np.bincount(em_draw(stream.generator, em_cumulative(scores, 2.0), 199_999), minlength=3)
counts[first] += 1
print()
print("exponential mechanism, scores (0, -1, -2), eps = 2:")
print(f"  empirical frequencies: {counts / counts.sum()}")
weights = np.exp([0.0, -1.0, -2.0])
print(f"  exact probabilities:   {weights / weights.sum()}")

# --- above-threshold -------------------------------------------------------
# Twenty mediocre queries followed by one clearly above the threshold; the
# mechanism almost always stops at the good one, and it never evaluates a
# query past its stopping point (queries are consumed lazily).
def queries():
    for _ in range(20):
        yield 40.0
    yield 90.0

stream = RandomStream(seed=99)
hits = np.zeros(22, dtype=int)
for _ in range(2000):
    out = above_threshold(stream, queries(), tau=60.0, epsilon=1.0)
    hits[out.index if out.index is not None else 21] += 1
print()
print("above-threshold over 20 low queries + 1 high one (tau = 60):")
print(f"  picked the high query {hits[20]} / 2000 times")
print(f"  false early stops: {hits[:20].sum()}, exhausted: {hits[21]}")

# replaying the same seed gives the identical draw sequence
a = [sample_laplace(RandomStream(5), 1.0) for _ in range(3)]
b = [sample_laplace(RandomStream(5), 1.0) for _ in range(3)]
print()
print("replay check:", "identical" if a == b else "MISMATCH")
