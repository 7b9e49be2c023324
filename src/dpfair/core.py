"""Exact utility model, adjacency relations, and fairness checkers.

Utilities are stored as nonnegative integers with a shared per-profile
denominator (``scale``), so every fairness comparison below is exact
integer arithmetic; nothing here depends on floating point.  Items and
agents are 1-based throughout the public surface.

Two utility kinds are supported:

* ``additive`` -- the value of a bundle is the sum of its item values.
* ``general``  -- an arbitrary monotone set function, given explicitly as a
  per-agent table of ``2**m`` scaled integers indexed by item-subset
  bitmask (bit ``j-1`` set means item ``j`` is in the subset).  Tables are
  only practical for small ``m``; construction enforces ``m <= 16``.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np


GENERAL_TABLE_MAX_ITEMS = 16


class EnumerationCapError(RuntimeError):
    """Raised when a computation would enumerate more candidates than allowed."""


class Adjacency(str, Enum):
    """Which edits turn one utility profile into a neighboring one."""

    AGENT_LEVEL = "agent_level"            # one agent's whole row may change
    AGENT_ITEM_LEVEL = "agent_item_level"  # one agent's value for one item may change


@dataclass(frozen=True, eq=False)
class UtilityProfile:
    """Exact utilities of ``n`` agents over ``m`` items.

    ``values[i-1, j-1] / scale`` is agent ``i``'s value for item ``j``.
    For ``kind == "general"``, ``tables[i-1][mask]`` is agent ``i``'s scaled
    value for the subset encoded by ``mask`` and the ``values`` matrix must
    agree with the singleton entries of the tables.  ``values`` is one
    read-only ``(n, m)`` copy of the input: int64 where every value fits,
    and otherwise an object array of Python ints.  Integer and bool cells
    of any container are accepted; 0.7, "2" or None raise ``TypeError``.
    Table entries are stored as Python ints through ``operator.index``.
    """

    n: int
    m: int
    scale: int
    values: np.ndarray
    kind: str = "additive"
    tables: Optional[tuple[tuple[int, ...], ...]] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one agent")
        if self.m < 0:
            raise ValueError("item count must be nonnegative")
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")
        if self.kind not in ("additive", "general"):
            raise ValueError(f"unknown utility kind: {self.kind!r}")
        if len(self.values) != self.n or any(len(row) != self.m for row in self.values):
            raise ValueError("values matrix must be exactly n x m")
        values = _integer_matrix(self.values, (self.n, self.m))
        if values.size and values.min() < 0:
            raise ValueError("utilities must be nonnegative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        if self.kind == "general":
            if self.m > GENERAL_TABLE_MAX_ITEMS:
                raise ValueError(
                    f"general tables supported only for m <= {GENERAL_TABLE_MAX_ITEMS}"
                )
            if self.tables is None or len(self.tables) != self.n:
                raise ValueError("general profiles need one table per agent")
            tables = tuple(tuple(map(operator.index, table)) for table in self.tables)
            object.__setattr__(self, "tables", tables)
            size = 1 << self.m
            for i, (table, row) in enumerate(zip(self.tables, values.tolist())):
                if len(table) != size:
                    raise ValueError(f"table for agent {i + 1} must have 2^m entries")
                _check_monotone_table(table, self.m, i + 1)
                for j in range(self.m):
                    if table[1 << j] != row[j]:
                        raise ValueError(
                            f"values[{i + 1}][{j + 1}] disagrees with table singleton"
                        )
        elif self.tables is not None:
            raise ValueError("additive profiles must not carry tables")

    def __eq__(self, other):
        if not isinstance(other, UtilityProfile):
            return NotImplemented
        return (self.n, self.m, self.scale, self.kind, self.tables) == (
            other.n, other.m, other.scale, other.kind, other.tables
        ) and np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash((self.n, self.m, self.scale, self.kind, self.tables, self._digest))

    @cached_property
    def _digest(self) -> int:
        # Equal values share a dtype, so equal profiles share a digest.  The
        # cells of an object array are hashed as ints: its bytes are pointers.
        if self.values.dtype == object:
            return hash(tuple(self.values.flat))
        return int.from_bytes(hashlib.blake2b(self.values.tobytes(), digest_size=8).digest())

    @cached_property
    def max_value(self) -> int:
        """The largest scaled value, 0 when there are no items; read once."""
        return int(self.values.max(initial=0))

    @property
    def items(self) -> range:
        return range(1, self.m + 1)

    @property
    def agents(self) -> range:
        return range(1, self.n + 1)

    def is_binary(self) -> bool:
        return bool(((self.values == 0) | (self.values == self.scale)).all())

    @staticmethod
    def additive(values: Sequence[Sequence[int]], scale: int = 1) -> "UtilityProfile":
        rows = tuple(values)
        return UtilityProfile(n=len(rows), m=len(rows[0]) if rows else 0, scale=scale, values=rows)

    @staticmethod
    def general(tables: Sequence[Sequence[int]], scale: int = 1) -> "UtilityProfile":
        """Build a general-kind profile; singleton values are read off the tables."""
        tabs = tuple(tables)
        n = len(tabs)
        if n == 0:
            raise ValueError("need at least one agent")
        size = len(tabs[0])
        m = size.bit_length() - 1
        if 1 << m != size:
            raise ValueError("table length must be a power of two")
        vals = [[table[1 << j] for j in range(m)] for table in tabs]
        return UtilityProfile(n=n, m=m, scale=scale, values=vals, kind="general", tables=tabs)


def _integer_matrix(cells, shape: tuple[int, int]) -> np.ndarray:
    # A fresh (n, m) array of the cells: int64 where every value fits in it,
    # else Python ints.  Bools count as 0 and 1; other cells that are not
    # integers raise TypeError.
    try:
        array = np.asarray(cells)
        if array.dtype.kind not in "biu":
            # Floats, strings and None, but also ints past int64 that numpy
            # turned into floats: each cell is read on its own below.
            array = np.array(cells, dtype=object)
    except ValueError as exc:  # a cell is itself a sequence
        raise TypeError(f"utility values must be integers: {exc}") from exc
    if array.size == 0:
        return np.zeros(shape, dtype=np.int64)
    if array.shape != shape:
        raise TypeError("utility values must be integers, not sequences")
    # uint64 may hold 2**63 and more, which int64 would wrap.
    if array.dtype.kind in "bi" or (array.dtype.kind == "u" and array.max() < 2**63):
        # An array that asarray built from a container owns the only copy of
        # the cells; one that is, or views, the caller's array is copied.
        fresh = array is not cells and array.base is None
        return array.astype(np.int64, order="C", copy=not fresh)
    flat = [operator.index(v) for v in array.flat]
    if -(2**63) <= min(flat) and max(flat) < 2**63:
        return np.array(flat, dtype=np.int64).reshape(shape)
    return np.array(flat, dtype=object).reshape(shape)


def _check_monotone_table(table: Sequence[int], m: int, agent: int) -> None:
    # Adding any single item may never decrease the value; by induction this
    # gives full monotonicity over the subset lattice.
    if table[0] != 0:
        raise ValueError(f"table for agent {agent} must assign 0 to the empty set")
    if min(table) < 0:
        raise ValueError(f"table for agent {agent} has negative entries")
    for mask in range(len(table)):
        for j in range(m):
            bit = 1 << j
            if not mask & bit and table[mask] > table[mask | bit]:
                raise ValueError(f"table for agent {agent} is not monotone")


@dataclass(frozen=True)
class ConnectedAllocation:
    """A partition of the item line into per-agent intervals.

    ``spans[i-1]`` is either ``None`` (agent ``i`` gets nothing) or an
    inclusive 1-based pair ``(start, end)``.  The nonempty spans must be
    pairwise disjoint and tile ``[1, m]`` exactly, where ``m`` is the total
    number of covered items.
    """

    spans: tuple[Optional[tuple[int, int]], ...]

    def __post_init__(self):
        nonempty = []
        for span in self.spans:
            if span is None:
                continue
            start, end = span
            if start < 1 or start > end:
                raise ValueError(f"invalid span {span}")
            nonempty.append(span)
        nonempty.sort()
        cursor = 1
        for start, end in nonempty:
            if start != cursor:
                raise ValueError("spans must tile [1, m] without gaps or overlaps")
            cursor = end + 1

    @property
    def n(self) -> int:
        return len(self.spans)

    @property
    def m(self) -> int:
        return sum(span[1] - span[0] + 1 for span in self.spans if span is not None)

    def bundle(self, agent: int) -> tuple[int, ...]:
        span = self.spans[agent - 1]
        if span is None:
            return ()
        return tuple(range(span[0], span[1] + 1))

    def bundles(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.bundle(i) for i in range(1, self.n + 1))


@dataclass(frozen=True)
class PrivacyParams:
    """Privacy budget and failure probability for the private allocators.

    Both allocators are private under agent-by-item adjacency.
    """

    epsilon: float
    beta: float = 0.1
    svt_constant: float = 16.0  # accuracy constant of the threshold mechanism

    def __post_init__(self):
        # inf and NaN pass the sign checks but give NaN EM weights and SVT overflows.
        for name in ("epsilon", "svt_constant"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must lie in (0, 1]")
        if self.svt_constant <= 0:
            raise ValueError("svt constant must be positive")


# ---------------------------------------------------------------------------
# scaled-integer utility evaluation (internal; exact)
# ---------------------------------------------------------------------------


def _check_agent(profile: UtilityProfile, agent: int) -> None:
    if not 1 <= agent <= profile.n:
        raise IndexError(f"agent {agent} out of range [1, {profile.n}]")


def _as_item_tuple(profile: UtilityProfile, items: Iterable[int]) -> tuple[int, ...]:
    out = tuple(items)
    if out and not 1 <= min(out) <= max(out) <= profile.m:
        bad = next(j for j in out if not 1 <= j <= profile.m)
        raise IndexError(f"item {bad} out of range [1, {profile.m}]")
    return out


def _mask_of(items: Iterable[int]) -> int:
    mask = 0
    for j in items:
        mask |= 1 << (j - 1)
    return mask


def scaled_bundle(profile: UtilityProfile, agent: int, items: Iterable[int]) -> int:
    """Scaled (integer) value of a bundle; ``bundle_utility`` divides by scale."""
    _check_agent(profile, agent)
    items = _as_item_tuple(profile, items)
    if profile.kind == "additive":
        row = profile.values[agent - 1].tolist()  # Python ints: an int64 sum could wrap
        return sum([row[j - 1] for j in items])
    return profile.tables[agent - 1][_mask_of(items)]


def scaled_truncated(profile: UtilityProfile, agent: int, items: Iterable[int], k: int) -> int:
    """Scaled bundle value after an adversary removes up to ``k`` items.

    Removing items outside the bundle never lowers the value (monotonicity),
    so the minimization ranges over subsets of ``items`` only; and removing
    more items never raises it, so exactly ``min(k, |items|)`` removals are
    optimal.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_agent(profile, agent)
    items = _as_item_tuple(profile, items)
    drop = min(k, len(items))
    if profile.kind == "additive":
        row = profile.values[agent - 1].tolist()
        vals = sorted([row[j - 1] for j in items], reverse=True)
        return sum(vals[drop:])
    table = profile.tables[agent - 1]
    full = _mask_of(items)
    return min(
        table[full & ~_mask_of(gone)] for gone in itertools.combinations(items, drop)
    )


def threshold_counts(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows of an additive profile's ``values`` as weighted thresholds.

    Returns ``(owner, w, c)`` with one entry per distinct positive value
    ``v`` of each row, by row and then ascending ``v``: ``owner`` is the
    row, ``w`` is ``v`` minus the row's next lower value (or 0), and
    ``c[d, j]`` counts the items of ``values[owner[d], :j]`` worth at least
    ``v``.  The ``k`` largest items of ``values[i, s:e]`` take ``min(k, c[d,
    e] - c[d, s])`` off every count of row ``i``, so its
    :func:`scaled_truncated` value is the sum of ``w * max(c[:, e] - c[:,
    s] - k, 0)`` over that row's entries; counts fall as ``v`` rises, so
    each term after a zero one is zero.  The table holds ``D * (m + 1)``
    counts for ``D`` distinct positive values in all, so it suits short rows
    such as the EF scorer's; the moving knife's long ranges use a wavelet
    matrix instead, of ``m * ceil(log2 D)`` entries per row.
    """
    ascending = np.sort(values, axis=1)
    steps = ascending.copy()  # v minus the item below it, or v
    steps[:, 1:] -= ascending[:, :-1]
    owner, at = np.nonzero((ascending > 0) & (steps != 0))  # each value's first copy
    counts = np.zeros((len(owner), values.shape[1] + 1), dtype=np.int64)
    np.cumsum(values[owner] >= ascending[owner, at][:, None], axis=1, out=counts[:, 1:])
    return owner, steps[owner, at], counts


def scaled_top_k(profile: UtilityProfile, agent: int, items: Iterable[int], k: int) -> int:
    """Scaled value of the best sub-bundle of ``items`` with at most ``k`` items."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    _check_agent(profile, agent)
    items = _as_item_tuple(profile, items)
    take = min(k, len(items))
    if profile.kind == "additive":
        row = profile.values[agent - 1].tolist()
        vals = sorted([row[j - 1] for j in items], reverse=True)
        return sum(vals[:take])
    table = profile.tables[agent - 1]
    # Monotone tables attain the max at full size `take`.
    return max(table[_mask_of(kept)] for kept in itertools.combinations(items, take))


# ---------------------------------------------------------------------------
# public operations (exact rationals)
# ---------------------------------------------------------------------------


def bundle_utility(profile: UtilityProfile, agent: int, items: Iterable[int]) -> Fraction:
    """Exact value agent ``agent`` assigns to the set ``items``."""
    return Fraction(scaled_bundle(profile, agent, items), profile.scale)


def truncated_utility(
    profile: UtilityProfile, agent: int, items: Iterable[int], k: int
) -> Fraction:
    """Exact worst-case bundle value after removing up to ``k`` items."""
    return Fraction(scaled_truncated(profile, agent, items, k), profile.scale)


def top_k_utility(profile: UtilityProfile, agent: int, items: Iterable[int], k: int) -> Fraction:
    """Exact best value achievable with at most ``k`` of the given items."""
    return Fraction(scaled_top_k(profile, agent, items, k), profile.scale)


def _bundles_for(
    profile: UtilityProfile, allocation: ConnectedAllocation
) -> tuple[tuple[int, ...], ...]:
    if allocation.n != profile.n:
        raise ValueError("allocation and profile disagree on the number of agents")
    if allocation.m != profile.m:
        raise ValueError("allocation and profile disagree on the number of items")
    return allocation.bundles()


def is_ef_c(profile: UtilityProfile, allocation: ConnectedAllocation, c: int) -> bool:
    """Envy-freeness up to ``c`` items, checked exactly.

    Agent ``i`` accepts agent ``i``'s own bundle against ``i'`` when some set
    of at most ``c`` items can be removed from ``A_{i'}`` so that ``i`` no
    longer prefers the remainder.  With a single agent the condition is
    vacuous.  This is :func:`is_ef_d_wrt_truncated` with ``k = 0``.
    """
    return is_ef_d_wrt_truncated(profile, allocation, c, 0)


def is_prop_c(profile: UtilityProfile, allocation: ConnectedAllocation, c: int) -> bool:
    """Proportionality up to ``c`` items, checked exactly.

    The comparison ``u_i(A_i) + top_c(M \\ A_i) >= u_i(M) / n`` is evaluated
    as ``n * (own + best_outside) >= total`` in integers, so no rational
    division takes place.
    """
    if c < 0:
        raise ValueError("c must be nonnegative")
    bundles = _bundles_for(profile, allocation)
    all_items = tuple(profile.items)
    for i in profile.agents:
        mine = set(bundles[i - 1])
        outside = tuple(j for j in all_items if j not in mine)
        own = scaled_bundle(profile, i, bundles[i - 1])
        best_outside = scaled_top_k(profile, i, outside, c)
        total = scaled_bundle(profile, i, all_items)
        if profile.n * (own + best_outside) < total:
            return False
    return True


def least_true(check: Callable[[int], bool], lo: int, hi: int) -> int:
    """Least ``x`` in ``[lo, hi]`` with ``check(x)``, or ``hi + 1`` if none.

    ``check`` must be monotone (false, then true).  Probes ``lo, lo+1, lo+3,
    lo+7, ...`` and then bisects the last gap: O(log d) probes for an answer
    ``d`` past ``lo``, and exactly one for an answer at ``lo``.
    """
    below = lo - 1  # check is false at every x <= below
    probe = lo
    while probe <= hi:
        if check(probe):
            hi = probe - 1
            break
        below, probe = probe, 2 * probe - lo + 1
    while below < hi:  # the answer lies in (below, hi + 1]
        mid = (below + hi + 1) // 2
        if check(mid):
            hi = mid - 1
        else:
            below = mid
    return hi + 1


def min_ef_c(profile: UtilityProfile, allocation: ConnectedAllocation) -> int:
    """Least c for which :func:`is_ef_c` holds; EF-m always holds, so at most m."""
    return least_true(lambda c: is_ef_c(profile, allocation, c), 0, profile.m)


def min_prop_c(profile: UtilityProfile, allocation: ConnectedAllocation) -> int:
    """Least c in ``[0, m]`` for which :func:`is_prop_c` holds, or ``m + 1``.

    ``m + 1`` means no c works, which only a non-subadditive general table
    can cause: there ``u_i(A_i) + u_i(M \\ A_i)`` may fall below ``u_i(M) / n``.
    """
    return least_true(lambda c: is_prop_c(profile, allocation, c), 0, profile.m)


def is_ef_d_wrt_truncated(
    profile: UtilityProfile, allocation: ConnectedAllocation, d: int, k: int
) -> bool:
    """Envy-freeness up to ``d`` items measured under ``k``-truncated utilities.

    Uses the collapsed form: removing up to ``d`` items from an already
    ``k``-truncated bundle is the same as truncating by ``d + k`` directly,
    so the pairwise test is ``trunc(A_i, k) >= trunc(A_{i'}, d + k)``.
    """
    if d < 0 or k < 0:
        raise ValueError("d and k must be nonnegative")
    bundles = _bundles_for(profile, allocation)
    for i in profile.agents:
        own = scaled_truncated(profile, i, bundles[i - 1], k)
        for other in profile.agents:
            if other == i:
                continue
            if own < scaled_truncated(profile, i, bundles[other - 1], d + k):
                return False
    return True


def adjacency_distance(p1: UtilityProfile, p2: UtilityProfile, notion: Adjacency) -> int:
    """Minimal number of single edits turning ``p1`` into ``p2``.

    Under agent-by-item adjacency this is the number of differing matrix
    cells; under agent-level adjacency, the number of differing rows.
    Only additive profiles are comparable cell-by-cell.
    """
    if (p1.n, p1.m, p1.scale) != (p2.n, p2.m, p2.scale):
        raise ValueError("profiles differ in shape or scale")
    if p1.kind != "additive" or p2.kind != "additive":
        raise ValueError("adjacency distance is defined for additive profiles")
    notion = Adjacency(notion)
    differ = p1.values != p2.values
    if notion is Adjacency.AGENT_ITEM_LEVEL:
        return int(differ.sum())
    return int(differ.any(axis=1).sum())
