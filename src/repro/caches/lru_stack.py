"""Mattson LRU stack-distance profiling [Mattson et al. 1970].

Section 4.1 of the paper builds *LRU stack profiles*: for each reference
it records the LRU stack depth (a first-touch reference has infinite
depth), then reports ``p(x)`` — the fraction of references whose depth
exceeds ``x`` lines, i.e. the miss ratio of a fully-associative LRU
cache of ``x`` lines.

:class:`LruStack` computes exact stack depths in O(log T) per reference
using the classic time-stamp formulation: the depth of a reference to
line ``e`` at time ``t`` is one plus the number of *distinct* lines
referenced since ``e``'s previous access, which is a range-count over a
0/1 Fenwick tree in which exactly the most recent access time of every
live line is set.

:class:`ArrayLruStack` (and :func:`stack_depths`, for one whole
stream) is its array engine: the depths of many references at once,
from the offline form of the same count (see :func:`seeded_depths`),
tied to :class:`LruStack` by differential tests.

:class:`StackProfile` accumulates a depth histogram and answers
``fraction_deeper`` queries; profiles are mergeable so the four split
stacks of Figures 4-5 can be reported as one global profile ``p4``.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

import numpy as np

from repro.common.fenwick import FenwickTree


class LruStack:
    """Exact LRU stack-depth computation over an unbounded line stream."""

    __slots__ = ("_last_time", "_fenwick", "_time", "_capacity")

    def __init__(self, initial_capacity: int = 1 << 16) -> None:
        if initial_capacity <= 0:
            raise ValueError("initial_capacity must be positive")
        self._last_time: "dict[int, int]" = {}
        self._capacity = initial_capacity
        self._fenwick = FenwickTree(initial_capacity)
        self._time = 0

    @property
    def distinct_lines(self) -> int:
        return len(self._last_time)

    @property
    def references(self) -> int:
        return self._time

    def access(self, line: int) -> Optional[int]:
        """Record a reference to ``line``; return its stack depth.

        The depth is 1-based (a re-reference to the most recently used
        line has depth 1; a fully-associative LRU cache of ``c`` lines
        hits iff ``depth <= c``).  First-touch references return
        ``None`` (infinite depth).
        """
        if self._time >= self._capacity:
            self._grow()
        t = self._time
        self._time = t + 1
        previous = self._last_time.get(line)
        self._fenwick.add(t, 1)
        self._last_time[line] = t
        if previous is None:
            return None
        # Distinct lines referenced strictly after `previous`, before `t`,
        # plus the line itself.
        depth = self._fenwick.range_sum(previous + 1, t - 1) + 1
        self._fenwick.add(previous, -1)
        return depth

    def _grow(self) -> None:
        """Compact the time axis: renumber live lines' last-access times.

        Stack depths only depend on the *order* of last-access times, so
        renumbering them to 0..L-1 preserves every future query while
        keeping the Fenwick tree proportional to the number of live
        lines rather than to the trace length.
        """
        ordered = sorted(self._last_time.items(), key=lambda item: item[1])
        live = len(ordered)
        self._capacity = max(self._capacity, 4 * live, 1 << 10)
        fresh = FenwickTree(self._capacity)
        for new_time, (line, _old_time) in enumerate(ordered):
            self._last_time[line] = new_time
            fresh.add(new_time, 1)
        self._fenwick = fresh
        self._time = live

    def depth_of(self, line: int) -> Optional[int]:
        """Current stack depth of ``line`` without recording a reference."""
        previous = self._last_time.get(line)
        if previous is None:
            return None
        if self._time == 0:
            return None
        return self._fenwick.range_sum(previous + 1, self._time - 1) + 1


#: fewest references per chunk of :meth:`ArrayLruStack.access_many`
_DEPTH_CHUNK = 1 << 15


class ArrayLruStack:
    """:class:`LruStack` over arrays of references.

    :meth:`access_many` gives the depths :meth:`LruStack.access` would,
    and consecutive calls continue one stream.  The stack is held as
    its lines, least recently used first (:attr:`lines`), and a call
    runs in chunks, each preceded by those lines (see
    :func:`seeded_depths`), so memory grows with the chunk plus the
    distinct lines, not with the stream.  A chunk is
    :data:`_DEPTH_CHUNK` references or as many as the stack holds,
    whichever is more, so the seed at most doubles the work.
    """

    def __init__(self) -> None:
        self.lines = np.empty(0, dtype=np.int64)

    def access_many(self, lines) -> np.ndarray:
        """Record ``lines`` in order; return their depths as ``int32``,
        with 0 for a first touch (infinite depth)."""
        lines = np.asarray(lines, dtype=np.int64)
        depths = np.empty(len(lines), dtype=np.int32)
        start = 0
        while start < len(lines):
            end = start + max(_DEPTH_CHUNK, len(self.lines))
            depths[start:end], self.lines = seeded_depths(
                self.lines, lines[start:end]
            )
            start = end
        return depths


def stack_depths(lines) -> np.ndarray:
    """Every depth of the stream ``lines`` (0 = first touch), as one
    :class:`LruStack` would give them."""
    return ArrayLruStack().access_many(lines)


def seeded_depths(seed: np.ndarray, lines: np.ndarray):
    """Stack depths of ``lines`` (0 = first touch) when the stack
    already holds ``seed``, least recently used first; returns them with
    the stack's lines afterwards, in the same order.

    Over the stream ``s = seed + lines`` the depth at position ``i``,
    whose line was last referenced at ``prev(i)``, is one plus the
    number of distinct lines referenced strictly in between::

        depth(i) = (i - prev(i)) - #{j > prev(i) : next(j) < i}

    because of the ``i - prev(i) - 1`` references in between, exactly
    those whose line comes back before ``i`` are repeats.  Seeding with
    each distinct line once, in LRU order, is exact: a seeded line is
    preceded by exactly the lines used more recently than it.
    """
    stream = np.concatenate((seed, lines))
    size = len(stream)
    index = np.int32 if size < 2**31 else np.int64
    order = np.argsort(stream, kind="stable").astype(index)
    ordered = stream[order]
    repeat = ordered[1:] == ordered[:-1]
    later = order[1:][repeat]  # a reference with an earlier one ...
    earlier = order[:-1][repeat]  # ... and that earlier reference
    del order, ordered, repeat
    following = np.full(size, size, dtype=index)  # next(j); size = never
    following[earlier] = later
    depths = np.zeros(size, dtype=index)
    depths[later] = (later - earlier) - _count_below(
        following, earlier + 1, later
    )
    return depths[len(seed):], stream[following == size]


def _count_below(values: np.ndarray, starts: np.ndarray, bounds: np.ndarray):
    """``#{j >= starts[k] : values[j] < bounds[k]}`` for every ``k``.

    A wavelet matrix over ``values``, queried for all ``k`` at once: at
    each bit level, from the top, the values are stably split into zeros
    and ones and every query's range follows its bound's bit, counting
    the zero side whenever the bound's bit is one.  O(n) numpy work per
    bit level.
    """
    size = len(values)
    count = np.zeros(len(starts), dtype=values.dtype)
    low = starts
    high = np.full(len(starts), size, dtype=values.dtype)
    ones = np.zeros(size + 1, dtype=values.dtype)
    for bit in range(int(size).bit_length() - 1, -1, -1):
        set_bits = (values >> bit) & 1
        np.cumsum(set_bits, out=ones[1:])
        zeros = size - ones[size]
        low_ones = ones[low]
        high_ones = ones[high]
        low_zeros = low - low_ones
        high_zeros = high - high_ones
        upper = ((bounds >> bit) & 1).astype(bool)
        count += np.where(upper, high_zeros - low_zeros, 0)
        low = np.where(upper, zeros + low_ones, low_zeros)
        high = np.where(upper, zeros + high_ones, high_zeros)
        set_bits = set_bits.astype(bool)
        values = np.concatenate((values[~set_bits], values[set_bits]))
    return count


class StackProfile:
    """Histogram of stack depths with cold (infinite-depth) references."""

    def __init__(self) -> None:
        self._histogram: Counter = Counter()
        self.cold = 0
        self.total = 0
        self._sorted_depths: "np.ndarray | None" = None
        self._cumulative: "np.ndarray | None" = None

    def record(self, depth: Optional[int]) -> None:
        """Record one reference (``None`` = first touch)."""
        self.total += 1
        if depth is None:
            self.cold += 1
        else:
            if depth <= 0:
                raise ValueError(f"stack depths are 1-based, got {depth}")
            self._histogram[depth] += 1
        self._sorted_depths = None

    def record_stream(self, depths: Iterable[Optional[int]]) -> None:
        for depth in depths:
            self.record(depth)

    @classmethod
    def from_depths(cls, depths: np.ndarray) -> "StackProfile":
        """The profile of a :func:`stack_depths` array (0 = first
        touch), equal to recording each depth in turn."""
        depths = np.asarray(depths)
        if len(depths) and depths.min() < 0:
            raise ValueError(f"stack depths are 1-based, got {depths.min()}")
        return cls.from_counts(np.bincount(depths))

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "StackProfile":
        """The profile whose ``counts[d]`` references have depth ``d``
        (``d = 0``: first touches), as ``np.bincount`` of depths."""
        profile = cls()
        counts = np.asarray(counts)
        depths = np.flatnonzero(counts[1:]) + 1
        profile._histogram = Counter(
            dict(zip(depths.tolist(), counts[depths].tolist()))
        )
        profile.cold = int(counts[0]) if len(counts) else 0
        profile.total = int(counts.sum())
        return profile

    def _ensure_index(self) -> None:
        if self._sorted_depths is None:
            depths = np.array(sorted(self._histogram), dtype=np.int64)
            counts = np.array(
                [self._histogram[int(d)] for d in depths], dtype=np.int64
            )
            self._sorted_depths = depths
            self._cumulative = np.cumsum(counts)

    def references_not_deeper(self, lines: int) -> int:
        """Number of references with depth <= ``lines`` (finite only)."""
        self._ensure_index()
        assert self._sorted_depths is not None and self._cumulative is not None
        position = int(np.searchsorted(self._sorted_depths, lines, side="right"))
        if position == 0:
            return 0
        return int(self._cumulative[position - 1])

    def fraction_deeper(self, lines: int) -> float:
        """``p(x)``: fraction of references with stack depth > ``lines``.

        First-touch references count as deeper than any finite size,
        exactly as in the paper ("a reference which is encountered for
        the first time has an infinite LRU stack depth").
        """
        if self.total == 0:
            return 0.0
        return 1.0 - self.references_not_deeper(lines) / self.total

    def miss_ratio_curve(self, capacities: Iterable[int]) -> "list[float]":
        """``p(x)`` sampled at each capacity (in lines)."""
        return [self.fraction_deeper(int(c)) for c in capacities]

    def merge(self, other: "StackProfile") -> "StackProfile":
        """Pointwise sum of two profiles (for the global ``p4``)."""
        merged = StackProfile()
        merged._histogram = self._histogram + other._histogram
        merged.cold = self.cold + other.cold
        merged.total = self.total + other.total
        return merged

    @staticmethod
    def merge_all(profiles: "Iterable[StackProfile]") -> "StackProfile":
        result = StackProfile()
        for profile in profiles:
            result = result.merge(profile)
        return result
