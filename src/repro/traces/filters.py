"""L1 front-end filters.

Section 4.1: "We work with a stream of references that is filtered by a
16-Kbyte DL1 cache and a 16-Kbyte IL1 cache, both fully-associative with
LRU replacement.  Each reference consists of a cache line address,
assuming 64-byte lines."  The migration controller, the LRU stack
profiles, and the offline partitioning baselines all consume this
*L1-miss stream*, never the raw trace.

:class:`L1Filter` turns an :class:`~repro.traces.trace.Access` stream
into a stream of :class:`FilteredReference` records (one per L1 miss).
It is the specification of :class:`ArrayL1Filter`, which filters the
``(addresses, kinds, instructions)`` arrays of a trace at once for the
section 4.1 L1s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from repro.caches.fully_assoc import FullyAssociativeCache
from repro.caches.lru_stack import seeded_depths
from repro.traces.trace import Access, AccessKind


class FilteredReference(NamedTuple):
    """One L1 miss: the line address, referencing instruction and kind."""

    line: int
    instruction: int
    kind: AccessKind

    @property
    def is_write(self) -> bool:
        return self.kind is AccessKind.STORE


@dataclass(frozen=True)
class L1FilterConfig:
    """Sizes of the filtering L1s (defaults = paper section 4.1)."""

    line_size: int = 64
    il1_bytes: int = 16 * 1024
    dl1_bytes: int = 16 * 1024


class L1Filter:
    """Filter a raw access trace through IL1 + DL1, yielding L1 misses.

    Both L1s are fully associative LRU caches, and stores allocate in
    the DL1: section 4.1 does "not distinguish between loads and
    stores"."""

    def __init__(self, config: "L1FilterConfig | None" = None) -> None:
        self.config = config or L1FilterConfig()
        line_size = self.config.line_size
        self.il1 = FullyAssociativeCache.from_bytes(
            self.config.il1_bytes, line_size
        )
        self.dl1 = FullyAssociativeCache.from_bytes(
            self.config.dl1_bytes, line_size
        )
        self.accesses = 0
        self.il1_misses = 0
        self.dl1_misses = 0
        self.instructions = 0

    @property
    def l1_misses(self) -> int:
        return self.il1_misses + self.dl1_misses

    def filter_one(self, access: Access) -> "FilteredReference | None":
        """Run one access; return its L1 miss, or ``None`` on a hit."""
        self.accesses += 1
        if access.instruction >= self.instructions:
            self.instructions = access.instruction + 1
        line = access.address // self.config.line_size
        kind = access.kind
        if kind is AccessKind.FETCH:
            if not self.il1.access(line):
                self.il1_misses += 1
                return FilteredReference(line, access.instruction, kind)
        elif kind is AccessKind.LOAD:
            if not self.dl1.access(line):
                self.dl1_misses += 1
                return FilteredReference(line, access.instruction, kind)
        else:
            if not self.dl1.access(line, write=True):
                self.dl1_misses += 1
                return FilteredReference(line, access.instruction, kind)
        return None

    def filter(self, accesses: Iterable[Access]) -> Iterator[FilteredReference]:
        """Yield one :class:`FilteredReference` per L1 miss in the trace."""
        for access in accesses:
            miss = self.filter_one(access)
            if miss is not None:
                yield miss


#: trace references per chunk of :meth:`ArrayL1Filter.filter`
_L1_CHUNK = 1 << 15


class ArrayL1Filter:
    """:class:`L1Filter` for the section 4.1 L1s, over trace arrays.

    Both L1s are fully associative LRU caches and stores allocate, so an
    access misses exactly when the LRU stack depth of its line in its
    own cache's stream — the fetches for the IL1, the loads and stores
    for the DL1 — is infinite or exceeds the cache's lines.  Each chunk
    of :data:`_L1_CHUNK` references is seeded with the lines the cache
    holds when the chunk starts (its most recently used lines, least
    recent first), which is all the depth test can see.

    The counters match :class:`L1Filter`'s, and consecutive
    :meth:`filter` calls continue one trace.
    """

    def __init__(self, config: "L1FilterConfig | None" = None) -> None:
        self.config = config or L1FilterConfig()
        line_size = self.config.line_size
        self._capacity = (
            FullyAssociativeCache.from_bytes(
                self.config.il1_bytes, line_size
            ).capacity_lines,
            FullyAssociativeCache.from_bytes(
                self.config.dl1_bytes, line_size
            ).capacity_lines,
        )
        #: the lines each L1 holds, least recently used first
        self.il1_lines = np.empty(0, dtype=np.int64)
        self.dl1_lines = np.empty(0, dtype=np.int64)
        self.accesses = 0
        self.il1_misses = 0
        self.dl1_misses = 0
        self.instructions = 0

    @property
    def l1_misses(self) -> int:
        return self.il1_misses + self.dl1_misses

    def filter(
        self,
        addresses: np.ndarray,
        kinds: np.ndarray,
        instructions: np.ndarray,
    ) -> np.ndarray:
        """Run a trace given as arrays; return its L1-miss mask (one
        ``bool`` per access, in trace order)."""
        n = len(addresses)
        misses = np.empty(n, dtype=bool)
        il1_capacity, dl1_capacity = self._capacity
        for start in range(0, n, _L1_CHUNK):
            end = min(n, start + _L1_CHUNK)
            lines = addresses[start:end] // self.config.line_size
            fetch = kinds[start:end] == AccessKind.FETCH
            data = ~fetch
            il1_miss, self.il1_lines = self._run(
                self.il1_lines, lines[fetch], il1_capacity
            )
            dl1_miss, self.dl1_lines = self._run(
                self.dl1_lines, lines[data], dl1_capacity
            )
            misses[start:end][fetch] = il1_miss
            misses[start:end][data] = dl1_miss
            self.il1_misses += int(np.count_nonzero(il1_miss))
            self.dl1_misses += int(np.count_nonzero(dl1_miss))
        self.accesses += n
        if n:
            self.instructions = max(
                self.instructions, int(instructions.max()) + 1
            )
        return misses

    @staticmethod
    def _run(resident: np.ndarray, lines: np.ndarray, capacity: int):
        """One L1's misses over ``lines``, and what it holds after."""
        depths, stack = seeded_depths(resident, lines)
        return (depths == 0) | (depths > capacity), stack[-capacity:]
