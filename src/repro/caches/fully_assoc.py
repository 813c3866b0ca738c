"""Fully-associative LRU cache.

Section 4.1 filters the reference stream through "a 16-Kbyte DL1 cache
and a 16-Kbyte IL1 cache, both fully-associative with LRU replacement".
The implementation keeps lines in an ordered dictionary whose insertion
order *is* the recency order (Python dicts preserve insertion order;
``move_to_end`` is O(1)).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.caches.base import CacheStats, EvictedLine


class FullyAssociativeCache:
    """LRU cache over line addresses with ``capacity_lines`` entries.

    Lines carry a dirty bit so the same class serves as a write-back
    cache model.  On a miss the line is allocated (unless
    ``allocate=False`` is passed, modelling non-write-allocate stores)
    and the LRU victim, if any, is recorded in :attr:`last_eviction`.
    """

    __slots__ = ("capacity_lines", "stats", "last_eviction", "_lines")

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines <= 0:
            raise ValueError(f"capacity_lines must be positive, got {capacity_lines}")
        self.capacity_lines = capacity_lines
        self.stats = CacheStats()
        self.last_eviction: "EvictedLine | None" = None
        self._lines: "OrderedDict[int, bool]" = OrderedDict()

    @classmethod
    def from_bytes(cls, capacity_bytes: int, line_size: int) -> "FullyAssociativeCache":
        """Build a cache from a byte capacity and line size."""
        if capacity_bytes % line_size:
            raise ValueError(
                f"capacity {capacity_bytes} is not a multiple of line size {line_size}"
            )
        return cls(capacity_bytes // line_size)

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, line: int) -> bool:
        return line in self._lines

    def access(self, line: int, write: bool = False, allocate: bool = True) -> bool:
        """Reference ``line``; return ``True`` on hit.

        On hit the line becomes most-recently-used and, for a write, is
        marked dirty.  On miss, if ``allocate``, the line is installed
        (dirty iff ``write``); otherwise the cache is left untouched.
        """
        self.stats.accesses += 1
        self.last_eviction = None
        lines = self._lines
        if line in lines:
            self.stats.hits += 1
            lines.move_to_end(line)
            if write:
                lines[line] = True
            return True
        self.stats.misses += 1
        if allocate:
            self._install(line, dirty=write)
        return False

    def _install(self, line: int, dirty: bool) -> None:
        lines = self._lines
        if len(lines) >= self.capacity_lines:
            victim, victim_dirty = lines.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
            self.last_eviction = EvictedLine(victim, victim_dirty)
        lines[line] = dirty

    def fill(self, line: int, dirty: bool = False) -> None:
        """Install ``line`` without counting an access (e.g. broadcast
        fills into inactive L1 caches, paper section 2.3)."""
        lines = self._lines
        if line in lines:
            lines.move_to_end(line)
            if dirty:
                lines[line] = True
            return
        self._install(line, dirty)

    def update_if_present(self, line: int, dirty: bool = True) -> bool:
        """Write ``line`` only if already cached (store broadcast on the
        update bus writes inactive caches "if the cache line is present",
        section 2.3).  Returns whether the line was present."""
        lines = self._lines
        if line not in lines:
            return False
        lines[line] = lines[line] or dirty
        return True

    def invalidate(self, line: int) -> bool:
        """Drop ``line``; return whether it was present."""
        return self._lines.pop(line, None) is not None

    def is_dirty(self, line: int) -> bool:
        return self._lines.get(line, False)

    def resident_lines(self) -> "list[int]":
        """Lines currently cached, least- to most-recently-used."""
        return list(self._lines)
