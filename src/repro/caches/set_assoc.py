"""Set-associative cache with LRU replacement.

Models the 16-KB 4-way L1 instruction and data caches of the four-core
experiment (paper section 4.2).  Each set is an ordered dictionary whose
insertion order is the recency order, so hit, miss and eviction are all
O(1) amortised.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.caches.base import CacheStats, EvictedLine, check_power_of_two


class SetAssociativeCache:
    """A ``num_sets`` x ``ways`` LRU cache over line addresses."""

    __slots__ = ("num_sets", "ways", "stats", "last_eviction", "_sets", "_mask")

    def __init__(self, num_sets: int, ways: int) -> None:
        check_power_of_two(num_sets, "num_sets")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.num_sets = num_sets
        self.ways = ways
        self.stats = CacheStats()
        self.last_eviction: "EvictedLine | None" = None
        self._sets: "list[OrderedDict[int, bool]]" = [
            OrderedDict() for _ in range(num_sets)
        ]
        self._mask = num_sets - 1

    @classmethod
    def from_bytes(
        cls, capacity_bytes: int, line_size: int, ways: int
    ) -> "SetAssociativeCache":
        """Build from byte capacity, line size and associativity."""
        lines = capacity_bytes // line_size
        if lines * line_size != capacity_bytes or lines % ways:
            raise ValueError(
                f"capacity {capacity_bytes} not divisible into {ways}-way sets "
                f"of {line_size}-byte lines"
            )
        return cls(lines // ways, ways)

    @property
    def capacity_lines(self) -> int:
        return self.num_sets * self.ways

    def _set_of(self, line: int) -> "OrderedDict[int, bool]":
        return self._sets[line & self._mask]

    def __contains__(self, line: int) -> bool:
        return line in self._set_of(line)

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets)

    def access(self, line: int, write: bool = False, allocate: bool = True) -> bool:
        """Reference ``line``; return ``True`` on hit (see
        :meth:`repro.caches.fully_assoc.FullyAssociativeCache.access`)."""
        self.stats.accesses += 1
        self.last_eviction = None
        cache_set = self._set_of(line)
        if line in cache_set:
            self.stats.hits += 1
            cache_set.move_to_end(line)
            if write:
                cache_set[line] = True
            return True
        self.stats.misses += 1
        if allocate:
            self._install(cache_set, line, dirty=write)
        return False

    def _install(self, cache_set: "OrderedDict[int, bool]", line: int, dirty: bool) -> None:
        if len(cache_set) >= self.ways:
            victim, victim_dirty = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.writebacks += 1
            self.last_eviction = EvictedLine(victim, victim_dirty)
        cache_set[line] = dirty

    def fill(self, line: int, dirty: bool = False) -> None:
        """Install without counting an access (broadcast fills)."""
        cache_set = self._set_of(line)
        if line in cache_set:
            cache_set.move_to_end(line)
            if dirty:
                cache_set[line] = True
            return
        self.last_eviction = None
        self._install(cache_set, line, dirty)

    def update_if_present(self, line: int, dirty: bool = True) -> bool:
        """Write only if cached; returns presence (update-bus stores)."""
        cache_set = self._set_of(line)
        if line not in cache_set:
            return False
        cache_set[line] = cache_set[line] or dirty
        return True

    def invalidate(self, line: int) -> bool:
        return self._set_of(line).pop(line, None) is not None

    def is_dirty(self, line: int) -> bool:
        return self._set_of(line).get(line, False)

    def set_dirty(self, line: int, dirty: bool) -> None:
        """Force the dirty (modified) bit of a resident line — used by
        the migration-mode coherence protocol (paper section 2.1)."""
        cache_set = self._set_of(line)
        if line not in cache_set:
            raise KeyError(f"line {line:#x} not resident")
        cache_set[line] = dirty

    def resident_lines(self) -> "list[int]":
        lines: "list[int]" = []
        for cache_set in self._sets:
            lines.extend(cache_set)
        return lines
