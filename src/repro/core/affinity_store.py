"""Affinity storage: where the per-line ``O_e`` values live.

Section 4.1 assumes "an unlimited affinity cache size"
(:class:`UnboundedAffinityStore`); section 4.2 uses a real, finite
**affinity cache**: "8k entries and ... 4-way skewed-associative", each
entry holding a tag, a 16-bit ``O_e``, "plus a few bits for age-based
replacement" (:class:`AffinityCache`).

A store read that misses returns ``None``; the mechanism then forces
``A_e = 0`` by taking ``O_e = Δ``.  The paper leans on this miss policy:
for working sets larger than the affinity cache, affinities read as
zero, the transition filter stops moving, and useless migrations are
suppressed ("migrations are reduced thanks to the limited size affinity
cache", section 4.2).
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, runtime_checkable

from repro.caches.base import check_power_of_two
from repro.caches.skewed import skew_hash


@runtime_checkable
class AffinityStore(Protocol):
    """Minimal interface the split mechanism needs."""

    def read(self, line: int) -> Optional[int]:
        """Return ``O_e`` for ``line``, or ``None`` on a miss."""
        ...

    def write(self, line: int, value: int) -> None:
        """Record ``O_e`` for ``line`` (allocating on miss)."""
        ...


class UnboundedAffinityStore:
    """A dict-backed store that never misses after first write."""

    __slots__ = ("_values", "reads", "writes", "misses")

    def __init__(self) -> None:
        self._values: "Dict[int, int]" = {}
        self.reads = 0
        self.writes = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, line: int) -> bool:
        return line in self._values

    def read(self, line: int) -> Optional[int]:
        self.reads += 1
        value = self._values.get(line)
        if value is None:
            self.misses += 1
        return value

    def write(self, line: int, value: int) -> None:
        self.writes += 1
        self._values[line] = value

    def known_lines(self) -> "list[int]":
        return list(self._values)


class AffinityCache:
    """The finite skewed-associative affinity cache of section 4.2.

    ``num_entries`` total entries split across ``ways`` direct-mapped
    banks indexed by the skewing hash of
    :func:`repro.caches.skewed.skew_hash`.  Replacement is oldest-access
    ("age-based"), tracked with a global clock — the idealised version
    of the paper's 2-bit age field.
    """

    __slots__ = (
        "num_entries",
        "ways",
        "reads",
        "writes",
        "misses",
        "evictions",
        "_num_sets",
        "_index_bits",
        "_lines",
        "_values",
        "_time",
        "_clock",
    )

    def __init__(self, num_entries: int = 8192, ways: int = 4) -> None:
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        if num_entries % ways:
            raise ValueError(
                f"num_entries {num_entries} not divisible by ways {ways}"
            )
        num_sets = num_entries // ways
        check_power_of_two(num_sets, "entries per way")
        self.num_entries = num_entries
        self.ways = ways
        self.reads = 0
        self.writes = 0
        self.misses = 0
        self.evictions = 0
        self._num_sets = num_sets
        self._index_bits = num_sets.bit_length() - 1
        self._lines: "list[int | None]" = [None] * num_entries
        self._values = [0] * num_entries
        self._time = [0] * num_entries
        self._clock = 0

    def _find(self, line: int) -> int:
        for way in range(self.ways):
            slot = way * self._num_sets + skew_hash(line, way, self._index_bits)
            if self._lines[slot] == line:
                return slot
        return -1

    def __contains__(self, line: int) -> bool:
        return self._find(line) >= 0

    def __len__(self) -> int:
        return sum(1 for entry in self._lines if entry is not None)

    def read(self, line: int) -> Optional[int]:
        self.reads += 1
        self._clock += 1
        slot = self._find(line)
        if slot < 0:
            self.misses += 1
            return None
        self._time[slot] = self._clock
        return self._values[slot]

    def write(self, line: int, value: int) -> None:
        self.writes += 1
        self._clock += 1
        slot = self._find(line)
        if slot < 0:
            slot = self._victim(line)
            if self._lines[slot] is not None:
                self.evictions += 1
            self._lines[slot] = line
        self._values[slot] = value
        self._time[slot] = self._clock

    def _victim(self, line: int) -> int:
        victim_slot = -1
        victim_time = None
        for way in range(self.ways):
            slot = way * self._num_sets + skew_hash(line, way, self._index_bits)
            if self._lines[slot] is None:
                return slot
            if victim_time is None or self._time[slot] < victim_time:
                victim_slot = slot
                victim_time = self._time[slot]
        return victim_slot
