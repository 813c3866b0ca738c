"""Single-core cache hierarchy (the migration-disabled baseline).

Models one core of the paper's machine (section 2.1):

* a 16-KB instruction L1 and a 16-KB data L1 (4-way set-associative in
  the section 4.2 experiments, fully-associative in section 4.1),
* a write-through, non-write-allocate DL1,
* a write-back, write-allocate L2 (512-KB 4-way skewed-associative),
* no L1/L2 inclusion: every store is written through to the L2 and "write
  allocation in L2 may be triggered even upon DL1 hits".

The hierarchy reports, per access, whether it missed the L1s and whether
it missed the L2 — the two event frequencies Table 2 is built from.
The L3 is modelled as a perfect backing store; the paper never reports
L3 misses and explicitly equates L2-to-L2 misses with L3 hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.caches.fully_assoc import FullyAssociativeCache
from repro.caches.set_assoc import SetAssociativeCache
from repro.caches.skewed import SkewedAssociativeCache
from repro.traces.trace import Access, AccessKind


@dataclass(frozen=True)
class CoreCacheConfig:
    """Geometry of one core's caches (defaults = paper section 4.2)."""

    line_size: int = 64
    il1_bytes: int = 16 * 1024
    dl1_bytes: int = 16 * 1024
    l1_ways: int = 4  #: 0 means fully-associative L1s (section 4.1 filters)
    l2_bytes: int = 512 * 1024
    l2_ways: int = 4
    l2_skewed: bool = True

    def make_l1(self, capacity_bytes: int):
        """Instantiate one L1 cache per this geometry."""
        if self.l1_ways == 0:
            return FullyAssociativeCache.from_bytes(capacity_bytes, self.line_size)
        return SetAssociativeCache.from_bytes(
            capacity_bytes, self.line_size, self.l1_ways
        )

    def make_l2(self):
        """Instantiate one L2 cache per this geometry."""
        if self.l2_skewed:
            return SkewedAssociativeCache.from_bytes(
                self.l2_bytes, self.line_size, self.l2_ways
            )
        return SetAssociativeCache.from_bytes(
            self.l2_bytes, self.line_size, self.l2_ways
        )


class AccessOutcome(NamedTuple):
    """What one access did to the hierarchy."""

    line: int  #: cache-line address
    l1_miss: bool  #: missed the relevant L1 (loads/fetches/stores alike)
    l2_access: bool  #: reached the L2 at all
    l2_miss: bool  #: missed the L2 (data came from L3)


@dataclass
class HierarchyStats:
    """Event counters for one hierarchy run."""

    accesses: int = 0
    l1_misses: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    instructions: int = 0


class SingleCoreHierarchy:
    """IL1 + DL1 + L2 of a single core.

    This is the "normal" configuration of Table 2: the baseline whose
    L2 miss count execution migration tries to beat.
    """

    def __init__(
        self,
        config: "CoreCacheConfig | None" = None,
        prefetcher_factory=None,
        probe=None,
    ) -> None:
        """``prefetcher_factory``, if given, is called with the L2 cache
        and must return an object with ``demand_access(line, hit)`` —
        see :mod:`repro.caches.prefetch`.

        ``probe``, if given, is a :class:`~repro.obs.probe.SimProbe`
        sampling this hierarchy's miss rates and reporting L2
        evictions; ``None`` (the default) keeps the hot path to one
        attribute check."""
        self.config = config or CoreCacheConfig()
        self.il1 = self.config.make_l1(self.config.il1_bytes)
        self.dl1 = self.config.make_l1(self.config.dl1_bytes)
        self.l2 = self.config.make_l2()
        self.prefetcher = (
            prefetcher_factory(self.l2) if prefetcher_factory else None
        )
        self.stats = HierarchyStats()
        self.probe = probe
        if probe is not None:
            probe.bind_hierarchy(self)

    def access(self, access: Access) -> AccessOutcome:
        """Run one memory reference through the hierarchy."""
        stats = self.stats
        stats.accesses += 1
        if access.instruction >= stats.instructions:
            stats.instructions = access.instruction + 1
        probe = self.probe
        if probe is not None:
            probe.on_access(stats.accesses)
        line = access.address // self.config.line_size
        if access.kind is AccessKind.FETCH:
            return self._fetch(line)
        if access.kind is AccessKind.LOAD:
            return self._load(line)
        return self._store(line)

    def _fetch(self, line: int) -> AccessOutcome:
        if self.il1.access(line):
            return AccessOutcome(line, False, False, False)
        self.stats.l1_misses += 1
        l2_miss = self._l2_read(line)
        return AccessOutcome(line, True, True, l2_miss)

    def _load(self, line: int) -> AccessOutcome:
        if self.dl1.access(line):
            return AccessOutcome(line, False, False, False)
        self.stats.l1_misses += 1
        l2_miss = self._l2_read(line)
        return AccessOutcome(line, True, True, l2_miss)

    def _store(self, line: int) -> AccessOutcome:
        # Write-through, non-write-allocate DL1: a hit updates the line in
        # place, a miss leaves the DL1 untouched.  Either way the store is
        # written through to the write-allocate L2.
        l1_hit = self.dl1.access(line, write=True, allocate=False)
        if not l1_hit:
            self.stats.l1_misses += 1
        l2_miss = self._l2_write(line)
        return AccessOutcome(line, not l1_hit, True, l2_miss)

    def _l2_read(self, line: int) -> bool:
        self.stats.l2_accesses += 1
        hit = self.l2.access(line)
        if not hit:
            self.stats.l2_misses += 1
            self._observe_eviction()
        if self.prefetcher is not None:
            self.prefetcher.demand_access(line, hit)
        return not hit

    def _l2_write(self, line: int) -> bool:
        self.stats.l2_accesses += 1
        hit = self.l2.access(line, write=True)
        if not hit:
            self.stats.l2_misses += 1
            self._observe_eviction()
        if self.prefetcher is not None:
            self.prefetcher.demand_access(line, hit)
        return not hit

    def _observe_eviction(self) -> None:
        """Report an L2 eviction (if any) after a miss-allocate."""
        probe = self.probe
        if probe is not None:
            eviction = self.l2.last_eviction
            if eviction is not None:
                probe.on_l2_eviction(0, eviction.line, eviction.dirty)

    def run(self, accesses) -> HierarchyStats:
        """Run a whole trace; returns the accumulated stats."""
        for access in accesses:
            self.access(access)
        return self.stats

    def run_arrays(self, addresses, kinds, instructions) -> HierarchyStats:
        """Run a whole trace given as parallel arrays (the batched fast
        path — bit-identical to :meth:`run`, see ``repro.kernels``):
        the L1 pair filters the trace into a record, which
        :meth:`run_filtered` replays.  Refuses, before the L1s see the
        trace, every hierarchy :meth:`run_filtered` refuses."""
        from repro.kernels.arrays import as_trace_arrays
        from repro.kernels.l1filter import filter_chunks
        from repro.kernels.specialize import require_hierarchy_kernel

        require_hierarchy_kernel(self)
        record = filter_chunks(
            self.il1, self.dl1, self.config,
            [as_trace_arrays(addresses, kinds, instructions)],
        )
        return self.run_filtered(record)

    def run_filtered(self, record) -> HierarchyStats:
        """Replay a precomputed L1-filter miss stream through the L2's
        generated kernel, skipping the L1 stage (see
        :mod:`repro.kernels.l1filter`).  A hierarchy with an L2
        prefetcher, a non-skewed L2 or a probe other than the
        ``SimProbe`` the constructor attached gets a ``ValueError``
        naming the blocker before any state changes; :meth:`run`
        simulates it."""
        from repro.kernels.specialize import replay_hierarchy_specialized

        return replay_hierarchy_specialized(self, record)
