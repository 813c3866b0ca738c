"""The full multi-core chip in migration mode (paper Figure 1).

One :class:`MultiCoreChip` is ``num_cores`` cores, each with private
L1s and a private L2, a shared L3 (modelled as perfect backing), the
migration-mode coherence of :mod:`repro.multicore.coherence`, and a
:class:`~repro.core.controller.MigrationController` deciding which core
should be active.

**L1 mirroring.**  Section 2.3: every line brought into the active L1
is broadcast to all inactive L1s, and stores are broadcast over the
update bus, so all L1s hold identical content and "the L1 miss
frequency is the same as if execution had not migrated".  The model
exploits this invariant directly: it keeps *one* L1 pair standing in
for all mirrored copies (the paper simulated "strict L1 mirroring" the
same way), and accounts the mirror traffic on the update bus.

**Event accounting** matches Table 2: ``l1_miss_requests`` are the
requests the migration controller monitors (fetch misses, load misses,
store misses); ``l2_misses`` are demand misses of the active core's L2
(write-through store traffic that misses allocates, per write-allocate,
and counts too — the policy is identical in the single-core baseline,
so the ratio is apples-to-apples).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields

from repro.caches.hierarchy import CoreCacheConfig
from repro.core.controller import ControllerConfig, MigrationController
from repro.multicore.coherence import CoherentL2s
from repro.multicore.migration import MigrationEngine
from repro.multicore.update_bus import UpdateBusModel, UpdateBusTraffic
from repro.traces.trace import Access, AccessKind


@dataclass(frozen=True)
class ChipConfig:
    """Chip geometry + controller parameters (defaults = section 4.2).

    ``controller = None`` defers the choice to a controller instance
    passed to :class:`MultiCoreChip` directly (used for > 4-way
    hierarchical controllers)."""

    num_cores: int = 4
    caches: CoreCacheConfig = field(default_factory=CoreCacheConfig)
    controller: "ControllerConfig | None" = field(
        default_factory=ControllerConfig.four_core
    )

    def __post_init__(self) -> None:
        if (
            self.controller is not None
            and self.num_cores != self.controller.num_subsets
        ):
            raise ValueError(
                f"{self.num_cores} cores need a {self.num_cores}-way "
                f"controller, got {self.controller.num_subsets}-way"
            )


@dataclass
class ChipStats:
    """Counters for one chip run (Table 2's columns derive from these)."""

    accesses: int = 0
    instructions: int = 0
    il1_misses: int = 0
    dl1_misses: int = 0
    l1_miss_requests: int = 0
    l2_accesses: int = 0
    l2_misses: int = 0
    migrations: int = 0

    @property
    def l1_misses(self) -> int:
        return self.il1_misses + self.dl1_misses

    def to_dict(self) -> "dict[str, int]":
        """Raw counters as a JSON-able dict — the one sanctioned way for
        experiments and exporters to serialise chip statistics."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: "dict[str, object]") -> "ChipStats":
        """Rebuild from :meth:`to_dict` output; unknown keys ignored so
        payloads can carry extra derived fields."""
        fields_ = {f.name for f in dataclass_fields(cls)}
        return cls(**{k: int(v) for k, v in data.items() if k in fields_})

    def merge(self, other: "ChipStats") -> "ChipStats":
        """Element-wise sum (aggregating runs, e.g. in obs summaries)."""
        return ChipStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in dataclass_fields(self)
            }
        )


class MultiCoreChip:
    """Execute a trace on the migration-mode multi-core."""

    def __init__(
        self,
        config: "ChipConfig | None" = None,
        prefetcher_factory=None,
        controller=None,
        probe=None,
    ) -> None:
        """``prefetcher_factory``, if given, is called once per core
        with that core's L2 and must return an object with
        ``demand_access(line, hit)`` (see :mod:`repro.caches.prefetch`);
        only the active core's prefetcher observes demand traffic.

        ``controller`` overrides the default
        :class:`~repro.core.controller.MigrationController` with any
        object exposing ``observe(line, l2_miss)``, ``current_subset()``
        and ``num_subsets`` — e.g. a
        :class:`~repro.core.multiway.HierarchicalController` for chips
        with more than four cores (paper section 6).

        ``probe``, if given, is a :class:`~repro.obs.probe.SimProbe`
        wired into every instrumented component (migration engine,
        coherent L2s, controller, transition filters, mechanisms); the
        default ``None`` keeps every hook to a single attribute check."""
        self.config = config or ChipConfig()
        caches = self.config.caches
        self.il1 = caches.make_l1(caches.il1_bytes)
        self.dl1 = caches.make_l1(caches.dl1_bytes)
        self.l2s = CoherentL2s(self.config.num_cores, caches)
        self.prefetchers = (
            [prefetcher_factory(cache) for cache in self.l2s.caches]
            if prefetcher_factory
            else None
        )
        if controller is not None:
            if controller.num_subsets != self.config.num_cores:
                raise ValueError(
                    f"controller splits {controller.num_subsets} ways, "
                    f"chip has {self.config.num_cores} cores"
                )
            self.controller = controller
        else:
            if self.config.controller is None:
                raise ValueError(
                    "ChipConfig.controller is None: pass a controller "
                    "instance to MultiCoreChip"
                )
            self.controller = MigrationController(self.config.controller)
        self.engine = MigrationEngine(self.config.num_cores)
        self.bus_traffic = UpdateBusTraffic()
        self.stats = ChipStats()
        self.probe = probe
        if probe is not None:
            probe.bind_chip(self)
            self.engine.probe = probe
            self.l2s.probe = probe
            attach = getattr(self.controller, "attach_probe", None)
            if attach is not None:
                attach(probe)

    @property
    def active_core(self) -> int:
        return self.engine.active_core

    def access(self, access: Access) -> None:
        """Run one memory reference through the chip."""
        stats = self.stats
        stats.accesses += 1
        if access.instruction >= stats.instructions:
            stats.instructions = access.instruction + 1
        probe = self.probe
        if probe is not None:
            probe.on_access(stats.accesses)
        line = access.address // self.config.caches.line_size
        kind = access.kind
        if kind is AccessKind.FETCH:
            if self.il1.access(line):
                return
            stats.il1_misses += 1
            self._miss_request(line, write=False)
        elif kind is AccessKind.LOAD:
            if self.dl1.access(line):
                return
            stats.dl1_misses += 1
            self._miss_request(line, write=False)
        else:
            # Write-through, non-write-allocate DL1; the store always
            # reaches the L2 and is broadcast on the update bus.
            l1_hit = self.dl1.access(line, write=True, allocate=False)
            self.bus_traffic.record_store()
            l2_miss = self._l2_access(line, write=True)
            if not l1_hit:
                stats.dl1_misses += 1
                self._controller_step(line, l2_miss)

    def _miss_request(self, line: int, write: bool) -> None:
        """An L1 miss: fill the (mirrored) L1s, access the active L2,
        and let the migration controller observe the request."""
        self.bus_traffic.record_l1_fill(self.config.caches.line_size)
        l2_miss = self._l2_access(line, write=write)
        self._controller_step(line, l2_miss)

    def _l2_access(self, line: int, write: bool) -> bool:
        self.stats.l2_accesses += 1
        active = self.engine.active_core
        hit = self.l2s.access(active, line, write=write)
        if not hit:
            self.stats.l2_misses += 1
        if self.prefetchers is not None:
            self.prefetchers[active].demand_access(line, hit)
        return not hit

    def _controller_step(self, line: int, l2_miss: bool) -> None:
        self.stats.l1_miss_requests += 1
        self.controller.observe(line, l2_miss=l2_miss)
        target = self.controller.current_subset()
        if self.engine.migrate_to(target):
            self.stats.migrations += 1

    def run(self, accesses) -> ChipStats:
        """Run a whole trace; returns the accumulated stats."""
        for access in accesses:
            self.access(access)
        return self.stats

    def run_arrays(self, addresses, kinds, instructions) -> ChipStats:
        """Run a whole trace given as parallel arrays (the batched fast
        path — bit-identical to :meth:`run`, see ``repro.kernels``):
        the chip's own L1 pair filters the trace into a record, which
        :meth:`run_filtered` replays.  Refuses, with the same
        ``ValueError`` and before the L1s see the trace, every chip
        :meth:`run_filtered` refuses."""
        from repro.kernels.arrays import as_trace_arrays
        from repro.kernels.l1filter import filter_chunks
        from repro.kernels.specialize import require_chip_kernel

        require_chip_kernel(self)
        record = filter_chunks(
            self.il1, self.dl1, self.config.caches,
            [as_trace_arrays(addresses, kinds, instructions)],
        )
        return self.run_filtered(record)

    def run_filtered(self, record) -> ChipStats:
        """Replay a precomputed L1-filter miss stream
        (:class:`~repro.kernels.l1filter.L1FilterRecord`) through the
        chip's generated kernel, skipping the L1 stage; ``ChipStats``
        match running the original trace.  A chip the kernels cannot
        replay exactly — L2 prefetchers, an LRU R-window, a
        non-standard component such as a ``HierarchicalController``,
        or a probe other than the ``SimProbe`` the constructor
        attached — gets a ``ValueError`` naming the blocker
        before any state changes; :meth:`run` simulates it."""
        from repro.kernels.specialize import replay_chip_specialized

        return replay_chip_specialized(self, record)

    def update_bus_bytes(self) -> "dict[str, float]":
        """Update-bus traffic summary: measured store/fill bytes plus
        the analytic register/branch estimate of section 2.3."""
        model = UpdateBusModel()
        return {
            "store_bytes": float(self.bus_traffic.store_bytes),
            "l1_fill_bytes": float(self.bus_traffic.l1_fill_bytes),
            "peak_bytes_per_cycle": model.bytes_per_cycle(),
        }
