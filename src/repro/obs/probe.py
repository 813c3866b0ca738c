"""The simulation probe: where instrumented hot paths report to.

Instrumented components (:class:`~repro.multicore.chip.MultiCoreChip`,
:class:`~repro.core.controller.MigrationController`, the caches) carry
a ``probe`` attribute that is ``None`` by default; every hot-path hook
is guarded by a single ``if probe is not None`` attribute check, so a
run without observability pays one attribute load per hook and nothing
else (``benchmarks/obs_overhead.py`` measures this).

When a :class:`SimProbe` is attached it maintains:

* a **reference clock** — ``now`` is the number of trace references
  processed so far, advanced by whichever component reports the
  largest local count (the chip when present, the controller when used
  standalone);
* a :class:`~repro.obs.metrics.MetricsRegistry` of counters,
  histograms, and rolling time-series (sampled every
  ``sample_interval`` references);
* an :class:`~repro.obs.events.EventLog` of structured
  :class:`~repro.obs.events.SimEvent` records — migrations, filter
  flips, R-window rollovers, L2 eviction storms, update-bus
  saturation, controller transitions.

``probe.report()`` snapshots everything into an :class:`ObsReport`,
which the exporters in :mod:`repro.obs.export` turn into Chrome
trace-event JSON, JSONL, and terminal summaries.

A model replaying an L1-filter record through a generated kernel does
not call the hooks as it goes: the kernel logs raw events
(:class:`~repro.kernels.specialize.KernelLog`), and
:meth:`SimProbe.replay_log` makes the same hook calls afterwards, in
the order the component methods would have made them, with samples
summed from the log.  The report comes out identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.obs import events as ev
from repro.obs.events import EventLog, SimEvent
from repro.obs.metrics import MetricsRegistry


@dataclass
class ObsReport:
    """One probe's snapshot: metadata + metrics + events."""

    meta: "dict[str, object]" = field(default_factory=dict)
    metrics: "dict[str, object]" = field(default_factory=dict)
    events: "list[SimEvent]" = field(default_factory=list)
    dropped_events: int = 0

    def to_dict(self) -> "dict[str, object]":
        return {
            "meta": self.meta,
            "metrics": self.metrics,
            "dropped_events": self.dropped_events,
            "event_kinds": _kind_counts(self.events),
        }


class _RecordPrefix:
    """Running counts over a record's first ``k`` records, for ``k``
    that only grows: records of each kind (0 fetch miss, 1 load miss,
    2 store that hit the DL1, 3 store that missed it) and, given flags,
    L2 misses."""

    __slots__ = ("_kinds", "_flags", "_k", "counts", "misses")

    def __init__(self, kinds, flags) -> None:
        self._kinds = kinds
        self._flags = flags
        self._k = 0
        self.counts = [0, 0, 0, 0]
        self.misses = 0

    def through(self, k: int) -> "list[int]":
        if k > self._k:
            added = np.bincount(self._kinds[self._k : k], minlength=4)
            self.counts = [a + b for a, b in zip(self.counts, added.tolist())]
            if self._flags is not None:
                self.misses += int(np.count_nonzero(self._flags[self._k : k]))
            self._k = k
        return self.counts


def _l1_misses(counts: "list[int]") -> int:
    """L1 misses among records of the given kind counts: every record
    but a store that hit the DL1."""
    return counts[0] + counts[1] + counts[3]


def _reference_numbers(indices, records, first: int, chunk: int = 1 << 14):
    """Yield ``first + indices[r]`` for each record ``r`` of ``records``,
    converting a chunk at a time."""
    records = np.frombuffer(records, dtype=np.int64)
    for start in range(0, len(records), chunk):
        yield from (indices[records[start : start + chunk]] + first).tolist()


def _kind_counts(events: "list[SimEvent]") -> "dict[str, int]":
    counts: "dict[str, int]" = {}
    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
    return counts


class SimProbe:
    """Collects telemetry from instrumented simulator components.

    Parameters tune cost/detail:

    * ``sample_interval`` — references between time-series samples;
    * ``max_events`` — hard cap on stored events (drops are counted);
    * ``storm_window`` / ``storm_threshold`` — an ``l2.eviction_storm``
      event fires when ``storm_threshold`` L2 evictions land within
      ``storm_window`` references;
    * ``bus_saturation_bytes_per_ref`` — a ``bus.saturation`` event
      fires when measured update-bus traffic first exceeds this many
      bytes per reference over a sample interval (default: one cache
      line per reference, i.e. the mirror-fill worst case).
    """

    def __init__(
        self,
        name: str = "sim",
        sample_interval: int = 1000,
        max_events: int = 100_000,
        storm_window: int = 256,
        storm_threshold: int = 16,
        bus_saturation_bytes_per_ref: float = 64.0,
    ) -> None:
        if sample_interval < 1:
            raise ValueError(
                f"sample_interval must be >= 1, got {sample_interval}"
            )
        self.name = name
        self.sample_interval = sample_interval
        self.storm_window = storm_window
        self.storm_threshold = storm_threshold
        self.bus_saturation_bytes_per_ref = bus_saturation_bytes_per_ref
        self.registry = MetricsRegistry()
        self.log = EventLog(max_events)
        self.now = 0
        self._chip = None
        self._hierarchy = None
        self._next_sample = sample_interval
        self._last_migration_t: "int | None" = None
        self._eviction_times: "deque[int]" = deque()
        self._bus_saturated = False
        self._last_bus_bytes = 0
        # Miss counts at the previous sample, per bound model: a probe
        # bound to a chip and a baseline samples both on each tick.
        self._last_chip_misses = (0, 0)  # (L2, L1)
        self._last_baseline_misses = (0, 0)
        self._migration_penalty_cycles: "float | None" = None

    # -- wiring ---------------------------------------------------------

    def bind_chip(self, chip) -> None:
        """Called by :class:`~repro.multicore.chip.MultiCoreChip` when
        the probe is attached; sampling snapshots this chip's stats."""
        self._chip = chip

    def bind_hierarchy(self, hierarchy) -> None:
        """Same, for the single-core baseline hierarchy."""
        self._hierarchy = hierarchy

    # -- clock ----------------------------------------------------------

    def _advance(self, t: int) -> None:
        if t > self.now:
            self.now = t

    # -- hot-path hooks -------------------------------------------------

    def on_access(self, t: int) -> None:
        """One trace reference entered the chip/hierarchy (the clock)."""
        self._advance(t)
        if t >= self._next_sample:
            self._next_sample = t - (t % self.sample_interval) + self.sample_interval
            self._sample(t)

    def on_migration(self, from_core: int, to_core: int) -> None:
        """The active core moved (reported by the migration engine)."""
        t = self.now
        if self._migration_penalty_cycles is None:
            from repro.multicore.migration import MigrationPenaltyModel

            self._migration_penalty_cycles = MigrationPenaltyModel().migration_cycles()
        self.registry.counter("migrations").inc()
        if self._last_migration_t is not None:
            self.registry.histogram("migration.gap_refs").record(
                t - self._last_migration_t
            )
        self._last_migration_t = t
        self.log.emit(
            ev.MIGRATION_START, t, from_core=from_core, to_core=to_core
        )
        self.log.emit(
            ev.MIGRATION_COMMIT,
            t,
            from_core=from_core,
            to_core=to_core,
            penalty_cycles=self._migration_penalty_cycles,
        )

    def on_filter_flip(self, name: str, sign: int, value: int) -> None:
        """A transition filter's sign changed."""
        self.registry.counter("filter.flips").inc()
        self.log.emit(
            ev.FILTER_FLIP, self.now, filter=name, sign=sign, value=value
        )

    def on_window_rollover(
        self, name: str, window_size: int, references: int
    ) -> None:
        """A split mechanism's R-window turned over completely."""
        self._advance(references)
        self.registry.counter("window.rollovers").inc()
        self.log.emit(
            ev.WINDOW_ROLLOVER,
            self.now,
            mechanism=name,
            window_size=window_size,
            references=references,
        )

    def on_transition(
        self, reference: int, subset_before: int, subset_after: int
    ) -> None:
        """The controller's subset decision moved."""
        self._advance(reference)
        self.registry.counter("controller.transitions").inc()
        self.log.emit(
            ev.CONTROLLER_TRANSITION,
            self.now,
            subset_before=subset_before,
            subset_after=subset_after,
        )

    def on_l2_eviction(self, core: int, line: int, dirty: bool) -> None:
        """An L2 evicted a line; clusters become storm events."""
        t = self.now
        self.registry.counter("l2.evictions").inc()
        times = self._eviction_times
        times.append(t)
        floor = t - self.storm_window
        while times and times[0] < floor:
            times.popleft()
        if len(times) >= self.storm_threshold:
            self.registry.counter("l2.eviction_storms").inc()
            self.registry.histogram("l2.storm_size").record(len(times))
            self.log.emit(
                ev.L2_EVICTION_STORM,
                t,
                core=core,
                evictions=len(times),
                window_refs=self.storm_window,
            )
            times.clear()  # one storm event per burst, not per eviction

    # -- periodic sampling ----------------------------------------------

    def _sample(self, t: int) -> None:
        chip = self._chip
        if chip is not None:
            stats = chip.stats
            self._sample_chip(
                t,
                chip.engine.active_core,
                stats.l2_misses,
                stats.il1_misses + stats.dl1_misses,
                stats.migrations,
                chip.bus_traffic.total_bytes,
            )
        hierarchy = self._hierarchy
        if hierarchy is not None:
            stats = hierarchy.stats
            self._sample_hierarchy(t, stats.l2_misses, stats.l1_misses)

    def _sample_chip(
        self,
        t: int,
        active_core: int,
        l2_misses: int,
        l1_misses: int,
        migrations: int,
        bus_bytes: int,
    ) -> None:
        registry = self.registry
        last_l2, last_l1 = self._last_chip_misses
        registry.series("chip.active_core").append(t, float(active_core))
        registry.series("chip.l2_miss_rate").append(
            t, (l2_misses - last_l2) / self.sample_interval
        )
        registry.series("chip.l1_miss_rate").append(
            t, (l1_misses - last_l1) / self.sample_interval
        )
        self._last_chip_misses = (l2_misses, l1_misses)
        registry.series("chip.migrations").append(t, float(migrations))
        bytes_per_ref = (
            bus_bytes - self._last_bus_bytes
        ) / self.sample_interval
        self._last_bus_bytes = bus_bytes
        registry.series("bus.bytes_per_ref").append(t, bytes_per_ref)
        saturated = bytes_per_ref > self.bus_saturation_bytes_per_ref
        if saturated and not self._bus_saturated:
            self.registry.counter("bus.saturation_episodes").inc()
            self.log.emit(
                ev.BUS_SATURATION,
                t,
                bytes_per_ref=bytes_per_ref,
                threshold=self.bus_saturation_bytes_per_ref,
            )
        self._bus_saturated = saturated

    def _sample_hierarchy(
        self, t: int, l2_misses: int, l1_misses: int
    ) -> None:
        registry = self.registry
        last_l2, last_l1 = self._last_baseline_misses
        registry.series("baseline.l2_miss_rate").append(
            t, (l2_misses - last_l2) / self.sample_interval
        )
        registry.series("baseline.l1_miss_rate").append(
            t, (l1_misses - last_l1) / self.sample_interval
        )
        self._last_baseline_misses = (l2_misses, l1_misses)

    # -- kernel replays ---------------------------------------------------

    def replay_log(self, record, log) -> None:
        """Make the hook calls a generic replay of ``record`` would have
        made, from the ``log`` the telemetry kernel filled replaying it.

        The same calls with the same arguments in the same order: record
        ``i`` is reference ``accesses + indices[i] + 1``, ``accesses``
        counted before the replay; the clock reaches it (sampling every
        threshold on the way, over the records before the threshold)
        before its L2 eviction, then its R-window rollover, filter flip,
        transition and migration.  The model is already in its final
        state, so the counters before the replay are the final ones less
        what the record and the log account for, and a sample adds back
        the records before its threshold.
        """
        kinds = record.kinds
        indices = record.indices
        flags = np.frombuffer(log.l2_miss, dtype=np.uint8)
        whole = np.bincount(kinds, minlength=4).tolist()
        prefix = _RecordPrefix(kinds, flags)
        chip = self._chip
        stats = chip.stats if chip is not None else self._hierarchy.stats
        clock = stats.accesses - record.accesses
        first = clock + 1  # record i is reference first + indices[i]
        l2_misses = stats.l2_misses - int(np.count_nonzero(flags))
        moves = log.migrations
        if chip is not None:
            from repro.multicore.update_bus import UpdateBusTraffic

            line_size = chip.config.caches.line_size

            def bus_bytes_of(counts: "list[int]") -> int:
                # L1 misses fill the mirrored L1s; stores go on the bus.
                traffic = UpdateBusTraffic()
                traffic.record_l1_fill(line_size, counts[0] + counts[1])
                traffic.record_store(counts[2] + counts[3])
                return traffic.total_bytes

            l1_misses = stats.il1_misses + stats.dl1_misses - _l1_misses(whole)
            bus_bytes = chip.bus_traffic.total_bytes - bus_bytes_of(whole)
            migrations = stats.migrations - len(moves)
            active = moves[0][1] if moves else chip.engine.active_core

            def sample(t: int, k: int) -> None:
                # ``active`` and ``migrations`` are those of the events
                # fed so far: no event falls between record k and now.
                counts = prefix.through(k)
                self._sample_chip(
                    t,
                    active,
                    l2_misses + prefix.misses,
                    l1_misses + _l1_misses(counts),
                    migrations,
                    bus_bytes + bus_bytes_of(counts),
                )

        else:
            active = 0
            l1_misses = stats.l1_misses - _l1_misses(whole)

            def sample(t: int, k: int) -> None:
                counts = prefix.through(k)
                self._sample_hierarchy(
                    t,
                    l2_misses + prefix.misses,
                    l1_misses + _l1_misses(counts),
                )

        if moves:
            # Every record but a store that hit the DL1 was a controller
            # reference (only a chip migrating has a controller to read).
            references = chip.controller.stats.references - (
                len(kinds) - whole[2]
            )
            requests = _RecordPrefix(kinds, None)
        interval = self.sample_interval

        def tick(t: int) -> None:
            # on_access for every reference up to t: each threshold
            # crossed samples the records before it.
            while self._next_sample <= t:
                threshold = self._next_sample
                self._next_sample = threshold + interval
                self._advance(threshold)
                k = int(np.searchsorted(indices, threshold - first))
                sample(threshold, k)
            self._advance(t)

        # (record, order) puts the controller events in the generic
        # loop's order; the sort never compares the logged objects.
        steps = sorted(
            [(i, 1, mechanism, refs) for i, mechanism, refs in log.rollovers]
            + [(i, 2, flt, sign, value) for i, flt, sign, value in log.flips]
            + [(i, 3, source, target) for i, source, target in moves],
            key=lambda step: step[:2],
        )
        evictions = log.evictions
        eviction_times = _reference_numbers(indices, evictions, first)
        on_l2_eviction = self.on_l2_eviction
        done = 0
        for step in steps + [(len(indices),)]:
            i = step[0]
            # A record's eviction comes with its L2 access, before its
            # controller step; the hook reads neither line nor dirty bit.
            while done < len(evictions) and evictions[done] <= i:
                tick(next(eviction_times))
                on_l2_eviction(active, None, None)
                done += 1
            if len(step) == 1:
                break
            tick(first + int(indices[i]))
            if step[1] == 1:
                mechanism = step[2]
                self.on_window_rollover(
                    mechanism.name, mechanism.window_size, step[3]
                )
            elif step[1] == 2:
                self.on_filter_flip(step[2].name, step[3], step[4])
            else:
                # The transition is the migration.
                source, target = step[2], step[3]
                stores_hit = requests.through(i + 1)[2]
                self.on_transition(
                    references + i + 1 - stores_hit, source, target
                )
                self.on_migration(source, target)
                active = target
                migrations += 1
        if record.accesses:
            tick(clock + record.accesses)

    # -- snapshots ------------------------------------------------------

    def report(self, **meta: object) -> ObsReport:
        """Snapshot the probe into a serialisable report."""
        info: "dict[str, object]" = {
            "probe": self.name,
            "references": self.now,
            "sample_interval": self.sample_interval,
        }
        chip = self._chip
        if chip is not None:
            info["num_cores"] = chip.config.num_cores
            info["chip_stats"] = chip.stats.to_dict()
        hierarchy = self._hierarchy
        if hierarchy is not None:
            info["hierarchy_stats"] = dict(vars(hierarchy.stats))
        # Stamp the active trace context (the job's span when the
        # scheduler/worker activated one) so per-job sim artifacts
        # correlate with the scheduler spans in a merged trace.
        from repro.obs import trace_context

        ctx = trace_context.current()
        if ctx is not None:
            info["trace_id"] = ctx.trace_id
            info["span_id"] = ctx.span_id
            info["parent_span_id"] = ctx.parent_span_id
        info.update(meta)
        return ObsReport(
            meta=info,
            metrics=self.registry.to_dict(),
            events=list(self.log.events),
            dropped_events=self.log.dropped,
        )
