"""Batched chip and hierarchy drivers (the array-native fast path).

Entry points (normally reached via ``MultiCoreChip.run_arrays`` /
``run_filtered`` and their ``SingleCoreHierarchy`` twins):

* :func:`run_chip_filtered` / :func:`run_hierarchy_filtered` — replay
  a precomputed :class:`~repro.kernels.l1filter.L1FilterRecord`,
  skipping the L1 stage entirely (the replaying model's own L1 caches
  are left untouched);
* :func:`run_chip_arrays` / :func:`run_hierarchy_arrays` — drive a
  model from ``(addresses, kinds, instructions)`` numpy arrays: the
  model's own L1 pair filters the trace
  (:func:`~repro.kernels.l1filter.filter_through_l1s`, which leaves the
  L1s exactly as per-access simulation would) and the resulting record
  is replayed as above.  Section 2.3's strict L1 mirroring makes the
  L1 stage independent of everything behind it, so the split is exact
  for every model.

Every path is **bit-identical** to the per-access simulator: same
``ChipStats`` / ``HierarchyStats``, same cache contents and per-cache
``CacheStats``, same controller/affinity state, same update-bus bytes,
and, under a probe, the same telemetry report.  The differential tests
in ``tests/kernels`` enforce this on synthetic and Olden traces.

A record replays in one of two regimes:

* **specialized** — when the model is built from the exact standard
  component types with no prefetchers, and either no probe or the
  :class:`~repro.obs.probe.SimProbe` its constructor attached to every
  component, through the kernel generated for its shape
  (:mod:`repro.kernels.specialize`).  Under that probe the kernel's
  telemetry variant logs raw events, and
  :meth:`~repro.obs.probe.SimProbe.replay_log` feeds them through the
  probe's hooks afterwards;
* **generic** — any other probe, a prefetcher, or a non-standard
  component type replays through the real component methods.  Probe
  event streams stay exact: the replay fires ``probe.on_access`` at
  every sample threshold and at each record's access number (counted
  on from the model's own access count), which reproduces the
  per-access sampling because references that hit in the L1s never
  change the sampled counters (see ``docs/performance.md``).
"""

from __future__ import annotations

from repro.caches.skewed import SkewedAssociativeCache
from repro.core.affinity_store import AffinityCache, UnboundedAffinityStore
from repro.core.controller import MigrationController
from repro.core.mechanism import SplitMechanism
from repro.core.transition_filter import TransitionFilter
from repro.kernels.arrays import as_trace_arrays
from repro.kernels.l1filter import L1FilterRecord, filter_through_l1s
from repro.multicore.coherence import CoherentL2s
from repro.multicore.migration import MigrationEngine
from repro.obs.probe import SimProbe


# -- public entry points ------------------------------------------------


def run_chip_arrays(chip, addresses, kinds, instructions):
    """Run a whole trace, given as parallel arrays, through ``chip``."""
    record = filter_through_l1s(
        chip.il1, chip.dl1, chip.config.caches,
        *as_trace_arrays(addresses, kinds, instructions),
    )
    return run_chip_filtered(chip, record)


def run_chip_filtered(chip, record: L1FilterRecord):
    """Replay an L1-filter record through ``chip``'s L2 + controller.

    The chip's own L1 caches are bypassed (their contents and stats do
    not change); everything downstream — ``ChipStats`` included —
    matches running the original trace exactly.
    """
    record.require_match(chip.config.caches)
    probe = chip.probe
    if not _chip_fast_eligible(chip, probe):
        _replay_chip_generic(chip, record)
    elif probe is None:
        from repro.kernels.specialize import replay_chip_specialized

        replay_chip_specialized(chip, record)
    else:
        from repro.kernels.specialize import KernelLog, replay_chip_specialized

        log = KernelLog(record.records)
        replay_chip_specialized(chip, record, log)
        probe.replay_log(record, log)
    return chip.stats


def run_hierarchy_arrays(hierarchy, addresses, kinds, instructions):
    """Run a whole trace, given as parallel arrays, through the
    single-core baseline hierarchy."""
    record = filter_through_l1s(
        hierarchy.il1, hierarchy.dl1, hierarchy.config,
        *as_trace_arrays(addresses, kinds, instructions),
    )
    return run_hierarchy_filtered(hierarchy, record)


def run_hierarchy_filtered(hierarchy, record: L1FilterRecord):
    """Replay an L1-filter record through the baseline's L2."""
    record.require_match(hierarchy.config)
    probe = hierarchy.probe
    if not _hierarchy_fast_eligible(hierarchy, probe):
        _replay_hierarchy_generic(hierarchy, record)
    elif probe is None:
        from repro.kernels.specialize import replay_hierarchy_specialized

        replay_hierarchy_specialized(hierarchy, record)
    else:
        from repro.kernels.specialize import (
            KernelLog,
            replay_hierarchy_specialized,
        )

        log = KernelLog(record.records)
        replay_hierarchy_specialized(hierarchy, record, log)
        probe.replay_log(record, log)
    return hierarchy.stats


# -- specialized-kernel eligibility -------------------------------------


def _kernel_probe(probe, chip=None, hierarchy=None) -> bool:
    """Whether a kernel replay can log for ``probe``: none at all, or a
    plain :class:`SimProbe` bound to this one model (its samples then
    read nothing but the model the log describes)."""
    return probe is None or (
        type(probe) is SimProbe
        and probe._chip is chip
        and probe._hierarchy is hierarchy
    )


def _chip_fast_eligible(chip, probe=None) -> bool:
    """Whether the specialized chip kernels are exact for this chip.

    Exact component types only (a subclass may override any method the
    generated loop transcribes), ``probe`` on every component (the
    default ``None``: no probes anywhere; a kernel replay can log for
    a probe, see :func:`_kernel_probe`), no prefetchers, FIFO
    R-windows, and the active-core/controller-subset invariant intact.
    """
    if (
        chip.probe is not probe
        or not _kernel_probe(probe, chip=chip)
        or chip.prefetchers is not None
    ):
        return False
    engine = chip.engine
    if type(engine) is not MigrationEngine or engine.probe is not probe:
        return False
    l2s = chip.l2s
    if type(l2s) is not CoherentL2s or l2s.probe is not probe:
        return False
    caches = l2s.caches
    first = caches[0]
    for cache in caches:
        if (
            type(cache) is not SkewedAssociativeCache
            or cache.num_sets != first.num_sets
            or cache.ways != first.ways
        ):
            return False
    if not chip.config.migration_enabled:
        return True
    controller = chip.controller
    return (
        _controller_fast_eligible(controller, probe)
        and engine.active_core == controller._previous_subset
    )


def _controller_fast_eligible(controller, probe=None) -> bool:
    """Whether the generated controller blocks are exact for this
    controller: exact component types, ``probe`` (default: none) on it
    and every filter and mechanism, FIFO R-windows, one shared store,
    and the previous subset equal to the current one."""
    if (
        type(controller) is not MigrationController
        or controller.probe is not probe
    ):
        return False
    if type(controller.store) not in (AffinityCache, UnboundedAffinityStore):
        return False
    for mechanism in controller.mechanisms():
        if (
            type(mechanism) is not SplitMechanism
            or mechanism.probe is not probe
            or mechanism.lru_window
            or mechanism.store is not controller.store
        ):
            return False
    for transition_filter in [
        controller.filter_x,
        *controller.filter_y.values(),
    ]:
        if (
            type(transition_filter) is not TransitionFilter
            or transition_filter.probe is not probe
        ):
            return False
    # The generated loop recomputes the subset only when a filter
    # updates and takes the active core as the previous subset, which
    # is only sound under this invariant (it holds for any chip or
    # controller driven solely through the public run paths).
    return controller._previous_subset == controller.current_subset()


def _hierarchy_fast_eligible(hierarchy, probe=None) -> bool:
    return (
        hierarchy.probe is probe
        and _kernel_probe(probe, hierarchy=hierarchy)
        and hierarchy.prefetcher is None
        and type(hierarchy.l2) is SkewedAssociativeCache
    )


# -- generic record replay (always exact, any component mix) ------------


def _apply_chip_record(
    chip, stats, line, rkind, line_size
) -> None:
    """One miss-stream record's post-L1 effects, via real chip methods."""
    if rkind >= 2:  # store (write-through reached the L2)
        chip.bus_traffic.record_store()
        l2_miss = chip._l2_access(line, True)
        if rkind == 3:
            stats.dl1_misses += 1
            chip._controller_step(line, l2_miss)
    else:
        if rkind == 0:
            stats.il1_misses += 1
        else:
            stats.dl1_misses += 1
        chip.bus_traffic.record_l1_fill(line_size)
        l2_miss = chip._l2_access(line, False)
        chip._controller_step(line, l2_miss)


def _replay_chip_generic(chip, record: L1FilterRecord):
    """Replay a record via real chip methods (probes/prefetchers OK)."""
    stats = chip.stats
    probe = chip.probe
    line_size = chip.config.caches.line_size
    lines = record.lines.tolist()
    rkinds = record.kinds.tolist()
    n = record.accesses
    if probe is None:
        for line, rkind in zip(lines, rkinds):
            _apply_chip_record(chip, stats, line, rkind, line_size)
    else:
        # Sample thresholds crossed between two records fall on L1-hit
        # references, which change nothing the probe samples — firing
        # on_access at exactly the threshold reproduces the per-access
        # clock.  Each record then gets on_access at its own access
        # number *before* its effects, as in MultiCoreChip.access; the
        # numbers count on from the accesses the chip has already run.
        on_access = probe.on_access
        clock = stats.accesses
        for index, line, rkind in zip(
            record.indices.tolist(), lines, rkinds
        ):
            access_number = clock + index + 1
            while probe._next_sample < access_number:
                on_access(probe._next_sample)
            on_access(access_number)
            _apply_chip_record(chip, stats, line, rkind, line_size)
        if n:
            end = clock + n
            while probe._next_sample <= end:
                on_access(probe._next_sample)
            if probe.now < end:
                on_access(end)
    stats.accesses += n
    if record.max_instruction >= stats.instructions:
        stats.instructions = record.max_instruction + 1


def _apply_hierarchy_record(hierarchy, stats, line, rkind) -> None:
    if rkind >= 2:
        if rkind == 3:
            stats.l1_misses += 1
        hierarchy._l2_write(line)
    else:
        stats.l1_misses += 1
        hierarchy._l2_read(line)


def _replay_hierarchy_generic(hierarchy, record: L1FilterRecord):
    stats = hierarchy.stats
    probe = hierarchy.probe
    lines = record.lines.tolist()
    rkinds = record.kinds.tolist()
    n = record.accesses
    if probe is None:
        for line, rkind in zip(lines, rkinds):
            _apply_hierarchy_record(hierarchy, stats, line, rkind)
    else:
        on_access = probe.on_access
        clock = stats.accesses
        for index, line, rkind in zip(
            record.indices.tolist(), lines, rkinds
        ):
            access_number = clock + index + 1
            while probe._next_sample < access_number:
                on_access(probe._next_sample)
            on_access(access_number)
            _apply_hierarchy_record(hierarchy, stats, line, rkind)
        if n:
            end = clock + n
            while probe._next_sample <= end:
                on_access(probe._next_sample)
            if probe.now < end:
                on_access(end)
    stats.accesses += n
    if record.max_instruction >= stats.instructions:
        stats.instructions = record.max_instruction + 1
