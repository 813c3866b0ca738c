"""Deep-state digests and trace builders for the kernel differential
tests.

The batched fast paths claim bit-identity with the seed per-access
path, so the assertions here go far beyond ``ChipStats``: two runs are
"equal" only when every cache's contents, timestamps, clocks, stats and
``last_eviction``, the coherence and bus counters, and the full
controller state (filters, mechanisms, R-windows, affinity store) are
indistinguishable.
"""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from repro.caches.fully_assoc import FullyAssociativeCache
from repro.caches.hierarchy import CoreCacheConfig
from repro.caches.set_assoc import SetAssociativeCache
from repro.caches.skewed import SkewedAssociativeCache
from repro.core.affinity_store import AffinityCache, UnboundedAffinityStore
from repro.core.controller import ControllerConfig, SamplingPolicy
from repro.core.multiway import HierarchicalController
from repro.kernels.l1filter import build_l1_filter
from repro.multicore.chip import ChipConfig, MultiCoreChip
from repro.obs import SimProbe
from repro.traces.trace import Access, AccessKind

KINDS = (AccessKind.FETCH, AccessKind.LOAD, AccessKind.STORE)

#: 2-KB L1s and a 16-KB (256-line) L2: short traces miss, evict and split
SMALL_CACHES = CoreCacheConfig(
    il1_bytes=2048, dl1_bytes=2048, l1_ways=2, l2_bytes=16 * 1024
)

_FOUR_CORE = ControllerConfig.four_core()

#: the chip shapes the kernels specialise for, over caches small enough
#: that a short trace evicts, flips filters and migrates
PROBE_SHAPES = {
    # a finite store shaped unlike the L2 (a second slot matrix)
    "four_core": ChipConfig(caches=SMALL_CACHES),
    # a store shaped like the L2 (the L2's own slot columns)
    "l2_shaped_store": ChipConfig(
        caches=SMALL_CACHES,
        controller=replace(
            _FOUR_CORE,
            affinity_cache_entries=256,
            sampling=SamplingPolicy.full(),
        ),
    ),
    "two_way": ChipConfig(
        num_cores=2,
        caches=SMALL_CACHES,
        controller=ControllerConfig(
            num_subsets=2,
            filter_bits=12,
            affinity_cache_entries=1024,
            l2_filtering=True,
        ),
    ),
    "unbounded_store": ChipConfig(
        caches=SMALL_CACHES, controller=ControllerConfig.stack_experiment()
    ),
    "no_l2_filtering": ChipConfig(
        caches=SMALL_CACHES,
        controller=replace(
            _FOUR_CORE,
            affinity_cache_entries=512,
            affinity_cache_ways=2,
            l2_filtering=False,
        ),
    ),
    "window_sum": ChipConfig(
        caches=SMALL_CACHES,
        controller=replace(_FOUR_CORE, exact_window_affinity=False),
    ),
}


def make_trace(steps, line_size=64):
    """Build a trace from ``(element, kind_index, instruction_step)``
    triples; returns (accesses list, (addresses, kinds, instructions))."""
    accesses = []
    instruction = 0
    for element, kind_index, step in steps:
        accesses.append(
            Access(element * line_size + 4, KINDS[kind_index], instruction)
        )
        instruction += step
    addresses = np.array([a.address for a in accesses], dtype=np.int64)
    kinds = np.array([int(a.kind) for a in accesses], dtype=np.int8)
    instructions = np.array([a.instruction for a in accesses], dtype=np.int64)
    return accesses, (addresses, kinds, instructions)


def eventful_trace(seed, n=3000, span=900, line_size=64):
    """``(addresses, kinds, instructions)`` of a circular sweep over
    ``span`` lines with one reference in five to random lines: through
    :data:`SMALL_CACHES` it misses, evicts in storms, splits and
    migrates, so every probe hook fires."""
    rng = np.random.default_rng(seed)
    lines = np.arange(n, dtype=np.int64) % span
    noise = rng.random(n) < 0.2
    lines[noise] = rng.integers(0, 4 * span, size=int(noise.sum()))
    kinds = np.where(rng.random(n) < 0.15, 2, 1).astype(np.int8)
    kinds[rng.random(n) < 0.1] = 0
    instructions = np.cumsum(rng.integers(0, 4, size=n, dtype=np.int64))
    return lines * line_size + 4, kinds, instructions


def per_access(model, arrays):
    """Drive ``model`` through ``run``, one ``Access`` at a time (the
    specification)."""
    model.run(
        Access(address, AccessKind(kind), instruction)
        for address, kind, instruction in zip(*(a.tolist() for a in arrays))
    )
    return model


def captured(monkeypatch, module, name):
    """The objects ``module.name()`` makes from now on, in order: how a
    test gets at the models a job builds for itself."""
    made = []
    real = getattr(module, name)

    def make(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(module, name, make)
    return made


def probe_report(probe):
    """Everything a probe reports, as canonical JSON: ``meta``, the
    metrics, every event (``kind``, ``t``, ``seq``, ``args``) and the
    dropped-event count."""
    report = probe.report()
    return json.dumps(
        {
            "meta": report.meta,
            "metrics": report.metrics,
            "events": [event.to_dict() for event in report.events],
            "dropped_events": report.dropped_events,
        },
        sort_keys=True,
        default=str,
    )


def assert_probe_reports_match(make_model, arrays, record, probe_kwargs):
    """The whole probe report — meta, metrics, every event with its
    time, sequence number and arguments, the drop count — is the same
    per access as through ``run_arrays`` and ``run_filtered`` (the
    kernel's telemetry variant).  A low saturation threshold makes
    samples emit events too."""
    reports = {}
    for mode in ("seed", "arrays", "filtered"):
        probe = SimProbe(
            name="diff", bus_saturation_bytes_per_ref=20.0, **probe_kwargs
        )
        model = make_model(probe)
        if mode == "seed":
            per_access(model, arrays)
        elif mode == "arrays":
            model.run_arrays(*arrays)
        else:
            model.run_filtered(record)
        reports[mode] = probe_report(probe)
    for mode in ("arrays", "filtered"):
        assert reports[mode] == reports["seed"], mode


def assert_refused(make_model, arrays, blocker):
    """``run_arrays`` and ``run_filtered`` refuse the model built by
    ``make_model()`` with a ``ValueError`` that names ``blocker`` and
    points to ``run()``, before changing any of its state (its probe's
    report and prefetcher counters included), and ``run()`` then serves
    it: the model ends as a fresh one run per access."""
    model = make_model()
    chip = isinstance(model, MultiCoreChip)
    caches = model.config.caches if chip else model.config
    record = build_l1_filter(*arrays, config=caches)
    before = model_state(model)
    for replay in (
        lambda: model.run_arrays(*arrays),
        lambda: model.run_filtered(record),
    ):
        with pytest.raises(ValueError, match=blocker) as refusal:
            replay()
        assert "run()" in str(refusal.value)
        assert model_state(model) == before
    per_access(model, arrays)
    assert model_state(model) == model_state(per_access(make_model(), arrays))


def cache_state(cache):
    state = {
        "stats": asdict(cache.stats),
        "last_eviction": cache.last_eviction,
    }
    if isinstance(cache, SkewedAssociativeCache):
        state["lines"] = list(cache._lines)
        state["dirty"] = list(cache._dirty)
        state["time"] = list(cache._time)
        state["clock"] = cache._clock
    elif isinstance(cache, SetAssociativeCache):
        state["sets"] = [list(s.items()) for s in cache._sets]
    elif isinstance(cache, FullyAssociativeCache):
        state["lines"] = list(cache._lines.items())
    else:  # pragma: no cover - new cache type
        raise TypeError(type(cache).__name__)
    return state


def store_state(store):
    if isinstance(store, UnboundedAffinityStore):
        return {
            "values": dict(store._values),
            "reads": store.reads,
            "writes": store.writes,
            "misses": store.misses,
        }
    assert isinstance(store, AffinityCache)
    return {
        "lines": list(store._lines),
        "values": list(store._values),
        "time": list(store._time),
        "clock": store._clock,
        "reads": store.reads,
        "writes": store.writes,
        "misses": store.misses,
        "evictions": store.evictions,
    }


def mechanism_state(mechanism):
    return {
        "delta": mechanism.delta.value,
        "window_affinity": mechanism.window_affinity.value,
        "references": mechanism.references,
        "fifo": list(mechanism._fifo),
        "lru": list(mechanism._lru.items()),
    }


def filter_state(transition_filter):
    return {
        "value": transition_filter.value,
        "updates": transition_filter.updates,
        "sign_changes": transition_filter.sign_changes,
        "last_sign": transition_filter._last_sign,
    }


def controller_state(controller):
    if isinstance(controller, HierarchicalController):
        filters = [controller._filters[n] for n in sorted(controller._filters)]
    else:
        filters = [controller.filter_x, *controller.filter_y.values()]
    return {
        "stats": asdict(controller.stats),
        "previous_subset": controller._previous_subset,
        "store": store_state(controller.store),
        "mechanisms": [mechanism_state(m) for m in controller.mechanisms()],
        "filters": [filter_state(f) for f in filters],
    }


def chip_state(chip):
    return {
        "stats": chip.stats.to_dict(),
        "il1": cache_state(chip.il1),
        "dl1": cache_state(chip.dl1),
        "l2s": [cache_state(c) for c in chip.l2s.caches],
        "coherence": asdict(chip.l2s.stats),
        "active_core": chip.engine.active_core,
        "migrations": chip.engine.migrations,
        "controller": controller_state(chip.controller),
        "bus": asdict(chip.bus_traffic),
    }


def hierarchy_state(hierarchy):
    return {
        "stats": asdict(hierarchy.stats),
        "il1": cache_state(hierarchy.il1),
        "dl1": cache_state(hierarchy.dl1),
        "l2": cache_state(hierarchy.l2),
    }


def without_l1(state):
    """A model digest minus the L1 cache objects.

    A filtered replay *replaces* the model's L1 pair with the record
    (the L1 caches are never touched — their stats live in the model
    stats, which stay in the digest), so filtered-vs-seed comparisons
    use this view.
    """
    return {k: v for k, v in state.items() if k not in ("il1", "dl1")}


def model_state(model):
    """A chip's or hierarchy's deep state, with its prefetchers'
    counters and its probe's report."""
    if isinstance(model, MultiCoreChip):
        state = chip_state(model)
        prefetchers = model.prefetchers or []
    else:
        state = hierarchy_state(model)
        prefetchers = [model.prefetcher] if model.prefetcher else []
    state["prefetchers"] = [dict(vars(p.stats)) for p in prefetchers]
    if model.probe is not None:
        state["probe"] = probe_report(model.probe)
    return state
