"""Population-batch evaluation: one record in memory, many variants.

A variant sweep replays one :class:`~repro.kernels.l1filter.L1FilterRecord`
through every chip configuration.  This module materialises the record
once per population rather than once per variant:

* :func:`evaluate_population` loads (or builds) the record **once** in the
  coordinating process and fans one :func:`population_job` per variant
  over the ordinary scheduler (or runs them in-process);
* forked workers find the coordinator's record object in
  :data:`_SHARED_RECORDS` (copy-on-write page sharing,
  ``record_source == "inherited"``);
* any other worker — a spawned one, or a job run outside a population —
  falls back to the ordinary sidecar load (``record_source ==
  "sidecar"``): it costs one extra load, never a failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.kernels.l1filter import L1FilterRecord, ensure_l1_filter, l1_filter_job_for
from repro.obs.metrics import process_counter
from repro.runtime import Job, payloads
from repro.runtime.cache import ResultCache

#: records loaded by this process's coordinator, inherited by forked
#: workers via copy-on-write (keyed by the population's record key)
_SHARED_RECORDS: "dict[str, L1FilterRecord]" = {}


def record_key(cache: ResultCache, name: str, scale: float, seed: "int | None") -> str:
    """Deterministic identity of one workload's population record.

    Derived from the L1-filter *job* hash (trace name, scale, seed — the
    same key the sidecar uses) plus the cache's code version, so a code
    edit can never serve a stale record to a new-generation worker.
    """
    job = l1_filter_job_for(name, scale=scale, seed=seed)
    return f"{job.hash[:24]}-{cache.code_version[:8]}"


# -- population jobs ----------------------------------------------------


def _resolve_record(
    name: str, scale: float, seed: "int | None"
) -> "tuple[L1FilterRecord, str, int]":
    """Find the population's record: ``(record, source, loads)``.

    Resolution order — coordinator object inherited over fork, then the
    ordinary sidecar path.  ``loads`` counts actual record
    materialisations (sidecar reads or L1 rebuilds) this call
    performed; an inherited record is always 0.
    """
    cache = ResultCache()
    record = _SHARED_RECORDS.get(record_key(cache, name, scale, seed))
    if record is not None:
        return record, "inherited", 0
    loads = process_counter("l1filter.record_cache.loads")
    before = loads.value
    record, cached = ensure_l1_filter(name, scale=scale, seed=seed, cache=cache)
    performed = (loads.value - before) + (0 if cached else 1)
    return record, "sidecar", performed


def population_job(
    name: str,
    variant: str,
    scale: float = 1.0,
    seed: "int | None" = None,
) -> "dict[str, object]":
    """Runtime job: replay one population variant over the shared record.

    The payload carries the variant's L2 counters, where the record
    came from (``record_source``) and how many record loads this job
    performed (``record_loads`` — 0 whenever sharing worked).
    """
    from repro.experiments.variants import make_variant

    record, source, loads = _resolve_record(name, scale, seed)
    model = make_variant(variant)
    model.run_filtered(record)
    stats = model.stats
    return {
        "workload": name,
        "variant": variant,
        "l1_misses": stats.l1_misses,
        "l2_accesses": stats.l2_accesses,
        "l2_misses": stats.l2_misses,
        "migrations": getattr(stats, "migrations", 0),
        "instructions": stats.instructions,
        "l1_filter_cached": loads == 0,
        "record_source": source,
        "record_loads": loads,
        "references": record.accesses,
    }


def population_jobs(
    name: str,
    scale: float = 1.0,
    seed: "int | None" = None,
    variants: "Sequence[str] | None" = None,
) -> "list[Job]":
    from repro.experiments.variants import VARIANT_NAMES

    return [
        Job.create(
            "repro.kernels.sweep:population_job",
            label=f"population/{name}/{variant}",
            name=name,
            variant=variant,
            scale=scale,
            seed=seed,
        )
        for variant in (VARIANT_NAMES if variants is None else variants)
    ]


@dataclass
class PopulationResult:
    """Outcome of one :func:`evaluate_population` call."""

    workload: str
    rows: "list[dict[str, object]]"
    #: record materialisations across coordinator + every job; exactly 1
    #: when sharing worked (the coordinator's own load)
    shared_record_loads: int
    wall_seconds: float = 0.0
    record_sources: "dict[str, int]" = field(default_factory=dict)

    def row_for(self, variant: str) -> "dict[str, object]":
        for row in self.rows:
            if row["variant"] == variant:
                return row
        raise KeyError(variant)


def evaluate_population(
    name: str,
    variants: "Sequence[str] | None" = None,
    *,
    scale: float = 1.0,
    seed: "int | None" = None,
    runtime=None,
    cache: "ResultCache | None" = None,
) -> PopulationResult:
    """Evaluate a population of chip variants over one shared record.

    Loads (or builds) the workload's L1-filter record exactly once in
    this process, makes it available to forked workers by inheritance,
    and fans one :func:`population_job` per variant over ``runtime`` —
    or runs them serially in-process when ``runtime`` is ``None``.  On
    the happy path ``result.shared_record_loads == 1``; spawned workers
    read the sidecar, one load each.
    """
    from repro.experiments.variants import VARIANT_NAMES

    variants = list(VARIANT_NAMES if variants is None else variants)
    if cache is None:
        cache = runtime.cache if runtime is not None else ResultCache()
    key = record_key(cache, name, scale, seed)
    start = time.perf_counter()
    loads = process_counter("l1filter.record_cache.loads")
    before = loads.value
    record, cached = ensure_l1_filter(name, scale=scale, seed=seed, cache=cache)
    coordinator_loads = (loads.value - before) + (0 if cached else 1)
    _SHARED_RECORDS[key] = record
    try:
        jobs = population_jobs(name, scale=scale, seed=seed, variants=variants)
        if runtime is None:
            rows = [population_job(**job.kwargs) for job in jobs]
        else:
            rows = payloads(runtime.map(jobs))
    finally:
        _SHARED_RECORDS.pop(key, None)
    sources: "dict[str, int]" = {}
    worker_loads = 0
    for row in rows:
        source = str(row.get("record_source", "?"))
        sources[source] = sources.get(source, 0) + 1
        record_loads = row.get("record_loads", 0)
        if isinstance(record_loads, int):
            worker_loads += record_loads
    return PopulationResult(
        workload=name,
        rows=rows,
        shared_record_loads=coordinator_loads + worker_loads,
        wall_seconds=time.perf_counter() - start,
        record_sources=sources,
    )
