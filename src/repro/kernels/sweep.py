"""Population-batch evaluation: one record in memory, many variants.

A variant sweep replays one :class:`~repro.kernels.l1filter.L1FilterRecord`
through every chip configuration.  This module materialises the record
once per population rather than once per variant:

* :func:`evaluate_population` loads (or builds) the record **once** in the
  coordinating process, when any variant job will actually run, and
  fans one :func:`population_job` per variant over the ordinary
  scheduler (or runs them in-process);
* forked workers find the coordinator's record object in
  :data:`_SHARED_RECORDS` (copy-on-write page sharing,
  ``record_source == "inherited"``);
* any other worker — a spawned one, or a job run outside a population —
  falls back to the ordinary sidecar load (``record_source ==
  "sidecar"``): it costs one extra load, never a failure.

The coordinator holds the record only while its population runs: once
:func:`evaluate_population` returns, nothing in the process keeps the
record or the precompute memo on it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.kernels.l1filter import L1FilterRecord, ensure_l1_filter, l1_filter_job_for
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
    ordinary sidecar path.  ``loads`` counts the record
    materialisations (a sidecar read or an L1 rebuild) this call
    performed: 0 for an inherited record, else 1.
    """
    cache = ResultCache()
    record = _SHARED_RECORDS.get(record_key(cache, name, scale, seed))
    if record is not None:
        return record, "inherited", 0
    record, _cached = ensure_l1_filter(name, scale=scale, seed=seed, cache=cache)
    return record, "sidecar", 1


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
    #: record materialisations across coordinator + every job that ran;
    #: exactly 1 when sharing worked (the coordinator's own load), 0
    #: when the runtime served every job
    shared_record_loads: int
    wall_seconds: float = 0.0
    #: rows by where their record came from; ``"cached"`` for a row the
    #: runtime served without running its job
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

    Loads (or builds) the workload's L1-filter record once in this
    process — unless ``runtime`` would serve every variant job from its
    checkpoint or result cache (:meth:`ExperimentRuntime.serves`), when
    no job needs it — makes it available to forked workers by
    inheritance, and fans one :func:`population_job` per variant over
    ``runtime``, or runs them serially in-process when ``runtime`` is
    ``None``.  ``result.shared_record_loads`` counts the loads this
    call made: 1 on the happy path, plus one per spawned worker that
    read the sidecar, and 0 when every job was served.
    """
    from repro.experiments.variants import VARIANT_NAMES
    from repro.runtime.scheduler import CACHED

    variants = list(VARIANT_NAMES if variants is None else variants)
    if cache is None:
        cache = runtime.cache if runtime is not None else ResultCache()
    key = record_key(cache, name, scale, seed)
    start = time.perf_counter()
    jobs = population_jobs(name, scale=scale, seed=seed, variants=variants)
    loads = 0
    if runtime is None or not all(runtime.serves(job) for job in jobs):
        record, _cached = ensure_l1_filter(
            name, scale=scale, seed=seed, cache=cache
        )
        _SHARED_RECORDS[key] = record
        loads = 1
    try:
        if runtime is None:
            rows = [population_job(**job.kwargs) for job in jobs]
            ran = [True] * len(rows)
        else:
            outcomes = runtime.map(jobs)
            rows = payloads(outcomes)
            ran = [outcome.status != CACHED for outcome in outcomes]
    finally:
        _SHARED_RECORDS.pop(key, None)
    sources: "dict[str, int]" = {}
    for row, fresh in zip(rows, ran):
        # A served row found its record, and made its loads, in the run
        # that cached it.
        source = str(row.get("record_source", "?")) if fresh else "cached"
        sources[source] = sources.get(source, 0) + 1
        record_loads = row.get("record_loads", 0)
        if fresh and isinstance(record_loads, int):
            loads += record_loads
    return PopulationResult(
        workload=name,
        rows=rows,
        shared_record_loads=loads,
        wall_seconds=time.perf_counter() - start,
        record_sources=sources,
    )
