"""Population-batch evaluation: one record in memory, many variants.

A variant sweep replays one :class:`~repro.kernels.l1filter.L1FilterRecord`
through every chip configuration.  The per-job path
(:func:`repro.experiments.variants.variant_job`) has each worker read
the ``.l1f.npz`` sidecar for itself — for an N-variant population that is
N npz loads of the *same* bytes.  This module amortises the record across
the whole population:

* :func:`evaluate_population` loads (or builds) the record **once** in the
  coordinating process, publishes the miss-stream arrays into a
  ``multiprocessing.shared_memory`` segment, and fans one
  :func:`population_job` per variant over the ordinary scheduler;
* workers resolve the record without touching the npz: forked workers
  find the coordinator's record object in :data:`_SHARED_RECORDS`
  (copy-on-write page sharing, ``record_source == "inherited"``), spawned
  or foreign workers attach the shared-memory segment and wrap it in
  **zero-copy numpy views** (``record_source == "shared"``);
* when neither works (segment gone, sharing disabled) the job falls back
  to the ordinary sidecar load (``record_source == "sidecar"``) — the
  population degrades to PR-7 behaviour, it never fails.

Segment lifecycle.  Each published segment is described by a manifest at
``<cache-root>/shm/<key>.json`` holding the array layout plus an **owner
pid list**.  Publishing registers the caller as an owner (creating the
segment if absent), releasing removes it and unlinks the segment once the
pruned owner list is empty — dead pids are dropped on every
read-modify-write, so a crashed coordinator can never pin a segment
forever.  :func:`release_owned` runs at interpreter exit and from
``ExperimentRuntime.close()``; after it, ``/dev/shm`` holds nothing of
ours (the chaos suite kills workers mid-population and checks exactly
that).

Attachers immediately unregister from ``multiprocessing.resource_tracker``
— on this Python, attaching *registers* the segment, so a worker exiting
would otherwise unlink memory the coordinator still serves (bpo-39959).
"""

from __future__ import annotations

import atexit
import fcntl
import json
import os
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.kernels.l1filter import L1FilterRecord, ensure_l1_filter, l1_filter_job_for
from repro.obs.metrics import process_counter
from repro.runtime import Job, payloads
from repro.runtime.cache import ResultCache

#: subdirectory of the cache root holding segment manifests
SHM_DIR = "shm"

_META_FIELDS = (
    "line_size",
    "il1_bytes",
    "dl1_bytes",
    "l1_ways",
    "accesses",
    "max_instruction",
)

#: records published by this process's coordinator, inherited by forked
#: workers via copy-on-write (keyed by the population's record key)
_SHARED_RECORDS: "dict[str, L1FilterRecord]" = {}

#: segments this process attached as a reader: kept open so the records'
#: zero-copy views stay valid for the life of the process
_ATTACHED: "dict[str, tuple[shared_memory.SharedMemory, L1FilterRecord]]" = {}

#: segments this process owns a reference on (publisher side)
_OWNED: "dict[str, tuple[shared_memory.SharedMemory, Path]]" = {}

#: detached segments whose zero-copy views are still referenced — kept
#: so ``SharedMemory.__del__`` never re-raises the BufferError
_GRAVEYARD: "list[shared_memory.SharedMemory]" = []


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Opt this handle out of the ``resource_tracker``.

    On this Python both creating *and* attaching registers the segment,
    and any process exiting would then unlink memory other processes
    still serve (bpo-39959).  The manifests' owner lists are the real
    lifecycle, so every handle is untracked at open and the name is
    re-registered only for the final :meth:`unlink` (keeping the
    tracker's register/unregister bookkeeping balanced)."""
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker races are non-fatal
        pass


def _unlink(shm: shared_memory.SharedMemory) -> None:
    try:
        resource_tracker.register(shm._name, "shared_memory")
        shm.unlink()
    except FileNotFoundError:
        pass


def record_key(cache: ResultCache, name: str, scale: float, seed: "int | None") -> str:
    """Deterministic identity of one workload's published record.

    Derived from the L1-filter *job* hash (trace name, scale, seed — the
    same key the sidecar uses) plus the cache's code version, so a code
    edit can never serve a stale segment to a new-generation worker.
    """
    job = l1_filter_job_for(name, scale=scale, seed=seed)
    return f"{job.hash[:24]}-{cache.code_version[:8]}"


def _segment_name(key: str) -> str:
    return f"rl1f_{key}"


def _manifest_path(cache: ResultCache, key: str) -> Path:
    return cache.root / SHM_DIR / f"{key}.json"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    except OSError:
        return False
    return True


class _manifest_lock:
    """``flock`` over ``<cache-root>/shm/.lock`` serialising every
    manifest read-modify-write on this host."""

    def __init__(self, cache: ResultCache) -> None:
        self._path = cache.root / SHM_DIR / ".lock"
        self._fd: "int | None" = None

    def __enter__(self) -> "_manifest_lock":
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self._path, os.O_CREAT | os.O_RDWR, 0o644)
        fcntl.flock(self._fd, fcntl.LOCK_EX)
        return self

    def __exit__(self, *exc) -> None:
        if self._fd is not None:
            fcntl.flock(self._fd, fcntl.LOCK_UN)
            os.close(self._fd)
            self._fd = None


def _read_manifest(path: Path) -> "dict | None":
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return manifest if isinstance(manifest, dict) else None


def _write_manifest(path: Path, manifest: dict) -> None:
    tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
    tmp.write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)


def _live_owners(manifest: dict) -> "list[int]":
    owners = manifest.get("owners")
    if not isinstance(owners, list):
        return []
    return [pid for pid in owners if isinstance(pid, int) and _pid_alive(pid)]


def _record_meta(record: L1FilterRecord) -> "dict[str, int]":
    meta = {name: int(getattr(record, name)) for name in _META_FIELDS}
    meta["records"] = record.records
    return meta


def _layout(records: int) -> "tuple[int, int, int]":
    """Byte offsets of (indices, lines, kinds) and the total size."""
    indices_off = 0
    lines_off = records * 8
    kinds_off = records * 16
    return indices_off, lines_off, kinds_off


def _record_from_buffer(buf, meta: "dict[str, int]") -> L1FilterRecord:
    records = int(meta["records"])
    indices_off, lines_off, kinds_off = _layout(records)
    indices = np.frombuffer(buf, dtype=np.int64, count=records, offset=indices_off)
    lines = np.frombuffer(buf, dtype=np.int64, count=records, offset=lines_off)
    kinds = np.frombuffer(buf, dtype=np.uint8, count=records, offset=kinds_off)
    return L1FilterRecord(
        line_size=int(meta["line_size"]),
        il1_bytes=int(meta["il1_bytes"]),
        dl1_bytes=int(meta["dl1_bytes"]),
        l1_ways=int(meta["l1_ways"]),
        accesses=int(meta["accesses"]),
        max_instruction=int(meta["max_instruction"]),
        indices=indices,
        lines=lines,
        kinds=kinds,
    )


def publish_record(
    cache: ResultCache, key: str, record: L1FilterRecord
) -> bool:
    """Publish ``record`` into the host-shared segment for ``key``.

    Registers the calling pid as an owner; creates the segment and
    writes the miss-stream arrays into it when this is the first live
    owner.  Idempotent per process.  Returns ``True`` on success;
    failures (``/dev/shm`` full, no permissions) are downgraded to a
    ``sweep.shm.fallbacks`` tick — workers then read the sidecar.
    """
    if key in _OWNED:
        return True
    path = _manifest_path(cache, key)
    name = _segment_name(key)
    records = record.records
    _, _, kinds_off = _layout(records)
    size = max(1, kinds_off + records)
    try:
        with _manifest_lock(cache):
            manifest = _read_manifest(path)
            owners = _live_owners(manifest) if manifest else []
            shm = None
            if owners:
                try:
                    shm = shared_memory.SharedMemory(name=name)
                    _untrack(shm)
                except FileNotFoundError:
                    owners = []  # stale manifest: every owner crashed
            if shm is None:
                try:
                    shm = shared_memory.SharedMemory(
                        name=name, create=True, size=size
                    )
                except FileExistsError:
                    # Unowned leftover from a crashed host: take it over.
                    stale = shared_memory.SharedMemory(name=name)
                    _untrack(stale)
                    _unlink(stale)
                    shm = shared_memory.SharedMemory(
                        name=name, create=True, size=size
                    )
                _untrack(shm)
                indices_off, lines_off, kinds_off = _layout(records)
                buf = shm.buf
                np.frombuffer(buf, np.int64, records, indices_off)[:] = record.indices
                np.frombuffer(buf, np.int64, records, lines_off)[:] = record.lines
                np.frombuffer(buf, np.uint8, records, kinds_off)[:] = record.kinds
            pid = os.getpid()
            if pid not in owners:
                owners.append(pid)
            _write_manifest(
                path,
                {
                    "segment": name,
                    "owners": owners,
                    "meta": _record_meta(record),
                    "published": time.time(),
                },
            )
    except OSError:
        process_counter("sweep.shm.fallbacks").inc()
        return False
    _OWNED[key] = (shm, path)
    process_counter("sweep.shm.published").inc()
    return True


def attach_record(cache: ResultCache, key: str) -> "L1FilterRecord | None":
    """Attach the published record for ``key`` as zero-copy views.

    Returns ``None`` when no live segment exists (no manifest, every
    owner dead, segment unlinked) — callers fall back to the sidecar.
    The segment stays mapped for the life of this process so the views
    never dangle.
    """
    cached = _ATTACHED.get(key)
    if cached is not None:
        return cached[1]
    manifest = _read_manifest(_manifest_path(cache, key))
    if not manifest or not _live_owners(manifest):
        return None
    meta = manifest.get("meta")
    if not isinstance(meta, dict):
        return None
    try:
        shm = shared_memory.SharedMemory(name=_segment_name(key))
    except (FileNotFoundError, OSError):
        return None
    _untrack(shm)
    record = _record_from_buffer(shm.buf, meta)
    _ATTACHED[key] = (shm, record)
    process_counter("sweep.shm.attached").inc()
    return record


def release_record(cache: ResultCache, key: str) -> None:
    """Drop this process's ownership of ``key``; unlink when last out."""
    owned = _OWNED.pop(key, None)
    if owned is None:
        return
    shm, path = owned
    try:
        with _manifest_lock(cache):
            manifest = _read_manifest(path) or {}
            pid = os.getpid()
            owners = [p for p in _live_owners(manifest) if p != pid]
            if owners:
                manifest["owners"] = owners
                _write_manifest(path, manifest)
                shm.close()
            else:
                shm.close()
                _unlink(shm)
                try:
                    path.unlink()
                except OSError:
                    pass
    except OSError:
        pass
    process_counter("sweep.shm.released").inc()


def release_owned() -> None:
    """Release every segment this process still owns (idempotent).

    Called at interpreter exit and from ``ExperimentRuntime.close()`` /
    the service drain, so a finished sweep leaves ``/dev/shm`` clean no
    matter how its workers died.
    """
    for key, (_shm, path) in list(_OWNED.items()):
        # The manifest lives under <root>/shm/<key>.json: recover the
        # cache root from the path rather than re-deriving state.
        cache = ResultCache(root=path.parent.parent)
        release_record(cache, key)


atexit.register(release_owned)


def drop_shared_records() -> None:
    """Forget coordinator records and detach segments (test isolation).

    An attached segment whose zero-copy views are still referenced
    cannot be unmapped (``BufferError``); such handles move to the
    graveyard so they are simply never closed — the memory goes away
    when the last view does at process exit."""
    _SHARED_RECORDS.clear()
    for key, (shm, _record) in list(_ATTACHED.items()):
        _ATTACHED.pop(key, None)
        try:
            shm.close()
        except (OSError, BufferError):
            # Disarm the handle: the mapping stays alive through the
            # views' buffer chain, and ``__del__`` has nothing left to
            # close (so it cannot re-raise at GC or interpreter exit).
            shm._buf = None
            shm._mmap = None
            _GRAVEYARD.append(shm)


# -- population jobs ----------------------------------------------------


def _resolve_record(
    name: str,
    scale: float,
    seed: "int | None",
    share: bool,
    cache: "ResultCache | None" = None,
) -> "tuple[L1FilterRecord, str, int]":
    """Find the population's record: ``(record, source, loads)``.

    Resolution order — coordinator object inherited over fork, then the
    shared-memory segment, then the ordinary sidecar path.  ``loads``
    counts actual record materialisations (sidecar reads or L1
    rebuilds) this call performed; the first two sources are always 0.
    """
    cache = cache or ResultCache()
    key = record_key(cache, name, scale, seed)
    record = _SHARED_RECORDS.get(key)
    if record is not None:
        return record, "inherited", 0
    if share:
        record = attach_record(cache, key)
        if record is not None:
            return record, "shared", 0
        process_counter("sweep.shm.fallbacks").inc()
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
    share: bool = True,
) -> "dict[str, object]":
    """Runtime job: replay one population variant over the shared record.

    The payload is a superset of
    :func:`repro.experiments.variants.variant_job`'s, adding where the
    record came from (``record_source``) and how many record loads this
    job performed (``record_loads`` — 0 whenever sharing worked).
    """
    from repro.experiments.variants import make_variant

    record, source, loads = _resolve_record(name, scale, seed, share)
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
    share: bool = True,
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
            share=share,
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
    share_memory: bool = True,
) -> PopulationResult:
    """Evaluate a population of chip variants over one shared record.

    Loads (or builds) the workload's L1-filter record exactly once in
    this process, makes it available to workers by fork inheritance and
    (optionally) a shared-memory segment, and fans one
    :func:`population_job` per variant over ``runtime`` — or runs them
    serially in-process when ``runtime`` is ``None``.  The segment is
    released before returning; on the happy path
    ``result.shared_record_loads == 1``.
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
    published = False
    parallel = runtime is not None and runtime.config.jobs > 1
    if share_memory and parallel:
        published = publish_record(cache, key, record)
    try:
        jobs = population_jobs(
            name, scale=scale, seed=seed, variants=variants, share=share_memory
        )
        if runtime is None:
            rows = [population_job(**job.kwargs) for job in jobs]
        else:
            rows = payloads(runtime.map(jobs))
    finally:
        _SHARED_RECORDS.pop(key, None)
        if published:
            release_record(cache, key)
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
