"""The L1-filter kernel: simulate the mirrored L1 pair once, replay often.

Section 2.3's strict L1 mirroring means every chip variant — the
single-core baseline, the migrating chip, every controller ablation —
sees the *same* IL1/DL1 behaviour on a given trace: "the L1 miss
frequency is the same as if execution had not migrated".  The expensive
part of that stage (LRU bookkeeping per reference) is therefore shared
work, and this module factors it out:

* :func:`l1_miss_stream` runs one trace through an IL1/DL1 pair with
  the exact semantics of ``MultiCoreChip.access`` (write-through,
  non-write-allocate DL1) and emits one compact record per L2-bound
  reference;
* :class:`L1FilterRecord` packages the miss stream as numpy arrays,
  with npz persistence under the :mod:`repro.runtime` cache so a sweep
  computes it once per ``(trace, L1 geometry, code version)``;
* :func:`ensure_l1_filter` / :func:`l1_filter_job` are the cache-aware
  entry points sweep jobs call.

Record kinds (the ``kinds`` array):

====================  ===========================================
:data:`FETCH_MISS`    IL1 miss — L2 read + controller request
:data:`LOAD_MISS`     DL1 miss — L2 read + controller request
:data:`STORE_L1_HIT`  store that hit the DL1 — L2 write only
:data:`STORE_L1_MISS` store that missed — L2 write + controller request
====================  ===========================================

Store records carry the DL1 hit/miss split because the two differ
downstream: only missing stores are L1-miss *requests* the migration
controller observes (section 4.2).
"""

from __future__ import annotations

import os
import sys
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import faults
from repro.caches.base import EvictedLine
from repro.obs import trace_context
from repro.obs.metrics import process_counter
from repro.caches.fully_assoc import FullyAssociativeCache
from repro.caches.hierarchy import CoreCacheConfig
from repro.caches.set_assoc import SetAssociativeCache
from repro.runtime.cache import QUARANTINE_DIR, ResultCache
from repro.runtime.health import health_counter
from repro.runtime.job import Job
from repro.traces.file_format import CORRUPT_NPZ_ERRORS

#: miss-stream record kinds
FETCH_MISS = 0
LOAD_MISS = 1
STORE_L1_HIT = 2
STORE_L1_MISS = 3

#: records carrying an L1-miss request (everything but STORE_L1_HIT)
REQUEST_KINDS = (FETCH_MISS, LOAD_MISS, STORE_L1_MISS)

_RECORD_VERSION = 1
_CHUNK = 1 << 16
_UNSET = object()  # "cache never allocated" sentinel for last_eviction


def _l1_view(cache):
    """``(sets, mask, ways)`` triple unifying the two L1 implementations.

    A fully-associative cache is a set-associative cache with one set;
    returns ``None`` for unknown cache types, which
    :func:`l1_miss_stream` refuses.  Exact types only: a subclass may
    override ``access``.
    """
    if type(cache) is SetAssociativeCache:
        return cache._sets, cache._mask, cache.ways
    if type(cache) is FullyAssociativeCache:
        return [cache._lines], 0, cache.capacity_lines
    return None


def l1_miss_stream(
    il1, dl1, addresses: np.ndarray, kinds: np.ndarray, line_size: int
) -> "tuple[list[int], list[int], list[int]]":
    """Run the mirrored L1 pair over a whole trace.

    Returns ``(indices, lines, record_kinds)`` — one entry per
    reference that reaches the L2 (0-based access index, cache-line
    address, record kind).  Cache contents, ``CacheStats`` and
    ``last_eviction`` of ``il1``/``dl1`` end up exactly as after the
    equivalent sequence of per-access ``cache.access`` calls.
    """
    il1_view = _l1_view(il1)
    dl1_view = _l1_view(dl1)
    if il1_view is None or dl1_view is None:
        raise TypeError(
            f"unsupported L1 cache types: {type(il1).__name__}/"
            f"{type(dl1).__name__}"
        )
    isets, imask, iways = il1_view
    dsets, dmask, dways = dl1_view
    move = OrderedDict.move_to_end
    pop = OrderedDict.popitem
    rec_index: "list[int]" = []
    rec_line: "list[int]" = []
    rec_kind: "list[int]" = []
    append_index = rec_index.append
    append_line = rec_line.append
    append_kind = rec_kind.append
    i_accesses = i_hits = i_evictions = i_writebacks = 0
    d_accesses = d_hits = d_evictions = d_writebacks = 0
    i_last = d_last = _UNSET
    n = len(addresses)
    index = 0
    for start in range(0, n, _CHUNK):
        chunk = addresses[start : start + _CHUNK] // line_size
        chunk_lines = chunk.tolist()
        chunk_kinds = kinds[start : start + _CHUNK].tolist()
        # Set indices for the whole chunk in two numpy passes (one when
        # the IL1/DL1 geometries agree, the common case) instead of a
        # scalar ``line & mask`` per reference.
        d_idx = (chunk & np.int64(dmask)).tolist()
        i_idx = d_idx if imask == dmask else (chunk & np.int64(imask)).tolist()
        for line, kind, di, ii in zip(chunk_lines, chunk_kinds, d_idx, i_idx):
            if kind == 1:  # LOAD
                d_accesses += 1
                cache_set = dsets[di]
                if line in cache_set:
                    d_hits += 1
                    move(cache_set, line)
                    d_last = None
                else:
                    if len(cache_set) >= dways:
                        victim, victim_dirty = pop(cache_set, False)
                        d_evictions += 1
                        if victim_dirty:
                            d_writebacks += 1
                        d_last = EvictedLine(victim, victim_dirty)
                    else:
                        d_last = None
                    cache_set[line] = False
                    append_index(index)
                    append_line(line)
                    append_kind(1)
            elif kind == 0:  # FETCH
                i_accesses += 1
                cache_set = isets[ii]
                if line in cache_set:
                    i_hits += 1
                    move(cache_set, line)
                    i_last = None
                else:
                    if len(cache_set) >= iways:
                        victim, victim_dirty = pop(cache_set, False)
                        i_evictions += 1
                        if victim_dirty:
                            i_writebacks += 1
                        i_last = EvictedLine(victim, victim_dirty)
                    else:
                        i_last = None
                    cache_set[line] = False
                    append_index(index)
                    append_line(line)
                    append_kind(0)
            else:  # STORE: write-through, non-write-allocate DL1
                d_accesses += 1
                cache_set = dsets[di]
                if line in cache_set:
                    d_hits += 1
                    move(cache_set, line)
                    cache_set[line] = True
                    append_index(index)
                    append_line(line)
                    append_kind(2)
                else:
                    append_index(index)
                    append_line(line)
                    append_kind(3)
                d_last = None
            index += 1
    stats = il1.stats
    stats.accesses += i_accesses
    stats.hits += i_hits
    stats.misses += i_accesses - i_hits
    stats.evictions += i_evictions
    stats.writebacks += i_writebacks
    stats = dl1.stats
    stats.accesses += d_accesses
    stats.hits += d_hits
    stats.misses += d_accesses - d_hits
    stats.evictions += d_evictions
    stats.writebacks += d_writebacks
    if i_last is not _UNSET:
        il1.last_eviction = i_last
    if d_last is not _UNSET:
        dl1.last_eviction = d_last
    return rec_index, rec_line, rec_kind


@dataclass
class L1FilterRecord:
    """Compact miss-stream of one trace through one L1 geometry.

    Replaying a record through ``run_filtered`` reproduces the exact
    L2/controller behaviour (and ``ChipStats``) of running the raw
    trace, without touching the replaying model's L1 caches.
    """

    line_size: int
    il1_bytes: int
    dl1_bytes: int
    l1_ways: int
    accesses: int  #: raw trace length the record was filtered from
    max_instruction: int  #: highest instruction index seen; -1 if empty
    indices: np.ndarray  #: int64, 0-based access index of each record
    lines: np.ndarray  #: int64 cache-line addresses
    kinds: np.ndarray  #: uint8 record kinds

    @property
    def records(self) -> int:
        return len(self.lines)

    @property
    def il1_misses(self) -> int:
        return int(np.count_nonzero(self.kinds == FETCH_MISS))

    @property
    def dl1_misses(self) -> int:
        kinds = self.kinds
        return int(
            np.count_nonzero(kinds == LOAD_MISS)
            + np.count_nonzero(kinds == STORE_L1_MISS)
        )

    def matches(self, config: CoreCacheConfig) -> bool:
        """Whether this record was filtered through ``config``'s L1s."""
        return (
            self.line_size == config.line_size
            and self.il1_bytes == config.il1_bytes
            and self.dl1_bytes == config.dl1_bytes
            and self.l1_ways == config.l1_ways
        )

    def require_match(self, config: CoreCacheConfig) -> None:
        if not self.matches(config):
            raise ValueError(
                "L1-filter record geometry "
                f"(line={self.line_size}, il1={self.il1_bytes}, "
                f"dl1={self.dl1_bytes}, ways={self.l1_ways}) does not match "
                f"the model's L1 config {config!r}"
            )

    # -- persistence ----------------------------------------------------

    def save(self, path: "str | os.PathLike[str]") -> Path:
        """Atomically persist as npz (same idiom as the result cache)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=str(path.parent), prefix=".tmp-", suffix=".npz", delete=False
        )
        try:
            with handle:
                # Stored, not deflated: deflating took about as long as
                # building the record, and the zip CRC-32 still guards
                # every member on load (docs/performance.md, "Cold path").
                np.savez(
                    handle,
                    version=np.int64(_RECORD_VERSION),
                    line_size=np.int64(self.line_size),
                    il1_bytes=np.int64(self.il1_bytes),
                    dl1_bytes=np.int64(self.dl1_bytes),
                    l1_ways=np.int64(self.l1_ways),
                    accesses=np.int64(self.accesses),
                    max_instruction=np.int64(self.max_instruction),
                    indices=self.indices,
                    lines=self.lines,
                    kinds=self.kinds,
                )
            faults.corrupt_file("sidecar.save.bytes", handle.name)
            faults.fire("sidecar.save")
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return path

    @classmethod
    def load(cls, path: "str | os.PathLike[str]") -> "L1FilterRecord":
        with np.load(path) as data:
            version = int(data["version"])
            if version != _RECORD_VERSION:
                raise ValueError(
                    f"unsupported L1-filter record version {version} "
                    f"(expected {_RECORD_VERSION})"
                )
            indices, lines, kinds = data["indices"], data["lines"], data["kinds"]
            # A member's CRC-32 is checked only when it is read to the
            # end, so a damaged .npy header that shortens one array
            # would load unnoticed; the three arrays must agree.
            if not len(indices) == len(lines) == len(kinds):
                raise ValueError("L1-filter record arrays disagree on length")
            return cls(
                line_size=int(data["line_size"]),
                il1_bytes=int(data["il1_bytes"]),
                dl1_bytes=int(data["dl1_bytes"]),
                l1_ways=int(data["l1_ways"]),
                accesses=int(data["accesses"]),
                max_instruction=int(data["max_instruction"]),
                indices=indices,
                lines=lines,
                kinds=kinds.astype(np.uint8),
            )


def filter_through_l1s(
    il1, dl1, config: CoreCacheConfig, addresses, kinds, instructions
) -> L1FilterRecord:
    """Run a trace (numpy arrays) through ``il1``/``dl1`` and package
    the miss stream as a record of ``config``'s L1 geometry; the two
    caches end up exactly as after per-access simulation."""
    rec_index, rec_line, rec_kind = l1_miss_stream(
        il1, dl1, addresses, kinds, config.line_size
    )
    return L1FilterRecord(
        line_size=config.line_size,
        il1_bytes=config.il1_bytes,
        dl1_bytes=config.dl1_bytes,
        l1_ways=config.l1_ways,
        accesses=len(addresses),
        max_instruction=int(instructions.max()) if len(instructions) else -1,
        indices=np.asarray(rec_index, dtype=np.int64),
        lines=np.asarray(rec_line, dtype=np.int64),
        kinds=np.asarray(rec_kind, dtype=np.uint8),
    )


def build_l1_filter(
    addresses,
    kinds,
    instructions,
    config: "CoreCacheConfig | None" = None,
) -> L1FilterRecord:
    """Filter one trace through fresh L1s built from ``config``."""
    from repro.kernels.arrays import as_trace_arrays

    config = config or CoreCacheConfig()
    addresses, kinds, instructions = as_trace_arrays(
        addresses, kinds, instructions
    )
    return filter_through_l1s(
        config.make_l1(config.il1_bytes),
        config.make_l1(config.dl1_bytes),
        config,
        addresses,
        kinds,
        instructions,
    )


# -- runtime-cache integration ------------------------------------------
#
# The miss stream itself lives in an npz *sidecar* next to the runtime
# cache's JSON artifact: <cache>/<code-version>/<job-hash>.l1f.npz.
# Both are keyed by the job's content hash and the code fingerprint, so
# editing simulator code invalidates records exactly like payloads.


def l1_filter_job_for(
    name: str, scale: float = 1.0, seed: "int | None" = None
) -> Job:
    """The runtime job computing one workload's L1-filter record."""
    return Job.create(
        "repro.kernels.l1filter:l1_filter_job",
        label=f"l1filter/{name}",
        name=name,
        scale=scale,
        seed=seed,
    )


def _sidecar_path(cache: ResultCache, job: Job) -> Path:
    return cache.generation_dir / f"{job.hash}.l1f.npz"


# -- in-process record reuse --------------------------------------------
#
# A sweep process (serial mode, the population coordinator replaying
# many variants) calls ``ensure_l1_filter`` once
# per variant; re-reading the same ``.l1f.npz`` each time costs a full
# npz read *and* forfeits the per-record precompute memoised on the
# record object.  Successfully *loaded* records are therefore kept in a
# small process-level LRU keyed by the sidecar's on-disk identity
# ``(path, inode, mtime_ns, size)`` — a rebuilt or replaced sidecar
# (atomic ``os.replace`` mints a new inode) can never be served stale,
# and the build path never populates the cache, so the
# quarantine-and-rebuild recovery contract is unchanged.

_RECORD_CACHE_CAP = 8
_OPEN_RECORDS: "OrderedDict[tuple, L1FilterRecord]" = OrderedDict()


def _open_record_key(sidecar: Path) -> "tuple | None":
    """The sidecar's identity key, or ``None`` when it is not a file."""
    try:
        st = os.stat(sidecar)
    except OSError:
        return None
    return (str(sidecar), st.st_ino, st.st_mtime_ns, st.st_size)


def _remember_open_record(key: tuple, record: L1FilterRecord) -> None:
    _OPEN_RECORDS[key] = record
    _OPEN_RECORDS.move_to_end(key)
    while len(_OPEN_RECORDS) > _RECORD_CACHE_CAP:
        _OPEN_RECORDS.popitem(last=False)
        process_counter("l1filter.record_cache.evictions").inc()


def drop_open_records() -> None:
    """Forget every in-process record (test isolation)."""
    _OPEN_RECORDS.clear()


def _record_payload(record: L1FilterRecord) -> "dict[str, object]":
    return {
        "accesses": record.accesses,
        "records": record.records,
        "il1_misses": record.il1_misses,
        "dl1_misses": record.dl1_misses,
        "max_instruction": record.max_instruction,
        "references": record.accesses,
    }


def ensure_l1_filter(
    name: str,
    scale: float = 1.0,
    seed: "int | None" = None,
    cache: "ResultCache | None" = None,
) -> "tuple[L1FilterRecord, bool]":
    """Load or build the L1-filter record for one workload.

    Returns ``(record, cached)`` — ``cached`` is ``True`` when the
    record came from the on-disk sidecar (i.e. the L1 stage was *not*
    re-simulated).  On a build, both the sidecar and the runtime-cache
    JSON payload are persisted (best effort), so subsequent sweep
    variants and re-submitted jobs hit the cache.
    """
    from repro.experiments.workloads import workload

    cache = cache or ResultCache()
    job = l1_filter_job_for(name, scale=scale, seed=seed)
    sidecar = _sidecar_path(cache, job)
    key = _open_record_key(sidecar)
    if key is not None:
        open_record = _OPEN_RECORDS.get(key)
        if open_record is not None:
            _OPEN_RECORDS.move_to_end(key)
            process_counter("l1filter.record_cache.hits").inc()
            return open_record, True
        try:
            with trace_context.phase("l1filter.load", workload=name):
                record = L1FilterRecord.load(sidecar)
            process_counter("l1filter.record_cache.loads").inc()
            _remember_open_record(key, record)
            return record, True
        except CORRUPT_NPZ_ERRORS as exc:
            # Corrupt or stale sidecar (torn write survived a crash, bit
            # rot, old record version): quarantine it next to corrupt
            # cache artifacts, count the fault, rebuild below.  Because
            # saves are atomic this is never hit by a concurrent
            # *in-progress* write — only by bytes that were bad on disk.
            _quarantine_sidecar(cache, sidecar, exc)
            health_counter("recovery.sidecar.rebuilt").inc()
    spec = workload(name, scale=scale, seed=seed)
    with trace_context.phase("l1filter.build", workload=name):
        record = build_l1_filter(*spec.arrays())
    try:
        record.save(sidecar)
    except OSError as exc:
        # Read-only/full cache dir: compute-through, like the cache.
        health_counter("fault.sidecar.write_failed").inc()
        print(
            f"[l1filter] sidecar write failed ({exc}); "
            "serving the in-memory record",
            file=sys.stderr,
        )
    else:
        cache.put(job, _record_payload(record))
    return record, False


def _quarantine_sidecar(
    cache: ResultCache, sidecar: Path, exc: Exception
) -> None:
    health_counter("fault.sidecar.corrupt").inc()
    target = (
        cache.root
        / QUARANTINE_DIR
        / f"{sidecar.parent.name}-{sidecar.name}.corrupt"
    )
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        os.replace(sidecar, target)
        where = f"quarantined to {target}"
    except OSError:
        where = "left in place (quarantine move failed)"
    print(
        f"[l1filter] corrupt sidecar {sidecar.name}: {exc}; {where}; "
        "rebuilding",
        file=sys.stderr,
    )


def l1_filter_job(
    name: str, scale: float = 1.0, seed: "int | None" = None
) -> "dict[str, object]":
    """Runtime job function: materialise one L1-filter record.

    The payload summarises the record; the miss stream itself is the
    npz sidecar (an artifact, like obs traces — it is written even when
    payload caching is disabled, because it *is* the job's product).
    """
    record, _cached = ensure_l1_filter(name, scale=scale, seed=seed)
    return _record_payload(record)
