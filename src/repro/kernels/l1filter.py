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
* :func:`filter_chunks` takes a trace as consecutive chunks through one
  L1 pair and grows the record's arrays in place, so a build holds the
  record and one chunk, never the whole trace or a joined copy;
  :func:`build_l1_filter_from_chunks` does it with fresh L1s, and
  :func:`build_l1_filter` is its one-chunk case;
* :class:`L1FilterRecord` packages the miss stream as numpy arrays,
  with npz persistence (a *sidecar*) under the :mod:`repro.runtime`
  cache so a sweep computes it once per ``(trace, L1 geometry, code
  version)``; :func:`_read_sidecar` is the one reader, which checks
  the whole file once and then reads the record in place, whole
  (:meth:`L1FilterRecord.load`) or a slice at a time;
* :func:`record_batches` is the entry point of every job — a Table 2
  job through :func:`l1_filter_batches`, each population variant and
  the l1filter job itself (:func:`l1_filter_job`): the sidecar's record
  in slices of :data:`_BATCH` records, or else the record in replay
  batches of at least that many, taken from one L1 pair as the trace
  streams through it and staged to disk as they go, so no job holds
  the whole record;
* :func:`ensure_l1_filter` loads or builds the whole record, for
  callers that want it in one piece.

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
from array import array
from collections import OrderedDict
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from itertools import count
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import faults
from repro.caches.base import EvictedLine
from repro.obs import trace_context
from repro.caches.fully_assoc import FullyAssociativeCache
from repro.caches.hierarchy import CoreCacheConfig
from repro.caches.set_assoc import SetAssociativeCache
from repro.runtime.cache import QUARANTINE_DIR, ResultCache
from repro.runtime.health import health_counter
from repro.runtime.job import Job
from repro.traces.file_format import (
    CORRUPT_NPZ_ERRORS,
    StagedArray,
    save_npz,
    staged_member,
)

#: miss-stream record kinds
FETCH_MISS = 0
LOAD_MISS = 1
STORE_L1_HIT = 2
STORE_L1_MISS = 3

#: records carrying an L1-miss request (everything but STORE_L1_HIT)
REQUEST_KINDS = (FETCH_MISS, LOAD_MISS, STORE_L1_MISS)

_RECORD_VERSION = 1
#: the scalar fields of a record, stored in its sidecar beside the arrays
_HEADER = (
    "line_size",
    "il1_bytes",
    "dl1_bytes",
    "l1_ways",
    "accesses",
    "max_instruction",
)
#: trace references per chunk of :func:`l1_miss_stream`
_CHUNK = 1 << 16
#: L2-bound records per replay batch of :func:`l1_filter_batches`: each
#: replay call rebuilds the chip's line-to-slot dicts (about 12 ms for
#: the 4-core chip), so a batch must be long enough to hide that
_BATCH = 1 << 17
#: :func:`_filter_set_major`'s kind for a reference that hits its L1
_HIT = 255
#: events per slice of :func:`_filter_set_major`'s ``OrderedDict`` walk
_EVENT_SLICE = 1 << 12


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
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Run the mirrored L1 pair over a trace.

    Returns ``(indices, lines, record_kinds)`` as ``int64``/``int64``/
    ``uint8`` arrays — one entry per reference that reaches the L2
    (0-based access index, cache-line address, record kind).  Cache
    contents, ``CacheStats`` and ``last_eviction`` of ``il1``/``dl1``
    end up exactly as after the equivalent sequence of per-access
    ``cache.access`` calls, so they carry their state from one call to
    the next (each call's indices count from 0).  The trace goes
    through in chunks of :data:`_CHUNK` references, each cache's share
    of a chunk set by set (:func:`_filter_set_major`).
    """
    stream = _MissStream(il1, dl1, line_size)
    stream.extend(addresses, kinds)
    return stream.take()


class _MissStream:
    """The L2-bound records of one trace fed through one L1 pair piece
    by piece, its arrays grown in place (``array.frombytes`` per chunk,
    wrapped by ``np.frombuffer`` when taken), never joined.

    :meth:`take` hands out the records fed since the previous take,
    their indices counted from the first reference fed since then
    (:attr:`span` references ago), so the trace can leave in batches."""

    def __init__(self, il1, dl1, line_size: int) -> None:
        self._caches = []
        for cache, miss_kind in ((il1, FETCH_MISS), (dl1, LOAD_MISS)):
            view = _l1_view(cache)
            if view is None:
                raise TypeError(
                    f"unsupported L1 cache types: {type(il1).__name__}/"
                    f"{type(dl1).__name__}"
                )
            self._caches.append((cache, view, miss_kind))
        self._line_size = line_size
        self.span = 0  #: trace references fed since the last take
        self._buffers = (array("q"), array("q"), array("B"))

    @property
    def pending(self) -> int:
        """Records fed since the last take."""
        return len(self._buffers[2])

    def extend(self, addresses: np.ndarray, kinds: np.ndarray) -> None:
        """Feed the trace's next ``addresses``/``kinds``."""
        indices, record_lines, record_kinds = self._buffers
        for start in range(0, len(addresses), _CHUNK):
            lines = addresses[start : start + _CHUNK] // self._line_size
            chunk_kinds = kinds[start : start + _CHUNK]
            fetch = chunk_kinds == 0
            store = ~fetch & (chunk_kinds != 1)
            record = np.empty(len(lines), dtype=np.uint8)
            for (cache, view, miss_kind), share in zip(
                self._caches, (fetch, ~fetch)
            ):
                if not share.any():
                    continue
                cache_lines = lines[share]
                record[share], misses, evictions, writebacks, last = (
                    _filter_set_major(
                        view, cache_lines, store[share], miss_kind
                    )
                )
                stats = cache.stats
                stats.accesses += len(cache_lines)
                stats.hits += len(cache_lines) - misses
                stats.misses += misses
                stats.evictions += evictions
                stats.writebacks += writebacks
                cache.last_eviction = last
            keep = np.flatnonzero(record != _HIT)
            record_lines.frombytes(memoryview(lines[keep]).cast("B"))
            record_kinds.frombytes(memoryview(record[keep]).cast("B"))
            keep += self.span + start
            indices.frombytes(memoryview(keep).cast("B"))
        self.span += len(addresses)

    def take(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(indices, lines, record_kinds)`` fed since the last take,
        over the grown buffers, which the stream then lets go."""
        indices, lines, kinds = self._buffers
        self._buffers = (array("q"), array("q"), array("B"))
        self.span = 0
        return (
            np.frombuffer(indices, dtype=np.int64),
            np.frombuffer(lines, dtype=np.int64),
            np.frombuffer(kinds, dtype=np.uint8),
        )


def _filter_set_major(view, lines, stores, miss_kind):
    """One L1's references of one chunk, exactly as per-access calls.

    ``lines`` are the cache's references in trace order and ``stores``
    flags the stores among them; a fetch or load that misses is
    recorded as ``miss_kind``.  Returns ``(kinds, misses, evictions,
    writebacks, last_eviction)``: each reference's record kind in trace
    order (:data:`_HIT` for a hit that reaches no L2), the counts, and
    the cache's ``last_eviction`` after the final reference.

    Sets never interact, so the references are taken set by set (a
    stable sort on the set index), and within one set they fall into
    *runs* of references to one line.  Only a run's head can change
    the set's LRU order: every later reference in the run finds the
    line most recently used already, so it hits — unless the head was
    a store that missed, which does not allocate; then the run's stores
    keep missing until its first load allocates the line.  The
    ``OrderedDict`` logic of ``access`` therefore runs on the *events*
    — run heads, and each run's first load after a store head — and
    numpy derives everything else.  A store hit later in a run only
    dirties the line, which no other run sees before the set's next
    event, so the event marks the line dirty at once.  A chunk's first
    reference to a set is always a head, so no run state crosses a
    chunk boundary.
    """
    sets, mask, ways = view
    n = len(lines)
    # numpy sorts 16-bit keys stably by radix, about 5x faster than int64
    order = np.argsort(
        (lines & mask).astype(np.uint16 if mask < 1 << 16 else np.int64),
        kind="stable",
    )
    lines = lines[order]
    stores = stores[order]
    # One line maps to one set: equal set-major neighbours form a run.
    # Positions and run numbers are below n, a chunk's length: int32.
    head = np.empty(n, dtype=bool)
    head[0] = True
    np.not_equal(lines[1:], lines[:-1], out=head[1:])
    run = np.cumsum(head, dtype=np.int32)
    run -= 1
    runs = int(run[-1]) + 1
    loads = np.flatnonzero(~stores)
    load_run = run[loads]
    first = np.empty(len(loads), dtype=bool)
    first[:1] = True
    np.not_equal(load_run[1:], load_run[:-1], out=first[1:])
    first_loads = loads[first]  # each run's first load
    del loads, first
    first_load = np.full(runs, n, dtype=np.int32)  # n: the run has no load
    first_load[run[first_loads]] = first_loads
    del load_run
    at = np.flatnonzero(stores)
    store_run = run[at]
    final = np.empty(len(at), dtype=bool)
    final[-1:] = True
    np.not_equal(store_run[1:], store_run[:-1], out=final[:-1])
    last_store = np.full(runs, -1, dtype=np.int32)  # -1: the run has no store
    last_store[store_run[final]] = at[final]
    del final
    event = head.copy()
    event[first_loads] = True
    del first_loads
    events = np.flatnonzero(event)
    # 2: a store; 1: a load whose line a later store of its run dirties;
    # 0: any other load.
    flags = (last_store[run[events]] > events).view(np.uint8)
    flags[stores[events]] = 2
    del last_store
    # ``last_eviction`` is that of the chunk's final reference, the last
    # of its set: only an event there can have evicted.
    tail = int(np.argmax(order))
    tail = int(np.searchsorted(events, tail)) if event[tail] else -1
    del event
    missed = bytearray(len(events))
    evictions = writebacks = 0
    last_eviction = None
    move = OrderedDict.move_to_end
    pop = OrderedDict.popitem
    # The events go through the ``OrderedDict`` logic a slice at a time,
    # so their Python ints never outnumber one slice.
    for begin in range(0, len(events), _EVENT_SLICE):
        end = begin + _EVENT_SLICE
        event_lines = lines[events[begin:end]]
        for j, set_index, line, flag in zip(
            count(begin),
            (event_lines & mask).tolist(),
            event_lines.tolist(),
            flags[begin:end].tolist(),
        ):
            cache_set = sets[set_index]
            if line in cache_set:
                move(cache_set, line)
                if flag:
                    cache_set[line] = True
            else:
                missed[j] = 1
                if flag != 2:  # a store miss does not allocate
                    if len(cache_set) >= ways:
                        victim, victim_dirty = pop(cache_set, False)
                        evictions += 1
                        if victim_dirty:
                            writebacks += 1
                        if j == tail:
                            last_eviction = EvictedLine(victim, victim_dirty)
                    cache_set[line] = flag == 1
    del lines, flags, event_lines
    miss = np.zeros(n, dtype=bool)
    miss[events] = np.frombuffer(missed, dtype=bool)
    del events, missed
    # A store misses from a head store that missed until the run's first
    # load allocates the line.
    heads = np.flatnonzero(head)
    absent = miss[heads] & stores[heads]
    del heads, head
    store_miss = absent[store_run] & (at < first_load[store_run])
    del absent, first_load, store_run
    load_miss = miss
    load_miss &= ~stores
    kinds = np.full(n, _HIT, dtype=np.uint8)
    kinds[load_miss] = miss_kind
    kinds[at] = STORE_L1_HIT
    kinds[at[store_miss]] = STORE_L1_MISS
    misses = int(np.count_nonzero(load_miss)) + int(np.count_nonzero(store_miss))
    in_order = np.empty(n, dtype=np.uint8)
    in_order[order] = kinds
    return in_order, misses, evictions, writebacks, last_eviction


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
        return _save_sidecar(
            path, self.header(), self.indices, self.lines, self.kinds
        )

    def header(self) -> "dict[str, int]":
        """The scalar fields a sidecar stores before the arrays."""
        return {key: getattr(self, key) for key in _HEADER}

    @classmethod
    def load(cls, path: "str | os.PathLike[str]") -> "L1FilterRecord":
        """The whole record in the sidecar at ``path``, checked
        (:func:`_read_sidecar`)."""
        with _read_sidecar(path) as sidecar:
            return sidecar.whole()


@dataclass(frozen=True)
class _Sidecar:
    """A checked sidecar: its header and its three arrays, each read
    where it lies in the open file (:func:`_read_sidecar`)."""

    header: "dict[str, int]"
    indices: StagedArray
    lines: StagedArray
    kinds: StagedArray

    def slices(self, batch: int) -> "Iterator[L1FilterRecord]":
        """The record in slices of ``batch`` records, each read as it
        is asked for; replayed in turn, they end where the whole record
        ends.

        Slice ``k`` covers records ``[a, b)`` and the trace references
        from ``S_k`` (0 for the first slice, else the trace index of
        record ``a``) up to ``S_k+1`` (the header's ``accesses`` after
        the last slice): its indices count from ``S_k`` and its
        ``accesses`` is ``S_k+1 - S_k``.  The sidecar keeps only the
        whole record's ``max_instruction``, so the last slice carries
        it and the others ``-1``.  A record with no records is one
        empty slice.
        """
        records = self.indices.length
        start = 0  # S_k
        for a in range(0, max(records, 1), batch):
            b = min(a + batch, records)
            last = b == records
            end = (
                self.header["accesses"]
                if last
                else int(self.indices.read(b, b + 1)[0])
            )
            # Built in the yield, so this frame keeps no array of a
            # slice while the next one is read.
            yield L1FilterRecord(
                **{
                    **self.header,
                    "accesses": end - start,
                    "max_instruction": (
                        self.header["max_instruction"] if last else -1
                    ),
                },
                indices=self._indices(a, b, start),
                lines=self.lines.read(a, b),
                kinds=self.kinds.read(a, b).astype(np.uint8, copy=False),
            )
            start = end

    def _indices(self, a: int, b: int, start: int) -> np.ndarray:
        """Records ``[a, b)``'s indices, counted from reference
        ``start``."""
        indices = self.indices.read(a, b)
        return indices - start if start else indices

    def whole(self) -> "L1FilterRecord":
        """The record in one piece."""
        return next(self.slices(max(self.indices.length, 1)))


@contextmanager
def _read_sidecar(path: "str | os.PathLike[str]") -> "Iterator[_Sidecar]":
    """The sidecar at ``path``, checked, and open for the ``with`` block.

    The one sidecar reader.  Before it hands the sidecar out it checks
    the record version, that the three arrays agree on length, and the
    CRC-32 of every member, reading each to its end once
    (:func:`~repro.traces.file_format.staged_member`), so a flipped bit
    or a torn tail anywhere in the file raises one of
    :data:`~repro.traces.file_format.CORRUPT_NPZ_ERRORS` here, before
    any of it is replayed.  The file, and any member inflated from a
    deflated sidecar, is closed when the block ends, also when a check
    fails.
    """
    with open(path, "rb") as file, ExitStack() as inflated:
        with np.load(file) as data:
            version = int(data["version"])
            if version != _RECORD_VERSION:
                raise ValueError(
                    f"unsupported L1-filter record version {version} "
                    f"(expected {_RECORD_VERSION})"
                )
            header = {key: int(data[key]) for key in _HEADER}
        members = []
        for key in ("indices", "lines", "kinds"):
            member = staged_member(file, key)
            if member.file is not file:
                inflated.callback(member.file.close)
            members.append(member)
        # A damaged .npy header could shorten one array and still
        # check; the three arrays must agree.
        if len({member.length for member in members}) != 1:
            raise ValueError("L1-filter record arrays disagree on length")
        yield _Sidecar(header, *members)


def _save_sidecar(path, header, indices, lines, kinds) -> Path:
    """The one sidecar writer: ``header``'s fields and the three arrays
    (arrays, or :class:`~repro.traces.file_format.StagedArray` files)
    as an npz staged beside ``path`` and renamed onto it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        dir=str(path.parent), prefix=".tmp-", suffix=".npz", delete=False
    )
    try:
        with handle:
            # Stored, not deflated: deflating took about as long as
            # building the record, and the zip CRC-32 still guards every
            # member on load (docs/performance.md, "Cold path").
            save_npz(
                handle,
                version=np.int64(_RECORD_VERSION),
                **{key: np.int64(value) for key, value in header.items()},
                indices=indices,
                lines=lines,
                kinds=kinds,
            )
        faults.corrupt_file("sidecar.save.bytes", handle.name)
        faults.fire("sidecar.save")
        os.replace(handle.name, path)
    except BaseException:
        _unlink_quietly(handle.name)
        raise
    return path


def _unlink_quietly(path) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _filtered(il1, dl1, config: CoreCacheConfig, chunks, batch):
    """Records of a trace, given as consecutive ``(addresses, kinds,
    instructions)`` numpy chunks, run through ``il1``/``dl1``.

    Yields a record each time :data:`_CHUNK` references leave at least
    ``batch`` records, and one of whatever references remain; with
    ``batch=None``, one record of the whole trace.  Each record covers
    the references since the previous one: its indices count from the
    first of them, and ``accesses`` and ``max_instruction`` are theirs,
    so the records replayed in turn end where the whole record ends.
    """
    stream = _MissStream(il1, dl1, config.line_size)
    top = -1  # highest instruction since the last record

    def record() -> L1FilterRecord:
        accesses = stream.span
        indices, lines, kinds = stream.take()
        return L1FilterRecord(
            line_size=config.line_size,
            il1_bytes=config.il1_bytes,
            dl1_bytes=config.dl1_bytes,
            l1_ways=config.l1_ways,
            accesses=accesses,
            max_instruction=top,
            indices=indices,
            lines=lines,
            kinds=kinds,
        )

    for chunk in chunks:
        addresses, kinds, instructions = chunk
        del chunk
        for start in range(0, len(addresses), _CHUNK):
            end = start + _CHUNK
            stream.extend(addresses[start:end], kinds[start:end])
            top = max(top, int(instructions[start:end].max()))
            if end >= len(addresses):
                # All fed: the replays of a batch need not share memory
                # with a chunk the stream is done with.
                del addresses, kinds, instructions
            if batch is not None and stream.pending >= batch:
                yield record()
                top = -1
    if batch is None or stream.span:
        yield record()


def filter_chunks(il1, dl1, config: CoreCacheConfig, chunks) -> L1FilterRecord:
    """Run a trace, given as consecutive ``(addresses, kinds,
    instructions)`` numpy chunks, through ``il1``/``dl1`` and package
    the miss stream as a record of ``config``'s L1 geometry; the two
    caches end up exactly as after per-access simulation.  Holds the
    record and one chunk, never the whole trace."""
    return next(_filtered(il1, dl1, config, chunks, None))


def build_l1_filter_from_chunks(
    chunks, config: "CoreCacheConfig | None" = None
) -> L1FilterRecord:
    """Filter one trace, in consecutive chunks, through fresh L1s built
    from ``config`` (:func:`filter_chunks`)."""
    config = config or CoreCacheConfig()
    return filter_chunks(
        config.make_l1(config.il1_bytes),
        config.make_l1(config.dl1_bytes),
        config,
        chunks,
    )


def build_l1_filter(
    addresses,
    kinds,
    instructions,
    config: "CoreCacheConfig | None" = None,
) -> L1FilterRecord:
    """Filter one whole trace through fresh L1s built from ``config``:
    :func:`build_l1_filter_from_chunks` with one chunk."""
    from repro.kernels.arrays import as_trace_arrays

    return build_l1_filter_from_chunks(
        [as_trace_arrays(addresses, kinds, instructions)], config
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


def _record_payload(
    header: "dict[str, int]", kind_counts: "list[int]"
) -> "dict[str, object]":
    """The l1filter job's payload: a record's
    :meth:`~L1FilterRecord.header` and its count of each record kind."""
    fetch, load, _store_hit, store_miss = kind_counts
    return {
        "accesses": header["accesses"],
        "records": sum(kind_counts),
        "il1_misses": fetch,
        "dl1_misses": load + store_miss,
        "max_instruction": header["max_instruction"],
        "references": header["accesses"],
    }


def _kind_counts(kinds: np.ndarray) -> "list[int]":
    return np.bincount(kinds, minlength=4).tolist()


class _Tally:
    """What the payload needs of a record, summed over its batches or
    slices: replayed in turn, they add up to the whole record."""

    def __init__(self) -> None:
        self.header = {"accesses": 0, "max_instruction": -1}
        self.kind_counts = [0, 0, 0, 0]

    def add(self, batch: L1FilterRecord) -> None:
        header = self.header
        header["accesses"] += batch.accesses
        header["max_instruction"] = max(
            header["max_instruction"], batch.max_instruction
        )
        self.kind_counts = [
            total + count
            for total, count in zip(self.kind_counts, _kind_counts(batch.kinds))
        ]

    def payload(self) -> "dict[str, object]":
        return _record_payload(self.header, self.kind_counts)


def ensure_l1_filter(
    name: str, scale: float = 1.0, seed: "int | None" = None
) -> "tuple[L1FilterRecord, bool]":
    """Load or build the whole L1-filter record for one workload.

    Returns ``(record, cached)`` — ``cached`` is ``True`` when the
    record came from the on-disk sidecar (i.e. the L1 stage was *not*
    re-simulated).  On a build, both the sidecar and the runtime-cache
    JSON payload are persisted (best effort) under the default cache
    root (``$REPRO_CACHE_DIR``, else ``.repro-cache``), so subsequent
    sweep variants and re-submitted jobs hit the cache.  The jobs read
    the record in batches instead (:func:`record_batches`).
    """
    from repro.experiments.workloads import workload

    cache = ResultCache()
    job = l1_filter_job_for(name, scale=scale, seed=seed)
    sidecar = _sidecar_path(cache, job)
    with ExitStack() as stack:
        found = _found_sidecar(cache, sidecar, name, stack)
        if found is not None:
            return found.whole(), True
    spec = workload(name, scale=scale, seed=seed)
    # The phase covers trace generation too: the chunks are generated
    # (or decoded from an Olden trace's words) as the build takes them.
    with trace_context.phase("l1filter.build", workload=name):
        record = build_l1_filter_from_chunks(spec.array_chunks())
    _publish(
        cache,
        job,
        lambda: record.save(sidecar),
        _record_payload(record.header(), _kind_counts(record.kinds)),
    )
    return record, False


def l1_filter_batches(
    name: str, scale: float = 1.0, seed: "int | None" = None
) -> "Iterator[L1FilterRecord]":
    """One workload's L1-filter record in replay batches: the batches
    of :func:`record_batches` without their source."""
    for batch, _cached in record_batches(name, scale=scale, seed=seed):
        yield batch
        del batch  # before the next one is read or built


def record_batches(
    name: str, scale: float = 1.0, seed: "int | None" = None
) -> "Iterator[tuple[L1FilterRecord, bool]]":
    """One workload's L1-filter record, for one replay of each model,
    as ``(batch, cached)`` pairs: ``cached`` is ``True`` when the batch
    came from the sidecar.

    A sidecar that checks (:func:`_read_sidecar`, one CRC pass) is
    handed out in slices of :data:`_BATCH` records, each read in place
    from the file as it is asked for (:meth:`_Sidecar.slices`); one
    that does not is quarantined first.  Otherwise the trace streams
    (:meth:`~repro.experiments.workloads.WorkloadSpec.array_chunks`)
    through one L1 pair, and the record leaves in batches of at least
    :data:`_BATCH` records (:func:`_filtered`).  Either way, replayed in
    turn, the batches end where the whole record ends.  A built batch
    is staged on disk as it goes (:class:`_StagedRecord`), and after the
    last one the sidecar, byte for byte what :meth:`L1FilterRecord.save`
    writes of the whole record, and then the runtime-cache payload are
    published as :func:`ensure_l1_filter` publishes them.  The
    generator drops each batch before it takes the next, so a caller
    that does too never holds the whole record.
    """
    from repro.experiments.workloads import workload

    cache = ResultCache()
    job = l1_filter_job_for(name, scale=scale, seed=seed)
    sidecar = _sidecar_path(cache, job)
    with ExitStack() as stack:
        found = _found_sidecar(cache, sidecar, name, stack)
        if found is not None:
            for batch in found.slices(_BATCH):
                yield batch, True
                del batch
            return
    config = CoreCacheConfig()
    batches = _filtered(
        config.make_l1(config.il1_bytes),
        config.make_l1(config.dl1_bytes),
        config,
        workload(name, scale=scale, seed=seed).array_chunks(),
        _BATCH,
    )
    staged = _StagedRecord(sidecar, config)
    try:
        while True:
            # Each batch's phase covers the trace generation it takes.
            with trace_context.phase("l1filter.build", workload=name):
                batch = next(batches, None)
            if batch is None:
                break
            staged.append(batch)
            yield batch, False
            del batch
        with trace_context.phase("l1filter.save", workload=name):
            _publish(cache, job, staged.save, staged.tally.payload())
    finally:
        staged.discard()


class _StagedRecord:
    """A record taken in batches, kept as its :class:`_Tally` and its
    three arrays, each appended to a ``.tmp-`` file beside its sidecar
    (the indices counted from the trace's start), from which
    :meth:`save` writes the sidecar of the whole record.  A failure to
    stage is kept and raised by :meth:`save`, so the replays go on
    regardless."""

    _MEMBERS = (("indices", np.int64), ("lines", np.int64), ("kinds", np.uint8))

    def __init__(self, sidecar: Path, config: CoreCacheConfig) -> None:
        self._sidecar = sidecar
        self._config = config
        self.tally = _Tally()
        self._files = []
        self._error: "OSError | None" = None
        try:
            sidecar.parent.mkdir(parents=True, exist_ok=True)
            for key, _dtype in self._MEMBERS:
                self._files.append(
                    tempfile.NamedTemporaryFile(
                        dir=str(sidecar.parent),
                        prefix=".tmp-",
                        suffix=f".{key}",
                        delete=False,
                    )
                )
        except OSError as exc:
            self._error = exc

    def append(self, batch: L1FilterRecord) -> None:
        if self._error is None:
            arrays = (
                batch.indices + self.tally.header["accesses"],
                batch.lines,
                batch.kinds,
            )
            try:
                for handle, values in zip(self._files, arrays):
                    handle.write(memoryview(values).cast("B"))
            except OSError as exc:
                self._error = exc
        self.tally.add(batch)

    def save(self) -> Path:
        if self._error is not None:
            raise self._error
        for handle in self._files:
            handle.flush()
        config = self._config
        records = sum(self.tally.kind_counts)
        return _save_sidecar(
            self._sidecar,
            {
                "line_size": config.line_size,
                "il1_bytes": config.il1_bytes,
                "dl1_bytes": config.dl1_bytes,
                "l1_ways": config.l1_ways,
                **self.tally.header,
            },
            *(
                StagedArray(handle, np.dtype(dtype), records)
                for handle, (_key, dtype) in zip(self._files, self._MEMBERS)
            ),
        )

    def discard(self) -> None:
        """Remove the staging files."""
        for handle in self._files:
            handle.close()
            _unlink_quietly(handle.name)


def _found_sidecar(
    cache: ResultCache, sidecar: Path, name: str, stack: ExitStack
) -> "_Sidecar | None":
    """The checked sidecar at ``sidecar``, open until ``stack`` closes,
    or ``None`` when there is none or it does not check."""
    # A missing sidecar is built, not quarantined: ``CORRUPT_NPZ_ERRORS``
    # includes the ``OSError`` a read of it would raise.
    if not sidecar.exists():
        return None
    try:
        with trace_context.phase("l1filter.load", workload=name):
            return stack.enter_context(_read_sidecar(sidecar))
    except CORRUPT_NPZ_ERRORS as exc:
        # Corrupt or stale sidecar (torn write survived a crash, bit
        # rot, old record version): quarantine it next to corrupt
        # cache artifacts, count the fault; the caller rebuilds.
        # Because saves are atomic this is never hit by a concurrent
        # *in-progress* write — only by bytes that were bad on disk.
        _quarantine_sidecar(cache, sidecar, exc)
        health_counter("recovery.sidecar.rebuilt").inc()
        return None


def _publish(cache: ResultCache, job: Job, save, payload) -> None:
    """Write a built record's sidecar with ``save()``, then put the
    job's ``payload`` in the result cache.  A sidecar that cannot be
    written (read-only or full cache dir) is skipped, like a cache
    write: the job computes through."""
    try:
        save()
    except OSError as exc:
        health_counter("fault.sidecar.write_failed").inc()
        print(
            f"[l1filter] sidecar write failed ({exc}); "
            "the record is not kept",
            file=sys.stderr,
        )
    else:
        cache.put(job, payload)


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
    The record is built or read in batches (:func:`l1_filter_batches`),
    never whole.
    """
    tally = _Tally()
    for batch in l1_filter_batches(name, scale=scale, seed=seed):
        tally.add(batch)
        del batch  # before the next one is read or built
    return tally.payload()
