"""The traced heap the mini-Olden benchmarks run on.

:class:`TracedHeap` is a bump allocator over a simulated address space.
Benchmark code allocates :class:`HeapObject` records (named fields, 8
bytes each) and reads/writes them through accessor methods.  While it
runs, the heap records one ``int64`` word per event:

* a field access appends ``address << 2 | store << 1 | pointer``;
* an instruction charge of ``n`` (:meth:`TracedHeap.work`, an
  allocation) appends ``-(n + 1)``.

The words live on disk from the time they are recorded.  The heap keeps
them in an ``array`` until :meth:`TracedHeap.work` or
:meth:`~TracedHeap.allocate` finds :data:`_SPILL` or more there, then
appends them to its spill file, an unlinked temporary in Python's temp
dir (``$TMPDIR``; where that is a tmpfs, the spilled words stay in
RAM), and empties the array in place.  :meth:`TracedHeap.finish` spills the rest and hands the
file, copying nothing, to a :class:`RecordedTrace`, a
:class:`~repro.traces.trace.TraceSource` that reads its words
:data:`_CHUNK` at a time and decodes each chunk into ``(address, kind,
instruction, pointer flag)`` values; it can be replayed any number of
times, and closing or collecting it deletes the spill file.  The words
are also what the on-disk Olden trace memo stores, and a trace reads a
memo's words in place (:mod:`repro.experiments.workloads`).

Objects of one field tuple share one layout (each field's word offset,
kept by their heap), so an object holds its slots and one dict of field
values.

Instruction accounting: each field load/store advances the dynamic
instruction counter by a small per-operation cost, and benchmarks call
:meth:`TracedHeap.work` for pure-compute stretches (e.g. the
floating-point body of a force calculation), so instructions-per-access
land in the range the paper's Table 1 reports.  An access is stamped
with the counter before its own cost.
"""

from __future__ import annotations

import tempfile
import weakref
from array import array
from typing import BinaryIO, Dict, Iterator, Sequence

import numpy as np

from repro.traces.file_format import StagedArray
from repro.traces.trace import Access, AccessKind

#: bytes per field; the benchmarks treat every field as one 64-bit word
FIELD_BYTES = 8

_LOAD_COST = 2  #: instructions charged per traced load
_STORE_COST = 2  #: instructions charged per traced store
_ALLOCATE_COST = 4  #: instructions charged per allocation

_LOAD = int(AccessKind.LOAD)
_STORE = int(AccessKind.STORE)
_KINDS = tuple(AccessKind)  #: each access kind at its value

#: recording words decoded per step of a :class:`RecordedTrace`
_CHUNK = 1 << 16

#: recording words a heap holds in memory before it spills them to disk
_SPILL = 1 << 16


def _costs(words: np.ndarray) -> np.ndarray:
    """The instructions each recording word charges."""
    return np.where(
        words >= 0,
        np.where(words & 2, _STORE_COST, _LOAD_COST),
        -1 - words,
    )


def _tally(words: np.ndarray) -> "tuple[int, int]":
    """The instructions ``words`` charge in all and the accesses they
    record, counted :data:`_CHUNK` words at a time."""
    charged = accesses = 0
    for start in range(0, len(words), _CHUNK):
        piece = words[start : start + _CHUNK]
        charged += int(_costs(piece).sum())
        accesses += int(np.count_nonzero(piece >= 0))
    return charged, accesses


class RecordedTrace:
    """A replayable trace recorded by a :class:`TracedHeap` run, held on
    disk as its recording words: a 1-D ``int64``
    :class:`~repro.traces.file_format.StagedArray` whose clock starts at
    instruction 0.  The trace owns the words' open file and closes it
    when it is closed or collected."""

    def __init__(self, name: str, words: StagedArray) -> None:
        if np.dtype(words.dtype) != np.int64:
            raise ValueError("recording words must be int64")
        self.name = name
        self.words = words
        self._close = weakref.finalize(self, words.file.close)

    def close(self) -> None:
        """Close the words' file; a spill file is deleted with it."""
        self._close()

    def __len__(self) -> int:
        return self._counts()[0]

    @property
    def instruction_count(self) -> int:
        """One past the last access's instruction stamp (0 if none)."""
        return self._counts()[1]

    @property
    def pointer_load_count(self) -> int:
        return self._counts()[2]

    def _counts(self) -> "tuple[int, int, int]":
        """``(accesses, instruction count, pointer accesses)``, counted
        in one decoding pass."""
        accesses = pointers = end = 0
        for addresses, _kinds, instructions, flags in self._decoded():
            if len(addresses):
                accesses += len(addresses)
                pointers += int(np.count_nonzero(flags))
                end = int(instructions[-1]) + 1
        return accesses, end, pointers

    def pieces(self) -> "Iterator[np.ndarray]":
        """The recording words, :data:`_CHUNK` at a time, each read from
        the file as it is asked for."""
        # A generator of the trace's own, so the trace, whose collection
        # closes the file, lives as long as the pieces are read.
        yield from self.words.pieces(_CHUNK)

    def _decoded(self) -> "Iterator[tuple[np.ndarray, ...]]":
        """``(addresses, kinds, instructions, pointer flags)`` of each
        :data:`_CHUNK` words; the instruction clock carries from one
        chunk to the next, and a chunk of charges alone yields empty
        arrays."""
        clock = 0
        for piece in self.pieces():
            costs = _costs(piece)
            ends = np.cumsum(costs) + clock
            clock = int(ends[-1])
            access = piece >= 0
            stamps = (ends - costs)[access]
            piece = piece[access]
            yield (
                piece >> 2,
                np.where(piece & 2, _STORE, _LOAD).astype(np.int8),
                stamps,
                (piece & 1).astype(np.int8),
            )

    def array_chunks(self) -> "Iterator[tuple[np.ndarray, ...]]":
        """The trace as consecutive ``(addresses, kinds, instructions)``
        chunks of :meth:`arrays`, decoded one at a time."""
        for addresses, kinds, instructions, _flags in self._decoded():
            if len(addresses):
                yield addresses, kinds, instructions

    def accesses(self) -> Iterator[Access]:
        for addresses, kinds, instructions, _flags in self._decoded():
            for address, kind, instruction in zip(
                addresses.tolist(), kinds.tolist(), instructions.tolist()
            ):
                yield Access(address, _KINDS[kind], instruction)

    def arrays(self):
        """``(addresses, kinds, instructions)`` of the whole trace as
        ``int64``/``int8``/``int64`` arrays, for the batched kernels."""
        n = len(self)
        out = (
            np.empty(n, dtype=np.int64),
            np.empty(n, dtype=np.int8),
            np.empty(n, dtype=np.int64),
        )
        at = 0
        for chunk in self.array_chunks():
            end = at + len(chunk[0])
            for whole, part in zip(out, chunk):
                whole[at:end] = part
            at = end
        return out

    def pointer_flags(self) -> np.ndarray:
        """One ``bool`` per access: whether it is a pointer access (see
        :meth:`accesses_with_pointer_flags`)."""
        flags = np.empty(len(self), dtype=bool)
        at = 0
        for _addresses, _kinds, _instructions, chunk in self._decoded():
            flags[at : at + len(chunk)] = chunk
            at += len(chunk)
        return flags

    def accesses_with_pointer_flags(self) -> "Iterator[tuple[Access, bool]]":
        """Yield ``(access, is_pointer_access)`` pairs.

        A pointer access reads or writes a field whose value is a heap
        reference — the class of requests the paper's conclusion
        suggests restricting the transition filter to ("having the
        transition filter updated only on requests coming from pointer
        loads").
        """
        for addresses, kinds, instructions, flags in self._decoded():
            for address, kind, instruction, flag in zip(
                addresses.tolist(),
                kinds.tolist(),
                instructions.tolist(),
                flags.tolist(),
            ):
                yield Access(address, _KINDS[kind], instruction), bool(flag)


class HeapObject:
    """A heap record with named 8-byte fields.

    Field reads/writes are *traced*: they emit an access at the field's
    address.  Values can be any Python object (pointers are other
    ``HeapObject`` instances or ``None``); the heap only models
    addresses and access order, not data encoding.
    """

    __slots__ = ("address", "_record", "_base", "_layout", "_values")

    def __init__(
        self, heap: "TracedHeap", address: int, fields: "Sequence[str]"
    ) -> None:
        self.address = address
        self._record = heap._record
        #: the first field's load word; each field adds its layout offset
        self._base = address << 2
        self._layout = layout = heap._layout(fields)
        self._values: "Dict[str, object]" = dict.fromkeys(layout)

    @property
    def size_bytes(self) -> int:
        return len(self._layout) * FIELD_BYTES

    def get(self, field: str):
        """Traced load of ``field`` (tagged as a pointer load when the
        value is a heap reference)."""
        value = self._values[field]
        self._record(
            (self._base + self._layout[field]) | isinstance(value, HeapObject)
        )
        return value

    def set(self, field: str, value) -> None:
        """Traced store to ``field``."""
        self._record(
            (self._base + self._layout[field]) | 2 | isinstance(value, HeapObject)
        )
        self._values[field] = value

    def peek(self, field: str):
        """Untraced read (for assertions and result checking only)."""
        return self._values[field]


class TracedHeap:
    """Bump allocator + access recorder."""

    def __init__(self, name: str, base_address: int = 0x10000) -> None:
        self.name = name
        self._brk = base_address
        self._words = array("q")
        # Bound append: HeapObject.get/set record each access with one
        # call into the buffer.
        self._record = self._words.append
        #: field tuple -> each field's word offset, ``index *
        #: FIELD_BYTES << 2``, shared by every object of those fields
        self._layouts: "Dict[tuple, Dict[str, int]]" = {}
        #: the recording's spilled words, and the instructions and
        #: accesses they hold
        self._spill_file: "BinaryIO | None" = None
        self._spilled = 0
        self._spilled_charge = 0
        self._spilled_accesses = 0

    def _layout(self, fields: "Sequence[str]") -> "Dict[str, int]":
        key = fields if type(fields) is tuple else tuple(fields)
        layout = self._layouts.get(key)
        if layout is None:
            layout = self._layouts[key] = {
                name: (i * FIELD_BYTES) << 2 for i, name in enumerate(key)
            }
        return layout

    def allocate(self, fields: "Sequence[str]", align: int = 8) -> HeapObject:
        """Allocate a record with the given fields (malloc-equivalent).

        Allocation itself costs a handful of instructions but emits no
        accesses (Olden's region allocator is pointer-bump too).
        """
        if align & (align - 1):
            raise ValueError(f"align must be a power of two, got {align}")
        address = (self._brk + align - 1) & ~(align - 1)
        obj = HeapObject(self, address, fields)
        self._brk = address + obj.size_bytes
        self._record(-1 - _ALLOCATE_COST)
        if len(self._words) >= _SPILL:
            self._spill()
        return obj

    def allocate_array(self, length: int, name: str = "slot") -> HeapObject:
        """Allocate a record of ``length`` numbered fields (an array)."""
        return self.allocate([f"{name}{i}" for i in range(length)])

    def work(self, instructions: int) -> None:
        """Charge pure-compute instructions (no memory traffic)."""
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        self._record(-1 - instructions)
        if len(self._words) >= _SPILL:
            self._spill()

    def _spill(self) -> None:
        """Append the buffer to the spill file and empty it in place."""
        if self._spill_file is None:
            self._spill_file = tempfile.TemporaryFile(prefix=".tmp-")
        words = np.frombuffer(self._words, dtype=np.int64)
        charged, accesses = _tally(words)
        self._spilled_charge += charged
        self._spilled_accesses += accesses
        self._spill_file.write(words)
        self._spilled += len(words)
        # Every HeapObject holds the buffer through its bound append, so
        # it is emptied in place, and no view of it may be alive then.
        del words
        del self._words[:]

    @property
    def instruction(self) -> int:
        """The dynamic instruction counter: everything charged so far."""
        words = np.frombuffer(self._words, dtype=np.int64)
        return self._spilled_charge + _tally(words)[0]

    @property
    def recorded_accesses(self) -> int:
        words = np.frombuffer(self._words, dtype=np.int64)
        return self._spilled_accesses + _tally(words)[1]

    def finish(self) -> RecordedTrace:
        """Move the recorded accesses into a replayable trace: the rest
        of the buffer is spilled, and the trace takes the spill file as
        it is, with no copy of the words.

        The heap keeps its instruction counter; accesses recorded after
        this call go to the next ``finish``.
        """
        self._spill()
        words = StagedArray(self._spill_file, np.dtype(np.int64), self._spilled)
        words.file.flush()
        clock = self._spilled_charge
        self._spill_file = None
        self._spilled = self._spilled_charge = self._spilled_accesses = 0
        # The clock so far becomes the next recording's first charge.
        self._record(-1 - clock)
        return RecordedTrace(self.name, words)
