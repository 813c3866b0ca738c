"""The traced heap the mini-Olden benchmarks run on.

:class:`TracedHeap` is a bump allocator over a simulated address space.
Benchmark code allocates :class:`HeapObject` records (named fields, 8
bytes each) and reads/writes them through accessor methods.  While it
runs, the heap records one ``int64`` word per event in an ``array``:

* a field access appends ``address << 2 | store << 1 | pointer``;
* an instruction charge of ``n`` (:meth:`TracedHeap.work`, an
  allocation) appends ``-(n + 1)``.

:meth:`TracedHeap.finish` hands one copy of the words to a
:class:`RecordedTrace`, a :class:`~repro.traces.trace.TraceSource` that
keeps them as they are (8 B a word) and decodes them on demand,
:data:`_CHUNK` words at a time, into ``(address, kind, instruction,
pointer flag)`` values; it can be replayed any number of times.  The
words are also what the on-disk Olden trace memo stores
(:mod:`repro.experiments.workloads`).

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

from array import array
from typing import Dict, Iterator, Sequence

import numpy as np

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


def _costs(words: np.ndarray) -> np.ndarray:
    """The instructions each recording word charges."""
    return np.where(
        words >= 0,
        np.where(words & 2, _STORE_COST, _LOAD_COST),
        -1 - words,
    )


def _pieces(words: np.ndarray) -> "Iterator[np.ndarray]":
    for start in range(0, len(words), _CHUNK):
        yield words[start : start + _CHUNK]


def _charged(words: np.ndarray) -> int:
    """The instructions ``words`` charge in all."""
    return sum(int(_costs(piece).sum()) for piece in _pieces(words))


class RecordedTrace:
    """A replayable trace recorded by a :class:`TracedHeap` run, held as
    its recording words: a 1-D ``int64`` array whose clock starts at
    instruction 0."""

    def __init__(self, name: str, words: np.ndarray) -> None:
        if words.dtype != np.int64 or words.ndim != 1:
            raise ValueError("recording words must be a 1-D int64 array")
        self.name = name
        self.words = words
        self._length = sum(
            int(np.count_nonzero(piece >= 0)) for piece in _pieces(words)
        )

    def __len__(self) -> int:
        return self._length

    @property
    def instruction_count(self) -> int:
        """One past the last access's instruction stamp (0 if none)."""
        if not self._length:
            return 0
        words = self.words
        last = len(words) - 1 - int(np.argmax(words[::-1] >= 0))
        return _charged(words[:last]) + 1

    @property
    def pointer_load_count(self) -> int:
        return sum(
            int(np.count_nonzero((piece >= 0) & ((piece & 1) == 1)))
            for piece in _pieces(self.words)
        )

    def _decoded(self) -> "Iterator[tuple[np.ndarray, ...]]":
        """``(addresses, kinds, instructions, pointer flags)`` of each
        :data:`_CHUNK` words; the instruction clock carries from one
        chunk to the next, and a chunk of charges alone yields empty
        arrays."""
        clock = 0
        for piece in _pieces(self.words):
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
        n = self._length
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
        flags = np.empty(self._length, dtype=bool)
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
        return obj

    def allocate_array(self, length: int, name: str = "slot") -> HeapObject:
        """Allocate a record of ``length`` numbered fields (an array)."""
        return self.allocate([f"{name}{i}" for i in range(length)])

    def work(self, instructions: int) -> None:
        """Charge pure-compute instructions (no memory traffic)."""
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        self._record(-1 - instructions)

    @property
    def instruction(self) -> int:
        """The dynamic instruction counter: everything charged so far."""
        return _charged(np.frombuffer(self._words, dtype=np.int64))

    @property
    def recorded_accesses(self) -> int:
        words = np.frombuffer(self._words, dtype=np.int64)
        return int(np.count_nonzero(words >= 0))

    def finish(self) -> RecordedTrace:
        """Move the recorded accesses into a replayable trace: one copy
        of the words.

        The heap keeps its instruction counter; accesses recorded after
        this call go to the next ``finish``.
        """
        words = np.frombuffer(self._words, dtype=np.int64).copy()
        clock = _charged(words)
        # Every HeapObject holds the buffer through its bound append, so
        # it is emptied in place (no view of it may be alive), and the
        # clock so far becomes the next recording's first charge.
        del self._words[:]
        self._record(-1 - clock)
        return RecordedTrace(self.name, words)
