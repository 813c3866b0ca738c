"""The traced heap the mini-Olden benchmarks run on.

:class:`TracedHeap` is a bump allocator over a simulated address space.
Benchmark code allocates :class:`HeapObject` records (named fields, 8
bytes each) and reads/writes them through accessor methods.  While it
runs, the heap records one ``int64`` word per event in an ``array``:

* a field access appends ``address << 2 | store << 1 | pointer``;
* an instruction charge of ``n`` (:meth:`TracedHeap.work`, an
  allocation) appends ``-(n + 1)``.

:meth:`TracedHeap.finish` decodes the words into the ``(address,
kind, instruction, pointer flag)`` buffers of a :class:`RecordedTrace`,
a :class:`~repro.traces.trace.TraceSource` that can be replayed any
number of times.

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

#: recording words decoded per step of :meth:`TracedHeap.finish`
_CHUNK = 1 << 16


class RecordedTrace:
    """A replayable trace recorded by a :class:`TracedHeap` run."""

    def __init__(
        self,
        name: str,
        addresses: "array[int]",
        kinds: "array[int]",
        instructions: "array[int]",
        pointer_flags: "array[int] | None" = None,
    ) -> None:
        if not len(addresses) == len(kinds) == len(instructions):
            raise ValueError("trace buffers must have equal lengths")
        if pointer_flags is not None and len(pointer_flags) != len(addresses):
            raise ValueError("pointer flags must match trace length")
        self.name = name
        self._addresses = addresses
        self._kinds = kinds
        self._instructions = instructions
        self._pointer_flags = pointer_flags

    def __len__(self) -> int:
        return len(self._addresses)

    @property
    def instruction_count(self) -> int:
        if not self._instructions:
            return 0
        return self._instructions[-1] + 1

    @property
    def pointer_load_count(self) -> int:
        if self._pointer_flags is None:
            return 0
        return sum(self._pointer_flags)

    def accesses(self) -> Iterator[Access]:
        addresses = self._addresses
        kinds = self._kinds
        instructions = self._instructions
        for i in range(len(addresses)):
            yield Access(addresses[i], AccessKind(kinds[i]), instructions[i])

    def arrays(self):
        """``(addresses, kinds, instructions)`` numpy views of the
        recording buffers, for the batched kernels."""
        return (
            np.asarray(self._addresses, dtype=np.int64),
            np.asarray(self._kinds, dtype=np.int8),
            np.asarray(self._instructions, dtype=np.int64),
        )

    def pointer_flags(self) -> np.ndarray:
        """One ``bool`` per access: whether it is a pointer access (see
        :meth:`accesses_with_pointer_flags`)."""
        if self._pointer_flags is None:
            return np.zeros(len(self), dtype=bool)
        return np.asarray(self._pointer_flags, dtype=bool)

    def accesses_with_pointer_flags(self) -> "Iterator[tuple[Access, bool]]":
        """Yield ``(access, is_pointer_access)`` pairs.

        A pointer access reads or writes a field whose value is a heap
        reference — the class of requests the paper's conclusion
        suggests restricting the transition filter to ("having the
        transition filter updated only on requests coming from pointer
        loads").
        """
        flags = self._pointer_flags
        for i, access in enumerate(self.accesses()):
            yield access, bool(flags[i]) if flags is not None else False


class HeapObject:
    """A heap record with named 8-byte fields.

    Field reads/writes are *traced*: they emit an access at the field's
    address.  Values can be any Python object (pointers are other
    ``HeapObject`` instances or ``None``); the heap only models
    addresses and access order, not data encoding.
    """

    __slots__ = ("address", "_record", "_words", "_values")

    def __init__(
        self, heap: "TracedHeap", address: int, fields: "Sequence[str]"
    ) -> None:
        self.address = address
        self._record = heap._record
        #: each field's load word (its address above the two flag bits)
        self._words = {
            name: (address + i * FIELD_BYTES) << 2
            for i, name in enumerate(fields)
        }
        self._values: "Dict[str, object]" = {name: None for name in fields}

    @property
    def size_bytes(self) -> int:
        return len(self._words) * FIELD_BYTES

    def get(self, field: str):
        """Traced load of ``field`` (tagged as a pointer load when the
        value is a heap reference)."""
        value = self._values[field]
        self._record(self._words[field] | isinstance(value, HeapObject))
        return value

    def set(self, field: str, value) -> None:
        """Traced store to ``field``."""
        self._record(self._words[field] | 2 | isinstance(value, HeapObject))
        self._values[field] = value

    def peek(self, field: str):
        """Untraced read (for assertions and result checking only)."""
        return self._values[field]


def _costs(words: np.ndarray) -> np.ndarray:
    """The instructions each recording word charges."""
    return np.where(
        words >= 0,
        np.where(words & 2, _STORE_COST, _LOAD_COST),
        -1 - words,
    )


class TracedHeap:
    """Bump allocator + access recorder."""

    def __init__(self, name: str, base_address: int = 0x10000) -> None:
        self.name = name
        self._brk = base_address
        self._words = array("q")
        # Bound append: HeapObject.get/set record each access with one
        # call into the buffer.
        self._record = self._words.append

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
        return int(_costs(np.frombuffer(self._words, dtype=np.int64)).sum())

    @property
    def heap_bytes(self) -> int:
        """Total bytes allocated so far."""
        return self._brk

    @property
    def recorded_accesses(self) -> int:
        words = np.frombuffer(self._words, dtype=np.int64)
        return int(np.count_nonzero(words >= 0))

    def finish(self) -> RecordedTrace:
        """Move the recorded accesses into a replayable trace, decoding
        the words :data:`_CHUNK` at a time.

        The heap keeps its instruction counter; accesses recorded after
        this call go to the next ``finish``.
        """
        addresses = array("q")
        kinds = array("b")
        instructions = array("q")
        pointer_flags = array("b")
        words = np.frombuffer(self._words, dtype=np.int64)
        clock = 0
        for start in range(0, len(words), _CHUNK):
            chunk = words[start : start + _CHUNK]
            costs = _costs(chunk)
            ends = np.cumsum(costs) + clock
            clock = int(ends[-1])
            access = chunk >= 0
            stamps = (ends - costs)[access]
            chunk = chunk[access]
            addresses.frombytes((chunk >> 2).tobytes())
            kinds.frombytes(
                np.where(chunk & 2, _STORE, _LOAD).astype(np.int8).tobytes()
            )
            instructions.frombytes(stamps.tobytes())
            pointer_flags.frombytes((chunk & 1).astype(np.int8).tobytes())
        del words  # the buffer cannot shrink while a view exports it
        # Every HeapObject holds the buffer through its bound append,
        # often in reference cycles that outlive the heap: free the
        # words now, not when the cycle collector runs.
        del self._words[:]
        self._record(-1 - clock)
        return RecordedTrace(
            self.name, addresses, kinds, instructions, pointer_flags
        )
