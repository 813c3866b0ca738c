"""The traced heap the mini-Olden benchmarks run on.

:class:`TracedHeap` is a bump allocator over a simulated address space.
Benchmark code allocates :class:`HeapObject` records (named fields, 8
bytes each) and reads/writes them through accessor methods; every field
access appends ``(address, kind, instruction)`` to compact array
buffers.  The result is wrapped as a :class:`RecordedTrace`, a
:class:`~repro.traces.trace.TraceSource` that can be replayed any
number of times.

Instruction accounting: each field load/store advances the dynamic
instruction counter by a small per-operation cost, and benchmarks call
:meth:`TracedHeap.work` for pure-compute stretches (e.g. the
floating-point body of a force calculation), so instructions-per-access
land in the range the paper's Table 1 reports.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, Sequence

from repro.traces.trace import Access, AccessKind

#: bytes per field; the benchmarks treat every field as one 64-bit word
FIELD_BYTES = 8

_LOAD_COST = 2  #: instructions charged per traced load
_STORE_COST = 2  #: instructions charged per traced store

#: ``AccessKind`` values as plain ints, for the recording hot path
_LOAD = int(AccessKind.LOAD)
_STORE = int(AccessKind.STORE)


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
        import numpy as np

        return (
            np.asarray(self._addresses, dtype=np.int64),
            np.asarray(self._kinds, dtype=np.int8),
            np.asarray(self._instructions, dtype=np.int64),
        )

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

    __slots__ = ("address", "_heap", "_offsets", "_values")

    def __init__(
        self, heap: "TracedHeap", address: int, fields: "Sequence[str]"
    ) -> None:
        self.address = address
        self._heap = heap
        self._offsets = {name: i * FIELD_BYTES for i, name in enumerate(fields)}
        self._values: "Dict[str, object]" = {name: None for name in fields}

    @property
    def size_bytes(self) -> int:
        return len(self._offsets) * FIELD_BYTES

    def get(self, field: str):
        """Traced load of ``field`` (tagged as a pointer load when the
        value is a heap reference)."""
        heap = self._heap
        value = self._values[field]
        heap._append_address(self.address + self._offsets[field])
        heap._append_kind(_LOAD)
        heap._append_instruction(heap.instruction)
        heap._append_pointer(isinstance(value, HeapObject))
        heap.instruction += _LOAD_COST
        return value

    def set(self, field: str, value) -> None:
        """Traced store to ``field``."""
        heap = self._heap
        heap._append_address(self.address + self._offsets[field])
        heap._append_kind(_STORE)
        heap._append_instruction(heap.instruction)
        heap._append_pointer(isinstance(value, HeapObject))
        heap.instruction += _STORE_COST
        self._values[field] = value

    def peek(self, field: str):
        """Untraced read (for assertions and result checking only)."""
        return self._values[field]


class TracedHeap:
    """Bump allocator + access recorder."""

    def __init__(self, name: str, base_address: int = 0x10000) -> None:
        self.name = name
        self.instruction = 0
        self._brk = base_address
        self._addresses = array("q")
        self._kinds = array("b")
        self._instructions = array("q")
        self._pointer_flags = array("b")
        # Bound appends: HeapObject.get/set record each access straight
        # into the four buffers, without a method call of their own.
        self._append_address = self._addresses.append
        self._append_kind = self._kinds.append
        self._append_instruction = self._instructions.append
        self._append_pointer = self._pointer_flags.append

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
        self.instruction += 4
        return obj

    def allocate_array(self, length: int, name: str = "slot") -> HeapObject:
        """Allocate a record of ``length`` numbered fields (an array)."""
        return self.allocate([f"{name}{i}" for i in range(length)])

    def work(self, instructions: int) -> None:
        """Charge pure-compute instructions (no memory traffic)."""
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        self.instruction += instructions

    @property
    def heap_bytes(self) -> int:
        """Total bytes allocated so far."""
        return self._brk

    @property
    def recorded_accesses(self) -> int:
        return len(self._addresses)

    def finish(self) -> RecordedTrace:
        """Freeze the recording into a replayable trace."""
        return RecordedTrace(
            self.name,
            self._addresses,
            self._kinds,
            self._instructions,
            self._pointer_flags,
        )
