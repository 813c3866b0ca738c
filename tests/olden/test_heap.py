"""The traced heap."""

import tracemalloc

import pytest

from repro.olden.heap import FIELD_BYTES, TracedHeap
from repro.traces.trace import AccessKind


class TestAllocation:
    def test_addresses_disjoint_and_aligned(self):
        heap = TracedHeap("t")
        a = heap.allocate(["x", "y"])
        b = heap.allocate(["z"])
        assert b.address >= a.address + 2 * FIELD_BYTES
        assert a.address % 8 == 0

    def test_alignment_honoured(self):
        heap = TracedHeap("t")
        heap.allocate(["x"])
        b = heap.allocate(["y"], align=64)
        assert b.address % 64 == 0

    def test_bad_alignment_rejected(self):
        heap = TracedHeap("t")
        with pytest.raises(ValueError):
            heap.allocate(["x"], align=3)

    def test_allocate_array(self):
        heap = TracedHeap("t")
        arr = heap.allocate_array(5)
        assert arr.size_bytes == 5 * FIELD_BYTES

    def test_allocation_emits_no_accesses(self):
        heap = TracedHeap("t")
        heap.allocate(["x", "y"])
        assert heap.recorded_accesses == 0


class TestFieldAccess:
    def test_set_get_roundtrip(self):
        heap = TracedHeap("t")
        obj = heap.allocate(["value"])
        obj.set("value", 42)
        assert obj.get("value") == 42

    def test_accesses_traced_at_field_addresses(self):
        heap = TracedHeap("t")
        obj = heap.allocate(["a", "b"])
        obj.set("b", 1)
        obj.get("b")
        trace = heap.finish()
        accesses = list(trace.accesses())
        assert len(accesses) == 2
        assert accesses[0].address == obj.address + FIELD_BYTES
        assert accesses[0].kind is AccessKind.STORE
        assert accesses[1].kind is AccessKind.LOAD

    def test_instruction_counter_advances(self):
        heap = TracedHeap("t")
        obj = heap.allocate(["x"])
        before = heap.instruction
        obj.set("x", 1)
        obj.get("x")
        assert heap.instruction > before

    def test_work_charges_instructions_only(self):
        heap = TracedHeap("t")
        heap.work(100)
        assert heap.instruction >= 100
        assert heap.recorded_accesses == 0

    def test_work_rejects_negative(self):
        with pytest.raises(ValueError):
            TracedHeap("t").work(-1)

    def test_peek_is_untraced(self):
        heap = TracedHeap("t")
        obj = heap.allocate(["x"])
        obj.set("x", 7)
        n = heap.recorded_accesses
        assert obj.peek("x") == 7
        assert heap.recorded_accesses == n


class TestRecordedTrace:
    def test_replayable(self):
        heap = TracedHeap("t")
        obj = heap.allocate(["x"])
        obj.set("x", 1)
        trace = heap.finish()
        first = [a.address for a in trace.accesses()]
        second = [a.address for a in trace.accesses()]
        assert first == second

    def test_instruction_count(self):
        heap = TracedHeap("t")
        obj = heap.allocate(["x"])
        obj.set("x", 1)
        trace = heap.finish()
        assert trace.instruction_count > 0

    def test_len(self):
        heap = TracedHeap("t")
        obj = heap.allocate(["x"])
        obj.set("x", 1)
        obj.get("x")
        assert len(heap.finish()) == 2

    def test_finish_hands_over_the_accesses_and_keeps_the_clock(self):
        heap = TracedHeap("t")
        obj = heap.allocate(["x"])
        obj.set("x", 1)
        heap.work(10)
        clock = heap.instruction
        first = heap.finish()
        assert heap.instruction == clock
        assert heap.recorded_accesses == 0
        obj.get("x")
        second = heap.finish()
        assert [a.instruction for a in first.accesses()] == [4]
        assert [a.instruction for a in second.accesses()] == [clock]
        assert [a.kind for a in second.accesses()] == [AccessKind.LOAD]


class TestRecordingFootprint:
    def test_one_word_per_access(self):
        # One int64 word per access, plus the array's growth slack of
        # at most 1/16; an address, a kind, an instruction and a pointer
        # flag per access would cost 18 B.
        heap = TracedHeap("t")
        nodes = [heap.allocate(["next", "value"]) for _ in range(64)]
        for node, successor in zip(nodes, nodes[1:]):
            node.set("next", successor)
        accesses = 1 << 16
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(accesses // 2):
                node = nodes[i & 63]
                node.get("next")
                node.set("value", None)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (1 + 1 / 16) * (accesses + 200)
