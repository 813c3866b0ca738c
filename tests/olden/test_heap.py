"""The traced heap."""

import random
import tracemalloc

import numpy as np
import pytest

import repro.olden.heap as heap_module
from repro.olden.heap import FIELD_BYTES, TracedHeap
from repro.traces.trace import Access, AccessKind


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

    def test_closing_a_trace_closes_its_spill_file(self):
        heap = TracedHeap("t")
        heap.allocate(["x"]).set("x", 1)
        trace = heap.finish()
        spill = trace.words.file
        assert list(trace.accesses())
        trace.close()
        assert spill.closed
        again = heap.finish()
        spill = again.words.file
        del again  # collected: closed too
        assert spill.closed


class TestRecordingFootprint:
    def test_finish_copies_no_words(self, monkeypatch):
        # Words recorded by loads and stores alone stay in the buffer
        # until finish(), which writes them to the spill file as they
        # are: a copy of them would cost 8 B a word.  Counting what they
        # hold takes temporaries of one chunk.
        monkeypatch.setattr(heap_module, "_CHUNK", 1024)
        heap = TracedHeap("t")
        node = heap.allocate(["next", "value"])
        node.set("next", node)
        accesses = 1 << 18
        for _ in range(accesses // 2):
            node.get("next")
            node.set("value", None)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = heap.finish()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(trace) == accesses + 1
        assert peak < 8 * accesses / 4

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


def _run_program(heap, rng, steps):
    """Random allocations, work charges, and pointer and plain loads
    and stores."""
    objects = [heap.allocate(("a", "b", "c"))]
    for _ in range(steps):
        roll = rng.random()
        target = rng.choice(objects)
        field = rng.choice("abc")
        if roll < 0.1:
            objects.append(heap.allocate(["a", "b", "c"]))
        elif roll < 0.3:
            heap.work(rng.randrange(50))
        elif roll < 0.65:
            target.set(field, rng.choice([None, 7, rng.choice(objects)]))
        else:
            target.get(field)


def _decode_per_word(words):
    """The recording format, word by word: ``(access, pointer)``."""
    clock = 0
    decoded = []
    for word in words.tolist():
        if word < 0:
            clock += -1 - word
            continue
        store = bool(word & 2)
        kind = AccessKind.STORE if store else AccessKind.LOAD
        decoded.append((Access(word >> 2, kind, clock), bool(word & 1)))
        clock += 2
    return decoded


def _views(trace):
    """Everything a trace decodes, as plain values."""
    chunks = list(trace.array_chunks())
    return {
        "len": len(trace),
        "instruction_count": trace.instruction_count,
        "pointer_load_count": trace.pointer_load_count,
        "arrays": [a.tolist() for a in trace.arrays()],
        "dtypes": [a.dtype for a in trace.arrays()],
        "chunks": [
            np.concatenate(column).tolist() for column in zip(*chunks)
        ],
        "pointer_flags": trace.pointer_flags().tolist(),
        "accesses": list(trace.accesses()),
        "pairs": list(trace.accesses_with_pointer_flags()),
    }


def _two_recordings(heap):
    """Two recordings of one heap: the second's words start with the
    clock the first left."""
    rng = random.Random(11)
    _run_program(heap, rng, 400)
    first = heap.finish()
    _run_program(heap, rng, 300)
    heap.work(9)  # trailing charges after the last access
    return first, heap.finish()


class _WatchedHeap(TracedHeap):
    """A heap that keeps the most words its buffer held after any
    charge or allocation."""

    held = 0

    def work(self, instructions):
        super().work(instructions)
        self.held = max(self.held, len(self._words))

    def allocate(self, fields, align=8):
        obj = super().allocate(fields, align)
        self.held = max(self.held, len(self._words))
        return obj


class TestChunkedDecode:
    @pytest.fixture(scope="class")
    def traces(self):
        """Two recordings, each kept in the buffer until ``finish()``."""
        return _two_recordings(TracedHeap("t"))

    def test_whole_decode_is_the_recording_format(self, traces):
        for trace in traces:
            views = _views(trace)
            (words,) = trace.pieces()  # one chunk
            pairs = _decode_per_word(words)
            assert views["pairs"] == pairs
            assert views["accesses"] == [access for access, _ in pairs]
            assert views["len"] == len(pairs)
            assert views["instruction_count"] == pairs[-1][0].instruction + 1
            assert views["pointer_load_count"] == sum(p for _, p in pairs)
            assert views["dtypes"] == [np.int64, np.int8, np.int64]
            assert views["chunks"] == views["arrays"]

    @pytest.mark.parametrize("chunk", range(1, 8))
    def test_chunked_decode_equals_whole(self, traces, monkeypatch, chunk):
        whole = [_views(trace) for trace in traces]
        monkeypatch.setattr(heap_module, "_CHUNK", chunk)
        assert [_views(trace) for trace in traces] == whole

    @pytest.mark.parametrize("spill", [1, 5])
    @pytest.mark.parametrize("chunk", range(1, 8))
    def test_spilled_words_decode_as_kept_ones(
        self, traces, monkeypatch, spill, chunk
    ):
        whole = [_views(trace) for trace in traces]
        monkeypatch.setattr(heap_module, "_SPILL", spill)
        heap = _WatchedHeap("t")
        spilled = _two_recordings(heap)
        # No more than _SPILL words once a charge or allocation returns,
        # so at any time no more than that plus the accesses since.
        assert heap.held < spill
        monkeypatch.setattr(heap_module, "_CHUNK", chunk)
        assert [_views(trace) for trace in spilled] == whole


    @pytest.mark.parametrize("view", ["arrays", "pointer_flags"])
    def test_whole_views_decode_once(self, traces, monkeypatch, view):
        # Each whole-trace view reads the words in one pass, not a pass
        # for its length and another for its values.
        passes = []
        pieces = heap_module.RecordedTrace.pieces

        def counted(trace):
            passes.append(trace)
            return pieces(trace)

        monkeypatch.setattr(heap_module.RecordedTrace, "pieces", counted)
        for trace in traces:
            passes.clear()
            getattr(trace, view)()
            assert passes == [trace]
