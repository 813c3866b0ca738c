"""Trace-context propagation: deterministic span derivation, the
process root a forked worker inherits, thread-local activation, and the
phase-span buffer."""

import json
import multiprocessing
import os
import threading

import pytest

from repro.obs import trace_context as tc


def _send_current(conn):
    conn.send(tc.current())
    conn.close()


class TestDerivation:
    def test_mint_root_unseeded_is_unique(self):
        assert tc.mint_root().trace_id != tc.mint_root().trace_id

    def test_span_for_job_agrees_across_callers(self):
        # The whole cross-process correlation story rests on this:
        # the scheduler and a worker each derive the same span id
        # from (trace_id, job_hash) without talking to each other.
        root = tc.mint_root()
        assert tc.span_for_job(root.trace_id, "abc") == tc.span_for_job(
            root.trace_id, "abc"
        )
        assert tc.span_for_job(root.trace_id, "abc") != tc.span_for_job(
            root.trace_id, "abd"
        )

    def test_job_context_parents_to_root(self):
        root = tc.mint_root()
        job = tc.job_context(root, "deadbeef")
        assert job.trace_id == root.trace_id
        assert job.parent_span_id == root.span_id
        assert job.span_id == tc.span_for_job(root.trace_id, "deadbeef")


class TestRootPropagation:
    @pytest.mark.skipif(os.name != "posix", reason="needs fork")
    def test_forked_child_inherits_root(self):
        root = tc.mint_root()
        tc.set_root(root)
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = context.Process(target=_send_current, args=(sender,))
        child.start()
        sender.close()
        seen = receiver.recv()
        child.join()
        assert seen == root

    def test_ensure_current_mints_once(self):
        first = tc.ensure_current()
        assert tc.ensure_current() == first
        assert tc.current() == first


class TestActivation:
    def test_activate_restore(self):
        root = tc.mint_root()
        tc.set_root(root)
        job = tc.job_context(root, "h")
        prev = tc.activate(job)
        assert tc.current() == job
        tc.restore(prev)
        assert tc.current() == root

    def test_activation_is_thread_local(self):
        job = tc.job_context(tc.mint_root(), "h")
        seen = {}

        def other():
            seen["ctx"] = tc.current()

        prev = tc.activate(job)
        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
        tc.restore(prev)
        assert seen["ctx"] is None  # no root installed, no bleed-through


class TestPhases:
    def test_phase_parents_to_active_context(self):
        job = tc.job_context(tc.mint_root(), "h")
        tc.activate(job)
        with tc.phase("l1filter.build", nodes=7):
            pass
        (record,) = tc.drain_phases()
        assert record["name"] == "l1filter.build"
        assert record["trace_id"] == job.trace_id
        assert record["parent_span_id"] == job.span_id
        assert record["span_id"] != job.span_id
        assert record["dur_us"] >= 1
        assert record["args"] == {"nodes": 7}

    def test_phases_without_context_still_record(self):
        with tc.phase("orphan"):
            pass
        (record,) = tc.drain_phases()
        assert record["name"] == "orphan"

    def test_phase_ids_unique_per_invocation(self):
        tc.activate(tc.job_context(tc.mint_root(), "h"))
        with tc.phase("p"):
            pass
        with tc.phase("p"):
            pass
        first, second = tc.drain_phases()
        assert first["span_id"] != second["span_id"]

    def test_buffer_cap_counts_drops(self, monkeypatch):
        monkeypatch.setattr(tc, "MAX_PHASES", 3)
        for _ in range(5):
            with tc.phase("p"):
                pass
        assert tc.phases_dropped() == 2
        assert len(tc.drain_phases()) == 3
        assert tc.phases_dropped() == 0  # a drain restarts the count

    def test_write_records_the_drop_count(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tc, "MAX_PHASES", 3)
        path = tmp_path / "phases.jsonl"
        for _ in range(5):
            with tc.phase("a"):
                pass
        assert tc.write_phases(path) == 3
        with tc.phase("b"):
            pass
        assert tc.write_phases(path) == 1
        assert tc.write_phases(path) == 0
        assert [r["name"] for r in tc.load_phases(path)] == ["a"] * 3 + ["b"]
        assert tc.load_phases_dropped(path) == 2
        assert tc.load_phases_dropped(tmp_path / "nope.jsonl") == 0

    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "phases.jsonl"
        tc.activate(tc.job_context(tc.mint_root(), "h"))
        with tc.phase("a"):
            pass
        with tc.phase("b"):
            pass
        assert tc.write_phases(path) == 2
        assert tc.drain_phases() == []  # drained by the write
        records = tc.load_phases(path)
        assert [r["name"] for r in records] == ["a", "b"]

    def test_write_appends_across_drains(self, tmp_path):
        path = tmp_path / "phases.jsonl"
        with tc.phase("a"):
            pass
        tc.write_phases(path)
        with tc.phase("b"):
            pass
        tc.write_phases(path)
        assert [r["name"] for r in tc.load_phases(path)] == ["a", "b"]

    def test_load_skips_torn_lines(self, tmp_path):
        path = tmp_path / "phases.jsonl"
        good = {"name": "ok", "span_id": "s", "start_us": 1, "dur_us": 1}
        path.write_text(
            json.dumps(good) + "\n" + '{"name": "torn', encoding="utf-8"
        )
        records = tc.load_phases(path)
        assert [r["name"] for r in records] == ["ok"]

    def test_load_missing_file_is_empty(self, tmp_path):
        assert tc.load_phases(tmp_path / "nope.jsonl") == []


def test_reset_forgets_everything():
    tc.set_root(tc.mint_root())
    with tc.phase("p"):
        pass
    tc.reset()
    assert tc.current() is None
    assert tc.drain_phases() == []
