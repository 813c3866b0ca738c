"""The scheduler -> obs bridge: event conversion and sink.

Merging a whole ``--obs`` directory is ``repro.obs.aggregate``'s job
(``test_aggregate.py``).
"""

from repro.obs.bridge import (
    ObsRunlogSink,
    bridge_job_events,
    sim_event_from_job_event,
)
from repro.obs.export import load_events_jsonl
from repro.runtime.events import JobEvent


def _job_event(event, label="table2/mst", ts=100.0, **kwargs):
    return JobEvent(
        event=event, label=label, job_hash="abc123", timestamp=ts, **kwargs
    )


class TestConversion:
    def test_kind_prefix_and_microsecond_clock(self):
        event = _job_event("finished", ts=101.5, duration=1.25, references=10)
        sim = sim_event_from_job_event(event, t0=100.0, seq=3)
        assert sim.kind == "runtime.finished"
        assert sim.t == 1_500_000
        assert sim.seq == 3
        assert sim.args["label"] == "table2/mst"
        assert sim.args["duration"] == 1.25
        assert sim.args["references"] == 10

    def test_clock_never_goes_negative(self):
        sim = sim_event_from_job_event(_job_event("queued", ts=99.0), t0=100.0)
        assert sim.t == 0

    def test_bridge_preserves_order_via_seq(self):
        events = [
            _job_event("queued", ts=100.0),
            _job_event("started", ts=100.0),  # same timestamp!
            _job_event("finished", ts=100.2),
        ]
        bridged = bridge_job_events(events)
        assert [e.seq for e in bridged] == [1, 2, 3]
        assert [e.kind for e in bridged] == [
            "runtime.queued",
            "runtime.started",
            "runtime.finished",
        ]


class TestRunlogSink:
    def test_emits_are_durable_and_ordered(self, tmp_path):
        path = tmp_path / "runtime.jsonl"
        sink = ObsRunlogSink(path)
        sink.emit(_job_event("queued"))
        sink.emit(_job_event("started"))
        # Durable before close: every emit is flushed.
        assert len(path.read_text().splitlines()) == 2
        sink.close()
        sink.emit(_job_event("finished"))  # lazy re-open
        events = load_events_jsonl(path)
        assert [e.kind for e in events] == [
            "runtime.queued",
            "runtime.started",
            "runtime.finished",
        ]
        assert [e.seq for e in events] == [1, 2, 3]
        sink.close()
