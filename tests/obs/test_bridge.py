"""``repro.obs.bridge.ObsRunlogSink``: the scheduler's run-log sink
under its old name.

Merging a whole ``--obs`` directory is ``repro.obs.aggregate``'s job
(``test_aggregate.py``).
"""

from repro.obs.aggregate import load_runlog
from repro.obs.bridge import ObsRunlogSink
from repro.runtime.events import JobEvent, JsonlSink


def _job_event(event, label="table2/mst", ts=100.0, **kwargs):
    return JobEvent(
        event=event, label=label, job_hash="abc123", timestamp=ts, **kwargs
    )


class TestRunlogSink:
    def test_emits_are_durable_and_ordered(self, tmp_path):
        assert ObsRunlogSink is JsonlSink
        path = tmp_path / "runtime.jsonl"
        sink = ObsRunlogSink(path)
        sink.emit(_job_event("queued"))
        sink.emit(_job_event("started"))  # same timestamp
        # Durable before close: every emit is flushed.
        assert len(path.read_text().splitlines()) == 2
        sink.close()
        sink.emit(_job_event("finished"))  # lazy re-open
        events = load_runlog(path)
        assert [e.event for e in events] == ["queued", "started", "finished"]
        sink.close()
