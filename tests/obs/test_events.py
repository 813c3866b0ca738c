"""SimEvent round-trips and the bounded EventLog."""

import pytest

from repro.obs import events as ev
from repro.obs.events import EventLog, SimEvent


class TestSimEvent:
    def test_round_trips_through_dict(self):
        event = SimEvent(
            kind=ev.MIGRATION_COMMIT, t=42, seq=7, args={"to_core": 3}
        )
        assert SimEvent.from_dict(event.to_dict()) == event

    def test_from_dict_tolerates_missing_optionals(self):
        event = SimEvent.from_dict({"kind": "filter.flip", "t": 1})
        assert event.seq == 0
        assert event.args == {}


class TestEventLog:
    def test_emit_assigns_increasing_seq(self):
        log = EventLog()
        log.emit(ev.FILTER_FLIP, 10, filter="F_X")
        log.emit(ev.FILTER_FLIP, 10, filter="F_Y")
        seqs = [e.seq for e in log.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 2

    def test_cap_counts_drops_instead_of_growing(self):
        log = EventLog(max_events=3)
        for t in range(10):
            log.emit(ev.WINDOW_ROLLOVER, t)
        assert len(log) == 3
        assert log.dropped == 7

    def test_rejects_nonpositive_cap(self):
        with pytest.raises(ValueError):
            EventLog(max_events=0)
