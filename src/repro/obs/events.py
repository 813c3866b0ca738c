"""Structured simulation events.

A :class:`SimEvent` is one thing that happened at reference-clock time
``t`` (the running count of trace references — the simulator's only
notion of time).  Event kinds cover the dynamic behaviour the paper's
tables average away:

* ``migration.start`` / ``migration.commit`` — the active core moving
  (section 2.2's two-phase hand-off; in this model the commit follows
  the start immediately, carrying the analytic penalty estimate);
* ``filter.flip`` — a transition filter's sign change (section 3.4
  hysteresis in action);
* ``window.rollover`` — a split mechanism's R-window turning over
  completely (one full ``|R|`` of references since the last rollover);
* ``l2.eviction_storm`` — evictions clustering in a short reference
  window (capacity thrash on the active L2);
* ``bus.saturation`` — measured update-bus bytes per reference
  crossing the configured ceiling;
* ``controller.transition`` — the controller's subset decision moving
  (the quantity behind Figures 4-5).

The scheduler's job lifecycle is not a simulation event: it stays in
the run log's own :class:`~repro.runtime.events.JobEvent` records.

:class:`EventLog` collects events with a hard cap so a pathological run
(e.g. an unsplittable workload flipping filters every few references)
cannot exhaust memory; drops are counted, never silent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

MIGRATION_START = "migration.start"
MIGRATION_COMMIT = "migration.commit"
FILTER_FLIP = "filter.flip"
WINDOW_ROLLOVER = "window.rollover"
L2_EVICTION_STORM = "l2.eviction_storm"
BUS_SATURATION = "bus.saturation"
CONTROLLER_TRANSITION = "controller.transition"


@dataclass(frozen=True)
class SimEvent:
    """One timestamped simulation event.

    ``t`` is the reference-clock time (trace references processed so
    far); ``seq`` is a per-log sequence number that makes the order of
    same-``t`` events reconstructible after a round-trip through JSON.
    """

    kind: str
    t: int
    seq: int = 0
    args: "dict[str, object]" = field(default_factory=dict)

    def to_dict(self) -> "dict[str, object]":
        return {"kind": self.kind, "t": self.t, "seq": self.seq, "args": self.args}

    @classmethod
    def from_dict(cls, data: "dict[str, object]") -> "SimEvent":
        return cls(
            kind=str(data["kind"]),
            t=int(data["t"]),
            seq=int(data.get("seq", 0)),
            args=dict(data.get("args", {})),
        )


class EventLog:
    """Bounded in-memory event collector.

    ``max_events`` caps memory; once full, further events are counted
    in :attr:`dropped` instead of stored (the counters and histograms
    in the metrics registry keep aggregating regardless, so nothing is
    silently lost — only the per-event detail past the cap).
    """

    def __init__(self, max_events: int = 100_000) -> None:
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.max_events = max_events
        self.events: "list[SimEvent]" = []
        self.dropped = 0
        self._seq = 0

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, kind: str, t: int, **args: object) -> None:
        self._seq += 1
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(SimEvent(kind=kind, t=t, seq=self._seq, args=args))
