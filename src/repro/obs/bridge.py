"""Bridge the runtime's :class:`~repro.runtime.events.JobEvent` stream
into the observability sink, so one artifact directory — and one merged
Chrome trace — covers the *scheduler* (jobs queueing, starting,
retrying, finishing across worker processes) and the *simulator*
(migrations, filter flips, storms inside each job).

Two clocks meet here.  Simulator events tick in trace references; the
scheduler ticks in wall-clock seconds.  Bridged runtime events are
stamped in microseconds since the bridge was created, so in a merged
trace the scheduler rows and each job's simulator rows are separate
processes with comparable magnitudes (1 ref = 1 us on the simulator
side).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import IO, Iterable

from repro.obs.events import SimEvent
from repro.runtime.events import JobEvent

#: prefix shared by every bridged scheduler event kind
RUNTIME_PREFIX = "runtime."


def sim_event_from_job_event(
    event: JobEvent, t0: float, seq: int = 0
) -> SimEvent:
    """Convert one scheduler event into the obs event shape."""
    args: "dict[str, object]" = {
        "label": event.label,
        "job_hash": event.job_hash,
        "attempt": event.attempt,
        # Absolute wall clock (epoch us): the aggregate merger uses it
        # to place scheduler spans and kernel phase spans from several
        # processes on one shared timeline (relative `t` cannot — each
        # runlog's t0 is the sink's creation time, local to it).
        "wall_us": int(event.timestamp * 1_000_000),
    }
    if event.duration is not None:
        args["duration"] = event.duration
    if event.references is not None:
        args["references"] = event.references
    if event.error is not None:
        args["error"] = event.error
    if event.trace_id is not None:
        args["trace_id"] = event.trace_id
        args["span_id"] = event.span_id
        args["parent_span_id"] = event.parent_span_id
    return SimEvent(
        kind=RUNTIME_PREFIX + event.event,
        t=max(0, int((event.timestamp - t0) * 1_000_000)),
        seq=seq,
        args=args,
    )


def bridge_job_events(
    events: "Iterable[JobEvent]", t0: "float | None" = None
) -> "list[SimEvent]":
    """Convert a scheduler event stream, preserving its order via
    monotonically increasing ``seq`` numbers."""
    events = list(events)
    if t0 is None:
        t0 = min((e.timestamp for e in events), default=0.0)
    return [
        sim_event_from_job_event(event, t0, seq=i + 1)
        for i, event in enumerate(events)
    ]


class ObsRunlogSink:
    """A runtime :class:`~repro.runtime.events.EventBus` sink that
    appends scheduler events, in obs JSONL shape, into the obs
    directory — the file half of the scheduler/simulator bridge.

    Follows the sink protocol of :mod:`repro.runtime.events`: every
    ``emit`` is flushed so a Ctrl-C'd run keeps all delivered events,
    and ``close()`` releases the handle (re-opening lazily if emitted
    to again).
    """

    def __init__(self, path: "str | Path") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._t0 = time.time()
        self._seq = 0
        self._handle: "IO[str] | None" = None

    def emit(self, event: JobEvent) -> None:
        if self._handle is None:
            self._handle = self.path.open("a", encoding="utf-8")
        self._seq += 1
        record = sim_event_from_job_event(event, self._t0, seq=self._seq)
        self._handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
