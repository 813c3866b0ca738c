"""``ObsRunlogSink``: :class:`~repro.runtime.events.JsonlSink` under the
name ``perfbench`` imports.  An ``--obs`` directory's ``runtime.jsonl``
is a plain ``JsonlSink`` run log of the scheduler's ``JobEvent``
records."""

from repro.runtime.events import JsonlSink as ObsRunlogSink

__all__ = ["ObsRunlogSink"]
