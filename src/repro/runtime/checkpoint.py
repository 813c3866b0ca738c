"""Sweep checkpoint: append-only journal of completed jobs.

The result cache already makes re-runs cheap, but it is a *shared*
store: it can be disabled (``--no-cache``), on a full disk it degrades
to compute-through, and a code edit invalidates it wholesale.  A
:class:`SweepCheckpoint` is the narrow, per-sweep complement — one
JSONL file journaling every completed job of one sweep, flushed and
fsynced per record, so a driver killed mid-sweep (SIGKILL,
OOM, power) restarts and loses **only the jobs that were in flight**.

File shape (one JSON object per line)::

    {"kind": "header", "code_version": "...", "created": ...}
    {"kind": "done", "job_hash": "...", "payload": {...}, "duration": ...}

Recovery rules, all exercised by the chaos suite:

* a torn final line (the kill landed mid-write) is ignored — every
  complete record before it is kept;
* a header from a different code version marks the whole journal
  stale: it is discarded and rewritten, exactly like the result
  cache's generation scheme;
* a missing or unwritable journal never fails the sweep — the
  checkpoint degrades to a no-op with a warning, like the cache's
  compute-through mode.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import IO

from repro.runtime.cache import code_fingerprint
from repro.runtime.health import health_counter
from repro.runtime.job import Job, canonical_json


class SweepCheckpoint:
    """One sweep's completed-job journal (thread-safe appends)."""

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        code_version: "str | None" = None,
    ) -> None:
        self.path = Path(path)
        self.code_version = code_version or code_fingerprint()
        self._completed: "dict[str, dict[str, object]]" = {}
        self._handle: "IO[str] | None" = None
        self._lock = threading.Lock()
        self._degraded = False
        self._load()

    # -- recovery --------------------------------------------------------

    def _load(self) -> None:
        """Replay the journal, tolerating a torn tail and discarding a
        stale (different code version) or unparseable journal."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return
        except OSError as exc:
            self._degrade(f"unreadable checkpoint {self.path}: {exc}")
            return
        completed: "dict[str, dict[str, object]]" = {}
        stale = not raw
        good_until = 0  # byte offset of the last intact record's end
        offset = 0
        first = True
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                # No terminator: the append was cut mid-record (or cut
                # exactly at the record's last byte, indistinguishable
                # from a torn line) — drop the tail.
                health_counter("fault.checkpoint.torn_record").inc()
                break
            end = newline + 1
            line = raw[offset:end]
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                # Torn write from a mid-append kill.  Only complete
                # records before this point survive; the tail is cut
                # off below so future appends extend a clean journal.
                health_counter("fault.checkpoint.torn_record").inc()
                break
            if not isinstance(record, dict):
                break
            if first:
                first = False
                if (
                    record.get("kind") != "header"
                    or record.get("code_version") != self.code_version
                ):
                    stale = True
                    break
            elif record.get("kind") == "done":
                job_hash = record.get("job_hash")
                payload = record.get("payload")
                if isinstance(job_hash, str) and isinstance(payload, dict):
                    completed[job_hash] = payload
            good_until = end
            offset = end
        if stale:
            # A different code version (or an empty file): the whole
            # journal is stale — discard it like a stale cache
            # generation; the next append rewrites the header.
            health_counter("fault.checkpoint.stale_discarded").inc()
            try:
                self.path.unlink()
            except OSError as exc:
                self._degrade(f"cannot discard stale checkpoint: {exc}")
            return
        if good_until < len(raw):
            try:
                with self.path.open("r+b") as handle:
                    handle.truncate(good_until)
            except OSError as exc:
                self._degrade(f"cannot trim torn checkpoint tail: {exc}")
                return
        self._completed = completed

    def _degrade(self, message: str) -> None:
        if not self._degraded:
            self._degraded = True
            print(f"[checkpoint] {message}; continuing without", file=sys.stderr)
        health_counter("fault.checkpoint.write_failed").inc()

    # -- read side -------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._completed)

    def get(self, job: Job) -> "dict[str, object] | None":
        """The journaled payload for ``job``, or ``None``."""
        with self._lock:
            return self._completed.get(job.hash)

    # -- write side ------------------------------------------------------

    def record(
        self,
        job: Job,
        payload: "dict[str, object]",
        duration: "float | None" = None,
    ) -> None:
        """Journal one completed job (flushed + fsynced: a kill after
        this call never loses the record)."""
        with self._lock:
            self._completed[job.hash] = payload
            try:
                handle = self._open()
                handle.write(
                    canonical_json(
                        {
                            "kind": "done",
                            "job_hash": job.hash,
                            "payload": payload,
                            "duration": duration,
                        }
                    )
                    + "\n"
                )
                handle.flush()
                os.fsync(handle.fileno())
            except (OSError, ValueError) as exc:
                self._degrade(f"append failed: {exc}")

    def _open(self) -> "IO[str]":
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._handle = self.path.open("a", encoding="utf-8")
            if fresh:
                self._handle.write(
                    canonical_json(
                        {
                            "kind": "header",
                            "code_version": self.code_version,
                            "created": time.time(),
                        }
                    )
                    + "\n"
                )
                self._handle.flush()
        return self._handle

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                except OSError:
                    pass
                self._handle = None
