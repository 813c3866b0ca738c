"""On-disk result cache: ``.repro-cache/<code-version>/<job-hash>.json``.

Artifacts are keyed by the job's content hash *and* a fingerprint of
the ``repro`` package's source, so editing any simulator code
invalidates every cached result while re-running an unchanged
experiment set is pure cache hits.  Writes are atomic
(temp-file + rename), which is what makes Ctrl-C during a sweep safe:
an interrupted run leaves only complete artifacts behind and the next
invocation resumes from them.

Integrity and degradation (the properties the chaos suite enforces):

* every artifact embeds a SHA-256 **checksum** of its payload; a read
  that is unparseable, unreadable, or checksum-mismatched is
  **quarantined** (moved to ``<root>/quarantine/``) and reported as a
  miss — corruption becomes a recompute plus a
  :mod:`~repro.runtime.health` counter, never a crash or a silently
  wrong result;
* a write that fails (full disk, read-only cache dir) downgrades the
  cache to **compute-through**: the run keeps its results and keeps
  going, it just stops persisting — again counted, never fatal.

The cache root defaults to ``$REPRO_CACHE_DIR`` or ``.repro-cache`` in
the working directory.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterator

from repro import faults
from repro.runtime.health import health_counter
from repro.runtime.job import Job, canonical_json

#: environment variable overriding the default cache root
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
DEFAULT_CACHE_DIR = ".repro-cache"
#: where corrupt artifacts are moved for post-mortem inspection
QUARANTINE_DIR = "quarantine"


def payload_checksum(payload: "dict[str, object]") -> str:
    """Content checksum of one payload (over its canonical JSON)."""
    return hashlib.sha256(
        canonical_json(payload).encode("utf-8")
    ).hexdigest()[:32]


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Hash of every ``*.py`` source file in the ``repro`` package.

    Cached per process — workers inherit or recompute the same value,
    so parent and children always agree on which cache generation is
    current.
    """
    package_root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(package_root.rglob("*.py")):
        digest.update(str(path.relative_to(package_root)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(path.read_bytes())
        digest.update(b"\x01")
    return digest.hexdigest()[:16]


def default_cache_root() -> Path:
    return Path(os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR)


@dataclass(frozen=True)
class CacheStatus:
    """Summary of one cache root (the ``status`` CLI's data)."""

    root: Path
    code_version: str
    current_entries: int
    current_bytes: int
    stale_entries: int  #: artifacts from other code versions
    stale_bytes: int
    by_function: "dict[str, int]"  #: current entries per job fn


class ResultCache:
    """Content-addressed JSON artifact store for job payloads."""

    def __init__(
        self,
        root: "str | os.PathLike[str] | None" = None,
        code_version: "str | None" = None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.code_version = code_version or code_fingerprint()
        #: set after the first failed write: the cache has degraded to
        #: compute-through (results are correct, just not persisted)
        self.degraded = False

    # -- paths ----------------------------------------------------------

    @property
    def generation_dir(self) -> Path:
        return self.root / self.code_version

    def path_for(self, job: Job) -> Path:
        return self.generation_dir / f"{job.hash}.json"

    # -- read/write -----------------------------------------------------

    def get(self, job: Job) -> "dict[str, object] | None":
        """The cached payload for ``job``, or ``None`` on a miss.

        Corruption never propagates: an artifact that is unreadable,
        truncated, unparseable, structurally wrong, or whose payload
        fails its checksum is quarantined (see :meth:`_quarantine`) and
        reported as a plain miss — the caller recomputes, a
        ``fault.cache.*`` health counter ticks, and the bad bytes are
        kept out of the hot path but preserved for inspection.
        """
        path = self.path_for(job)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            health_counter("fault.cache.read_failed").inc()
            self._warn(f"unreadable artifact {path.name}: {exc}")
            return None
        try:
            artifact = json.loads(raw.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._quarantine(path, f"undecodable artifact: {exc}")
            return None
        payload = (
            artifact.get("payload") if isinstance(artifact, dict) else None
        )
        if not isinstance(payload, dict):
            self._quarantine(path, "artifact has no payload object")
            return None
        checksum = artifact.get("checksum")
        if checksum != payload_checksum(payload):
            self._quarantine(
                path,
                f"payload checksum mismatch (recorded {checksum!r})",
            )
            return None
        return payload

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move one corrupt artifact aside and count the fault.

        The move is best effort (a read-only cache cannot relocate the
        file, which is fine — the artifact already reads as a miss);
        quarantined files keep their generation in the name and a
        ``.corrupt`` suffix so no cache scan ever mistakes them for
        live artifacts.
        """
        health_counter("fault.cache.corrupt_artifact").inc()
        target = (
            self.root
            / QUARANTINE_DIR
            / f"{path.parent.name}-{path.name}.corrupt"
        )
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, target)
            where = f"quarantined to {target}"
        except OSError:
            where = "left in place (quarantine move failed)"
        self._warn(f"corrupt artifact {path.name}: {reason}; {where}")

    @staticmethod
    def _warn(message: str) -> None:
        print(f"[cache] {message}", file=sys.stderr)

    def put(
        self,
        job: Job,
        payload: "dict[str, object]",
        duration: "float | None" = None,
    ) -> "Path | None":
        """Atomically publish one finished job's payload.

        Safe under concurrent multi-process writers: each writer stages
        into its own uniquely named ``.tmp-`` file (fsynced, so a
        crashed host cannot publish a torn artifact) and ``os.replace``
        makes the artifact visible in one atomic step — readers see
        either nothing or a complete file, and the last writer of the
        same hash wins with byte-identical content.

        A failed write (``ENOSPC``, read-only cache dir, permissions)
        returns ``None`` instead of raising: losing the *artifact*
        must never lose the *result*, so the cache degrades to
        compute-through and the run continues.  The first failure
        warns and sets :attr:`degraded`; every failure ticks
        ``fault.cache.write_failed``.
        """
        try:
            return self._put(job, payload, duration)
        except OSError as exc:
            health_counter("fault.cache.write_failed").inc()
            if not self.degraded:
                self.degraded = True
                self._warn(
                    f"write failed ({exc}); degrading to compute-through "
                    "(results stay correct but are not persisted)"
                )
            return None

    def _put(
        self,
        job: Job,
        payload: "dict[str, object]",
        duration: "float | None",
    ) -> Path:
        faults.fire("cache.put")
        path = self.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        artifact = {
            "fn": job.fn,
            "label": job.label,
            "params": job.kwargs,
            "job_hash": job.hash,
            "code_version": self.code_version,
            "created": time.time(),
            "duration": duration,
            "checksum": payload_checksum(payload),
            "payload": payload,
        }
        body = faults.mutate(
            "cache.put.bytes", canonical_json(artifact).encode("utf-8")
        )
        handle = tempfile.NamedTemporaryFile(
            "wb",
            dir=str(path.parent),
            prefix=".tmp-",
            suffix=".json",
            delete=False,
        )
        try:
            with handle:
                handle.write(body)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return path

    def __contains__(self, job: Job) -> bool:
        return self.path_for(job).is_file()

    # -- maintenance ----------------------------------------------------

    def _generations(self) -> "Iterator[Path]":
        """Every code-generation directory (the quarantine is not one)."""
        if not self.root.is_dir():
            return
        for generation in sorted(self.root.iterdir()):
            if generation.is_dir() and generation.name != QUARANTINE_DIR:
                yield generation

    @staticmethod
    def _is_payload(generation: Path, path: Path) -> bool:
        """Whether ``path`` is a published job payload: a ``.json`` at
        the top of its generation, not a writer's staging file.  The
        L1-filter sidecars and trace memos beside the payloads are
        derived files, not artifacts."""
        return (
            path.parent == generation
            and path.suffix == ".json"
            and not path.name.startswith(".tmp-")
        )

    def status(self) -> CacheStatus:
        """Artifact counts and on-disk bytes per side (current code
        version vs older ones); bytes cover every file of a generation,
        sidecars, trace memos and staging files included."""
        current_entries = current_bytes = stale_entries = stale_bytes = 0
        by_function: "dict[str, int]" = {}
        for generation in self._generations():
            current = generation.name == self.code_version
            for path in sorted(generation.rglob("*")):
                try:
                    if not path.is_file():
                        continue
                    size = path.stat().st_size
                except OSError:
                    continue  # concurrently pruned or replaced
                payload = self._is_payload(generation, path)
                if not current:
                    stale_bytes += size
                    if payload:
                        stale_entries += 1
                    continue
                current_bytes += size
                if not payload:
                    continue
                current_entries += 1
                try:
                    with path.open("r", encoding="utf-8") as handle:
                        fn = json.load(handle).get("fn", "?")
                except (OSError, json.JSONDecodeError):
                    fn = "?"
                by_function[fn] = by_function.get(fn, 0) + 1
        return CacheStatus(
            root=self.root,
            code_version=self.code_version,
            current_entries=current_entries,
            current_bytes=current_bytes,
            stale_entries=stale_entries,
            stale_bytes=stale_bytes,
            by_function=by_function,
        )

    def clear(self, stale_only: bool = False) -> int:
        """Delete artifacts; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for generation in sorted(self.root.iterdir()):
            if not generation.is_dir():
                continue
            if stale_only and generation.name == self.code_version:
                continue
            removed += sum(1 for _ in generation.glob("*.json"))
            shutil.rmtree(generation)
        return removed

    def prune(self, older_than_days: float) -> int:
        """Retention for long-running services: delete every file whose
        mtime is older than ``older_than_days`` days (any generation) —
        payloads, L1-filter sidecars and trace memos alike — plus
        staging leftovers (``.tmp-*`` from crashed writers) older than
        an hour; emptied directories are removed.

        Age is judged by file mtime — the moment the file was
        published — so a live writer racing the pruner never loses a
        fresh result.  Returns the number of payload artifacts removed
        (sidecars, memos and staging leftovers are not counted).
        """
        if older_than_days < 0:
            raise ValueError(
                f"older_than_days must be >= 0, got {older_than_days}"
            )
        removed = 0
        if not self.root.is_dir():
            return removed
        now = time.time()
        cutoff = now - older_than_days * 86400.0
        for generation in sorted(self.root.iterdir()):
            if not generation.is_dir():
                continue
            if generation.name == QUARANTINE_DIR:
                # Quarantined corruption is kept for inspection, not
                # forever: same age horizon, never counted as artifacts.
                for path in generation.glob("*.corrupt"):
                    try:
                        if path.stat().st_mtime < cutoff:
                            _unlink_quietly(path)
                    except OSError:
                        continue
                continue
            directories = [generation]
            for path in sorted(generation.rglob("*")):
                try:
                    if path.is_dir():
                        directories.append(path)
                        continue
                    mtime = path.stat().st_mtime
                except OSError:
                    continue  # concurrently pruned or published
                if path.name.startswith(".tmp-"):
                    if mtime < now - 3600.0:
                        _unlink_quietly(path)
                    continue
                if mtime < cutoff and _unlink_quietly(path):
                    if self._is_payload(generation, path):
                        removed += 1
            # Deepest first, so a generation emptied of its ``traces/``
            # memo directory goes too.
            for directory in reversed(directories):
                try:
                    directory.rmdir()
                except OSError:
                    pass  # not empty, or a writer re-populated it
        return removed


def _unlink_quietly(path: Path) -> bool:
    try:
        path.unlink()
        return True
    except OSError:
        return False
