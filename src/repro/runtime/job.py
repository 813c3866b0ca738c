"""The job model: pure, picklable units of experiment work.

A :class:`Job` names a module-level **job function** by import path
(``"repro.experiments.table2:table2_job"``) plus a flat mapping of
JSON-serialisable parameters.  Keeping the function as a string (rather
than a callable) makes jobs picklable under any ``multiprocessing``
start method and gives them a deterministic content hash: two processes
constructing the same (fn, params) pair agree on the hash, which is
what lets the on-disk cache resume interrupted runs.

Job functions take the params as keyword arguments and return a
JSON-serialisable ``dict`` payload.  A payload may carry the reserved
key ``"references"`` (trace references simulated) which the scheduler
surfaces as refs/sec in progress events.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

#: payload key job functions may set to report work volume (refs simulated)
REFERENCES_KEY = "references"


class JobError(RuntimeError):
    """A job function raised, timed out, or its worker died."""


def _first_nonfinite(value: object, path: str = "$") -> "tuple[str, float] | None":
    """Locate the first NaN/Infinity in a JSON-ish value, depth-first."""
    if isinstance(value, float) and not math.isfinite(value):
        return path, value
    if isinstance(value, dict):
        for key, item in value.items():
            found = _first_nonfinite(item, f"{path}.{key}")
            if found is not None:
                return found
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            found = _first_nonfinite(item, f"{path}[{i}]")
            if found is not None:
                return found
    return None


def canonical_json(value: object) -> str:
    """Canonical JSON: sorted keys, no whitespace, no NaN surprises.

    NaN/Infinity are rejected outright (with the offending path named)
    rather than serialised as the non-standard ``NaN``/``Infinity``
    tokens: those tokens are not JSON, so different clients would
    encode them differently and two "identical" submissions could hash
    apart — job identity must be portable across every producer.
    """
    try:
        return json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except ValueError as exc:
        found = _first_nonfinite(value)
        if found is not None:
            path, bad = found
            raise ValueError(
                f"non-finite float {bad!r} at {path}: NaN/Infinity are "
                "not portable JSON and are rejected in job params and "
                "payloads"
            ) from exc
        raise


@dataclass(frozen=True)
class Job:
    """One schedulable unit: a job function plus its parameters.

    ``params`` is stored as a sorted tuple of items so jobs are
    hashable and their content hash is independent of keyword order.
    ``label`` is display-only and deliberately excluded from the hash.
    """

    fn: str  #: ``"package.module:function"``
    params: "tuple[tuple[str, object], ...]" = ()
    label: str = field(default="", compare=False)

    @classmethod
    def create(cls, fn: str, label: str = "", **params: object) -> "Job":
        if ":" not in fn:
            raise ValueError(
                f"job fn must be 'module:function', got {fn!r}"
            )
        # Validate eagerly so a NaN/Infinity (or unserialisable) param
        # fails at submission with a clear message, not later inside
        # ``.hash`` deep in the scheduler or a worker process.
        canonical_json(dict(params))
        return cls(fn=fn, params=tuple(sorted(params.items())), label=label)

    @property
    def kwargs(self) -> "dict[str, object]":
        return dict(self.params)

    @property
    def name(self) -> str:
        return self.label or self.fn.rsplit(":", 1)[-1]

    @property
    def hash(self) -> str:
        """Deterministic content hash of (fn, params).

        Stable across processes and interpreter runs (built on SHA-256
        over canonical JSON).  Code changes are deliberately *not*
        folded in here — the cache layer pairs this hash with the
        package's code fingerprint, so job identity survives edits
        while cached results do not.
        """
        body = canonical_json({"fn": self.fn, "params": self.kwargs})
        return hashlib.sha256(body.encode("utf-8")).hexdigest()


def resolve_job(job: Job) -> "Callable[..., Mapping[str, object]]":
    """Import and return the job's function (worker-process safe)."""
    module_name, _, attr = job.fn.partition(":")
    try:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr)
    except (ImportError, AttributeError) as exc:
        raise JobError(f"cannot resolve job fn {job.fn!r}: {exc}") from exc
    if not callable(fn):
        raise JobError(f"job fn {job.fn!r} is not callable")
    return fn


def execute_job(job: Job) -> "tuple[dict[str, object], float]":
    """Run one job in the current process; return (payload, seconds)."""
    fn = resolve_job(job)
    start = time.perf_counter()
    payload = fn(**job.kwargs)
    duration = time.perf_counter() - start
    if not isinstance(payload, dict):
        raise JobError(
            f"job {job.name!r} returned {type(payload).__name__}, "
            "expected a JSON-serialisable dict"
        )
    return payload, duration
