"""The 18-benchmark registry of the paper's evaluation (Table 1).

13 SPEC CPU2000 models (:mod:`repro.traces.spec_models`) and 5
mini-Olden programs (:mod:`repro.olden`), addressable by the paper's
names.  A global ``scale`` knob shrinks every workload proportionally —
1.0 is this reproduction's standard size (10^6-10^7 references per
workload; the paper ran 10^9 instructions), and the test suite uses
much smaller scales.

Olden traces are memoised on disk because building one means actually
running the benchmark: the first :meth:`WorkloadSpec.accesses`,
:meth:`~WorkloadSpec.arrays` or :meth:`~WorkloadSpec.array_chunks` call
for a (workload, scale, seed) runs it, its recording words spilling to
a temporary file as it goes (:class:`~repro.olden.heap.RecordedTrace`,
8 B a word), and copies them from that file into an ``.npz`` under the
runtime cache dir, keyed by code version too; every later call, in any
process, opens the memo, checks the words' CRC-32 once and decodes them
in place.  Either way a trace is read from disk a chunk at a time, and
only :meth:`~WorkloadSpec.arrays` materialises it whole.  A memo that
does not load as words (bit rot, a torn file, an older layout) is
regenerated and replaced.  Nothing keeps a trace after the call that
asked for it.

SPEC traces are not memoised: :meth:`SpecModel.arrays` generates them
vectorised, a chunk at a time, faster than a memo could be written.
"""

from __future__ import annotations

import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.olden import OLDEN_BENCHMARKS, olden_benchmark
from repro.olden.heap import RecordedTrace
from repro.traces.file_format import (
    CORRUPT_NPZ_ERRORS,
    StagedArray,
    save_npz,
    staged_member,
)
from repro.traces.spec_models import spec_model, spec_model_names
from repro.traces.trace import Access

#: Paper order: SPEC first, then Olden (Tables 1-2, Figures 4-5).
WORKLOAD_NAMES = tuple(spec_model_names()) + OLDEN_BENCHMARKS

#: version of the Olden trace memo's layout: the recording words
_MEMO_VERSION = 2


@dataclass(frozen=True)
class WorkloadSpec:
    """A named, scaled workload that can produce its trace repeatedly.

    ``seed`` re-derives every stochastic stream in the workload's trace
    generator; ``None`` keeps the calibrated per-workload defaults.
    Either way the trace is a pure function of ``(name, scale, seed)``,
    so serial and parallel runs — in any execution order — are
    bit-identical.
    """

    name: str
    scale: float = 1.0
    seed: "int | None" = None

    def __post_init__(self) -> None:
        if self.name not in WORKLOAD_NAMES:
            raise KeyError(
                f"unknown workload {self.name!r}; known: {WORKLOAD_NAMES}"
            )
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    @property
    def is_olden(self) -> bool:
        return self.name in OLDEN_BENCHMARKS

    def accesses(self) -> "Iterator[Access]":
        """The workload's access trace (deterministic, replayable)."""
        if self.is_olden:
            return _olden_trace(self.name, self.scale, self.seed).accesses()
        return self._spec_model().accesses()

    def arrays(self):
        """The trace as ``(addresses, kinds, instructions)`` arrays.

        Olden traces are decoded from their recording words on disk
        (generation means actually running the benchmark); SPEC models
        generate their arrays vectorised (:meth:`SpecModel.arrays`,
        equal to materialising :meth:`accesses`).
        """
        if self.is_olden:
            return _olden_trace(self.name, self.scale, self.seed).arrays()
        return self._spec_model().arrays()

    def array_chunks(self):
        """The trace of :meth:`arrays` in consecutive chunks.

        SPEC models generate one chunk at a time
        (:meth:`SpecModel.array_chunks`) and Olden traces read and
        decode one from their words on disk, so a consumer that goes
        chunk by chunk never holds the whole trace, decoded or not.
        """
        if self.is_olden:
            trace = _olden_trace(self.name, self.scale, self.seed)
            yield from trace.array_chunks()
        else:
            yield from self._spec_model().array_chunks()

    def _spec_model(self):
        """The SPEC model at this workload's scaled trace length."""
        model = spec_model(self.name, seed=self.seed)
        # Scale each model's own calibrated default length (2-6 x 10^6;
        # the splittable models carry longer defaults for convergence).
        model.length = max(10_000, int(model.length * self.scale))
        return model


def _olden_trace(name: str, scale: float, seed: "int | None") -> RecordedTrace:
    """The Olden trace from its memo, or else from a run of the
    benchmark, whose spilled words are then copied into the memo."""
    path = olden_trace_path(name, scale, seed)
    trace = _load_olden_memo(path, name)
    if trace is None:
        trace = olden_benchmark(name, scale=scale, seed=seed)
        _save_olden_memo(path, trace.words)
    return trace


def olden_trace_path(name: str, scale: float, seed: "int | None" = None):
    """Where this Olden trace's recording words are memoised.

    Lives under the runtime result cache's current code generation, so
    editing simulator source invalidates trace memos alongside result
    artifacts (``repro.runtime.cache``).
    """
    from repro.runtime.cache import code_fingerprint, default_cache_root

    stem = f"olden-{name}-s{scale}-r{'default' if seed is None else seed}"
    return default_cache_root() / code_fingerprint() / "traces" / f"{stem}.npz"


def _save_olden_memo(path, words: StagedArray) -> None:
    """Write the words memo atomically, stored, not deflated, copied
    from the words' file; a cache dir that cannot be written is skipped
    (the memo is an optimisation, not a need)."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=str(path.parent), prefix=".tmp-", suffix=".npz", delete=False
        )
        try:
            with handle:
                save_npz(handle, version=np.int64(_MEMO_VERSION), words=words)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
    except OSError:
        pass


def _load_olden_memo(path, name: str) -> "RecordedTrace | None":
    """The trace whose words are memoised at ``path``, or ``None`` if
    there is no memo or it does not load as words.

    The words are read to their end once, which checks their CRC-32,
    and then decoded in place through the one handle the trace keeps, so
    a memo that another job replaces cannot change under it.
    """
    from repro.runtime.health import health_counter

    if not path.is_file():
        return None
    try:
        handle = open(path, "rb")
        try:
            trace = RecordedTrace(name, _memo_words(handle))
        except BaseException:
            handle.close()
            raise
    except CORRUPT_NPZ_ERRORS as exc:
        # Corrupt or stale memo (bit rot, a torn file, an older layout):
        # the caller regenerates the trace and replaces the memo.
        health_counter("recovery.trace_memo.regenerated").inc()
        print(
            f"[workloads] corrupt trace memo {path.name}: {exc}; "
            "regenerating",
            file=sys.stderr,
        )
        return None
    if trace.words.file is not handle:
        handle.close()  # a deflated memo was inflated into a file of its own
    return trace


def _memo_words(handle) -> StagedArray:
    """The words of the memo open as ``handle``, checked."""
    with np.load(handle) as data:
        version = int(data["version"])
    if version != _MEMO_VERSION:
        raise ValueError(
            f"trace memo layout version {version}, expected {_MEMO_VERSION}"
        )
    return staged_member(handle, "words")


def workload(
    name: str, scale: float = 1.0, seed: "int | None" = None
) -> WorkloadSpec:
    """Look up one workload by its paper name (e.g. ``"179.art"``)."""
    return WorkloadSpec(name=name, scale=scale, seed=seed)


def workload_names() -> "list[str]":
    return list(WORKLOAD_NAMES)
