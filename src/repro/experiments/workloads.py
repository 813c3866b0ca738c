"""The 18-benchmark registry of the paper's evaluation (Table 1).

13 SPEC CPU2000 models (:mod:`repro.traces.spec_models`) and 5
mini-Olden programs (:mod:`repro.olden`), addressable by the paper's
names.  A global ``scale`` knob shrinks every workload proportionally —
1.0 is this reproduction's standard size (10^6-10^7 references per
workload; the paper ran 10^9 instructions), and the test suite uses
much smaller scales.

Olden traces are cached per (name, scale) because building them means
actually running the benchmark — in memory per process (``lru_cache``,
for :meth:`WorkloadSpec.accesses` and :meth:`WorkloadSpec.array_chunks`)
and on disk across processes: :meth:`WorkloadSpec.arrays` memoises each
generated Olden trace as a ``file_format`` npz under the runtime cache
dir, keyed by (workload, scale, seed, code version), so repeated sweep
jobs skip pure-Python trace regeneration entirely.  A memo that fails
to load (bit rot, a torn file) is regenerated and replaced.
:meth:`WorkloadSpec.array_chunks` reads a memo but never writes one:
writing it costs a temporary copy that a chunked consumer otherwise
never holds.

SPEC traces are not memoised: :meth:`SpecModel.arrays` generates them
vectorised, a chunk at a time, faster than a memo could be written.
"""

from __future__ import annotations

import os
import sys
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from repro.olden import OLDEN_BENCHMARKS, olden_benchmark
from repro.traces.spec_models import spec_model, spec_model_names
from repro.traces.trace import Access

#: Paper order: SPEC first, then Olden (Tables 1-2, Figures 4-5).
WORKLOAD_NAMES = tuple(spec_model_names()) + OLDEN_BENCHMARKS

#: references per :meth:`WorkloadSpec.array_chunks` slice of an Olden
#: trace (the SPEC models' own draw size)
_OLDEN_CHUNK = 1 << 16


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

        Olden traces go through the on-disk npz memo (generation means
        actually running the benchmark); SPEC models generate their
        arrays vectorised (:meth:`SpecModel.arrays`, equal to
        materialising :meth:`accesses`).
        """
        if self.is_olden:
            return _olden_arrays(self.name, self.scale, self.seed)
        return self._spec_model().arrays()

    def array_chunks(self):
        """The trace of :meth:`arrays` in consecutive chunks.

        SPEC models generate one chunk at a time
        (:meth:`SpecModel.array_chunks`), so a consumer that goes chunk
        by chunk never holds the whole trace; Olden traces are recorded
        whole anyway and are sliced, from the memo if there is one.
        """
        if not self.is_olden:
            yield from self._spec_model().array_chunks()
            return
        path = olden_trace_path(self.name, self.scale, self.seed)
        arrays = _load_olden_memo(path)
        if arrays is None:
            arrays = _olden_trace(self.name, self.scale, self.seed).arrays()
        for start in range(0, len(arrays[0]), _OLDEN_CHUNK):
            yield tuple(array[start : start + _OLDEN_CHUNK] for array in arrays)

    def _spec_model(self):
        """The SPEC model at this workload's scaled trace length."""
        model = spec_model(self.name, seed=self.seed)
        # Scale each model's own calibrated default length (2-6 x 10^6;
        # the splittable models carry longer defaults for convergence).
        model.length = max(10_000, int(model.length * self.scale))
        return model


@lru_cache(maxsize=8)
def _olden_trace(name: str, scale: float, seed: "int | None" = None):
    return olden_benchmark(name, scale=scale, seed=seed)


def olden_trace_path(name: str, scale: float, seed: "int | None" = None):
    """Where :meth:`WorkloadSpec.arrays` memoises this Olden trace.

    Lives under the runtime result cache's current code generation, so
    editing simulator source invalidates trace memos alongside result
    artifacts (``repro.runtime.cache``).
    """
    from repro.runtime.cache import code_fingerprint, default_cache_root

    stem = f"olden-{name}-s{scale}-r{'default' if seed is None else seed}"
    return default_cache_root() / code_fingerprint() / "traces" / f"{stem}.npz"


def _olden_arrays(name: str, scale: float, seed: "int | None"):
    from repro.traces.file_format import save_trace_arrays

    path = olden_trace_path(name, scale, seed)
    arrays = _load_olden_memo(path)
    if arrays is not None:
        return arrays
    # Not through _olden_trace: the memo written below serves the next
    # call, and a cached recording would keep its buffers alive after
    # the caller drops these views of them.
    arrays = olden_benchmark(name, scale=scale, seed=seed).arrays()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=str(path.parent), prefix=".tmp-", suffix=".npz", delete=False
        )
        try:
            with handle:
                save_trace_arrays(handle, *arrays)
            os.replace(handle.name, path)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
    except OSError:
        pass  # read-only cache dir: memo is an optimisation, not a need
    return arrays


def _load_olden_memo(path):
    """The trace memoised at ``path``, or ``None`` if there is none or
    it does not load."""
    from repro.runtime.health import health_counter
    from repro.traces.file_format import CORRUPT_NPZ_ERRORS, load_trace

    if not path.is_file():
        return None
    try:
        return load_trace(path).arrays()
    except CORRUPT_NPZ_ERRORS as exc:
        # Corrupt or stale memo (bit rot, a torn file, an old format
        # version): the caller regenerates the trace, and
        # _olden_arrays replaces the memo.
        health_counter("recovery.trace_memo.regenerated").inc()
        print(
            f"[workloads] corrupt trace memo {path.name}: {exc}; "
            "regenerating",
            file=sys.stderr,
        )
        return None


def workload(
    name: str, scale: float = 1.0, seed: "int | None" = None
) -> WorkloadSpec:
    """Look up one workload by its paper name (e.g. ``"179.art"``)."""
    return WorkloadSpec(name=name, scale=scale, seed=seed)


def workload_names() -> "list[str]":
    return list(WORKLOAD_NAMES)
