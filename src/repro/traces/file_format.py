"""Trace capture and replay on disk.

Trace-driven simulators live and die by trace files; this module stores
any :class:`~repro.traces.trace.Access` stream as an ``.npz`` (three
parallel ``numpy`` arrays: addresses, kinds, instruction indices) and
replays it as a :class:`FileTrace`.

Members are written stored, not deflated: writing a trace then costs
little more than the disk bandwidth, at about five times the size of a
deflated file.  Integrity does not depend on compression, because the
zip CRC-32 of every member is checked when it is read.  Traces written
deflated by earlier versions load unchanged (``np.load`` reads both).

Capturing an expensive source once (an Olden run, a long SPEC model)
and replaying it into many experiments keeps full-scale studies cheap::

    from repro.traces.file_format import save_trace, load_trace
    save_trace("art.npz", spec_model("179.art").accesses())
    trace = load_trace("art.npz")      # a TraceSource
"""

from __future__ import annotations

import os
import zipfile
import zlib
from typing import Iterable, Iterator

import numpy as np

from repro.traces.trace import Access, AccessKind

_FORMAT_VERSION = 1

#: what ``np.load`` of a damaged or stale ``.npz`` raises: a failed
#: CRC-32 or a broken archive (``BadZipFile``), a broken deflate stream
#: (``zlib.error``), a bad header or version (``ValueError``), a
#: missing member (``KeyError``) or an unreadable file (``OSError``)
CORRUPT_NPZ_ERRORS = (
    OSError,
    ValueError,
    KeyError,
    zipfile.BadZipFile,
    zlib.error,
)


def save_trace(path: "str | os.PathLike", accesses: Iterable[Access]) -> int:
    """Write a trace to ``path`` (``.npz``); returns the access count."""
    addresses = []
    kinds = []
    instructions = []
    for access in accesses:
        addresses.append(access.address)
        kinds.append(int(access.kind))
        instructions.append(access.instruction)
    return save_trace_arrays(path, addresses, kinds, instructions)


def save_trace_arrays(
    path: "str | os.PathLike", addresses, kinds, instructions
) -> int:
    """Write a trace already held as parallel arrays; same format as
    :func:`save_trace`, no per-access materialisation."""
    addresses = np.asarray(addresses, dtype=np.int64)
    kinds = np.asarray(kinds, dtype=np.int8)
    instructions = np.asarray(instructions, dtype=np.int64)
    if not len(addresses) == len(kinds) == len(instructions):
        raise ValueError("trace arrays must have equal lengths")
    np.savez(
        path,
        version=np.int64(_FORMAT_VERSION),
        addresses=addresses,
        kinds=kinds,
        instructions=instructions,
    )
    return len(addresses)


class FileTrace:
    """A trace loaded from disk; replayable any number of times."""

    def __init__(
        self,
        name: str,
        addresses: np.ndarray,
        kinds: np.ndarray,
        instructions: np.ndarray,
    ) -> None:
        if not len(addresses) == len(kinds) == len(instructions):
            raise ValueError("trace arrays must have equal lengths")
        self.name = name
        self._addresses = addresses
        self._kinds = kinds
        self._instructions = instructions

    def __len__(self) -> int:
        return len(self._addresses)

    @property
    def instruction_count(self) -> int:
        if len(self._instructions) == 0:
            return 0
        return int(self._instructions[-1]) + 1

    def accesses(self) -> Iterator[Access]:
        addresses = self._addresses
        kinds = self._kinds
        instructions = self._instructions
        for i in range(len(addresses)):
            yield Access(
                int(addresses[i]),
                AccessKind(int(kinds[i])),
                int(instructions[i]),
            )

    def arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(addresses, kinds, instructions)`` for the batched kernels."""
        return (
            np.asarray(self._addresses, dtype=np.int64),
            np.asarray(self._kinds, dtype=np.int8),
            np.asarray(self._instructions, dtype=np.int64),
        )


def load_trace(path: "str | os.PathLike") -> FileTrace:
    """Load a trace written by :func:`save_trace`."""
    with np.load(path) as data:
        version = int(data["version"])
        if version != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported trace format version {version} "
                f"(this build reads {_FORMAT_VERSION})"
            )
        name = os.path.splitext(os.path.basename(os.fspath(path)))[0]
        return FileTrace(
            name,
            data["addresses"].copy(),
            data["kinds"].copy(),
            data["instructions"].copy(),
        )
