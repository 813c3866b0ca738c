""".npz I/O for the derived files beside cached payloads.

:func:`save_npz` writes the L1-filter sidecars
(:mod:`repro.kernels.l1filter`) and the Olden trace memos
(:mod:`repro.experiments.workloads`); :data:`CORRUPT_NPZ_ERRORS` is what
their readers catch to treat a damaged file as a miss.

Members are written stored, not deflated: writing a file then costs
little more than the disk bandwidth, at about five times the size of a
deflated file.  Integrity does not depend on compression, because the
zip CRC-32 of every member is checked when it is read.  Files written
deflated by earlier versions load unchanged (``np.load`` reads both).

A member can also come from a :class:`StagedArray`, a one-dimensional
array's raw data in an open file, written there piece by piece: the
streamed L1-filter build stages its record that way and publishes the
same bytes a whole record's :func:`save_npz` would, and an Olden run
spills its recording words that way (:mod:`repro.olden.heap`).
:func:`staged_member` goes the other way: it checks one member of an
``.npz`` and hands it out as a :class:`StagedArray`, so a reader takes
the array a piece at a time and never loads it whole; the Olden trace
memos are decoded that way, and the L1-filter sidecars replayed a slice
at a time.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zipfile
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Iterator

import numpy as np

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


#: bytes per block when a staged member is copied into an archive
_COPY_BLOCK = 1 << 20

#: bytes per block when :func:`staged_member` reads a member to check
#: its CRC-32: the pass runs beside a job's replays, so its blocks are
#: kept small (``np.load`` reads in 256-KB blocks)
_CHECK_BLOCK = 1 << 16

#: a zip local file header: signature, then 26 bytes whose last four
#: are the lengths of the name and the extra field that follow it
_LOCAL_HEADER = struct.Struct("<4s22xHH")


@dataclass(frozen=True)
class StagedArray:
    """A one-dimensional ``dtype`` array of ``length`` items whose raw
    data lies in the open binary ``file`` from byte ``offset`` on.

    The file is read by position (``os.pread``), not through its own
    file position, so readers of one file do not disturb each other;
    data written through a buffered file must be flushed before it is
    read.  Where there is no ``os.pread`` (Windows), each piece is read
    by a seek and then a read, which is as safe while one thread at a
    time reads the file.
    """

    file: BinaryIO
    dtype: np.dtype
    length: int
    offset: int = 0

    def pieces(self, items: int) -> "Iterator[np.ndarray]":
        """The array, ``items`` at a time, each piece read from the
        file as it is asked for."""
        for start in range(0, self.length, items):
            yield self.read(start, min(start + items, self.length))

    def read(self, start: int, stop: int) -> np.ndarray:
        """Items ``[start, stop)``, read from the file (read-only)."""
        dtype = np.dtype(self.dtype)
        size = (stop - start) * dtype.itemsize
        data = _read_at(self.file, size, self.offset + start * dtype.itemsize)
        if len(data) != size:
            raise ValueError(f"staged array ends before item {stop}")
        return np.frombuffer(data, dtype=dtype)


def _read_at(file: BinaryIO, size: int, offset: int) -> bytes:
    """Up to ``size`` bytes of ``file`` from byte ``offset`` on."""
    if hasattr(os, "pread"):
        return os.pread(file.fileno(), size, offset)
    file.seek(offset)
    return file.read(size)


def save_npz(file, **arrays) -> None:
    """``np.savez``'s stored ``.npz``, each member's data written
    straight from the array's buffer, or copied in blocks from a
    :class:`StagedArray`'s file.

    ``np.savez`` passes a member through ``tobytes`` copies of up to
    16 MB each; this writes the same ``.npy`` members (``np.load``
    reads them alike) with no copy of a contiguous array.
    """
    with zipfile.ZipFile(
        file, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True
    ) as archive:
        for key, value in arrays.items():
            if isinstance(value, StagedArray):
                header = {
                    "descr": np.lib.format.dtype_to_descr(np.dtype(value.dtype)),
                    "fortran_order": False,
                    "shape": (value.length,),
                }
            else:
                value = np.asarray(value)
                if not value.flags.c_contiguous:
                    value = value.copy()
                header = np.lib.format.header_data_from_array_1_0(value)
            with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(member, header)
                if isinstance(value, StagedArray):
                    items = _COPY_BLOCK // np.dtype(value.dtype).itemsize
                    for piece in value.pieces(items):
                        member.write(piece)
                else:
                    member.write(memoryview(value.reshape(-1)).cast("B"))


def staged_member(file: BinaryIO, key: str) -> StagedArray:
    """Member ``key`` of the ``.npz`` open as the binary ``file``, a
    one-dimensional array, as a :class:`StagedArray`.

    The member is read to its end once, which checks its CRC-32, before
    it is handed out.  A stored member is then read where its data lies
    in ``file``, which must stay open; a deflated one is inflated into
    an unlinked temporary file as it is checked.  Raises one of
    :data:`CORRUPT_NPZ_ERRORS` when the member does not read as such an
    array.
    """
    with zipfile.ZipFile(file) as archive:
        info = archive.getinfo(f"{key}.npy")
        inflated = None
        if info.compress_type != zipfile.ZIP_STORED:
            inflated = tempfile.TemporaryFile(prefix=".tmp-")
        try:
            with archive.open(info) as member:
                shape, fortran_order, dtype = _npy_header(member)
                if len(shape) != 1 or fortran_order:
                    raise ValueError(f"{key}.npy is not a one-dimensional array")
                start = member.tell()
                size = 0
                for block in iter(lambda: member.read(_CHECK_BLOCK), b""):
                    size += len(block)
                    if inflated is not None:
                        inflated.write(block)
            if size != shape[0] * dtype.itemsize:
                raise ValueError(
                    f"{key}.npy holds {size} bytes, not {shape[0]} items"
                )
        except BaseException:
            if inflated is not None:
                inflated.close()
            raise
    if inflated is not None:
        inflated.flush()
        return StagedArray(inflated, dtype, shape[0])
    file.seek(info.header_offset)
    signature, name_length, extra_length = _LOCAL_HEADER.unpack(
        file.read(_LOCAL_HEADER.size)
    )
    if signature != b"PK\x03\x04":
        raise zipfile.BadZipFile(f"bad local header for {key}.npy")
    data = info.header_offset + _LOCAL_HEADER.size + name_length + extra_length
    return StagedArray(file, dtype, shape[0], data + start)


def _npy_header(member) -> "tuple[tuple, bool, np.dtype]":
    """``(shape, fortran_order, dtype)`` of the ``.npy`` data read from
    ``member``, which is left at the array's first byte."""
    version = np.lib.format.read_magic(member)
    if version == (1, 0):
        return np.lib.format.read_array_header_1_0(member)
    if version == (2, 0):
        return np.lib.format.read_array_header_2_0(member)
    raise ValueError(f"unsupported .npy format version {version}")
