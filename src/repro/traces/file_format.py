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
array's raw data written to a file piece by piece: the streamed
L1-filter build stages its record that way and publishes the same
bytes a whole record's :func:`save_npz` would.
"""

from __future__ import annotations

import shutil
import zipfile
import zlib
from dataclasses import dataclass

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


@dataclass(frozen=True)
class StagedArray:
    """A one-dimensional ``dtype`` array of ``length`` items whose raw
    data is the file at ``path``."""

    path: str
    dtype: np.dtype
    length: int


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
                    with open(value.path, "rb") as source:
                        shutil.copyfileobj(source, member, _COPY_BLOCK)
                else:
                    member.write(memoryview(value.reshape(-1)).cast("B"))
