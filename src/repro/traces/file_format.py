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
"""

from __future__ import annotations

import zipfile
import zlib

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


def save_npz(file, **arrays) -> None:
    """``np.savez``'s stored ``.npz``, each member's data written
    straight from the array's buffer.

    ``np.savez`` passes a member through ``tobytes`` copies of up to
    16 MB each; this writes the same ``.npy`` members (``np.load``
    reads them alike) with no copy of a contiguous array.
    """
    with zipfile.ZipFile(
        file, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True
    ) as archive:
        for key, value in arrays.items():
            value = np.asarray(value)
            if not value.flags.c_contiguous:
                value = value.copy()
            with archive.open(f"{key}.npy", "w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(value)
                )
                member.write(memoryview(value.reshape(-1)).cast("B"))
