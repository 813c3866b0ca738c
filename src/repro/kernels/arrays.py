"""Array-level helpers for the batched fast path.

Two jobs live here: turning ``Access`` streams into the parallel
``(addresses, kinds, instructions)`` numpy arrays the kernels consume,
and computing skewed-cache slot candidates for whole line arrays at
once.  :func:`skew_slot_matrix` is the vectorised twin of
:func:`repro.caches.skewed.skew_hash` — the scalar function is the
specification, the matrix version must agree bit-for-bit (property
tested in ``tests/kernels/test_arrays.py``).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.caches.skewed import _GOLDEN64
from repro.traces.trace import Access

_MASK64 = 0xFFFFFFFFFFFFFFFF
_WAY_MIX = 0xD1B54A32D192ED03


def trace_to_arrays(
    accesses: "Iterable[Access]",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Materialise an access stream as parallel numpy arrays.

    Returns ``(addresses int64, kinds int8, instructions int64)`` in
    trace order — the input format of the batched run methods.
    """
    addresses: "list[int]" = []
    kinds: "list[int]" = []
    instructions: "list[int]" = []
    for access in accesses:
        addresses.append(access.address)
        kinds.append(access.kind)
        instructions.append(access.instruction)
    return (
        np.asarray(addresses, dtype=np.int64),
        np.asarray(kinds, dtype=np.int8),
        np.asarray(instructions, dtype=np.int64),
    )


def as_trace_arrays(
    addresses, kinds, instructions
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Validate and coerce one trace's parallel arrays.

    Length mismatches are programming errors and raise ``ValueError``;
    dtypes are normalised so the kernels can rely on integer semantics.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    kinds = np.asarray(kinds, dtype=np.int8)
    instructions = np.asarray(instructions, dtype=np.int64)
    if addresses.ndim != 1 or kinds.ndim != 1 or instructions.ndim != 1:
        raise ValueError("trace arrays must be one-dimensional")
    if not (len(addresses) == len(kinds) == len(instructions)):
        raise ValueError(
            f"trace arrays disagree on length: {len(addresses)} addresses, "
            f"{len(kinds)} kinds, {len(instructions)} instructions"
        )
    return addresses, kinds, instructions


def skew_slot_matrix(lines, num_sets: int, ways: int) -> np.ndarray:
    """Flat slot candidates for each line in a skewed cache.

    ``result[i, w] == w * num_sets + skew_hash(lines[i], w, index_bits)``
    — exactly the probe sequence of
    :meth:`repro.caches.skewed.SkewedAssociativeCache._find`, computed
    for the whole array in a handful of numpy passes.  All arithmetic
    runs in ``uint64`` so the multiplies wrap exactly like the scalar
    function's explicit ``& 0xFFFF...`` masking.
    """
    lines = np.asarray(lines, dtype=np.int64)
    index_bits = num_sets.bit_length() - 1
    mask = np.uint64(num_sets - 1)
    unsigned = lines.astype(np.uint64)
    index = unsigned & mask
    out = np.empty((len(lines), ways), dtype=np.int64)
    out[:, 0] = index.astype(np.int64)
    if ways > 1:
        # Arithmetic shift on int64 matches Python's >> for negatives;
        # the uint64 cast then matches the scalar masking.
        tag = (lines >> index_bits).astype(np.uint64)
        shift_bits = np.uint64(index_bits)
        for way in range(1, ways):
            mixed = tag * np.uint64(_GOLDEN64) + np.uint64(
                (way * _WAY_MIX) & _MASK64
            )
            rotation = (way * 7) % 64
            if rotation:
                mixed = (mixed >> np.uint64(rotation)) | (
                    mixed << np.uint64(64 - rotation)
                )
            slot = (index ^ (mixed & mask) ^ ((mixed >> shift_bits) & mask)) & mask
            out[:, way] = slot.astype(np.int64) + way * num_sets
    return out
