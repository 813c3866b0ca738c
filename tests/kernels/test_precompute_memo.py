"""The per-record precompute memo of :mod:`repro.kernels.specialize`:
the line sequence shares the record's buffer, and each slot column is a
flat 16-bit buffer until the geometry needs 32 bits."""

import numpy as np

from repro.kernels.l1filter import build_l1_filter


def _tiny_record(l2_span=600, n=400):
    rng = np.random.default_rng(7)
    lines = rng.integers(0, l2_span, size=n, dtype=np.int64)
    addresses = lines * 64
    kinds = rng.integers(0, 3, size=n).astype(np.int8)
    instructions = np.cumsum(rng.integers(0, 4, size=n, dtype=np.int64))
    return build_l1_filter(addresses, kinds, instructions)


class TestBoundedCaches:
    def test_precompute_memo_footprint(self):
        # The memo's line sequence is a view of ``record.lines``, not a
        # copy, and each slot column holds 2 bytes per record (the
        # 512-KB L2 has 8,192 slots): 8 B per record for the 4-way L2,
        # plus a write byte and a control byte.  A chip and a baseline
        # of one L2 geometry share the slot columns.
        import repro.kernels.specialize as specialize
        from repro.caches.hierarchy import SingleCoreHierarchy
        from repro.multicore.chip import ChipConfig, MultiCoreChip

        record = _tiny_record()
        chip = MultiCoreChip(ChipConfig())
        chip.run_filtered(record)
        SingleCoreHierarchy().run_filtered(record)
        ways = chip.l2s.caches[0].ways
        lines = record.__dict__[specialize._BASE_ATTR][0]
        assert np.shares_memory(np.asarray(lines), record.lines)
        assert list(lines) == record.lines.tolist()
        memo = record.__dict__[specialize._PRECOMP_ATTR]
        columns = [
            column
            for key, entry in memo.items()
            if key[0] == "cols"
            for column in entry
        ]
        assert len(columns) == ways
        # memoryview refuses lists: the memo must hold flat buffers
        assert all(memoryview(column).itemsize == 2 for column in columns)
        held = sum(memoryview(column).nbytes for column in columns)
        assert held == 2 * ways * record.records

    def test_slot_columns_widen_past_16_bits(self):
        # A geometry of more than 65,536 slots needs 32-bit columns.
        from repro.kernels.arrays import skew_slot_matrix
        from repro.kernels.specialize import _slot_cols

        record = _tiny_record(l2_span=1 << 20)
        for num_sets, ways, itemsize in ((1 << 14, 4, 2), (1 << 15, 4, 4)):
            columns = _slot_cols(record, num_sets, ways, {})
            matrix = skew_slot_matrix(record.lines, num_sets, ways)
            for w, column in enumerate(columns):
                assert memoryview(column).itemsize == itemsize
                assert list(column) == matrix[:, w].tolist()
