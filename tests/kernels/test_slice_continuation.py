"""Property test: consecutive slices equal one full replay.

:func:`~repro.kernels.specialize.replay_chip_slice` promises that
replaying records ``[0, n)`` of an L1-filter record as consecutive
slices leaves the chip bit-identical to one
:func:`~repro.kernels.specialize.replay_chip_specialized` call, as long
as each slice passes the trace accesses it accounts for and the last
one the record's instruction high-water mark.  Hypothesis drives random
traces and random cut points through the four-core, migration-off and
stack-experiment configurations and compares the full post-L1 deep
state (``helpers.chip_state`` minus the L1 objects, which a record
replay never touches).
"""

from hypothesis import given, settings, strategies as st

from repro.core.controller import ControllerConfig
from repro.kernels.l1filter import build_l1_filter
from repro.kernels.specialize import replay_chip_slice, replay_chip_specialized
from repro.multicore.chip import ChipConfig, MultiCoreChip
from tests.kernels.helpers import chip_state, make_trace, without_l1

steps_strategy = st.lists(
    st.tuples(st.integers(0, 600), st.integers(0, 2), st.integers(0, 4)),
    max_size=300,
)

CONFIGS = {
    "four_core": lambda: ChipConfig(),
    "migration_off": lambda: ChipConfig(migration_enabled=False),
    "stack": lambda: ChipConfig(controller=ControllerConfig.stack_experiment()),
}


@given(
    steps=steps_strategy,
    cut_fraction=st.floats(0.0, 1.0),
    config_name=st.sampled_from(sorted(CONFIGS)),
)
@settings(max_examples=40, deadline=None)
def test_consecutive_slices_equal_one_full_replay(
    steps, cut_fraction, config_name
):
    _accesses, arrays = make_trace(steps)
    record = build_l1_filter(*arrays)
    config = CONFIGS[config_name]()
    n = record.records
    cut = int(cut_fraction * n)
    # trace accesses before record ``cut`` (all of them past the end)
    acc_mark = int(record.indices[cut]) if cut < n else record.accesses

    sliced = MultiCoreChip(config)
    replay_chip_slice(sliced, record, 0, cut, n_accesses=acc_mark)
    replay_chip_slice(
        sliced,
        record,
        cut,
        n,
        n_accesses=record.accesses - acc_mark,
        max_instruction=record.max_instruction,
    )

    full = MultiCoreChip(config)
    replay_chip_specialized(full, record)
    assert without_l1(chip_state(sliced)) == without_l1(chip_state(full))
