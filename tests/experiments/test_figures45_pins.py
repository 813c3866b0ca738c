"""Figures 4-5 against the benchmark's pinned panels.

The three ``profiles-cold`` members of ``perfbench`` at their pinned
scales, on both pinned input sets: references, both curves, the
transition frequency and the verdict must equal ``perfbench/pins.json``
(read only), with floats compared as ``perfbench.suite.compare`` does,
to a relative 1e-12.
"""

import pytest

from perfbench.suite import (
    INPUT_SEEDS,
    WORKLOADS,
    compare,
    load_pins,
    profile_output,
)
from repro.experiments.figures45 import figures45_job

WORKLOAD = WORKLOADS["profiles-cold"]


@pytest.fixture(scope="module")
def pins():
    return load_pins()["workloads"][WORKLOAD.name]


@pytest.mark.parametrize("inputs", sorted(INPUT_SEEDS))
@pytest.mark.parametrize("member", WORKLOAD.members, ids=lambda m: m.id)
def test_panel_matches_pin(pins, member, inputs):
    payload = figures45_job(
        member.name, scale=member.scale, seed=INPUT_SEEDS[inputs]
    )
    pinned = pins[inputs][member.id]["output"]
    assert compare(pinned, profile_output(payload)) == []
