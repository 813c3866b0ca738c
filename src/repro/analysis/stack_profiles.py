"""The LRU-stack-profile experiment of paper section 4.1.

Two simulations share one pass over the L1-miss stream:

* ``p1``: every reference goes to a single LRU stack — the miss-ratio
  curve of one fully-associative cache ("normal" in Figures 4-5);
* ``p4``: each reference goes to one of four LRU stacks, chosen by the
  4-way migration controller *before* the controller state is updated
  ("split" in Figures 4-5), and the four depth histograms are merged
  into one global profile.

If ``p4(x)`` falls below ``p1(x)``, four caches of size ``x`` under the
affinity algorithm hold more of the working set than one cache of size
``x`` — the working set is "splittable".  The controller's transition
frequency bounds how often such a 4-cache system would migrate.

:class:`StackExperiment` runs the pass on arrays, fed in consecutive
slices of the stream: :meth:`MigrationController.observe_many` gives
every reference's stack, and one :class:`ArrayLruStack` per stack gives
the depths of the references it sees, in the order it sees them.
Memory grows with a slice plus the distinct lines, not with the stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from repro.caches.lru_stack import ArrayLruStack, StackProfile
from repro.core.controller import ControllerConfig, ControllerStats, MigrationController

#: Figure 4/5 x-axis, in lines (64-byte lines): 16 KB ... 16 MB
PAPER_CACHE_SIZES_LINES = (256, 1024, 4096, 16384, 65536, 262144)
PAPER_CACHE_SIZE_LABELS = ("16k", "64k", "256k", "1M", "4M", "16M")


@dataclass
class StackExperimentResult:
    """Profiles + controller statistics for one workload."""

    name: str
    p1: StackProfile
    p4: StackProfile
    per_stack: "list[StackProfile]"
    controller_stats: ControllerStats
    references: int

    @property
    def transition_frequency(self) -> float:
        return self.controller_stats.transition_frequency

    def curves(
        self, sizes_lines: "Sequence[int]" = PAPER_CACHE_SIZES_LINES
    ) -> "tuple[list[float], list[float]]":
        """``(p1(x), p4(x))`` sampled at the paper's cache sizes."""
        return (
            self.p1.miss_ratio_curve(sizes_lines),
            self.p4.miss_ratio_curve(sizes_lines),
        )


#: fewest references :meth:`StackExperiment.feed` gathers per step
_BATCH = 1 << 15


class StackExperiment:
    """The section 4.1 experiment over an L1-miss stream fed in
    consecutive slices; :meth:`result` once the stream ends.

    Fed lines are gathered until they are at least :data:`_BATCH` and
    at least as many as the single stack holds, then pass through the
    controller and the stacks together.  Each stack is seeded with the
    lines it holds (see :class:`ArrayLruStack`), and none holds more
    than the single stack, so the seeds add at most ``1 +
    num_subsets`` batches of work.
    """

    def __init__(self, config: "ControllerConfig | None" = None) -> None:
        self.config = config or ControllerConfig.stack_experiment()
        self.controller = MigrationController(self.config)
        self.references = 0
        # The single stack, then one per subset, each with its depth
        # histogram as an np.bincount array.
        stacks = 1 + self.config.num_subsets
        self._stacks = [ArrayLruStack() for _ in range(stacks)]
        self._counts = [np.zeros(1, dtype=np.int64) for _ in range(stacks)]
        self._pending: "list[np.ndarray]" = []
        self._pending_count = 0

    def feed(self, lines) -> None:
        """The next slice of line addresses."""
        lines = np.asarray(lines, dtype=np.int64)
        self._pending.append(lines)
        self._pending_count += len(lines)
        if self._pending_count >= max(_BATCH, len(self._stacks[0].lines)):
            self._step()

    def result(self, name: str = "workload") -> StackExperimentResult:
        self._step()
        single, *split = self._counts
        return StackExperimentResult(
            name=name,
            p1=StackProfile.from_counts(single),
            p4=StackProfile.from_counts(reduce(_add_counts, split)),
            per_stack=[StackProfile.from_counts(counts) for counts in split],
            controller_stats=self.controller.stats,
            references=self.references,
        )

    def _step(self) -> None:
        if not self._pending:
            return
        lines = np.concatenate(self._pending)
        self._pending = []
        self._pending_count = 0
        self.references += len(lines)
        subsets = self.controller.observe_many(lines)
        for index, stack in enumerate(self._stacks):
            stream = lines if index == 0 else lines[subsets == index - 1]
            depths = stack.access_many(stream)
            self._counts[index] = _add_counts(
                self._counts[index], np.bincount(depths)
            )


def _add_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sum of two depth histograms of any lengths."""
    if len(a) < len(b):
        a, b = b, a
    total = a.copy()
    total[: len(b)] += b
    return total


def run_stack_experiment(
    references: "Iterable[int]",
    name: str = "workload",
    config: "ControllerConfig | None" = None,
) -> StackExperimentResult:
    """Run the section 4.1 experiment over a stream of line addresses.

    ``config`` defaults to the paper's: 4-way controller, 20-bit
    filters, |R_X| = 128, |R_Y| = 64, unlimited affinity cache, no
    sampling, no L2 filtering.
    """
    if not isinstance(references, np.ndarray):
        references = np.fromiter(references, dtype=np.int64)
    experiment = StackExperiment(config)
    experiment.feed(references)
    return experiment.result(name)
