"""Parameter sweeps for the paper's design discussions.

Three tunables interact with the migration penalty (sections 3.3-3.5
and the conclusion):

* **R-window size** — Circular(N) splits iff ``N > 2|R|``; after
  convergence the transition frequency stays under ``1/(2|R|)``;
  HalfRandom(m) needs ``|R|`` not much larger than ``m``.
* **Transition-filter width** — each extra bit halves the transition
  frequency on unsplittable sets but doubles the reaction delay on
  splittable ones.
* **Sampling ratio** — fewer sampled lines mean a smaller affinity
  cache and fewer filter updates (so the filter can lose bits), at the
  cost of slower adaptation.

Each sweep returns small result records the ablation benchmarks print.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.controller import ControllerConfig, MigrationController
from repro.core.sampling import SamplingPolicy
from repro.runtime import Job, payloads
from repro.traces.synthetic import behavior_from_spec


def _run_controller(
    config: ControllerConfig,
    references: "Iterable[int]",
    tail_fraction: float = 0.25,
) -> "tuple[float, float, int]":
    """Run a controller; return (overall freq, tail freq, transitions).

    The tail frequency is measured over the last ``tail_fraction`` of
    the stream, i.e. after convergence.
    """
    controller = MigrationController(config)
    references = np.fromiter(references, dtype=np.int64)
    tail_start = int(len(references) * (1.0 - tail_fraction))
    transitions_at_tail = 0
    done = 0
    if 0 <= tail_start < len(references):
        controller.observe_many(references[:tail_start])
        transitions_at_tail = controller.stats.transitions
        done = tail_start
    controller.observe_many(references[done:])
    stats = controller.stats
    tail_references = max(1, len(references) - tail_start)
    tail_frequency = (stats.transitions - transitions_at_tail) / tail_references
    return stats.transition_frequency, tail_frequency, stats.transitions


@dataclass(frozen=True)
class RWindowSweepPoint:
    window_size: int
    working_set: int
    overall_frequency: float
    tail_frequency: float
    balance: float  #: fraction of elements with positive affinity
    instability: float  #: fraction of elements whose sign changed
    #: between two snapshots one working-set lap apart

    @property
    def split_achieved(self) -> bool:
        """A real split needs three things at once:

        * **balance** — an unsplit set has one sign everywhere;
        * **converged transitions** — below the paper's 1/(2|R|) bound;
        * **stability** — at ``N = 2|R|`` the window covers half the
          set and the "split" is a wave rotating with the window: any
          snapshot looks balanced, transitions can even be zero, but
          per-element assignments churn every lap.  Comparing two
          snapshots a lap apart exposes it.
        """
        balanced = 0.2 <= self.balance <= 0.8
        converged = self.tail_frequency <= 1.5 / (2 * self.window_size)
        stable = self.instability < 0.1
        return balanced and converged and stable


def rwindow_point(
    behavior: object,
    window_size: int,
    num_references: int = 400_000,
    filter_bits: int = 16,
) -> RWindowSweepPoint:
    """Measure one (behaviour, |R|) point of the R-window sweep."""
    config = ControllerConfig(
        num_subsets=2, x_window_size=window_size, filter_bits=filter_bits
    )
    controller = MigrationController(config)
    references = np.fromiter(
        behavior.addresses(num_references), dtype=np.int64
    )
    tail_start = int(len(references) * 0.75)
    # Half a working-set lap apart: a genuinely split assignment is
    # unchanged at any offset, while the rotating-wave state at
    # N <= 2|R| is caught mid-rotation (a full lap would alias).
    snapshot_at = max(0, len(references) - behavior.num_lines // 2 - 1)
    transitions_at_tail = 0
    earlier_signs: "dict[int, bool]" = {}
    done = 0
    for cut in sorted({tail_start, snapshot_at}):
        if not 0 <= cut < len(references):
            continue
        controller.observe_many(references[done:cut])
        done = cut
        if cut == tail_start:
            transitions_at_tail = controller.stats.transitions
        if cut == snapshot_at:
            earlier_signs = {
                e: (controller.affinity_of(e) or 0) >= 0
                for e in range(behavior.num_lines)
            }
    controller.observe_many(references[done:])
    stats = controller.stats
    tail = (stats.transitions - transitions_at_tail) / max(
        1, len(references) - tail_start
    )
    final_signs = {
        e: (controller.affinity_of(e) or 0) >= 0
        for e in range(behavior.num_lines)
    }
    positive = sum(final_signs.values())
    changed = sum(
        1
        for e, sign in final_signs.items()
        if earlier_signs and sign != earlier_signs[e]
    )
    return RWindowSweepPoint(
        window_size=window_size,
        working_set=behavior.num_lines,
        overall_frequency=stats.transition_frequency,
        tail_frequency=tail,
        balance=positive / behavior.num_lines,
        instability=changed / behavior.num_lines,
    )


def rwindow_sweep(
    behavior_factory: "Callable[[], object]",
    window_sizes: "Sequence[int]",
    num_references: int = 400_000,
    filter_bits: int = 16,
) -> "list[RWindowSweepPoint]":
    """Sweep |R| for a 2-way controller over one behaviour."""
    return [
        rwindow_point(
            behavior_factory(),
            window,
            num_references=num_references,
            filter_bits=filter_bits,
        )
        for window in window_sizes
    ]


@dataclass(frozen=True)
class FilterSweepPoint:
    filter_bits: int
    tail_frequency: float


def filter_width_sweep(
    behavior_factory: "Callable[[], object]",
    filter_bits_list: "Sequence[int]",
    num_references: int = 400_000,
    window_size: int = 100,
) -> "list[FilterSweepPoint]":
    """Sweep the transition-filter width for one behaviour.

    On an unsplittable (random) behaviour the tail frequency should
    roughly halve per added bit (section 3.4).
    """
    points = []
    for bits in filter_bits_list:
        behavior = behavior_factory()
        config = ControllerConfig(
            num_subsets=2, x_window_size=window_size, filter_bits=bits
        )
        _overall, tail, _count = _run_controller(
            config, behavior.addresses(num_references)
        )
        points.append(FilterSweepPoint(filter_bits=bits, tail_frequency=tail))
    return points


@dataclass(frozen=True)
class SamplingSweepPoint:
    sampled_residues: int  #: of the 31 hash residues
    sample_fraction: float
    overall_frequency: float
    filter_updates: int


def sampling_point(
    behavior: object,
    sampled_residues: int,
    num_references: int = 400_000,
    config_base: "ControllerConfig | None" = None,
) -> SamplingSweepPoint:
    """Measure one sampling-ratio point (31 residues = unsampled)."""
    if not 1 <= sampled_residues <= 31:
        raise ValueError(f"residue count {sampled_residues} outside [1, 31]")
    sampling = (
        SamplingPolicy.full()
        if sampled_residues == 31
        else SamplingPolicy(
            modulus=31, sampled_residues=frozenset(range(sampled_residues))
        )
    )
    base = config_base or ControllerConfig(num_subsets=2, filter_bits=18)
    config = ControllerConfig(
        num_subsets=base.num_subsets,
        affinity_bits=base.affinity_bits,
        filter_bits=base.filter_bits,
        x_window_size=base.x_window_size,
        y_window_size=base.y_window_size,
        sampling=sampling,
        affinity_cache_entries=base.affinity_cache_entries,
        affinity_cache_ways=base.affinity_cache_ways,
        l2_filtering=base.l2_filtering,
        lru_window=base.lru_window,
    )
    controller = MigrationController(config)
    controller.observe_many(
        np.fromiter(behavior.addresses(num_references), dtype=np.int64)
    )
    stats = controller.stats
    return SamplingSweepPoint(
        sampled_residues=sampled_residues,
        sample_fraction=sampling.sample_fraction,
        overall_frequency=stats.transition_frequency,
        filter_updates=stats.filter_updates,
    )


def sampling_sweep(
    behavior_factory: "Callable[[], object]",
    residue_counts: "Sequence[int]",
    num_references: int = 400_000,
    config_base: "ControllerConfig | None" = None,
) -> "list[SamplingSweepPoint]":
    """Sweep the working-set sampling ratio (31 = unsampled)."""
    return [
        sampling_point(
            behavior_factory(),
            count,
            num_references=num_references,
            config_base=config_base,
        )
        for count in residue_counts
    ]


# ---------------------------------------------------------------------------
# Runtime jobs: each sweep point as a pure, cacheable unit of work.
#
# Behaviours are passed as declarative specs (see
# :func:`repro.traces.synthetic.behavior_from_spec`) so jobs are
# JSON-able — that is what gives them stable content hashes for the
# result cache and lets workers rebuild them in any process.
# ---------------------------------------------------------------------------


def rwindow_point_job(
    behavior: "dict[str, object]",
    window_size: int,
    num_references: int = 400_000,
    filter_bits: int = 16,
) -> "dict[str, object]":
    point = rwindow_point(
        behavior_from_spec(behavior),
        window_size,
        num_references=num_references,
        filter_bits=filter_bits,
    )
    payload = asdict(point)
    payload["references"] = num_references
    return payload


def filter_point_job(
    behavior: "dict[str, object]",
    filter_bits: int,
    num_references: int = 400_000,
    window_size: int = 100,
) -> "dict[str, object]":
    config = ControllerConfig(
        num_subsets=2, x_window_size=window_size, filter_bits=filter_bits
    )
    _overall, tail, _count = _run_controller(
        config, behavior_from_spec(behavior).addresses(num_references)
    )
    return {
        "filter_bits": filter_bits,
        "tail_frequency": tail,
        "references": num_references,
    }


def rwindow_sweep_with_runtime(
    runtime,
    behavior_spec: "dict[str, object]",
    window_sizes: "Sequence[int]",
    num_references: int = 400_000,
    filter_bits: int = 16,
) -> "list[RWindowSweepPoint]":
    """R-window sweep with one cached runtime job per point."""
    jobs = [
        Job.create(
            "repro.analysis.sweeps:rwindow_point_job",
            label=f"rwindow/{behavior_spec.get('type')}/R{window}",
            behavior=dict(behavior_spec),
            window_size=window,
            num_references=num_references,
            filter_bits=filter_bits,
        )
        for window in window_sizes
    ]
    return [
        RWindowSweepPoint(
            window_size=p["window_size"],
            working_set=p["working_set"],
            overall_frequency=p["overall_frequency"],
            tail_frequency=p["tail_frequency"],
            balance=p["balance"],
            instability=p["instability"],
        )
        for p in payloads(runtime.map(jobs))
    ]


def filter_width_sweep_with_runtime(
    runtime,
    behavior_spec: "dict[str, object]",
    filter_bits_list: "Sequence[int]",
    num_references: int = 400_000,
    window_size: int = 100,
) -> "list[FilterSweepPoint]":
    """Filter-width sweep with one cached runtime job per point."""
    jobs = [
        Job.create(
            "repro.analysis.sweeps:filter_point_job",
            label=f"filter/{behavior_spec.get('type')}/F{bits}",
            behavior=dict(behavior_spec),
            filter_bits=bits,
            num_references=num_references,
            window_size=window_size,
        )
        for bits in filter_bits_list
    ]
    return [
        FilterSweepPoint(
            filter_bits=p["filter_bits"], tail_frequency=p["tail_frequency"]
        )
        for p in payloads(runtime.map(jobs))
    ]
