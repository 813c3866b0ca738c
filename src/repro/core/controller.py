"""The migration controller (paper sections 3.4-3.6).

The controller watches the stream of L1-miss requests and, for each,
answers "which subset (= which core's L2) does this working set belong
to right now?".  It composes:

* one or three :class:`~repro.core.mechanism.SplitMechanism` instances
  (``X`` alone for 2-way splitting; ``X``, ``Y[+1]``, ``Y[-1]`` for the
  recursive 4-way splitting of section 3.6),
* one :class:`~repro.core.transition_filter.TransitionFilter` per
  mechanism,
* a shared affinity store (unbounded, or the finite
  :class:`~repro.core.affinity_store.AffinityCache`),
* a :class:`~repro.core.sampling.SamplingPolicy`, and
* optional **L2 filtering** (section 3.4): mechanism state updates on
  every L1 miss, but the transition filters move only on L2 misses, so
  a migration can only happen upon an L2 miss.

The subset index returned by :meth:`MigrationController.observe` is the
subset *before* the reference updates the controller — exactly the
order of the paper's stack experiment ("the address ... is sent to only
one of the four LRU stacks ... After accessing the appropriate LRU
stack, we update the migration controller state", section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.affinity_store import AffinityCache, UnboundedAffinityStore
from repro.core.mechanism import SplitMechanism
from repro.core.sampling import SamplingPolicy
from repro.core.transition_filter import TransitionFilter


@dataclass(frozen=True)
class ControllerConfig:
    """Migration-controller parameters.

    Defaults are the section 4.1 configuration (unlimited affinity
    cache, no sampling, 20-bit filters, no L2 filtering);
    :meth:`four_core` builds the section 4.2 configuration.
    """

    num_subsets: int = 4  #: 2 or 4 working-set subsets (= target cores)
    affinity_bits: int = 16
    filter_bits: int = 20
    x_window_size: int = 128  #: ``|R_X|``
    y_window_size: int = 64  #: ``|R_Y[+1]| = |R_Y[-1]|``
    sampling: SamplingPolicy = field(default_factory=SamplingPolicy.full)
    affinity_cache_entries: "int | None" = None  #: ``None`` = unbounded
    affinity_cache_ways: int = 4
    l2_filtering: bool = False
    lru_window: bool = False  #: ablation: distinct-LRU R-window
    exact_window_affinity: bool = True
    """Track the exact Definition-1 window affinity (default; reproduces
    Figure 3).  ``False`` selects the literal Figure 2 register as an
    ablation — see :mod:`repro.core.mechanism`."""

    def __post_init__(self) -> None:
        if self.num_subsets not in (2, 4):
            raise ValueError(
                f"num_subsets must be 2 or 4, got {self.num_subsets}"
            )

    @classmethod
    def stack_experiment(cls) -> "ControllerConfig":
        """Section 4.1: 4-way, unlimited affinity cache, 20-bit filters,
        |R_X|=128, |R_Y|=64, no sampling, no L2 filtering."""
        return cls()

    @classmethod
    def four_core(cls) -> "ControllerConfig":
        """Section 4.2: 8k-entry 4-way skewed affinity cache, 25 %
        sampling, 18-bit filters, L2 filtering on."""
        return cls(
            filter_bits=18,
            sampling=SamplingPolicy.quarter(),
            affinity_cache_entries=8192,
            affinity_cache_ways=4,
            l2_filtering=True,
        )


@dataclass
class ControllerStats:
    """Event counts accumulated by a controller."""

    references: int = 0
    sampled_references: int = 0
    filter_updates: int = 0
    transitions: int = 0

    @property
    def transition_frequency(self) -> float:
        """Transitions per reference (the quantity on Figures 4-5)."""
        if self.references == 0:
            return 0.0
        return self.transitions / self.references


class MigrationController:
    """Online K-way working-set splitter (K = 2 or 4)."""

    __slots__ = (
        "config",
        "store",
        "mechanism_x",
        "filter_x",
        "mechanism_y",
        "filter_y",
        "stats",
        "probe",
        "_previous_subset",
    )

    def __init__(self, config: "ControllerConfig | None" = None) -> None:
        self.config = config or ControllerConfig()
        cfg = self.config
        if cfg.affinity_cache_entries is None:
            self.store = UnboundedAffinityStore()
        else:
            self.store = AffinityCache(
                cfg.affinity_cache_entries, cfg.affinity_cache_ways
            )
        self.mechanism_x = self._make_mechanism(cfg.x_window_size, "R_X")
        self.filter_x = TransitionFilter(cfg.filter_bits, name="F_X")
        if cfg.num_subsets == 4:
            self.mechanism_y = {
                +1: self._make_mechanism(cfg.y_window_size, "R_Y[+1]"),
                -1: self._make_mechanism(cfg.y_window_size, "R_Y[-1]"),
            }
            self.filter_y = {
                +1: TransitionFilter(cfg.filter_bits, name="F_Y[+1]"),
                -1: TransitionFilter(cfg.filter_bits, name="F_Y[-1]"),
            }
        else:
            self.mechanism_y = {}
            self.filter_y = {}
        self.stats = ControllerStats()
        #: nil-by-default telemetry hook (:mod:`repro.obs.probe`); set
        #: through :meth:`attach_probe` so the filters and mechanisms
        #: report through the same probe.
        self.probe = None
        self._previous_subset = self.current_subset()

    def _make_mechanism(self, window_size: int, name: str) -> SplitMechanism:
        return SplitMechanism(
            window_size,
            self.store,
            affinity_bits=self.config.affinity_bits,
            lru_window=self.config.lru_window,
            track_true_window_affinity=self.config.exact_window_affinity,
            name=name,
        )

    def attach_probe(self, probe) -> None:
        """Wire ``probe`` into this controller and every component it
        owns (transition filters, split mechanisms)."""
        self.probe = probe
        for transition_filter in [self.filter_x, *self.filter_y.values()]:
            transition_filter.probe = probe
        for mechanism in self.mechanisms():
            mechanism.probe = probe

    @property
    def num_subsets(self) -> int:
        return self.config.num_subsets

    def current_subset(self) -> int:
        """Subset currently indicated by the filter signs.

        2-way: ``sign(F_X)`` as 0/1.  4-way: the pair
        ``(sign(F_X), sign(F_Y[sign(F_X)]))`` encoded as 0..3, with the
        upper bit from ``X`` (section 3.6).
        """
        x_sign = self.filter_x.sign
        if self.config.num_subsets == 2:
            return 0 if x_sign > 0 else 1
        y_sign = self.filter_y[x_sign].sign
        return (0 if x_sign > 0 else 2) + (0 if y_sign > 0 else 1)

    def observe(self, line: int, l2_miss: bool = True) -> int:
        """Process one L1-miss request; return the subset it belongs to.

        ``l2_miss`` only matters when L2 filtering is enabled: the
        affinity state always advances, the transition filter only on
        L2 misses.  The returned subset is the pre-update decision.
        """
        stats = self.stats
        stats.references += 1
        subset_before = self._previous_subset
        cfg = self.config
        sampling = cfg.sampling
        if sampling.is_sampled(line):
            stats.sampled_references += 1
            if cfg.num_subsets == 4 and not sampling.routes_to_x(line):
                branch = self.filter_x.sign
                mechanism = self.mechanism_y[branch]
                transition_filter = self.filter_y[branch]
            else:
                mechanism = self.mechanism_x
                transition_filter = self.filter_x
            affinity = mechanism.process(line)
            if l2_miss or not cfg.l2_filtering:
                transition_filter.update(affinity)
                stats.filter_updates += 1
        subset_after = self.current_subset()
        if subset_after != subset_before:
            stats.transitions += 1
            probe = self.probe
            if probe is not None:
                probe.on_transition(stats.references, subset_before, subset_after)
        self._previous_subset = subset_after
        return subset_before

    def observe_many(self, lines, l2_miss=None):
        """:meth:`observe` for each of ``lines`` in turn (``l2_miss``:
        one flag per line, default all true); returns the subsets as a
        ``uint8`` array.

        A controller the chip kernel accepts runs a kernel generated
        from the chip kernel's controller blocks
        (:func:`repro.kernels.specialize.observe_many`); any other runs
        the :meth:`observe` loop, its specification.  Consecutive calls
        compose like consecutive :meth:`observe` calls.
        """
        from repro.kernels.specialize import observe_many

        return observe_many(self, lines, l2_miss)

    def affinity_of(self, line: int) -> "int | None":
        """Best-effort current affinity of ``line`` (for inspection)."""
        cfg = self.config
        if cfg.num_subsets == 4 and not cfg.sampling.routes_to_x(line):
            branch = self.filter_x.sign
            return self.mechanism_y[branch].affinity_of(line)
        return self.mechanism_x.affinity_of(line)

    def mechanisms(self) -> "list[SplitMechanism]":
        """All mechanisms (X first), for inspection and tests."""
        result = [self.mechanism_x]
        if self.config.num_subsets == 4:
            result.extend([self.mechanism_y[+1], self.mechanism_y[-1]])
        return result
