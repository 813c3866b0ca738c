"""The paper's primary contribution: the affinity algorithm and the
migration controller built on it.

* :mod:`repro.core.affinity` -- the mathematical definition of the
  algorithm (paper Definition 1), simulated directly; the executable
  specification the hardware implementation is tested against.
* :mod:`repro.core.mechanism` -- the practical hardware mechanism of
  Figure 2: FIFO R-window, postponed updates via ``I_e``/``O_e``/``Δ``,
  saturating arithmetic.
* :mod:`repro.core.affinity_store` -- where ``O_e`` lives: an unbounded
  table (section 4.1, "unlimited affinity cache size") or the finite
  skewed-associative affinity cache of section 4.2.
* :mod:`repro.core.transition_filter` -- the saturating up/down counter
  that hysteresises subset decisions (section 3.4).
* :mod:`repro.core.sampling` -- working-set sampling via
  ``H(e) = e mod 31`` (section 3.5).
* :mod:`repro.core.controller` -- the migration controller: 2-way and
  4-way working-set splitting with sampling and L2 filtering
  (sections 3.4-3.6).
"""

from repro.core.affinity import ReferenceAffinitySplitter
from repro.core.affinity_store import AffinityCache, AffinityStore, UnboundedAffinityStore
from repro.core.controller import ControllerConfig, ControllerStats, MigrationController
from repro.core.mechanism import SplitMechanism
from repro.core.multiway import HierarchicalConfig, HierarchicalController
from repro.core.sampling import SamplingPolicy, mod_hash
from repro.core.transition_filter import TransitionFilter

__all__ = [
    "AffinityCache",
    "AffinityStore",
    "ControllerConfig",
    "ControllerStats",
    "HierarchicalConfig",
    "HierarchicalController",
    "MigrationController",
    "ReferenceAffinitySplitter",
    "SamplingPolicy",
    "SplitMechanism",
    "TransitionFilter",
    "UnboundedAffinityStore",
    "mod_hash",
]
