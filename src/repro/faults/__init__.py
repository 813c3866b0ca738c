"""repro.faults — deterministic fault injection for the whole stack.

Experiment sweeps run over worker processes and a shared on-disk
cache; this package exists to *prove* that stack survives the failures
long sweeps actually see.  A :class:`~repro.faults.plan.FaultPlan`
scripts faults — worker crashes and hangs, torn and bit-flipped cache
artifacts, full disks — keyed by injection **site** and arrival count,
so every run of the same plan injects exactly the same faults.  Plans
travel in the ``REPRO_FAULTS`` environment variable, reaching
spawn-isolated worker processes untouched.

Injection sites live on cold control paths of :mod:`repro.runtime`
and :mod:`repro.kernels` sidecar I/O; the taxonomy, the recovery
guarantees each site exercises, and the chaos suite that enforces them
are documented in ``docs/robustness.md``.

Nothing here runs unless a plan is armed: every hook is a single
``is None`` check when injection is off.
"""

from repro.faults.injector import (
    CRASH_EXIT_CODE,
    FaultInjector,
    active_injector,
    armed,
    corrupt_file,
    fire,
    install,
    mutate,
    uninstall,
)
from repro.faults.plan import (
    ACTIONS,
    FAULTS_ENV,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)

__all__ = [
    "ACTIONS",
    "CRASH_EXIT_CODE",
    "FAULTS_ENV",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_injector",
    "armed",
    "corrupt_file",
    "fire",
    "install",
    "mutate",
    "uninstall",
]
