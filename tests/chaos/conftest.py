"""Chaos suite fixtures: armed fault plans, clean health counters.

Every test here injects scripted faults (:mod:`repro.faults`) into a
real stack — scheduler, cache, sidecars, checkpoint — and asserts the
recovery contract from ``docs/robustness.md``: the run ends in either
bit-identical results or a clean, typed error.  Never a hang, never a
traceback, never a silently wrong answer.
"""

import pytest

from repro import faults
from repro.runtime import scheduler
from repro.runtime.events import EventBus
from repro.runtime.health import reset_health
from repro.runtime.scheduler import ExperimentRuntime, RuntimeConfig


@pytest.fixture(autouse=True)
def _pristine_faults():
    """Disarm plans and zero health counters around every test."""
    faults.uninstall()
    reset_health()
    yield
    faults.uninstall()
    reset_health()


@pytest.fixture
def arm():
    """Install a fault plan for this test (auto-disarmed after)."""

    def _arm(*specs, seed=0):
        return faults.install(faults.FaultPlan.of(*specs, seed=seed))

    return _arm


@pytest.fixture
def quiet_runtime(tmp_path, monkeypatch):
    """Factory for runtimes with a private cache and silent event bus;
    crash retries back off from 0.01 s."""
    from repro.runtime.cache import ResultCache

    monkeypatch.setattr(scheduler, "RETRY_BACKOFF", 0.01)
    built = []

    def factory(cache_dir=None, **config_kwargs):
        runtime = ExperimentRuntime(
            config=RuntimeConfig(**config_kwargs),
            cache=ResultCache(root=cache_dir or tmp_path / "cache"),
            bus=EventBus([]),
        )
        built.append(runtime)
        return runtime

    yield factory
    for runtime in built:
        runtime.close()
