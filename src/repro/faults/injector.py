"""The injector: arm a plan, count site arrivals, fire scripted faults.

Production code calls three module-level hooks — :func:`fire` at
control seams, :func:`mutate` where bytes flow, :func:`corrupt_file`
where an artifact is about to be published.  All three are inert when
no plan is armed: one ``is None`` check and out, so the hooks can live
on cold control paths permanently (they are *not* placed in simulator
hot loops).

Arming happens two ways:

* :func:`install` — set the plan in this process **and** export it to
  ``REPRO_FAULTS``, so worker processes spawned afterwards (fork or
  spawn) inherit it;
* the environment — the first hook invocation in any process lazily
  reads ``REPRO_FAULTS``, which is how a worker started with the
  ``spawn`` method picks up the plan its parent armed.

Determinism: each site has one arrival counter, each spec fires on a
scripted arrival window, and each spec owns a ``random.Random`` seeded
by ``(plan seed, site, action, nth)`` — two processes arming the same
plan corrupt the same bytes the same way.
"""

from __future__ import annotations

import errno as errno_module
import os
import random
import threading
import time
from pathlib import Path

from repro.faults.plan import (
    BITFLIP,
    CRASH,
    FAULTS_ENV,
    HANG,
    OSERROR,
    RAISE,
    TRUNCATE,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)

#: exit code of a crash action (mirrors SIGKILL's 128+9 convention)
CRASH_EXIT_CODE = 137


class FaultInjector:
    """Site arrival counting + scripted execution of one plan."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._arrivals: "dict[str, int]" = {}
        self._lock = threading.Lock()
        self._rngs: "dict[FaultSpec, random.Random]" = {
            spec: random.Random(
                f"{plan.seed}/{spec.site}/{spec.action}/{spec.nth}"
            )
            for spec in plan.specs
        }

    def arrivals(self, site: str) -> int:
        with self._lock:
            return self._arrivals.get(site, 0)

    def _arrive(self, site: str) -> "tuple[int, tuple[FaultSpec, ...]]":
        with self._lock:
            arrival = self._arrivals.get(site, 0) + 1
            self._arrivals[site] = arrival
        armed = tuple(
            spec for spec in self.plan.for_site(site) if spec.covers(arrival)
        )
        return arrival, armed

    # -- control faults --------------------------------------------------

    def fire(self, site: str) -> None:
        """Count one arrival; execute any armed control action."""
        _, armed = self._arrive(site)
        for spec in armed:
            self._execute(site, spec)

    def armed(self, site: str) -> bool:
        """Count one arrival; report whether a spec covers it — without
        executing anything.  For faults the *caller* applies to someone
        else (the scheduler SIGKILLing a worker it just launched, an
        external-killer stand-in the victim cannot script itself)."""
        _, armed = self._arrive(site)
        return bool(armed)

    def _execute(self, site: str, spec: FaultSpec) -> None:
        if spec.action == CRASH:
            # A hard death: no exception, no cleanup, no atexit — the
            # same observable as SIGKILL/OOM from the parent's side.
            os._exit(CRASH_EXIT_CODE)
        if spec.action == HANG:
            time.sleep(spec.arg if spec.arg is not None else 3600.0)
            return
        if spec.action == RAISE:
            raise InjectedFault(f"injected fault at {site}")
        if spec.action == OSERROR:
            code = int(spec.arg) if spec.arg is not None else errno_module.ENOSPC
            raise OSError(code, os.strerror(code), site)
        raise AssertionError(f"data action {spec.action!r} reached fire()")

    # -- data faults -----------------------------------------------------

    def mutate(self, site: str, data: bytes) -> bytes:
        """Count one arrival; return ``data``, corrupted if armed."""
        _, armed = self._arrive(site)
        for spec in armed:
            data = self._corrupt(spec, data)
        return data

    def corrupt_file(self, site: str, path: "str | os.PathLike[str]") -> None:
        """Count one arrival; corrupt the file at ``path`` in place if
        armed (used just before an artifact is atomically published, so
        the *published* artifact is torn)."""
        _, armed = self._arrive(site)
        if not armed:
            return
        target = Path(path)
        data = target.read_bytes()
        for spec in armed:
            data = self._corrupt(spec, data)
        target.write_bytes(data)

    def _corrupt(self, spec: FaultSpec, data: bytes) -> bytes:
        rng = self._rngs[spec]
        if spec.action == TRUNCATE:
            if not data:
                return data
            keep = (
                int(spec.arg)
                if spec.arg is not None
                else rng.randrange(len(data))
            )
            return data[: max(0, min(keep, len(data) - 1))]
        if spec.action == BITFLIP:
            if not data:
                return data
            flips = int(spec.arg) if spec.arg is not None else 1
            mutable = bytearray(data)
            for _ in range(max(1, flips)):
                position = rng.randrange(len(mutable) * 8)
                mutable[position // 8] ^= 1 << (position % 8)
            return bytes(mutable)
        raise AssertionError(
            f"control action {spec.action!r} reached a data hook"
        )


# -- process-global injector --------------------------------------------

_UNRESOLVED = object()  # "not yet looked at the environment"
_injector: "FaultInjector | None | object" = _UNRESOLVED
_install_lock = threading.Lock()


def _resolve() -> "FaultInjector | None":
    """The active injector, resolving ``REPRO_FAULTS`` on first use."""
    global _injector
    if _injector is _UNRESOLVED:
        with _install_lock:
            if _injector is _UNRESOLVED:
                body = os.environ.get(FAULTS_ENV)
                if body:
                    try:
                        _injector = FaultInjector(FaultPlan.from_json(body))
                    except (ValueError, KeyError, TypeError) as exc:
                        # A malformed plan must never take the stack
                        # down with it — faults are opt-in tooling.
                        import sys

                        print(
                            f"[faults] ignoring invalid {FAULTS_ENV}: {exc}",
                            file=sys.stderr,
                        )
                        _injector = None
                else:
                    _injector = None
    return _injector  # type: ignore[return-value]


def install(plan: FaultPlan) -> FaultInjector:
    """Arm ``plan`` in this process and export it to the environment
    (future child processes, fork or spawn, inherit it)."""
    global _injector
    with _install_lock:
        injector = FaultInjector(plan)
        _injector = injector
        os.environ[FAULTS_ENV] = plan.to_json()
    return injector


def uninstall() -> None:
    """Disarm: no injector, no environment variable."""
    global _injector
    with _install_lock:
        _injector = None
        os.environ.pop(FAULTS_ENV, None)


def active_injector() -> "FaultInjector | None":
    return _resolve()


def fire(site: str) -> None:
    """Control hook: crash/hang/raise/oserror at ``site`` if armed."""
    injector = _resolve()
    if injector is not None:
        injector.fire(site)


def armed(site: str) -> bool:
    """Query hook: is a fault armed for this arrival at ``site``?"""
    injector = _resolve()
    return injector is not None and injector.armed(site)


def mutate(site: str, data: bytes) -> bytes:
    """Data hook: return ``data``, corrupted at ``site`` if armed."""
    injector = _resolve()
    if injector is None:
        return data
    return injector.mutate(site, data)


def corrupt_file(site: str, path: "str | os.PathLike[str]") -> None:
    """File hook: corrupt ``path`` in place at ``site`` if armed."""
    injector = _resolve()
    if injector is not None:
        injector.corrupt_file(site, path)
