"""The fault model: scripted, deterministic faults keyed by site.

A :class:`FaultSpec` arms one fault at one **injection site** — a
string naming a seam in the stack (``"runtime.worker.start"``,
``"cache.put"``, ``"sidecar.save"``; the full taxonomy is in
``docs/robustness.md``).  Each site keeps an arrival counter, and a
spec fires on arrivals ``nth .. nth+count-1`` — "kill the worker on
its third job" is ``FaultSpec(site="runtime.worker.start",
action="crash", nth=3)``.  Everything is counted, nothing is sampled:
the same plan over the same job stream injects the same faults, which
is what lets the chaos suite assert bit-identical recovery.

A :class:`FaultPlan` is a list of specs plus a seed.  The seed drives
only the *shape* of data corruption (which bit flips, where a record
is truncated) through a per-spec :class:`random.Random` — trigger
timing is never random.

Plans serialise to compact JSON and travel in the ``REPRO_FAULTS``
environment variable, so worker processes started with the ``spawn``
method inherit the active plan without any extra plumbing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: environment variable carrying the active plan (JSON)
FAULTS_ENV = "REPRO_FAULTS"

#: control actions: seize the control flow at the site
CRASH, HANG, RAISE, OSERROR = "crash", "hang", "raise", "oserror"
#: data actions: corrupt the bytes flowing through the site
TRUNCATE, BITFLIP = "truncate", "bitflip"

CONTROL_ACTIONS = (CRASH, HANG, RAISE, OSERROR)
DATA_ACTIONS = (TRUNCATE, BITFLIP)
ACTIONS = CONTROL_ACTIONS + DATA_ACTIONS


class InjectedFault(Exception):
    """The exception a ``raise`` action throws at its site."""


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: do ``action`` at ``site``, arrivals
    ``nth .. nth + count - 1``.

    ``arg`` parameterises the action: seconds to sleep for ``hang``,
    an errno for ``oserror`` (default ENOSPC), the number of bytes to
    keep for ``truncate`` (default: half, seed-chosen), the number of
    bits to flip for ``bitflip`` (default 1).
    """

    site: str
    action: str
    nth: int = 1
    count: int = 1
    arg: "float | None" = None

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("fault site must be a non-empty string")
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; known: {ACTIONS}"
            )
        if self.nth < 1:
            raise ValueError(f"nth must be >= 1, got {self.nth}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")

    def covers(self, arrival: int) -> bool:
        """Does this spec fire on the ``arrival``-th visit to its site?"""
        return self.nth <= arrival < self.nth + self.count

    def to_dict(self) -> "dict[str, object]":
        record: "dict[str, object]" = {
            "site": self.site,
            "action": self.action,
            "nth": self.nth,
            "count": self.count,
        }
        if self.arg is not None:
            record["arg"] = self.arg
        return record

    @classmethod
    def from_dict(cls, record: "dict[str, object]") -> "FaultSpec":
        return cls(
            site=str(record["site"]),
            action=str(record["action"]),
            nth=int(record.get("nth", 1)),
            count=int(record.get("count", 1)),
            arg=(
                float(record["arg"])  # type: ignore[arg-type]
                if record.get("arg") is not None
                else None
            ),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A scripted set of faults plus the corruption seed."""

    specs: "tuple[FaultSpec, ...]" = ()
    seed: int = 0

    @classmethod
    def of(cls, *specs: FaultSpec, seed: int = 0) -> "FaultPlan":
        return cls(specs=tuple(specs), seed=seed)

    def for_site(self, site: str) -> "tuple[FaultSpec, ...]":
        return tuple(spec for spec in self.specs if spec.site == site)

    # -- serialisation ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {
                "seed": self.seed,
                "specs": [spec.to_dict() for spec in self.specs],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, body: str) -> "FaultPlan":
        try:
            document = json.loads(body)
        except ValueError as exc:
            raise ValueError(f"invalid fault plan JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise ValueError("fault plan must be a JSON object")
        specs = document.get("specs", [])
        if not isinstance(specs, list):
            raise ValueError("fault plan 'specs' must be a list")
        return cls(
            specs=tuple(FaultSpec.from_dict(spec) for spec in specs),
            seed=int(document.get("seed", 0)),
        )
