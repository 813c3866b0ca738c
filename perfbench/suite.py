"""The benchmark's workloads, pinned inputs, metrics and output checks.

Standard library only: ``run.py`` imports this module before it knows
whether the simulator sources are present.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

PINS_PATH = Path(__file__).with_name("pins.json")

#: Trace seeds of the two pinned input sets.  ``None`` keeps every
#: workload's calibrated stream; 5 is the held-out set, chosen because
#: gzip stays neutral on it (most seeds make gzip migrate hundreds of
#: times, which would change what the Table 2 mix measures).
INPUT_SEEDS = {"default": None, "held-out": 5}


def inputs_for(seed: int) -> str:
    """The pinned input set a benchmark ``--seed`` selects: even seeds
    run the calibrated traces, odd seeds the held-out traces."""
    return "default" if seed % 2 == 0 else "held-out"


#: The paper's Table 2 ratio (EXPERIMENTS.md, "paper ratio" column),
#: printed beside the measured ratio as context, never compared.
PAPER_RATIO = {
    "164.gzip": 1.01,
    "179.art": 0.03,
    "181.mcf": 0.67,
    "health": 0.14,
    "mst": 1.00,
}

#: Why the Table 2 and sweep members were chosen: these must migrate,
#: and gzip must stay neutral.
MUST_MIGRATE = frozenset({"179.art", "181.mcf", "health", "mst"})
NEUTRAL_MAX_MIGRATIONS = {"164.gzip": 2}


@dataclass(frozen=True)
class Member:
    """One workload of the paper's suite at one scale."""

    name: str
    scale: float

    @property
    def id(self) -> str:
        return f"{self.name}@{self.scale:g}"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: an experiment over a member mix.

    ``members`` is the submission order, longest job first, so the two
    workers finish close together.  ``warm`` workloads build their
    L1-filter records during set-up; ``obs`` runs Table 2 with
    telemetry on, as ``run_all --obs`` does.
    """

    name: str
    experiment: str  #: "table2", "sweep" or "profiles"
    members: "tuple[Member, ...]"
    warm: bool = False
    obs: bool = False


WORKLOADS = {
    workload.name: workload
    for workload in (
        # Every stage does real work.  SPEC members run at 0.05 so that
        # together they take about as long as health, which needs 0.4
        # to win (at 0.3 it loses, below it does not migrate).
        Workload(
            "table2-cold",
            "table2",
            (
                Member("health", 0.4),
                Member("181.mcf", 0.05),
                Member("179.art", 0.05),
                Member("mst", 0.4),
                Member("164.gzip", 0.05),
            ),
        ),
        # Only replay and record sharing are timed.
        Workload(
            "sweep-warm",
            "sweep",
            (Member("181.mcf", 0.1), Member("179.art", 0.1)),
            warm=True,
        ),
        # The only streaming consumer: per-access L1 filter, controller
        # and LRU stacks.
        Workload(
            "profiles-cold",
            "profiles",
            (
                Member("179.art", 0.03),
                Member("health", 0.12),
                Member("164.gzip", 0.03),
            ),
        ),
        # Probes force the generic chip loop; mst needs 0.4 to migrate.
        Workload(
            "table2-obs",
            "table2",
            (Member("mst", 0.4), Member("179.art", 0.03)),
            warm=True,
            obs=True,
        ),
    )
}

# -- metrics ---------------------------------------------------------------

#: (name, unit) of every end-to-end metric, measured on untraced rounds.
END_TO_END = (
    ("wall_s", "s"),
    ("refs_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: The layer spans the traced run records, below ``workload`` → ``job``.
LAYER_SPANS = (
    "traces.gen",
    "l1filter.build",
    "l1filter.save",
    "l1filter.load",
    "baseline.replay",
    "chip.replay",
    "sweep.population",
    "analysis.l1_filter",
    "analysis.stack",
    "obs.replay",
    "obs.aggregate",
)

#: (name, unit) of every per-layer metric, measured on traced rounds.
PER_LAYER = (
    (
        ("traces.gen_s", "s"),
        ("traces.refs_per_s", "1/s"),
        ("l1filter.build_s", "s"),
        ("l1filter.save_s", "s"),
        ("l1filter.load_s", "s"),
        ("l1filter.sidecar_mb", "MB"),
        ("l1filter.l2_bound_ratio", "ratio"),
        ("l1filter.rebuilds", "count"),
        ("baseline.replay_s", "s"),
        ("baseline.records_per_s", "1/s"),
        ("baseline.l2_misses", "count"),
        ("chip.replay_s", "s"),
        ("chip.records_per_s", "1/s"),
        ("chip.l1_miss_requests", "count"),
        ("chip.l2_misses", "count"),
        ("chip.migrations", "count"),
        ("chip.filter_updates", "count"),
        ("chip.transitions", "count"),
        ("chip.update_bus_mb", "MB"),
        ("chip.l2_miss_ratio", "ratio"),
        ("chip.misses_saved_per_migration", "count"),
        ("sweep.population_s", "s"),
        ("sweep.record_loads", "count"),
        ("sweep.records_shared", "count"),
        ("analysis.l1_filter_s", "s"),
        ("analysis.stack_s", "s"),
        ("analysis.refs_per_s", "1/s"),
        ("analysis.references", "count"),
        ("analysis.transition_frequency", "ratio"),
        ("obs.replay_s", "s"),
        ("obs.overhead_x", "x"),
        ("obs.aggregate_s", "s"),
        ("obs.artifact_mb", "MB"),
        ("runtime.fingerprint_s", "s"),
        ("runtime.queue_wait_p50_s", "s"),
        ("runtime.queue_wait_max_s", "s"),
        ("runtime.exec_p50_s", "s"),
        ("runtime.exec_max_s", "s"),
        ("runtime.overhead_s", "s"),
        ("runtime.crash_retries", "count"),
    )
    + tuple(
        (f"{span}.self_s", "s") for span in ("workload", "job") + LAYER_SPANS
    )
    + (("tracing.overhead_s", "s"), ("tracing.overhead_x", "x"))
)

#: Metrics where a larger value is better; every other one is "lower".
HIGHER_IS_BETTER = frozenset(
    {"sweep.records_shared", "chip.misses_saved_per_migration"}
)


def better(name: str, unit: str) -> str:
    return "higher" if unit == "1/s" or name in HIGHER_IS_BETTER else "lower"


# -- pinned outputs --------------------------------------------------------


def load_pins(path: Path = PINS_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def table2_output(payload: dict) -> dict:
    """The pinned counters of one Table 2 row."""
    return {
        key: payload[key]
        for key in (
            "instructions",
            "l1_misses",
            "l2_misses_baseline",
            "l2_misses_migrating",
            "migrations",
            "accesses",
        )
    }


def sweep_output(rows: list) -> dict:
    """The pinned counters of one population's variant rows."""
    return {
        row["variant"]: {
            key: row[key]
            for key in (
                "instructions",
                "l1_misses",
                "l2_accesses",
                "l2_misses",
                "migrations",
            )
        }
        for row in rows
    }


def profile_output(payload: dict) -> dict:
    """The pinned p1/p4 curves and transition frequency of one panel."""
    return {
        "references": payload["references"],
        "p1_curve": list(payload["p1_curve"]),
        "p4_curve": list(payload["p4_curve"]),
        "transition_frequency": payload["transition_frequency"],
        "splittable": payload["verdict"]["splittable"],
    }


def compare(pinned, measured, path: str = "") -> "list[str]":
    """Every difference between a pinned output and a measured one.

    Integers and flags must match exactly; floats (curves, transition
    frequencies) to a relative 1e-12, which only forgives the last bit
    of a JSON round trip.
    """
    if isinstance(pinned, dict) and isinstance(measured, dict):
        problems = []
        for key in sorted(set(pinned) | set(measured)):
            where = f"{path}{key}"
            if key not in measured:
                problems.append(f"{where}: missing")
            elif key not in pinned:
                problems.append(f"{where}: not pinned")
            else:
                problems += compare(pinned[key], measured[key], where + ".")
        return problems
    if isinstance(pinned, list) and isinstance(measured, list):
        if len(pinned) == len(measured):
            return [
                problem
                for i, (a, b) in enumerate(zip(pinned, measured))
                for problem in compare(a, b, f"{path}{i}.")
            ]
    elif isinstance(pinned, float) and isinstance(measured, (int, float)):
        if math.isclose(pinned, measured, rel_tol=1e-12, abs_tol=1e-300):
            return []
    elif type(pinned) is type(measured) and pinned == measured:
        return []
    return [f"{path.rstrip('.')}: pinned {pinned!r}, got {measured!r}"]


def property_problems(workload: Workload, member: Member, output: dict) -> "list[str]":
    """Why ``member`` no longer shows what it was chosen for, if it does not."""
    if workload.experiment == "table2":
        migrations = output["migrations"]
    elif workload.experiment == "sweep":
        migrations = output["migration"]["migrations"]
    else:
        return []
    if member.name in MUST_MIGRATE and migrations == 0:
        return [f"{member.id} no longer migrates"]
    limit = NEUTRAL_MAX_MIGRATIONS.get(member.name)
    if limit is not None and migrations > limit:
        return [
            f"{member.id} made {migrations} migrations; "
            f"a neutral member makes at most {limit}"
        ]
    return []
