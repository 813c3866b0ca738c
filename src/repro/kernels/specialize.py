"""Trace-specialized replay kernels (generated per chip shape).

These are the one fast replay of an L1-filter record:
``MultiCoreChip.run_filtered`` and ``SingleCoreHierarchy.run_filtered``
call :func:`replay_chip_specialized` and
:func:`replay_hierarchy_specialized` (``run_arrays`` filters the trace
through the model's own L1 pair first).  A model replays here when it
is built from the standard component types with no prefetchers, FIFO
R-windows, and no probe or the :class:`~repro.obs.probe.SimProbe` its
constructor attached; any other model gets a ``ValueError`` naming what
blocks it, before its state changes, and ``run()`` — the per-access
specification — simulates it instead.  The inner loop is generated
**per chip shape**: every configuration branch (L2 filtering on/off,
2-way vs 4-way routing, store kind, exact-window tracking) is hoisted
out of the loop at code-generation time, the mechanism/filter/store
state lives in flat locals, L2 residency is tracked in per-core
``line -> slot`` dicts (an O(1) hit check replacing the per-way tag
scan), and per-record clocks are derived from the loop index instead
of incremented (the LRU timestamp of record ``i`` in a reign is
``cbase + i``).

The **shape signature** — the dispatch key — is::

    (l2_ways, four_way, store_kind, slots_shared, l2_filtering,
     track_window_affinity, store_ways, telemetry)

``store_ways`` is non-zero only for a finite affinity cache whose
geometry *differs* from the L2s: those kernels carry a second
precomputed slot matrix for the store, so affinity-cache misses on
R-window evictions never hash scalar-ly in the loop (when the
geometries agree — ``slots_shared`` — the L2 row is reused, as
before).

``telemetry`` selects the variant a probed model replays through: at
the points where the component hooks fire, it appends raw events to a
:class:`KernelLog` (the record index of each L2 eviction and R-window
rollover, each filter sign change and migration, one L2-miss flag per
record), which :meth:`~repro.obs.probe.SimProbe.replay_log` then feeds
through the probe's hooks.  Without it the generated source is the
plain kernel's, byte for byte; probe-free models keep that one, which
takes 7–9 % less CPU per pass (``docs/performance.md``).

Generated kernels are cached per signature for the life of the
process; per-record precomputation (slot-matrix columns, control byte
streams) is memoised in one dict on the record object, so every replay
of that record in the process — the baseline and each chip variant —
pays it once, and the memo lives exactly as long as the record.  It
copies nothing it can share: the kernels iterate a ``memoryview`` of
``record.lines`` itself, and each slot column is a 16-bit ``array``
(32-bit for a geometry of more than 65,536 slots).  For the 4-way L2
the memo holds 10 bytes per record: four 2-byte columns, a write byte
and a control byte.

R-window entries are plain tuples, ``(line, I_e)`` as the
specification's ``SplitMechanism`` keeps them; under a finite affinity
store the loop appends ``(line, I_e, record index)`` and the write-back
turns the at most ``|R|`` survivors back into pairs.

The single-core baseline gets the same treatment:
:func:`replay_hierarchy_specialized` generates a per-associativity
kernel for the skewed L2 of ``SingleCoreHierarchy`` (dict-based
residency, index-derived clocks, precomputed slot columns).  The
controller and one mechanism run alone through kernels generated from
the same controller and mechanism blocks as the chip's:
:func:`observe_many` (``MigrationController.observe_many``) and
:func:`process_many` (``SplitMechanism.process_many``).

Exactness contract: replaying through a specialized kernel leaves the
chip in **bit-identical** state to the per-access simulator —
``ChipStats``, per-cache ``CacheStats`` and contents, controller,
affinity store, filters, and update-bus bytes (the differential suite
in ``tests/kernels`` enforces this).  Consecutive replays compose: a
trace run as consecutive ``run_arrays`` calls ends where one call over
the whole trace ends.
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

from repro.caches.base import EvictedLine
from repro.caches.skewed import SkewedAssociativeCache, skew_hash
from repro.core.affinity_store import AffinityCache, UnboundedAffinityStore
from repro.core.controller import MigrationController
from repro.core.mechanism import SplitMechanism
from repro.core.transition_filter import TransitionFilter
from repro.kernels.arrays import skew_slot_matrix
from repro.multicore.coherence import CoherentL2s
from repro.multicore.migration import MigrationEngine
from repro.obs.probe import SimProbe

_UNSET = object()  # "cache never accessed here" sentinel for last_eviction
_PRECOMP_ATTR = "_specialized_precomp"
_BASE_ATTR = "_specialized_base"

#: signature -> compiled kernel
_KERNELS: dict = {}


def chip_signature(chip, telemetry: bool = False) -> tuple:
    """The shape signature keying the kernel dispatch table;
    ``telemetry`` selects the variant that fills a :class:`KernelLog`."""
    first = chip.l2s.caches[0]
    controller = chip.controller
    cfg = controller.config
    store = controller.store
    if type(store) is AffinityCache:
        store_kind = "cache"
        slots_shared = (
            store._num_sets == first.num_sets and store.ways == first.ways
        )
        store_ways = 0 if slots_shared else store.ways
    else:
        store_kind = "unbounded"
        slots_shared = False
        store_ways = 0
    return (
        first.ways,
        cfg.num_subsets == 4,
        store_kind,
        slots_shared,
        cfg.l2_filtering,
        controller.mechanism_x.track_true_window_affinity,
        store_ways,
        telemetry,
    )


class KernelLog:
    """The raw events of one telemetry kernel replay, by record index.

    Only what the probe's hooks need:
    :meth:`~repro.obs.probe.SimProbe.replay_log` turns it back into the
    hook calls the component methods would have made.
    """

    __slots__ = ("l2_miss", "evictions", "rollovers", "flips", "migrations")

    def __init__(self, records: int) -> None:
        #: one byte per record: 1 where the record missed the L2
        self.l2_miss = bytearray(records)
        #: the record index of each L2 eviction
        self.evictions = array("q")
        #: ``(record, SplitMechanism, mechanism references)``
        self.rollovers: "list[tuple]" = []
        #: ``(record, TransitionFilter, new sign, filter value)``
        self.flips: "list[tuple]" = []
        #: ``(record, from core, to core)``
        self.migrations: "list[tuple[int, int, int]]" = []


# -- what the kernels replay exactly ------------------------------------
#
# The generated loops transcribe the standard component types' methods,
# so a subclass (which may override any of them), a prefetcher (which
# mutates the L2s outside the loop), an LRU R-window or a probe the log
# cannot describe would replay differently from ``run()``.  Each check
# returns what blocks the kernels, or ``None``.


def _probe_blocker(probe, components, chip=None, hierarchy=None):
    """A kernel replay can log for no probe, or for a plain
    :class:`SimProbe` on every component and bound to this one model
    (its samples then read nothing but the model the log describes)."""
    if any(component.probe is not probe for component in components):
        return "its components do not all carry its probe"
    if probe is None:
        return None
    if type(probe) is not SimProbe:
        return f"its probe is a {type(probe).__name__}, not a SimProbe"
    if probe._chip is not chip or probe._hierarchy is not hierarchy:
        return "its probe is bound to a second model"
    return None


def _controller_blocker(controller, probe=None):
    """What keeps the generated controller blocks from ``controller``:
    non-standard component types, a probe other than ``probe`` (default
    none) on it, its filters or mechanisms, an LRU R-window, mechanisms
    that do not share the store, or a previous subset that is not the
    current one."""
    if type(controller) is not MigrationController:
        return f"its controller is a {type(controller).__name__}"
    store = controller.store
    if type(store) not in (AffinityCache, UnboundedAffinityStore):
        return f"its affinity store is a {type(store).__name__}"
    mechanisms = controller.mechanisms()
    filters = [controller.filter_x, *controller.filter_y.values()]
    if any(type(m) is not SplitMechanism for m in mechanisms) or any(
        type(f) is not TransitionFilter for f in filters
    ):
        return "its mechanisms or filters are not the standard types"
    if any(m.lru_window for m in mechanisms):
        return "it has an LRU R-window"
    if any(m.store is not store for m in mechanisms):
        return "its mechanisms do not share one affinity store"
    if any(c.probe is not probe for c in [controller, *mechanisms, *filters]):
        return "its controller components do not all carry its probe"
    # The generated loop recomputes the subset only when a filter
    # updates and takes the active core as the previous subset, which
    # is only sound under this invariant (it holds for any chip or
    # controller driven solely through the public run paths).
    if controller._previous_subset != controller.current_subset():
        return "its controller's previous subset is not its current one"
    return None


def _chip_blocker(chip):
    if chip.prefetchers is not None:
        return "it has L2 prefetchers"
    engine = chip.engine
    l2s = chip.l2s
    first = l2s.caches[0]
    if (
        type(engine) is not MigrationEngine
        or type(l2s) is not CoherentL2s
        or any(
            type(cache) is not SkewedAssociativeCache
            or cache.num_sets != first.num_sets
            or cache.ways != first.ways
            for cache in l2s.caches
        )
    ):
        return "its L2s or migration engine are not the standard types"
    blocker = _probe_blocker(chip.probe, [engine, l2s], chip=chip)
    if blocker is not None:
        return blocker
    controller = chip.controller
    blocker = _controller_blocker(controller, chip.probe)
    if blocker is None and engine.active_core != controller._previous_subset:
        blocker = "its active core is not its controller's subset"
    return blocker


def _hierarchy_blocker(hierarchy):
    if hierarchy.prefetcher is not None:
        return "it has an L2 prefetcher"
    if type(hierarchy.l2) is not SkewedAssociativeCache:
        return f"its L2 is a {type(hierarchy.l2).__name__}"
    return _probe_blocker(hierarchy.probe, [], hierarchy=hierarchy)


def _refuse(model, blocker) -> None:
    if blocker is not None:
        raise ValueError(
            f"the replay kernels cannot simulate this "
            f"{type(model).__name__} exactly: {blocker}; run() "
            "simulates it access by access"
        )


def require_chip_kernel(chip) -> None:
    """Raise ``ValueError``, naming the blocker, unless the chip kernels
    replay ``chip`` exactly."""
    _refuse(chip, _chip_blocker(chip))


def require_hierarchy_kernel(hierarchy) -> None:
    """The same for the baseline hierarchy's kernel."""
    _refuse(hierarchy, _hierarchy_blocker(hierarchy))


# -- code generation ----------------------------------------------------


def _indent(block: str, by: int) -> str:
    pad = " " * by
    return "\n".join(pad + line if line else line for line in block.split("\n"))


def _victim_scan(ways: int) -> str:
    """Unrolled skewed-cache victim selection over the slot row."""
    names = [f"sa{w}" for w in range(ways)]
    lines = [f"{names[w]} = s{w}[i]" for w in range(ways)]
    if ways == 1:
        lines.append(f"victim = {names[0]}")
        return "\n".join(lines)
    for w, name in enumerate(names):
        kw = "if" if w == 0 else "elif"
        lines.append(f"{kw} a_lines[{name}] is None:")
        lines.append(f"    victim = {name}")
    lines.append("else:")
    lines.append(f"    victim = {names[0]}")
    lines.append(f"    vt = a_time[{names[0]}]")
    for w, name in enumerate(names[1:], start=1):
        last = w == ways - 1
        lines.append(f"    t = a_time[{name}]")
        lines.append("    if t < vt:")
        if last:
            lines.append(f"        victim = {name}")
        else:
            lines.append(f"        victim = {name}; vt = t")
    return "\n".join(lines)


def _store_read(prefix: str, store_kind: str) -> str:
    default = (
        f"o_e = ({prefix}_lo if delta < {prefix}_lo else "
        f"{prefix}_hi if delta > {prefix}_hi else delta)"
    )
    if store_kind == "unbounded":
        return f"""st_reads += 1
o_e = ub_get(line)
if o_e is None:
    st_misses += 1
    {default}"""
    return f"""st_reads += 1
st_clock += 1
sslot = st_idx_get(line)
if sslot is not None:
    st_time[sslot] = st_clock
    o_e = st_values[sslot]
else:
    st_misses += 1
    {default}"""


def _store_victim_scan(col_names: "list[str]") -> str:
    """Unrolled store victim selection over the entry's slot row
    (``s*``/``t*`` columns indexed by the FIFO entry's record index):
    first empty slot wins, else strict LRU with first-wins ties —
    exactly the generic ``erow`` loop's order."""
    names = [f"b{w}" for w in range(len(col_names))]
    lines = [
        f"{b} = {col}[ej]" for b, col in zip(names, col_names)
    ]
    if len(names) == 1:
        lines.append(f"svictim = {names[0]}")
        return "\n".join(lines)
    for w, name in enumerate(names):
        kw = "if" if w == 0 else "elif"
        lines.append(f"{kw} st_lines[{name}] is None:")
        lines.append(f"    svictim = {name}")
    lines.append("else:")
    lines.append(f"    svictim = {names[0]}")
    lines.append(f"    vt = st_time[{names[0]}]")
    for w, name in enumerate(names[1:], start=1):
        last = w == len(names) - 1
        lines.append(f"    t = st_time[{name}]")
        lines.append("    if t < vt:")
        if last:
            lines.append(f"        svictim = {name}")
        else:
            lines.append(f"        svictim = {name}; vt = t")
    return "\n".join(lines)


def _store_write(store_kind: str, col_names: "list[str] | None") -> str:
    if store_kind == "unbounded":
        return """st_writes += 1
ub_values[evicted[0]] = o_f"""
    # A finite store: every R-window entry carries the *record index*
    # of the reference that enqueued it, so a write miss probes the
    # precomputed slot columns directly (no per-entry row tuple); the
    # scalar skew_hash loop is only the fallback for entries inherited
    # from a previous replay.
    fallback = """erow = [wy * st_num_sets + skew_hash(eline, wy, st_index_bits)
        for wy in st_way_range]
svictim = -1
svictim_time = None
for s in erow:
    if st_lines[s] is None:
        svictim = s
        svictim_time = None
        break
    s_t = st_time[s]
    if svictim_time is None or s_t < svictim_time:
        svictim = s
        svictim_time = s_t"""
    return f"""st_writes += 1
st_clock += 1
eline = evicted[0]
wslot = st_idx_get(eline)
if wslot is not None:
    st_values[wslot] = o_f
    st_time[wslot] = st_clock
else:
    ej = evicted[2]
    if ej is None:
{_indent(fallback, 8)}
    else:
{_indent(_store_victim_scan(col_names), 8)}
    vl = st_lines[svictim]
    if vl is not None:
        st_evictions += 1
        del st_idx[vl]
    st_lines[svictim] = eline
    st_values[svictim] = o_f
    st_time[svictim] = st_clock
    st_idx[eline] = svictim"""


_MIGRATION_FLUSH = """if subset != active:
    transitions += 1
    migrations += 1
    clock_fl[active] = cbase + i
    acc_fl[active] += i + 1 - reign_start
    miss_fl[active] += a_miss
    evict_fl[active] += a_evict
    wb_fl[active] += a_wb
    last_fl[active] = a_lastev if a_lastmiss == i else None
    active = subset
    a_lines = lines_by_core[active]
    a_dirty = dirty_by_core[active]
    a_time = time_by_core[active]
    a_idx = idx_by_core[active]
    a_idx_get = a_idx.get
    a_miss = a_evict = a_wb = 0
    a_lastev = last_fl[active]
    a_lastmiss = -2
    reign_start = i + 1
    cbase = clock_fl[active] - reign_start + 1
    occ = tuple((idx_by_core[cc].get, dirty_by_core[cc])
                for cc in range(num_cores)
                if cc != active and idx_by_core[cc])"""


def _migration_flush(telemetry: bool) -> str:
    if not telemetry:
        return _MIGRATION_FLUSH
    head, body = _MIGRATION_FLUSH.split("\n", 1)
    return f"{head}\n    move_append((i, active, subset))\n{body}"


#: the controller kernel's stand-in for the migration flush: count the
#: transition and log where it happened
_TRANSITION_COUNT = """if subset != active:
    transitions += 1
    active = subset
    moves_append((i, subset))"""


def _filter_update(
    fp: str, subset_source: str, l2_filtering: bool, on_change: str
) -> str:
    body = f"""{fp}_upd += 1
value = {fp}_v + a_e
{fp}_v = {fp}_lo if value < {fp}_lo else {fp}_hi if value > {fp}_hi else value
{subset_source}
updates += 1
{on_change}"""
    if l2_filtering:
        return "if l2_miss:\n" + _indent(body, 4)
    return body


#: mechanism prefix -> its index in ``controller.mechanisms()`` (the
#: loop binds mechanism ``index`` as ``_m{index}``)
_MECHANISM_INDEX = {"x": 0, "p": 1, "m": 2}


def _rollover_check(p: str) -> str:
    """``SplitMechanism.process``'s rollover test: log the record and
    the mechanism once a full window of references has passed since the
    last rollover."""
    return f"""{p}_rc += 1
if {p}_rc - {p}_rm >= {p}_ws:
    {p}_rm = {p}_rc
    roll_append((i, _m{_MECHANISM_INDEX[p]}, {p}_rc))
"""


def _mechanism_block(
    prefix: str,
    sig_track: bool,
    store_kind: str,
    st_col_names: "list[str] | None",
    filter_source: str,
    telemetry: bool = False,
) -> str:
    """One mechanism's step; with ``telemetry`` it also logs R-window
    rollovers."""
    p = prefix
    rollover = _rollover_check(p) if telemetry else ""
    if st_col_names is not None:
        # finite store: carry the record index; the write-miss path
        # probes the precomputed slot columns by that index
        entry = "(line, i_e, i)"
    else:
        entry = "(line, i_e)"
    if sig_track:
        step_source = f"""if {p}_w >= 0:
    step = 1
    value = {p}_d + 1
else:
    step = -1
    value = {p}_d - 1
{p}_d = {p}_dlo if value < {p}_dlo else {p}_dhi if value > {p}_dhi else value
value = {p}_w + {p}_len * step
{p}_w = {p}_wlo if value < {p}_wlo else {p}_whi if value > {p}_whi else value"""
    else:
        step_source = f"""if {p}_w >= 0:
    value = {p}_d + 1
else:
    value = {p}_d - 1
{p}_d = {p}_dlo if value < {p}_dlo else {p}_dhi if value > {p}_dhi else value"""
    return f"""delta = {p}_d
{_store_read(p, store_kind)}
value = o_e - delta
a_e = {p}_lo if value < {p}_lo else {p}_hi if value > {p}_hi else value
value = o_e - 2 * delta
i_e = {p}_lo if value < {p}_lo else {p}_hi if value > {p}_hi else value
{p}_append({entry})
if {p}_len >= {p}_ws:
    evicted = {p}_popleft()
    value = evicted[1] + 2 * delta
    o_f = {p}_lo if value < {p}_lo else {p}_hi if value > {p}_hi else value
{_indent(_store_write(store_kind, st_col_names), 4)}
    value = {p}_w + (o_e - o_f)
else:
    {p}_len += 1
    value = {p}_w + a_e
{p}_w = {p}_wlo if value < {p}_wlo else {p}_whi if value > {p}_whi else value
{step_source}
{rollover}{filter_source}"""


def _sign_check(fp: str, sign: int, telemetry: bool) -> str:
    """Count a change of ``fp``'s sign to ``sign`` (with telemetry, log
    it with the post-update value, as ``TransitionFilter.update``
    reports it)."""
    source = f"""if {fp}_ls != {sign}:
    {fp}_sc += 1
    {fp}_ls = {sign}"""
    if telemetry:
        source += f"\n    flip_append((i, _f_{fp}, {sign}, {fp}_v))"
    return source


def _subset_x(four_way: bool, telemetry: bool) -> str:
    if four_way:
        plus, minus = "0 if fp_v >= 0 else 1", "2 if fn_v >= 0 else 3"
    else:
        plus, minus = "0", "1"
    return f"""if fx_v >= 0:
{_indent(_sign_check("fx", 1, telemetry), 4)}
    subset = {plus}
else:
{_indent(_sign_check("fx", -1, telemetry), 4)}
    subset = {minus}"""


def _subset_y(fp: str, telemetry: bool) -> str:
    return f"""if {fp}_v >= 0:
{_indent(_sign_check(fp, 1, telemetry), 4)}
else:
{_indent(_sign_check(fp, -1, telemetry), 4)}
if fx_v >= 0:
    subset = 0 if fp_v >= 0 else 1
else:
    subset = 2 if fn_v >= 0 else 3"""


def _mech_locals(
    prefix: str, index: int, triple_entries: bool, telemetry: bool
) -> str:
    p = prefix
    source = f"""_m{index} = mechs[{index}]
{p}_ws = _m{index}.window_size
{p}_lo = -(1 << (_m{index}.affinity_bits - 1))
{p}_hi = (1 << (_m{index}.affinity_bits - 1)) - 1
{p}_dlo = _m{index}.delta._lo
{p}_dhi = _m{index}.delta._hi
{p}_d = _m{index}.delta._value
{p}_wlo = _m{index}.window_affinity._lo
{p}_whi = _m{index}.window_affinity._hi
{p}_w = _m{index}.window_affinity._value
{p}_fifo = _m{index}._fifo
{p}_append = {p}_fifo.append
{p}_popleft = {p}_fifo.popleft
{p}_len = len({p}_fifo)"""
    if telemetry:
        source += f"""
{p}_rc = _m{index}.references
{p}_rm = _m{index}._rollover_mark"""
    if triple_entries:
        source += f"""
if {p}_len:
    entries = [(e[0], e[1], None) for e in {p}_fifo]
    {p}_fifo.clear()
    {p}_fifo.extend(entries)"""
    return source


def _mech_flush(
    prefix: str, index: int, refs: str, triple_entries: bool, telemetry: bool
) -> str:
    p = prefix
    source = f"""mechs[{index}].delta._value = {p}_d
mechs[{index}].window_affinity._value = {p}_w
mechs[{index}].references += {refs}"""
    if telemetry:
        source += f"\nmechs[{index}]._rollover_mark = {p}_rm"
    if triple_entries:
        source += f"""
if {p}_fifo:
    entries = [(e[0], e[1]) for e in {p}_fifo]
    {p}_fifo.clear()
    {p}_fifo.extend(entries)"""
    return source


def _filter_locals(fp: str, expr: str) -> str:
    return f"""_f_{fp} = {expr}
{fp}_lo = _f_{fp}._counter._lo
{fp}_hi = _f_{fp}._counter._hi
{fp}_v = _f_{fp}._counter._value
{fp}_upd = 0
{fp}_sc = 0
{fp}_ls = _f_{fp}._last_sign"""


def _filter_flush(fp: str) -> str:
    return f"""_f_{fp}._counter._value = {fp}_v
_f_{fp}.updates += {fp}_upd
_f_{fp}.sign_changes += {fp}_sc
_f_{fp}._last_sign = {fp}_ls"""


def _store_source(store_kind: str) -> "tuple[str, str]":
    """``(locals, flush)`` of the affinity store in a generated loop
    (``store`` must be bound)."""
    if store_kind == "cache":
        return """st_lines = store._lines
st_values = store._values
st_time = store._time
st_num_sets = store._num_sets
st_index_bits = store._index_bits
st_way_range = range(store.ways)
st_clock = store._clock
st_idx = {}
for slot, ln in enumerate(st_lines):
    if ln is not None:
        st_idx[ln] = slot
st_idx_get = st_idx.get
st_reads = st_writes = st_misses = st_evictions = 0""", """store.reads += st_reads
store.writes += st_writes
store.misses += st_misses
store.evictions += st_evictions
store._clock = st_clock"""
    return """ub_values = store._values
ub_get = ub_values.get
st_reads = st_writes = st_misses = 0""", """store.reads += st_reads
store.writes += st_writes
store.misses += st_misses"""


def _controller_source(
    four_way: bool,
    store_kind: str,
    st_col_names: "list[str] | None",
    st_ways: int,
    l2_filtering: bool,
    track: bool,
    on_change: str,
    telemetry: bool = False,
) -> "tuple[str, str, str]":
    """``(locals, step, flush)`` of the migration controller in a
    generated loop: loading its state into locals (``controller`` must
    be bound), one sampled reference's step (``line``, ``c``, ``i`` and,
    under L2 filtering, ``l2_miss`` bound; ``on_change`` runs after a
    filter update with the new ``subset``), and writing the state back
    (``ctrl_counts`` and ``active`` bound).  ``telemetry`` logs
    rollovers and flips (``roll_append`` and ``flip_append`` bound)."""
    if four_way:
        block_x = _mechanism_block(
            "x", track, store_kind, st_col_names,
            _filter_update(
                "fx", _subset_x(True, telemetry), l2_filtering, on_change
            ),
            telemetry,
        )
        block_p = _mechanism_block(
            "p", track, store_kind, st_col_names,
            _filter_update(
                "fp", _subset_y("fp", telemetry), l2_filtering, on_change
            ),
            telemetry,
        )
        block_m = _mechanism_block(
            "m", track, store_kind, st_col_names,
            _filter_update(
                "fn", _subset_y("fn", telemetry), l2_filtering, on_change
            ),
            telemetry,
        )
        ctrl_body = f"""if c == 1:
{_indent(block_x, 4)}
elif fx_v >= 0:
    p_refs += 1
{_indent(block_p, 4)}
else:
    m_refs += 1
{_indent(block_m, 4)}"""
    else:
        ctrl_body = _mechanism_block(
            "x", track, store_kind, st_col_names,
            _filter_update(
                "fx", _subset_x(False, telemetry), l2_filtering, on_change
            ),
            telemetry,
        )

    prefixes = list(_MECHANISM_INDEX.items()) if four_way else [("x", 0)]
    filters = (
        [("fx", "controller.filter_x"),
         ("fp", "controller.filter_y[+1]"),
         ("fn", "controller.filter_y[-1]")]
        if four_way
        else [("fx", "controller.filter_x")]
    )
    store_locals, store_flush = _store_source(store_kind)
    st_unpack = []
    if st_ways:
        names = ", ".join(f"t{w}" for w in range(st_ways))
        if st_ways == 1:
            names += ","
        st_unpack = [f"{names} = st_cols"]
    triple_entries = store_kind == "cache"
    ctrl_locals = "\n".join(
        ["store = controller.store",
         "mechs = controller.mechanisms()",
         store_locals]
        + st_unpack
        + [_mech_locals(p, idx, triple_entries, telemetry)
           for p, idx in prefixes]
        + [_filter_locals(fp, expr) for fp, expr in filters]
        + (["p_refs = m_refs = 0"] if four_way else [])
        + ["updates = transitions = 0"]
    )
    mech_refs = (
        [("x", 0, "x_refs"), ("p", 1, "p_refs"), ("m", 2, "m_refs")]
        if four_way
        else [("x", 0, "x_refs")]
    )
    ctrl_flush = "\n".join(
        ["ctrl_references, sampled_count, x_refs = ctrl_counts",
         "cstats = controller.stats",
         "cstats.references += ctrl_references",
         "cstats.sampled_references += sampled_count",
         "cstats.filter_updates += updates",
         "cstats.transitions += transitions",
         "controller._previous_subset = active"]
        + [_mech_flush(p, idx, refs, triple_entries, telemetry)
           for p, idx, refs in mech_refs]
        + [_filter_flush(fp) for fp, _ in filters]
        + [store_flush]
    )
    return ctrl_locals, ctrl_body, ctrl_flush


def _build_source(sig: tuple) -> str:
    (ways, four_way, store_kind, slots_shared, l2_filtering, track,
     st_ways, telemetry) = sig

    cols_unpack = ", ".join(f"s{w}" for w in range(ways))
    if ways == 1:
        cols_unpack += ","

    # --- per-record L2 section of the loop body -----------------------
    # ``occ`` carries prebuilt (idx.get, dirty_list) pairs per occupied
    # inactive core — rebuilt only at migrations, so the per-reference
    # coherence probes skip the two indexed lookups per core.  ``share``
    # counts how many cores hold each line; only the active core ever
    # installs or evicts, so two dict updates per miss keep it exact,
    # and the probe loops run only when another copy actually exists
    # (the common case — no copy anywhere else — costs one dict get).
    demote = """if share_get(line) > 1:
    for og, od in occ:
        oslot = og(line)
        if oslot is not None:
            od[oslot] = False
            coh_updates += 1"""

    # Telemetry logs each miss and eviction by record index.
    miss_note = "\n    miss_log[i] = 1" if telemetry else ""
    evict_note = "\n        ev_append(i)" if telemetry else ""
    l2_body = f"""slot = a_idx_get(line)
if slot is not None:
    a_time[slot] = cbase + i
    if w:
        a_dirty[slot] = True
{_indent(demote, 8)}
    if not c:
        continue
    l2_miss = False
else:
    a_miss += 1{miss_note}
{_indent(_victim_scan(ways), 4)}
    victim_line = a_lines[victim]
    if victim_line is not None:
        a_evict += 1{evict_note}
        vd = a_dirty[victim]
        if vd:
            a_wb += 1
            coh_writebacks += 1
        a_lastev = (victim_line, vd)
        del a_idx[victim_line]
        vs_ = share[victim_line]
        if vs_ == 1:
            del share[victim_line]
        else:
            share[victim_line] = vs_ - 1
    else:
        a_lastev = None
    a_lastmiss = i
    a_lines[victim] = line
    a_dirty[victim] = True if w else False
    a_time[victim] = cbase + i
    a_idx[line] = victim
    others = share_get(line, 0)
    share[line] = others + 1
    if others:
        forwarded = False
        for og, od in occ:
            oslot = og(line)
            if oslot is not None:
                if od[oslot]:
                    od[oslot] = False
                    forwarded = True
                    break
        if forwarded:
            coh_forwards += 1
        else:
            coh_l3 += 1
        if w:
            for og, od in occ:
                oslot = og(line)
                if oslot is not None:
                    od[oslot] = False
                    coh_updates += 1
    else:
        coh_l3 += 1
    if not c:
        continue
    l2_miss = True"""

    # --- sampled controller step --------------------------------------
    # Slot columns the store's write-miss path probes by record index:
    # the L2's own ``s*`` columns when the geometries agree, a second
    # ``t*`` matrix when the store is finite but shaped differently.
    if store_kind != "cache":
        st_col_names = None
    elif slots_shared:
        st_col_names = [f"s{w}" for w in range(ways)]
    else:
        st_col_names = [f"t{w}" for w in range(st_ways)]
    ctrl_locals, ctrl_body, ctrl_flush = _controller_source(
        four_way, store_kind, st_col_names, st_ways, l2_filtering,
        track, _migration_flush(telemetry), telemetry,
    )
    ctrl_locals = "controller = chip.controller\n" + ctrl_locals
    if telemetry:
        log_locals = [
            "miss_log = logs.l2_miss",
            "ev_append = logs.evictions.append",
            "roll_append = logs.rollovers.append",
            "flip_append = logs.flips.append",
            "move_append = logs.migrations.append",
        ]
        ctrl_locals = "\n".join(log_locals + [ctrl_locals])

    loop = f"""i = -1
for line, w, c in zip(seq_line, seq_w, seq_c):
    i += 1
{_indent(l2_body, 4)}
{_indent(ctrl_body, 4)}"""

    last_params = "ctrl_counts, logs" if telemetry else "ctrl_counts"
    source = f"""def _replay(chip, seq_line, seq_w, seq_c, cols, st_cols,
            n_accesses, max_instruction, kind_counts, {last_params}):
    caches = chip.l2s.caches
    num_cores = len(caches)
    engine = chip.engine
    lines_by_core = [c._lines for c in caches]
    dirty_by_core = [c._dirty for c in caches]
    time_by_core = [c._time for c in caches]
    idx_by_core = []
    for cl in lines_by_core:
        d = {{}}
        for slot, ln in enumerate(cl):
            if ln is not None:
                d[ln] = slot
        idx_by_core.append(d)
    share = {{}}
    share_get = share.get
    for d in idx_by_core:
        for ln in d:
            share[ln] = share_get(ln, 0) + 1
    active = engine.active_core
    migrations = 0
    {cols_unpack} = cols
{_indent(ctrl_locals, 4)}
    acc_fl = [0] * num_cores
    miss_fl = [0] * num_cores
    evict_fl = [0] * num_cores
    wb_fl = [0] * num_cores
    clock_fl = [c._clock for c in caches]
    last_fl = [_UNSET] * num_cores
    coh_forwards = coh_l3 = coh_updates = coh_writebacks = 0
    a_lines = lines_by_core[active]
    a_dirty = dirty_by_core[active]
    a_time = time_by_core[active]
    a_idx = idx_by_core[active]
    a_idx_get = a_idx.get
    a_miss = a_evict = a_wb = 0
    a_lastev = None
    a_lastmiss = -2
    reign_start = 0
    cbase = clock_fl[active] + 1
    occ = tuple((idx_by_core[c].get, dirty_by_core[c])
                for c in range(num_cores)
                if c != active and idx_by_core[c])
{_indent(loop, 4)}
    n_records = len(seq_line)
    if n_records:
        clock_fl[active] = cbase + n_records - 1
        acc_fl[active] += n_records - reign_start
        miss_fl[active] += a_miss
        evict_fl[active] += a_evict
        wb_fl[active] += a_wb
        if n_records > reign_start:
            last_fl[active] = a_lastev if a_lastmiss == n_records - 1 else None
    g_miss = sum(miss_fl)
    for core in range(num_cores):
        cache = caches[core]
        l2_stats = cache.stats
        l2_stats.accesses += acc_fl[core]
        l2_stats.hits += acc_fl[core] - miss_fl[core]
        l2_stats.misses += miss_fl[core]
        l2_stats.evictions += evict_fl[core]
        l2_stats.writebacks += wb_fl[core]
        cache._clock = clock_fl[core]
        lf = last_fl[core]
        if lf is not _UNSET:
            cache.last_eviction = EvictedLine(*lf) if lf is not None else None
    coherence = chip.l2s.stats
    coherence.accesses += n_records
    coherence.hits += n_records - g_miss
    coherence.misses += g_miss
    coherence.forwards += coh_forwards
    coherence.l3_fetches += coh_l3
    coherence.writebacks += coh_writebacks
    coherence.inactive_updates += coh_updates
    engine.active_core = active
    engine.migrations += migrations
{_indent(ctrl_flush, 4)}
    fetch_misses, load_misses, store_hits, store_misses = kind_counts
    stats = chip.stats
    stats.accesses += n_accesses
    if max_instruction is not None and max_instruction >= stats.instructions:
        stats.instructions = max_instruction + 1
    stats.il1_misses += fetch_misses
    stats.dl1_misses += load_misses + store_misses
    stats.l1_miss_requests += fetch_misses + load_misses + store_misses
    stats.l2_accesses += n_records
    stats.l2_misses += g_miss
    stats.migrations += migrations
    bus = chip.bus_traffic
    bus.record_l1_fill(chip.config.caches.line_size,
                       fetch_misses + load_misses)
    bus.record_store(store_hits + store_misses)
"""
    return source


#: the globals every generated kernel runs with
_KERNEL_GLOBALS = {
    "EvictedLine": EvictedLine,
    "skew_hash": skew_hash,
    "_UNSET": _UNSET,
}


def _compiled(table: dict, key, build, name: str):
    """The kernel cached in ``table`` under ``key``; on first use, the
    function ``name`` defined by the source ``build()`` returns."""
    kernel = table.get(key)
    if kernel is None:
        namespace = dict(_KERNEL_GLOBALS)
        exec(compile(build(), f"<{name} {key}>", "exec"), namespace)
        kernel = table[key] = namespace[name]
    return kernel


def _kernel_for(sig: tuple):
    return _compiled(_KERNELS, sig, lambda: _build_source(sig), "_replay")


# -- the controller alone -------------------------------------------------
#
# ``MigrationController.observe_many`` runs the chip kernel's controller
# step with no L2 around it: the same generated blocks, over the sampled
# references only (an unsampled reference changes nothing but the
# reference count), with the migration flush swapped for a transition
# count that logs where each transition happened.

#: controller shape -> compiled observe kernel
_OBSERVE_KERNELS: dict = {}

#: sampled references per observe kernel call
_OBSERVE_BLOCK = 1 << 14


def controller_signature(controller) -> tuple:
    """``(four_way, store_kind, l2_filtering, track_window_affinity,
    store_ways)``: the shape keying the observe kernels."""
    cfg = controller.config
    store = controller.store
    finite = type(store) is AffinityCache
    return (
        cfg.num_subsets == 4,
        "cache" if finite else "unbounded",
        cfg.l2_filtering,
        controller.mechanism_x.track_true_window_affinity,
        store.ways if finite else 0,
    )


def _build_observe_source(sig: tuple) -> str:
    four_way, store_kind, l2_filtering, track, st_ways = sig
    # A finite store's write-miss path probes its own slot columns by
    # the index of the sampled reference that enqueued the entry.
    st_col_names = (
        [f"t{w}" for w in range(st_ways)] if store_kind == "cache" else None
    )
    ctrl_locals, ctrl_body, ctrl_flush = _controller_source(
        four_way, store_kind, st_col_names, st_ways, l2_filtering, track,
        _TRANSITION_COUNT,
    )
    loop_vars = ["line"]
    seqs = ["seq_line"]
    if four_way:
        loop_vars.append("c")
        seqs.append("seq_c")
    if l2_filtering:
        loop_vars.append("l2_miss")
        seqs.append("seq_m")
    if len(seqs) == 1:
        loop_head = "for line in seq_line:"
    else:
        loop_head = f"for {', '.join(loop_vars)} in zip({', '.join(seqs)}):"
    return f"""def _observe(controller, seq_line, seq_c, seq_m, st_cols, ctrl_counts):
{_indent(ctrl_locals, 4)}
    active = controller._previous_subset
    moves = []
    moves_append = moves.append
    i = -1
    {loop_head}
        i += 1
{_indent(ctrl_body, 8)}
{_indent(ctrl_flush, 4)}
    return moves
"""


def _observe_kernel_for(sig: tuple):
    return _compiled(
        _OBSERVE_KERNELS, sig, lambda: _build_observe_source(sig), "_observe"
    )


def observe_many(controller, lines, l2_miss=None) -> np.ndarray:
    """:meth:`MigrationController.observe` over ``lines`` (with
    ``l2_miss`` flags, default all true), returning every reference's
    pre-update subset as ``uint8``.

    Runs the generated kernel when the controller is one the chip
    kernel accepts, and the ``observe`` loop otherwise (a probe, an LRU
    window, non-standard component types); both leave the controller in
    the same state.
    """
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    if l2_miss is not None:
        l2_miss = np.asarray(l2_miss, dtype=bool)
        if len(l2_miss) != n:
            raise ValueError(
                f"{len(l2_miss)} l2_miss flags for {n} references"
            )
    if _controller_blocker(controller) is not None:
        flags = repeat(True) if l2_miss is None else l2_miss.tolist()
        return np.fromiter(
            map(controller.observe, lines.tolist(), flags),
            dtype=np.uint8,
            count=n,
        )
    sig = controller_signature(controller)
    four_way, _store_kind, l2_filtering, _track, st_ways = sig
    codes = _control_codes(
        lines, np.ones(n, dtype=bool), controller.config.sampling, four_way
    )
    sampled = np.flatnonzero(codes)
    kernel = _observe_kernel_for(sig)
    before = controller._previous_subset
    cuts = [0]
    subsets = [before]
    # Kernel calls compose, so the Python lists they take are built a
    # block at a time; the first call also counts the unsampled lines.
    for start in range(0, max(1, len(sampled)), _OBSERVE_BLOCK):
        block = sampled[start : start + _OBSERVE_BLOCK]
        block_lines = lines[block]
        block_codes = codes[block]
        seq_m = None
        if l2_filtering:
            seq_m = (
                bytes([1]) * len(block)
                if l2_miss is None
                else l2_miss[block].tobytes()
            )
        st_cols = None
        if st_ways:
            store = controller.store
            matrix = skew_slot_matrix(block_lines, store._num_sets, st_ways)
            st_cols = tuple(matrix[:, w].tolist() for w in range(st_ways))
        counts = (
            len(block) + (n - len(sampled) if start == 0 else 0),
            len(block),
            int(np.count_nonzero(block_codes == 1)),
        )
        moves = kernel(
            controller,
            block_lines.tolist(),
            block_codes.tobytes() if four_way else None,
            seq_m,
            st_cols,
            counts,
        )
        # A transition takes effect from the reference after its own.
        for i, subset in moves:
            cuts.append(int(block[i]) + 1)
            subsets.append(subset)
    cuts.append(n)
    return np.repeat(np.array(subsets, dtype=np.uint8), np.diff(cuts))


# -- one mechanism alone ------------------------------------------------
#
# ``SplitMechanism.process_many`` runs one mechanism's block of the
# generated loops, with the filter update swapped for collecting each
# ``A_e``.  Only the unbounded store has a kernel: Figure 3, the one
# caller, uses it, and every other mechanism runs ``process``.

#: track_true_window_affinity -> compiled process kernel
_PROCESS_KERNELS: dict = {}


def _build_process_source(track: bool) -> str:
    store_locals, store_flush = _store_source("unbounded")
    body = _mechanism_block("x", track, "unbounded", None, "out_append(a_e)")
    return f"""def _process(mechs, seq_line):
    store = mechs[0].store
{_indent(store_locals, 4)}
{_indent(_mech_locals("x", 0, False, False), 4)}
    out = []
    out_append = out.append
    for line in seq_line:
{_indent(body, 8)}
{_indent(_mech_flush("x", 0, "len(out)", False, False), 4)}
{_indent(store_flush, 4)}
    return out
"""


def process_many(mechanism, lines) -> "list[int]":
    """:meth:`SplitMechanism.process` over ``lines``, returning each
    ``A_e`` in order.

    Runs the generated kernel for a standard FIFO-window mechanism with
    no probe and an unbounded store, and the ``process`` loop for any
    other (an LRU window, a probe, a subclass, a finite or non-standard
    store); both leave the mechanism and its store in the same state.
    """
    if (
        type(mechanism) is not SplitMechanism
        or mechanism.lru_window
        or mechanism.probe is not None
        or type(mechanism.store) is not UnboundedAffinityStore
    ):
        return [mechanism.process(line) for line in lines]
    track = mechanism.track_true_window_affinity
    kernel = _compiled(
        _PROCESS_KERNELS, track, lambda: _build_process_source(track),
        "_process",
    )
    return kernel((mechanism,), lines)


# -- per-record precomputation (memoised on the record) -----------------
#
# Two tiers: geometry-independent work (lines, write bytes, kind counts)
# is computed once per record (`_record_base`); everything keyed by
# chip geometry/sampling (slot columns, control bytes, store columns)
# lives in one dict beside it.  Both go when the record does.  The line
# sequence is a memoryview of ``record.lines`` itself; slot columns are
# typed arrays, 2 bytes per record for a geometry of at most 65 536
# slots and 4 otherwise; everything is built a chunk of records at a
# time, so no whole-record int64 temporary is ever held.

#: records per chunk when building the memo's arrays; the temporaries
#: of one (about 100 B a record) sit beside the L1 stage of a streamed
#: Table 2 job, so they are kept small
_MEMO_CHUNK = 1 << 14


def _record_base(record):
    """``(lines memoryview, w_b bytes, full kind counts)`` — shared by
    every geometry (and by the hierarchy kernel)."""
    base = record.__dict__.get(_BASE_ATTR)
    if base is None:
        kinds_np = record.kinds
        base = (
            # iterating it yields Python ints, as an ``array('q')`` does
            memoryview(np.ascontiguousarray(record.lines, dtype=np.int64)),
            (kinds_np >= 2).astype(np.uint8).tobytes(),
            tuple(int(np.count_nonzero(kinds_np == k)) for k in range(4)),
        )
        record.__dict__[_BASE_ATTR] = base
    return base


def _precomp_memo(record) -> dict:
    memo = record.__dict__.get(_PRECOMP_ATTR)
    if memo is None:
        memo = record.__dict__[_PRECOMP_ATTR] = {}
    return memo


def _slot_cols(record, num_sets: int, ways: int, memo):
    """Slot columns for one skewed geometry, memoised independently of
    any controller state so every same-geometry consumer — the baseline
    hierarchy, each chip variant, a non-shared store — reuses one
    entry.  A slot is ``way * num_sets + set``, so 16 bits hold every
    slot of a geometry of at most 65 536 (the 512-KB L2 has 8 192)."""
    key = ("cols", num_sets, ways)
    cols = memo.get(key)
    if cols is None:
        code, dtype = (
            ("H", np.uint16) if num_sets * ways <= 1 << 16 else ("i", np.int32)
        )
        cols = tuple(array(code) for _ in range(ways))
        for start in range(0, len(record.lines), _MEMO_CHUNK):
            smat = skew_slot_matrix(
                record.lines[start : start + _MEMO_CHUNK], num_sets, ways
            )
            for w, col in enumerate(cols):
                col.frombytes(smat[:, w].astype(dtype).tobytes())
        memo[key] = cols
    return cols


def _precompute(record, chip, sig):
    ways, four_way, st_ways = sig[0], sig[1], sig[6]
    first = chip.l2s.caches[0]
    num_sets = first.num_sets
    rec_line, w_b, full_counts = _record_base(record)
    memo = _precomp_memo(record)
    cols = _slot_cols(record, num_sets, ways, memo)
    sampling = chip.controller.config.sampling
    sampling_key = (sampling.modulus, sampling.sampled_residues)
    ckey = ("ctrl", sampling_key, four_way)
    c_b = memo.get(ckey)
    if c_b is None:
        c_b = memo[ckey] = _control_codes(
            record.lines, record.kinds != 2, sampling, four_way
        ).tobytes()
    if st_ways:
        store_sets = chip.controller.store._num_sets
        st_cols = _slot_cols(record, store_sets, st_ways, memo)
    else:
        st_cols = None
    return (rec_line, cols, w_b, c_b, full_counts, st_cols)


def _control_codes(lines_np, requests, sampling, four_way) -> np.ndarray:
    """Each record's controller step: 0 none (not a request, or not
    sampled), 1 mechanism ``X``, 2 a ``Y`` mechanism (4-way, even
    hash; 2-way sends every sampled request to ``X``).  Filled
    :data:`_MEMO_CHUNK` records at a time."""
    modulus, residues = sampling.modulus, sampling.sampled_residues
    if residues is not None:
        residues = np.fromiter(residues, dtype=np.int64)
    ctrl = np.zeros(len(lines_np), np.uint8)
    for start in range(0, len(lines_np), _MEMO_CHUNK):
        end = start + _MEMO_CHUNK
        samp = requests[start:end]
        res = None
        if residues is not None:
            res = lines_np[start:end] % modulus
            samp = np.isin(res, residues) & samp
        out = ctrl[start:end]
        if four_way:
            if res is None:
                res = lines_np[start:end] % modulus
            odd = (res & 1) == 1
            out[samp & odd] = 1
            out[samp & ~odd] = 2
        else:
            out[samp] = 1
    return ctrl


# -- public replay API --------------------------------------------------


def replay_chip_specialized(chip, record):
    """Replay an L1-filter record through ``chip``'s generated kernel.

    Bit-identical final state to per-access simulation of the record's
    trace (minus the L1 objects, which a record replaces).  Under the
    :class:`SimProbe` the chip's constructor attached, the telemetry
    variant fills a :class:`KernelLog` that the probe then replays
    through its hooks.  Raises ``ValueError`` before touching the chip
    when the record's L1 geometry differs or the kernels cannot replay
    the chip exactly (:func:`require_chip_kernel`).
    """
    record.require_match(chip.config.caches)
    require_chip_kernel(chip)
    probe = chip.probe
    log = None if probe is None else KernelLog(record.records)
    sig = chip_signature(chip, log is not None)
    kernel = _kernel_for(sig)
    rec_line, cols, w_b, c_b, kind_counts, st_cols = _precompute(
        record, chip, sig
    )
    # the controller's reference counts
    x_refs = c_b.count(1)
    sampled = x_refs + (c_b.count(2) if sig[1] else 0)
    ctrl_counts = (len(rec_line) - kind_counts[2], sampled, x_refs)
    args = (
        chip, rec_line, w_b, c_b, cols, st_cols, record.accesses,
        record.max_instruction, kind_counts, ctrl_counts,
    )
    if log is None:
        kernel(*args)
    else:
        kernel(*args, log)
        probe.replay_log(record, log)
    return chip.stats


# -- the single-core baseline's specialized replay ----------------------
#
# The baseline hierarchy replays a record through one skewed L2.  The
# generated kernel below applies the chip kernel's tricks — dict-based
# residency for an O(1) hit check, timestamps derived from the loop
# index, slot *columns* memoised on the record — and is what
# ``SingleCoreHierarchy.run_filtered`` and ``run_arrays`` replay through.

#: (l2 ways, telemetry) -> compiled kernel
_HIER_KERNELS: dict = {}


def _build_hierarchy_source(ways: int, telemetry: bool = False) -> str:
    cols_unpack = ", ".join(f"s{w}" for w in range(ways))
    if ways == 1:
        cols_unpack += ","
    # Telemetry logs each miss and eviction by record index.
    last_params = "max_instruction, logs" if telemetry else "max_instruction"
    log_locals = miss_note = evict_note = ""
    if telemetry:
        log_locals = """
    miss_log = logs.l2_miss
    ev_append = logs.evictions.append"""
        miss_note = "\n        miss_log[i] = 1"
        evict_note = "\n            ev_append(i)"
    source = f"""def _replay_hier(hierarchy, seq_line, seq_w, cols, n_records,
                 n_accesses, l1_miss_count, {last_params}):
    l2 = hierarchy.l2
    a_lines = l2._lines
    a_dirty = l2._dirty
    a_time = l2._time
    a_idx = {{}}
    for slot, ln in enumerate(a_lines):
        if ln is not None:
            a_idx[ln] = slot
    a_idx_get = a_idx.get
    cbase = l2._clock + 1
    {cols_unpack} = cols
    hits = evictions = writebacks = 0
    last_eviction = _UNSET{log_locals}
    i = -1
    for line, w in zip(seq_line, seq_w):
        i += 1
        slot = a_idx_get(line)
        if slot is not None:
            hits += 1
            a_time[slot] = cbase + i
            if w:
                a_dirty[slot] = True
            last_eviction = None
            continue{miss_note}
{_indent(_victim_scan(ways), 8)}
        victim_line = a_lines[victim]
        if victim_line is not None:
            evictions += 1{evict_note}
            vd = a_dirty[victim]
            if vd:
                writebacks += 1
            last_eviction = (victim_line, vd)
            del a_idx[victim_line]
        else:
            last_eviction = None
        a_lines[victim] = line
        a_dirty[victim] = True if w else False
        a_time[victim] = cbase + i
        a_idx[line] = victim
    stats = l2.stats
    stats.accesses += n_records
    stats.hits += hits
    stats.misses += n_records - hits
    stats.evictions += evictions
    stats.writebacks += writebacks
    l2._clock = cbase + n_records - 1
    if last_eviction is not _UNSET:
        l2.last_eviction = (
            EvictedLine(*last_eviction) if last_eviction is not None else None
        )
    hstats = hierarchy.stats
    hstats.accesses += n_accesses
    hstats.l1_misses += l1_miss_count
    hstats.l2_accesses += n_records
    hstats.l2_misses += n_records - hits
    if max_instruction >= hstats.instructions:
        hstats.instructions = max_instruction + 1
"""
    return source


def _hier_kernel_for(ways: int, telemetry: bool = False):
    return _compiled(
        _HIER_KERNELS, (ways, telemetry),
        lambda: _build_hierarchy_source(ways, telemetry), "_replay_hier",
    )


def replay_hierarchy_specialized(hierarchy, record):
    """Replay an L1-filter record through the baseline's generated
    kernel.

    Bit-identical final state to per-access simulation (L2 contents,
    timestamps, clock, ``last_eviction``, every stat).  Probes and
    refusals as for :func:`replay_chip_specialized`
    (:func:`require_hierarchy_kernel`).
    """
    record.require_match(hierarchy.config)
    require_hierarchy_kernel(hierarchy)
    probe = hierarchy.probe
    log = None if probe is None else KernelLog(record.records)
    l2 = hierarchy.l2
    kernel = _hier_kernel_for(l2.ways, log is not None)
    rec_line, w_b, full_counts = _record_base(record)
    # The chip kernels' memo: a baseline and any chip variant of the
    # same L2 geometry share one entry, so a population sweep computes
    # the slot matrix once per (record, geometry).
    cols = _slot_cols(record, l2.num_sets, l2.ways, _precomp_memo(record))
    args = (
        hierarchy, rec_line, w_b, cols, len(rec_line), record.accesses,
        full_counts[0] + full_counts[1] + full_counts[3],
        record.max_instruction,
    )
    if log is None:
        kernel(*args)
    else:
        kernel(*args, log)
        probe.replay_log(record, log)
    return hierarchy.stats
