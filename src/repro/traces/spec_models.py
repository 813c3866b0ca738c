"""Calibrated SPEC CPU2000-like workload models.

The paper evaluates 13 SPEC CPU2000 benchmarks (train inputs, first
10^9 instructions) traced by SimpleScalar/PISA.  Neither the binaries
nor the simulator exist here, so each benchmark is modelled as a
mixture of the synthetic behaviours of :mod:`repro.traces.synthetic`
whose *L1-filtered* reference stream matches the published
characteristics qualitatively:

* working-set size (where the Figure 4/5 LRU-stack profile falls),
* splittability (whether ``p4`` drops below ``p1``: circular or
  stable-permutation behaviours are splittable; uniform-random ones are
  not),
* instruction- vs data-miss mix (Table 1: ``gcc``, ``crafty`` and
  ``vortex`` are instruction-miss heavy),
* Table 2 outcome class (win / neutral / slight loss).

The calibration table at the bottom of this module documents, per
benchmark, what the paper observed and how the model encodes it.
These are *models*, not the benchmarks: EXPERIMENTS.md reports
paper-vs-measured for every figure and table built on them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

import numpy as np

from repro.common.rng import make_rng, mix_seed
from repro.traces.synthetic import (
    Circular,
    PermutationCycle,
    PhaseAlternating,
    Stride,
    UniformRandom,
    reseed,
)
from repro.traces.trace import Access, AccessKind

#: lines per megabyte with the paper's 64-byte lines
LINES_PER_MB = 16384
LINES_PER_KB = 16


@dataclass(frozen=True)
class Component:
    """One behaviour in a workload mixture.

    ``weight`` is the fraction of references drawn from this component;
    ``kind`` is the access type its references carry (loads may be
    turned into stores by the model's ``store_fraction``).
    """

    weight: float
    kind: AccessKind
    behavior: object  #: a LineStream

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class SpecModelConfig:
    """Shape of one benchmark model."""

    name: str
    components: "Tuple[Component, ...]"
    instructions_per_access: float = 2.8
    store_fraction: float = 0.12  #: fraction of data refs that are stores
    default_length: int = 2_000_000
    seed: int = 12345

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a model needs at least one component")
        if self.instructions_per_access < 1.0:
            raise ValueError("instructions_per_access must be >= 1")
        if not 0.0 <= self.store_fraction <= 1.0:
            raise ValueError("store_fraction must be in [0, 1]")


class SpecModel:
    """A TraceSource built from a weighted mixture of behaviours.

    Components occupy disjoint address regions (64-byte-aligned, 1-MB
    padded) so that, e.g., a benchmark's code and data never alias.
    """

    def __init__(
        self,
        config: SpecModelConfig,
        length: "int | None" = None,
        seed: "int | None" = None,
    ) -> None:
        self.config = config
        self.name = config.name
        self.length = length if length is not None else config.default_length
        self.seed = seed
        if seed is None:
            self._mixture_seed = config.seed
        else:
            # An explicit seed re-derives every stochastic stream — the
            # mixture draws and each component behaviour — from
            # (seed, name, position), so two runs with the same seed are
            # bit-identical regardless of workload execution order, and
            # different seeds give independent traces.
            self._mixture_seed = mix_seed(seed, config.name, "mixture")
            for i, component in enumerate(config.components):
                reseed(component.behavior, mix_seed(seed, config.name, i))
        total = sum(c.weight for c in config.components)
        self._probabilities = [c.weight / total for c in config.components]
        self._bases: "list[int]" = []
        base = 0
        for component in config.components:
            self._bases.append(base)
            # Pad regions to a 1-MB boundary past the component footprint.
            footprint = component.behavior.num_lines
            base += ((footprint // LINES_PER_MB) + 1) * LINES_PER_MB

    @property
    def footprint_lines(self) -> int:
        return sum(c.behavior.num_lines for c in self.config.components)

    def accesses(self) -> Iterator[Access]:
        """Yield the trace (deterministic per model seed)."""
        cfg = self.config
        rng = make_rng(self._mixture_seed)
        components = cfg.components
        iterators = [c.behavior.addresses(self.length) for c in components]
        # Pre-draw in chunks for speed.
        chunk = 65536
        produced = 0
        instruction = 0
        # Instruction gaps average instructions_per_access using a
        # deterministic fractional accumulator plus +-1 jitter.
        mean_gap = cfg.instructions_per_access
        gap_accumulator = 0.0
        store_fraction = cfg.store_fraction
        while produced < self.length:
            take = min(chunk, self.length - produced)
            picks = rng.choice(len(components), size=take, p=self._probabilities)
            store_draws = rng.random(take)
            jitter = rng.integers(-1, 2, size=take)
            for i in range(take):
                which = int(picks[i])
                component = components[which]
                element = next(iterators[which]) + self._bases[which]
                kind = component.kind
                if kind is AccessKind.LOAD and store_draws[i] < store_fraction:
                    kind = AccessKind.STORE
                yield Access(element * 64, kind, instruction)
                gap_accumulator += mean_gap
                gap = max(1, int(gap_accumulator) + int(jitter[i]))
                gap_accumulator -= int(gap_accumulator)
                instruction += gap
            produced += take

    def arrays(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The trace of :meth:`accesses` as ``(addresses int64, kinds
        int8, instructions int64)`` arrays: :meth:`array_chunks`,
        concatenated.

        :meth:`accesses` is the specification; this is its vectorised
        twin, equal to ``trace_to_arrays(self.accesses())`` in values
        and dtypes (``tests/traces/test_spec_arrays.py``).
        """
        length = self.length
        addresses = np.empty(length, dtype=np.int64)
        kinds = np.empty(length, dtype=np.int8)
        instructions = np.empty(length, dtype=np.int64)
        start = 0
        for chunk in self.array_chunks():
            end = start + len(chunk[0])
            addresses[start:end], kinds[start:end], instructions[start:end] = chunk
            start = end
        return addresses, kinds, instructions

    def array_chunks(
        self,
    ) -> "Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]":
        """The trace of :meth:`arrays` in consecutive chunks of up to
        65,536 references, generated one at a time, so a consumer that
        goes chunk by chunk holds one chunk of the trace, not all of it.

        It makes the same random draws as :meth:`accesses`, in the same
        order and sizes, then gives each component its share of the
        chunk as one block of elements (:func:`_element_blocks`)
        scattered by pick.
        """
        cfg = self.config
        rng = make_rng(self._mixture_seed)
        components = cfg.components
        blocks = [_element_blocks(c.behavior, self.length) for c in components]
        component_kinds = np.array([int(c.kind) for c in components], np.int8)
        pick_type = np.min_scalar_type(len(components) - 1)
        length = self.length
        mean_gap = cfg.instructions_per_access
        # An integral mean gap leaves the fractional accumulator of
        # accesses() at 0.0, so its whole part is the mean itself.
        fractional = not float(mean_gap).is_integer()
        gap_accumulator = 0.0
        instruction = 0

        def make(take: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
            # The draws of accesses(), each narrowed at once to what it
            # decides.  A chunk is made by a call, so the generator
            # keeps no reference to one it has handed out.
            nonlocal gap_accumulator, instruction
            picks = rng.choice(
                len(components), size=take, p=self._probabilities
            ).astype(pick_type)
            store_hits = rng.random(take) < cfg.store_fraction
            jitter = rng.integers(-1, 2, size=take).astype(np.int8)

            elements = np.empty(take, dtype=np.int64)
            counts = np.bincount(picks, minlength=len(components))
            for which, count in enumerate(counts.tolist()):
                if count:
                    block = blocks[which](count)
                    block += self._bases[which]
                    elements[picks == which] = block
                    del block
            elements *= 64

            kinds = component_kinds[picks]
            del picks
            store_hits &= kinds == AccessKind.LOAD
            kinds[store_hits] = AccessKind.STORE

            gaps = jitter.astype(np.int64)
            if fractional:
                wholes = []
                for _ in range(take):
                    gap_accumulator += mean_gap
                    whole = int(gap_accumulator)
                    wholes.append(whole)
                    gap_accumulator -= whole
                gaps += np.array(wholes, dtype=np.int64)
            else:
                gaps += int(mean_gap)
            np.maximum(gaps, 1, out=gaps)
            np.cumsum(gaps, out=gaps)  # each reference's offset past the next
            instructions = np.empty(take, dtype=np.int64)
            instructions[0] = 0
            instructions[1:] = gaps[:-1]
            instructions += instruction
            instruction += int(gaps[-1])
            return elements, kinds, instructions

        chunk = 65536  # accesses()'s draw size
        for start in range(0, length, chunk):
            yield make(min(chunk, length - start))


def _element_blocks(behavior, length: int) -> "Callable[[int], np.ndarray]":
    """``take(n)``: the next ``n`` elements of ``behavior.addresses(length)``
    as one int64 array.

    ``Circular``, ``Stride`` and ``PermutationCycle`` are index
    arithmetic.  ``UniformRandom`` repeats its generator's draws, whose
    sizes come from ``length`` (65 536 at a time), so the stream never
    depends on how :meth:`SpecModel.arrays` splits it.  Any other
    behaviour is read from its own generator.  Exact types only: a
    subclass may override ``addresses``.
    """
    cls = type(behavior)
    if cls is Circular or cls is Stride or cls is PermutationCycle:
        lines = behavior.num_lines
        step = behavior.stride % lines if cls is Stride else 1
        order = behavior._order if cls is PermutationCycle else None
        position = 0 if order is not None else behavior.start

        def take(count: int) -> np.ndarray:
            nonlocal position
            # (position + step * arange(count)) % lines, in place
            index = np.arange(count, dtype=np.int64)
            index *= step
            index += position
            index %= lines
            position = (position + step * count) % lines
            return index if order is None else order[index]

        return take
    if cls is UniformRandom:
        rng = make_rng(behavior.seed)
        remaining = length
        pending = np.empty(0, dtype=np.int64)

        def take(count: int) -> np.ndarray:
            nonlocal remaining, pending
            parts = [pending]
            have = len(pending)
            while have < count:
                size = min(remaining, 65536)
                parts.append(rng.integers(0, behavior.num_lines, size=size))
                remaining -= size
                have += size
            drawn = np.concatenate(parts)
            pending = drawn[count:]
            return drawn[:count]

        return take
    iterator = behavior.addresses(length)
    return lambda count: np.fromiter(
        itertools.islice(iterator, count), dtype=np.int64, count=count
    )


def _mb(megabytes: float) -> int:
    return int(megabytes * LINES_PER_MB)


def _kb(kilobytes: float) -> int:
    return int(kilobytes * LINES_PER_KB)


def _load(weight: float, behavior: object) -> Component:
    return Component(weight, AccessKind.LOAD, behavior)


def _fetch(weight: float, behavior: object) -> Component:
    return Component(weight, AccessKind.FETCH, behavior)


# ---------------------------------------------------------------------------
# Per-benchmark calibrations.
#
# Paper evidence used (Figures 4-5 LRU profiles, Tables 1-2):
#   164.gzip   random-like, few-MB footprint, NOT splittable, ratio 1.01
#   171.swim   streaming arrays > 16 MB, ratio 1.00 (affinity cache too small)
#   172.mgrid  streaming ~4-8 MB, ratio 1.00
#   175.vpr    random-like, < 1 MB hot set, NOT splittable, highest
#              transition frequency (1.34 %), ratio 1.60 (loss)
#   176.gcc    instruction-miss heavy (41.6M IL1 misses), mild win 0.95
#   179.art    circular ~3-4 MB, strongly splittable, ratio 0.03
#   181.mcf    pointer chasing over ~3-4 MB, splittable, ratio 0.67
#   186.crafty instruction-heavy, working set fits one L2, ratio 1.13
#   188.ammp   circular ~2-4 MB, strongly splittable, ratio 0.17
#   197.parser random-like over ~2-4 MB, NOT splittable, ratio 1.00
#   255.vortex instruction-heavy, moderate set, slight loss 1.10
#   256.bzip2  block-phase behaviour over ~2-3 MB, splittable, ratio 0.35
#   300.twolf  ~256 KB hot set (fits one L2), ratio 1.00
# ---------------------------------------------------------------------------

_BUILDERS: "Dict[str, Callable[[], SpecModelConfig]]" = {}


def _register(name: str):
    def decorator(builder: "Callable[[], SpecModelConfig]"):
        _BUILDERS[name] = builder
        return builder

    return decorator


@_register("164.gzip")
def _gzip() -> SpecModelConfig:
    return SpecModelConfig(
        name="164.gzip",
        components=(
            _load(0.60, UniformRandom(_mb(2.5), seed=11)),
            _load(0.40, UniformRandom(_kb(448), seed=13)),
        ),
        instructions_per_access=58.0,
    )


@_register("171.swim")
def _swim() -> SpecModelConfig:
    return SpecModelConfig(
        name="171.swim",
        components=(
            _load(0.85, Circular(_mb(4.0))),
            _load(0.15, Stride(_mb(2.0), stride=2)),
        ),
        instructions_per_access=42.0,
        store_fraction=0.25,
        default_length=6_000_000,
    )


@_register("172.mgrid")
def _mgrid() -> SpecModelConfig:
    return SpecModelConfig(
        name="172.mgrid",
        components=(
            _load(0.80, Circular(_mb(3.0))),
            _load(0.20, Stride(_mb(1.5), stride=4)),
        ),
        instructions_per_access=140.0,
        store_fraction=0.08,
        default_length=5_000_000,
    )


@_register("175.vpr")
def _vpr() -> SpecModelConfig:
    return SpecModelConfig(
        name="175.vpr",
        components=(
            _load(0.75, UniformRandom(_kb(704), seed=17)),
            _load(0.25, UniformRandom(_kb(96), seed=19)),
        ),
        instructions_per_access=40.0,
    )


@_register("176.gcc")
def _gcc() -> SpecModelConfig:
    return SpecModelConfig(
        name="176.gcc",
        components=(
            _fetch(0.55, Circular(_mb(1.4))),
            _load(0.30, UniformRandom(_mb(1.0), seed=23)),
            _load(0.15, Circular(_kb(640))),
        ),
        instructions_per_access=17.0,
    )


@_register("179.art")
def _art() -> SpecModelConfig:
    return SpecModelConfig(
        name="179.art",
        components=(
            _load(0.88, Circular(_mb(1.5))),
            _load(0.12, UniformRandom(_kb(192), seed=29)),
        ),
        instructions_per_access=9.0,
        store_fraction=0.05,
        default_length=4_000_000,
    )


@_register("181.mcf")
def _mcf() -> SpecModelConfig:
    return SpecModelConfig(
        name="181.mcf",
        components=(
            _load(0.65, PermutationCycle(_mb(1.25), seed=31)),
            _load(0.35, UniformRandom(_mb(1.2), seed=37)),
        ),
        instructions_per_access=12.0,
        store_fraction=0.08,
        default_length=4_000_000,
    )


@_register("186.crafty")
def _crafty() -> SpecModelConfig:
    return SpecModelConfig(
        name="186.crafty",
        components=(
            _fetch(0.60, Circular(_kb(176))),
            _load(0.40, UniformRandom(_kb(112), seed=41)),
        ),
        instructions_per_access=9.0,
    )


@_register("188.ammp")
def _ammp() -> SpecModelConfig:
    return SpecModelConfig(
        name="188.ammp",
        components=(
            _load(0.90, Circular(_mb(1.3))),
            _load(0.10, UniformRandom(_kb(128), seed=43)),
        ),
        instructions_per_access=6.3,
        store_fraction=0.10,
        default_length=4_000_000,
    )


@_register("197.parser")
def _parser() -> SpecModelConfig:
    return SpecModelConfig(
        name="197.parser",
        components=(
            _load(0.65, UniformRandom(_mb(2.2), seed=47)),
            _load(0.35, UniformRandom(_kb(448), seed=49)),
        ),
        instructions_per_access=80.0,
    )


@_register("255.vortex")
def _vortex() -> SpecModelConfig:
    return SpecModelConfig(
        name="255.vortex",
        components=(
            _fetch(0.40, UniformRandom(_mb(1.2), seed=53)),
            _fetch(0.15, Circular(_kb(256))),
            _load(0.45, UniformRandom(_mb(1.0), seed=57)),
        ),
        instructions_per_access=14.0,
    )


@_register("256.bzip2")
def _bzip2() -> SpecModelConfig:
    blocks = PhaseAlternating(
        phases=[
            (Circular(_mb(0.9)), 60_000),
            (Circular(_mb(0.9)), 60_000),
        ],
        name="bzip2-blocks",
    )
    return SpecModelConfig(
        name="256.bzip2",
        components=(
            _load(0.80, blocks),
            _load(0.20, UniformRandom(_kb(256), seed=59)),
        ),
        instructions_per_access=120.0,
        default_length=4_000_000,
    )


@_register("300.twolf")
def _twolf() -> SpecModelConfig:
    return SpecModelConfig(
        name="300.twolf",
        components=(
            _load(0.70, UniformRandom(_kb(176), seed=61)),
            _load(0.30, Circular(_kb(64))),
        ),
        instructions_per_access=24.0,
    )


def spec_model_names() -> "list[str]":
    """The 13 modelled SPEC CPU2000 benchmarks, in paper order."""
    return list(_BUILDERS)


def spec_model(
    name: str, length: "int | None" = None, seed: "int | None" = None
) -> SpecModel:
    """Build the model for one benchmark (e.g. ``"179.art"``).

    ``length`` overrides the default trace length (accesses, not
    instructions); ``seed`` re-derives every stochastic stream in the
    model (``None`` keeps the calibrated per-model defaults).
    """
    try:
        builder = _BUILDERS[name]
    except KeyError:
        known = ", ".join(_BUILDERS)
        raise KeyError(f"unknown SPEC model {name!r}; known: {known}") from None
    return SpecModel(builder(), length=length, seed=seed)
