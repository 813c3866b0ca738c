"""The practical hardware implementation of the affinity algorithm
(paper Figure 2).

One :class:`SplitMechanism` is a 2-way working-set splitter: it owns an
R-window, the incremental window affinity ``A_R``, and the postponed-
update register ``Δ``; per-element affinities are stored as ``O_e``
values in an :class:`~repro.core.affinity_store.AffinityStore` (which
may be shared between mechanisms, as in 4-way splitting).

Per reference to element ``e`` (Figure 2):

1. read ``O_e`` from the affinity store (miss => force ``A_e = 0`` by
   taking ``O_e = Δ``, section 4.2);
2. ``A_e = O_e - Δ`` — the value consumed by the transition filter;
3. push ``(e, I_e = O_e - 2Δ)`` into the R-window; the evicted entry
   ``f`` yields ``O_f = I_f + 2Δ``, written back to the store;
4. ``A_R += O_e - O_f`` (equal to ``A_e - A_f``);
5. ``Δ += sign(A_R)``.

All quantities use saturating arithmetic at the paper's widths:
``bits[I_e] = bits[O_e] = affinity_bits`` (16 in the paper),
``bits[A_R] = affinity_bits + ceil(log2(|R|))``,
``bits[Δ] = affinity_bits + 1``.

Two deliberate spec resolutions, both documented in DESIGN.md:

* **Sign timing.** The paper writes ``Δ(t+1) = Δ(t) + sign(A_R(t))``
  but its Figure 2 computes ``A_R(t+1)`` in the same step; whether the
  referenced element is counted in the window for its own update is
  ambiguous.  We use the *post-insertion* window affinity, which
  matches the positive-feedback narrative of section 3.2 (synchronous
  elements reinforce each other only if counted together) and makes the
  mechanism agree exactly with Definition 1.
* **``A_R`` drift.** Read literally, the Figure 2 recurrence
  ``A_R += O_e - O_f`` tracks the sum of the *I-values* in the window;
  the true window affinity of Definition 1 is that plus ``|R| * Δ``.
  The default (``track_true_window_affinity=True``) adds the
  ``|R| * sign`` term each step so the register equals the exact
  ``Σ A_e`` of Definition 1 — this mode is property-tested against
  :class:`repro.core.affinity.ReferenceAffinitySplitter` **and is the
  one that reproduces the paper's numbers**: on Circular(4000) with
  ``|R| = 100`` it converges to the optimal 2-piece split with one
  transition every 2000 references, exactly as in Figure 3, whereas
  the literal register converges to a fragmented ~40-piece split at
  ~1/100.  The literal register is kept as an ablation
  (``track_true_window_affinity=False``).
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from typing import Optional

from repro.common.saturating import SaturatingCounter, saturate, sign
from repro.core.affinity_store import AffinityStore


class SplitMechanism:
    """2-way splitting mechanism: R-window + ``A_R`` + ``Δ`` (Figure 2)."""

    __slots__ = (
        "window_size",
        "store",
        "affinity_bits",
        "lru_window",
        "track_true_window_affinity",
        "name",
        "probe",
        "_rollover_mark",
        "window_affinity",
        "delta",
        "references",
        "_fifo",
        "_lru",
    )

    def __init__(
        self,
        window_size: int,
        store: AffinityStore,
        affinity_bits: int = 16,
        lru_window: bool = False,
        track_true_window_affinity: bool = True,
        name: str = "R",
    ) -> None:
        if window_size <= 0:
            raise ValueError(f"window_size must be positive, got {window_size}")
        self.window_size = window_size
        self.store = store
        self.affinity_bits = affinity_bits
        self.lru_window = lru_window
        self.track_true_window_affinity = track_true_window_affinity
        self.name = name
        #: nil-by-default telemetry hook (:mod:`repro.obs.probe`);
        #: reports a ``window.rollover`` event each full ``|R|`` turns.
        self.probe = None
        self._rollover_mark = 0
        ar_bits = affinity_bits + max(1, math.ceil(math.log2(window_size)))
        if track_true_window_affinity:
            # The exact Σ A_e needs headroom for the |R|*sign drift.
            ar_bits += 16
        self.window_affinity = SaturatingCounter(ar_bits)
        self.delta = SaturatingCounter(affinity_bits + 1)
        self.references = 0
        # FIFO window: deque of ``(line, I_e)`` tuples, the one entry
        # form the generated kernels use too (duplicates allowed).
        # LRU window: ordered dict line -> I_e (distinct elements).
        self._fifo: "deque[tuple[int, int]]" = deque()
        self._lru: "OrderedDict[int, int]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._lru) if self.lru_window else len(self._fifo)

    def window_lines(self) -> "list[int]":
        """Window contents, oldest first."""
        if self.lru_window:
            return list(self._lru)
        return [entry[0] for entry in self._fifo]

    def _saturate(self, value: int) -> int:
        return saturate(value, self.affinity_bits)

    def _read_o(self, line: int) -> int:
        o_value = self.store.read(line)
        if o_value is None:
            # Affinity-cache miss: force A_e = 0 by taking O_e = Δ
            # (paper section 4.2).  This is also the correct initial
            # condition A_e(t_e) = 0 of Definition 1.
            return self._saturate(self.delta.value)
        return o_value

    def process(self, line: int) -> int:
        """Process one reference; return ``A_e`` (the filter's input)."""
        self.references += 1
        delta = self.delta.value
        if self.lru_window and line in self._lru:
            a_e = self._saturate(self._lru[line] + delta)
            self._lru.move_to_end(line)
            self._advance(window_population=len(self._lru))
            return a_e
        o_e = self._read_o(line)
        a_e = self._saturate(o_e - delta)
        i_e = self._saturate(o_e - 2 * delta)
        o_f: Optional[int] = None
        if self.lru_window:
            self._lru[line] = i_e
            if len(self._lru) > self.window_size:
                _evicted, i_f = self._lru.popitem(last=False)
                o_f = self._saturate(i_f + 2 * delta)
                self.store.write(_evicted, o_f)
            population = len(self._lru)
        else:
            self._fifo.append((line, i_e))
            if len(self._fifo) > self.window_size:
                evicted, i_f = self._fifo.popleft()
                o_f = self._saturate(i_f + 2 * delta)
                self.store.write(evicted, o_f)
            population = len(self._fifo)
        if o_f is None:
            self.window_affinity.add(a_e)  # window still filling
        else:
            self.window_affinity.add(o_e - o_f)
        self._advance(window_population=population)
        probe = self.probe
        if probe is not None and self.references - self._rollover_mark >= self.window_size:
            self._rollover_mark = self.references
            probe.on_window_rollover(self.name, self.window_size, self.references)
        return a_e

    def _advance(self, window_population: int) -> None:
        """Step ``Δ`` (and, in exact mode, the ``|R|*sign`` drift)."""
        step = self.window_affinity.sign_value
        self.delta.add(step)
        if self.track_true_window_affinity:
            self.window_affinity.add(window_population * step)

    def process_many(self, lines) -> "list[int]":
        """:meth:`process` for each of ``lines`` in turn; returns the
        ``A_e`` values in order.

        A FIFO-window mechanism with no probe and an unbounded store
        runs a kernel generated from the chip kernel's mechanism block
        (:func:`repro.kernels.specialize.process_many`); any other runs
        the :meth:`process` loop, its specification.  Consecutive calls
        compose like consecutive :meth:`process` calls.
        """
        from repro.kernels.specialize import process_many

        return process_many(self, lines)

    def affinity_of(self, line: int) -> Optional[int]:
        """Current ``A_e`` of ``line``, or ``None`` if unknown.

        For a line in the window (most recent entry wins, FIFO mode),
        ``A_e = I_e + Δ``; otherwise ``A_e = O_e - Δ`` from the store.
        """
        delta = self.delta.value
        if self.lru_window:
            if line in self._lru:
                return self._saturate(self._lru[line] + delta)
        else:
            for entry_line, i_e in reversed(self._fifo):
                if entry_line == line:
                    return self._saturate(i_e + delta)
        o_value = self.store.read(line)
        if o_value is None:
            return None
        return self._saturate(o_value - delta)
