"""Working-set sampling (paper section 3.5).

The affinity cache would need to cover the whole on-chip L2 capacity
(e.g. 32k entries / 152 KB for 2 MB of L2).  The paper samples the
working set instead: lines are hashed with ``H(e) = e mod 31`` and only
lines whose hash falls in a chosen residue set get affinity-cache
entries; the rest "simply rely on the transition filter" — they take
whichever subset the filter currently indicates and never update it.

The modulus is prime to avoid pathological aliasing with the
constant-stride reference streams that are frequent in practice; the
paper notes ``e mod 31`` is cheap in hardware (carry-save adder over
5-bit digits plus a small ROM, since ``2^5 ≡ 1 (mod 31)``).

Section 3.6 reuses the same hash for 4-way splitting: among *sampled*
lines, odd hashes feed mechanism ``X`` and even hashes feed ``Y[±1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet


def mod_hash(line: int, modulus: int = 31) -> int:
    """``H(e) = e mod modulus`` (the paper's sampling hash)."""
    return line % modulus


def digitwise_mod31(line: int) -> int:
    """``e mod 31`` computed the hardware way: sum the 5-bit digits.

    Because ``2^5 ≡ 1 (mod 31)``, ``Σ_i e_i · 2^(5i) ≡ Σ_i e_i``;
    repeating the digit-sum until the value fits in 5 bits (with the
    all-ones fixup) yields the remainder.  Exposed for the tests that
    check the hardware trick against ``%``.
    """
    if line < 0:
        raise ValueError(f"line addresses are non-negative, got {line}")
    value = line
    while value > 31:
        total = 0
        while value:
            total += value & 31
            value >>= 5
        value = total
    return 0 if value == 31 else value


@dataclass(frozen=True)
class SamplingPolicy:
    """Which lines are sampled, and how sampled lines route to mechanisms.

    ``sampled_residues`` of ``None`` disables sampling (every line is
    sampled) — the section 4.1 configuration.  The paper's 25 % sampling
    of section 4.2 is ``frozenset(range(8))`` over modulus 31.
    """

    modulus: int = 31
    sampled_residues: "FrozenSet[int] | None" = None

    def __post_init__(self) -> None:
        if self.modulus <= 1:
            raise ValueError(f"modulus must be > 1, got {self.modulus}")
        if self.sampled_residues is not None:
            residues = frozenset(self.sampled_residues)
            if not residues:
                raise ValueError("sampled_residues must not be empty")
            if any(not 0 <= r < self.modulus for r in residues):
                raise ValueError(
                    f"residues {sorted(residues)} outside [0, {self.modulus})"
                )
            object.__setattr__(self, "sampled_residues", residues)

    @classmethod
    def quarter(cls) -> "SamplingPolicy":
        """The paper's 25 % sampling: ``H(e) < 8`` over modulus 31."""
        return cls(modulus=31, sampled_residues=frozenset(range(8)))

    @classmethod
    def full(cls) -> "SamplingPolicy":
        """No sampling: every line carries affinity (section 4.1)."""
        return cls(modulus=31, sampled_residues=None)

    @property
    def sample_fraction(self) -> float:
        if self.sampled_residues is None:
            return 1.0
        return len(self.sampled_residues) / self.modulus

    def is_sampled(self, line: int) -> bool:
        if self.sampled_residues is None:
            return True
        return line % self.modulus in self.sampled_residues

    def routes_to_x(self, line: int) -> bool:
        """4-way routing among sampled lines: odd hash -> ``X``,
        even hash -> ``Y[sign(F_X)]`` (section 3.6)."""
        return (line % self.modulus) % 2 == 1

