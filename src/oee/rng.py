"""Deterministic 64-bit PRNG (splitmix64) and stream splitting.

All randomness in the simulator flows through this module so that traces
are bit-identical across platforms and reruns.  Streams are split by
hashing a tuple of integers into a fresh seed; drawing from one stream
never advances another.
"""

from __future__ import annotations

from fractions import Fraction

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    # splitmix64 output function
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return z ^ (z >> 31)


def fold(h: int, v: int) -> int:
    """One step of `mix`: the hash h with the integer v folded in, so that
    fold(mix(*values), v) == mix(*values, v)."""
    return _finalize((h + _GAMMA) & MASK64 ^ (v & MASK64))


def select(h: int, values, num: int, den: int) -> list[int]:
    """[v for v in values if fold(h, v) * den < num], computed in one loop:
    the values whose draw falls below the cut num / den."""
    h = (h + _GAMMA) & MASK64
    out = []
    for v in values:
        z = h ^ (v & MASK64)
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
        if (z ^ (z >> 31)) * den < num:
            out.append(v)
    return out


def mix(*values: int) -> int:
    """Hash a tuple of integers into a 64-bit value. Order-sensitive."""
    h = 0x8C2F9D1A6E5B3C07
    for v in values:
        h = fold(h, v)
    return h


class SplitMix64:
    """Sequential splitmix64 generator."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        return _finalize(self._state)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange bound must be positive")
        # modulo bias is irrelevant at desk scale and keeps draws platform-stable
        return self.next_u64() % n

    def choice(self, seq):
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randrange(len(seq))]

    def chance(self, p: Fraction) -> bool:
        """Bernoulli draw with exact rational probability."""
        return self.next_u64() * p.denominator < p.numerator << 64


def stream(*key: int) -> SplitMix64:
    """A fresh generator for the given stream key."""
    return SplitMix64(mix(*key))
