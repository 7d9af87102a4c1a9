"""Deterministic random streams shared by the generator and the samplers.

splitmix64 is used instead of ``random.Random`` because its integer
recurrence is fixed, so a seed names the same stream on every Python
version; the fuzz, generator and sampling streams all depend on it.
Every trial derives its own stream from (seed, index), making results
independent of evaluation order.
"""

from __future__ import annotations

from fractions import Fraction

MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit splitmix64 generator over Python ints."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return (z ^ (z >> 31)) & MASK64

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n): one 64-bit word, more only while
        n exceeds their span.  Modulo bias is irrelevant at these ranges."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        x, span = self.next_u64(), 1 << 64
        while span < n:
            x, span = x << 64 | self.next_u64(), span << 64
        return x % n

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.below(den) < num


def derive_seed(seed: int, index: int) -> int:
    """Independent child seed for (seed, index)."""
    g = SplitMix64((seed ^ (index * 0x9E3779B97F4A7C15)) & MASK64)
    return g.next_u64()


def rational_in_window(gen: SplitMix64, lo: int, hi: int, max_den: int) -> Fraction:
    """Random rational in [lo, hi] (integer bounds) with denominator <= max_den."""
    den = 1 + gen.below(max_den)
    num = lo * den + gen.below((hi - lo) * den + 1)
    return Fraction(num, den)
