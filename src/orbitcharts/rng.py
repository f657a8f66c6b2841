"""Seeded splitmix64 generator.

All sampling in the package flows through this one generator so that every
report and witness search is reproducible bit-for-bit from its seed,
independent of platform and interpreter hash state.
"""

from __future__ import annotations

from fractions import Fraction

_MASK = (1 << 64) - 1
_NUM_LO, _NUM_HI, _DENOMINATORS = -9, 9, (1, 2, 3)


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] (reduction by modulus; documented)."""
        if hi < lo:
            raise ValueError("empty range")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def fraction(self) -> Fraction:
        """Small random rational: a numerator in [_NUM_LO, _NUM_HI] is drawn,
        then a denominator from _DENOMINATORS."""
        num = self.randint(_NUM_LO, _NUM_HI)
        den = _DENOMINATORS[self.randint(0, len(_DENOMINATORS) - 1)]
        return Fraction(num, den)
