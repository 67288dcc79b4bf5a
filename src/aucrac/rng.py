"""Deterministic pseudo-random streams.

The generator is xoshiro256** seeded through splitmix64, implemented from
its published constants so identical seeds give identical draws on every
platform and Python version.
"""

from __future__ import annotations

import math

MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    # one splitmix64 step: returns (next state, output word)
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


class Rng:
    """xoshiro256** stream with convenience draw methods."""

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        state = self.seed
        words = []
        for _ in range(4):
            state, word = _splitmix64(state)
            words.append(word)
        self._s = tuple(words)

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        # both 64-bit rotations are written out: this runs once per draw
        x = (s1 * 5) & MASK64
        out = ((((x << 7) | (x >> 57)) & MASK64) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self._s = (s0, s1, s2, s3)
        return out

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def randoms(self, n: int) -> list:
        """The next `n` values of `random()`, drawn with the state in locals."""
        s0, s1, s2, s3 = self._s
        out = []
        append = out.append
        for _ in range(n):
            # next_u64's step, written out
            x = (s1 * 5) & MASK64
            append(((((((x << 7) | (x >> 57)) & MASK64) * 9) & MASK64) >> 11) * (2.0 ** -53))
            t = (s1 << 17) & MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
        self._s = (s0, s1, s2, s3)
        return out

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive. Rejection sampled, unbiased."""
        if hi < lo:
            raise ValueError("empty integer range")
        span = hi - lo + 1
        # largest multiple of span below 2^64
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            u = self.next_u64()
            if u < limit:
                return lo + u % span

    def expovariate(self, rate: float) -> float:
        if rate <= 0:
            raise ValueError("rate must be positive")
        return -math.log(1.0 - self.random()) / rate

    def choice(self, seq):
        if not seq:
            raise ValueError("empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def shuffle(self, seq: list) -> None:
        # Fisher-Yates, in place
        for i in range(len(seq) - 1, 0, -1):
            j = self.randint(0, i)
            seq[i], seq[j] = seq[j], seq[i]

    def fork(self, tag: int) -> "Rng":
        """Independent child stream derived from the base seed and an integer tag.

        Forking depends only on (seed, tag), not on how many draws were made.
        """
        _, mixed = _splitmix64((self.seed ^ ((tag + 1) * 0xD2B74407B1CE6E93)) & MASK64)
        return Rng(mixed)


def new_rng(seed: int) -> Rng:
    return Rng(seed)
