"""Counter-based random streams.

Every source of randomness in the toolkit is a ``SeededRng`` identified by a
``(seed, stream_id)`` pair. The generator is Philox (counter-based), so the
value sequence of a stream depends only on its identity, never on how many
other streams exist or in which order they are consumed. That makes
per-image / per-augmentation work safe to schedule in any order, or in
parallel, without losing reproducibility.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def mix64(a: int, b: int) -> int:
    """Mix two 64-bit ids into one (splitmix64 finalizer over their combination).

    Used to derive child stream ids; collision probability is negligible for
    the stream counts used here.
    """
    z = ((a & _MASK64) * 0x9E3779B97F4A7C15 + (b & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class SeededRng:
    """A named random stream: same (seed, stream_id) -> same values, always."""

    def __init__(self, seed: int, stream_id: int = 0):
        if not 0 <= seed <= _MASK64:
            raise ValueError(f"seed must fit in 64 bits, got {seed}")
        if not 0 <= stream_id <= _MASK64:
            raise ValueError(f"stream_id must fit in 64 bits, got {stream_id}")
        self.seed = seed
        self.stream_id = stream_id
        # numpy reads a key holding an id past 2**63 as float64 and may cast it out
        # of uint64's range; every stream keeps that key, without the cast's warning
        with np.errstate(invalid="ignore"):
            self._gen = np.random.Generator(np.random.Philox(key=[seed, stream_id]))

    def derive(self, substream: int) -> "SeededRng":
        """Child stream with the same seed and a mixed-in substream id."""
        return SeededRng(self.seed, mix64(self.stream_id, substream))

    def normal(self, shape=None) -> np.ndarray:
        return self._gen.standard_normal(size=shape, dtype=np.float64)

    def uniform(self, low: float = 0.0, high: float = 1.0, shape=None) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def random(self, shape=None) -> np.ndarray:
        return self._gen.random(size=shape, dtype=np.float64)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream_id={self.stream_id})"
