"""Deterministic PRNG used everywhere the package needs randomness.

The generator is splitmix64 over plain Python integers, so a given seed
produces a bit-identical draw sequence on every platform and numpy
version. All model initialization, scene generation, and test input
sampling goes through :class:`RngState`; nothing uses ``numpy.random``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class RngState:
    """splitmix64 stream. Identical seed, identical draws, forever."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError(f"randint needs n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def uniform_array(self, shape, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Row-major array of uniform draws in [lo, hi).

        Bit for bit the same draws, and the same state afterwards, as
        ``n`` calls of :meth:`uniform`, computed as one splitmix64 pass in
        uint64 arithmetic (which wraps exactly as the masked Python ints do).
        """
        n = int(np.prod(shape)) if shape else 1
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
        self._state = (self._state + n * _GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
        flat = (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
        return (lo + (hi - lo) * flat).reshape(shape)

    def derive(self, stream: int) -> "RngState":
        """Child stream determined by (seed, stream) only.

        Independent of how many draws the parent has already made, so
        per-item streams can be handed out in any order.
        """
        child = RngState((self.seed ^ ((stream + 1) * _GAMMA)) & _MASK64)
        child.next_u64()  # decorrelate trivially related seeds
        return child
