"""Deterministic, splittable random-number streams.

Replicated Monte Carlo work is keyed by ``(seed, stream)`` pairs fed to a
counter-based Philox generator.  Identical pairs reproduce identical draws
bit-for-bit on any platform; distinct pairs give statistically independent
streams, so replicates can run in any order (or on any number of threads)
without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
SEED_LIMIT = 1 << 63  # seeds lie in [0, 2**63)


def _splitmix64(state: int) -> int:
    # Finalizer from the splitmix64 generator; good 64-bit avalanche mixing.
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _fold(stream: int, index: int) -> int:
    # Derive a child stream id; collisions are as unlikely as 64-bit hash
    # collisions among the handful of streams an experiment allocates.
    return _splitmix64((stream ^ _splitmix64(index & _MASK64)) & _MASK64)


@dataclass(frozen=True)
class RngStream:
    """A named position in a family of independent random streams.

    ``derive(*path)`` splits off child streams deterministically, so an
    experiment can hand stream ``derive(lane, batch)`` to each worker and
    obtain the same draws regardless of scheduling.  ``seed`` must lie in
    ``[0, 2**63)``; a stream id is taken modulo 2**64.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        seed = int(self.seed)
        if not 0 <= seed < SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2**63), got {seed}")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "stream", int(self.stream) & _MASK64)

    def derive(self, *path: int) -> "RngStream":
        stream = self.stream
        for index in path:
            stream = _fold(stream, int(index))
        return RngStream(self.seed, stream)

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))
