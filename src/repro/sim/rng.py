"""Named deterministic random streams.

Every source of randomness in the simulation (network jitter, fault
schedules, workload data) draws from a named stream derived from a single
job seed.  Streams are independent: perturbing one (e.g. network jitter for
the determinism checker) leaves the others bit-identical.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["RngRegistry"]


class RngRegistry:
    """Factory of independent, reproducible numpy Generators keyed by name."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._reseeded = False

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        The stream seed is derived by hashing ``(job_seed, name)`` so adding
        a new stream never shifts existing ones.
        """
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            # default_rng(seed) by numpy's definition, minus its argument
            # dispatch: a large share of a stream's cost, and jobs build hundreds
            gen = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))
            self._streams[name] = gen
        return gen

    def reseed(self, name: str, seed: int) -> np.random.Generator:
        """Force a specific seed for one stream (used to perturb replays)."""
        digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
        gen = np.random.Generator(np.random.PCG64(int.from_bytes(digest[:8], "little")))
        self._streams[name] = gen
        self._reseeded = True
        return gen

    def untouched(self) -> bool:
        """True when no stream has drawn or been reseeded (each bit generator is
        still in the state a fresh registry derives for its name): the run never
        read the seed.  Asked once, at end of run — streams and draws pay nothing."""
        fresh = RngRegistry(self.seed)
        return not self._reseeded and all(
            gen.bit_generator.state == fresh.stream(name).bit_generator.state
            for name, gen in self._streams.items()
        )
