"""Named deterministic random streams.

Every source of randomness in the simulation (network jitter, fault
schedules, workload data) draws from a named stream derived from a single
job seed.  Streams are independent: perturbing one (e.g. network jitter for
the determinism checker) leaves the others bit-identical.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Dict

import numpy as np

__all__ = ["RngRegistry"]

#: seed-material memo size.  A Table-1 pass asks for 128 distinct
#: ``(seed, name)`` keys at 64 ranks and 512 at 256 (one noise stream per
#: rank and replica, the same at every job of the pass); an entry holds
#: about 270 B (traced, key included), so a full memo is about 1.1 MB.
_MEMO_SIZE = 4096


class _SeedMaterial:
    """Registered as a numpy ``ISeedSequence`` on the first derivation.  CPython
    caches ``isinstance`` answers for subclasses of a registered class but not
    for the class itself, which would cost every stream ~1 µs of ABC lookup."""

    __slots__ = ()


class _SeedWords(_SeedMaterial):
    """The seed sequence a stream's ``PCG64`` is built from: the four words
    ``SeedSequence(entropy).generate_state(4, uint64)`` gives, derived once
    per ``(seed, name)`` and read-only, so generators may share them."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("a stream's seed words are four uint64 words (what PCG64 asks for)")
        return self.words


@lru_cache(maxsize=_MEMO_SIZE)
def _seed_words(key: str) -> _SeedWords:
    """``default_rng``'s seeding of ``sha256(key)[:8]`` for a stream's
    ``key = f"{seed}:{name}"``, minus its ~10 µs of ``SeedSequence`` mixing
    on every repeat: a Table-1 pass derives each of its 128 keys once and
    reuses them 832 times."""
    # registered here, not at import: numpy.random costs 2 MB and 9 ms in
    # every process, and most jobs draw from no stream (idempotent)
    np.random.bit_generator.ISeedSequence.register(_SeedMaterial)
    digest = hashlib.sha256(key.encode()).digest()
    words = np.random.SeedSequence(int.from_bytes(digest[:8], "little")).generate_state(4, np.uint64)
    words.flags.writeable = False
    return _SeedWords(words)


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
            # default_rng(seed) by numpy's definition: same state, same draws
            gen = np.random.Generator(np.random.PCG64(_seed_words(f"{self.seed}:{name}")))
            self._streams[name] = gen
        return gen

    def reseed(self, name: str, seed: int) -> np.random.Generator:
        """Force a specific seed for one stream (used to perturb replays)."""
        gen = np.random.Generator(np.random.PCG64(_seed_words(f"{seed}:{name}")))
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
