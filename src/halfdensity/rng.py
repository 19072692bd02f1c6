"""Deterministic, splittable random sources.

Everything randomized in this package draws from numpy's PCG64 behind a
Generator, seeded through a SeedSequence.  A RandomSource wraps the seed
material and can derive independent child streams by integer key, which is
what makes chunked simulation deterministic regardless of thread count.

Seeds are always explicit; no environment-variable defaults.
"""

from __future__ import annotations

import numpy as np

#: Algorithm tag recorded in run manifests.
RNG_ALGORITHM = "numpy-pcg64"


class RandomSource:
    """Seed material that yields reproducible generators and child sources."""

    def __init__(self, seed: int | None = None, *, _ss: np.random.SeedSequence | None = None):
        if _ss is not None:
            self._ss = _ss
        else:
            if seed is None:
                raise ValueError("RandomSource requires an explicit seed")
            self._ss = np.random.SeedSequence(int(seed))

    def generator(self) -> np.random.Generator:
        """A fresh Generator over this source's stream.

        Calling twice returns identical streams; use child() for
        independent sequential purposes.
        """
        return np.random.Generator(np.random.PCG64(self._ss))

    def child(self, key: int) -> "RandomSource":
        """Independent source derived deterministically by integer key."""
        ss = np.random.SeedSequence(
            entropy=self._ss.entropy, spawn_key=tuple(self._ss.spawn_key) + (int(key),)
        )
        return RandomSource(_ss=ss)


def as_source(rng) -> RandomSource:
    """An int seed as its RandomSource, or a RandomSource as is; else TypeError."""
    if isinstance(rng, RandomSource):
        return rng
    if isinstance(rng, (int, np.integer)):
        return RandomSource(int(rng))
    raise TypeError(f"cannot interpret {type(rng).__name__} as a random source")


def as_generator(rng) -> np.random.Generator:
    """A Generator as is, else the generator of as_source(rng)."""
    return rng if isinstance(rng, np.random.Generator) else as_source(rng).generator()
