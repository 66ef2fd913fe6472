"""Deterministic random-number streams.

Every stochastic component of the simulation draws from a *named* stream
derived from one root seed.  Streams are independent: adding a new component
(or reordering draws inside one component) never perturbs the numbers seen by
another, so experiments stay reproducible as the model grows.

The derivation uses :class:`numpy.random.SeedSequence` spawning keyed by a
stable hash of the stream name, which is the mechanism NumPy documents for
building independent parallel streams.  NumPy is imported when the first
generator is built, not with this module, so a process that only imports
the kernel (the runner, the CLI, a fresh sweep worker) does not load it.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


def _name_to_key(name: str) -> list[int]:
    """Map a stream name to a stable list of 32-bit words."""
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]


class RandomStreams:
    """A registry of independent, reproducibly seeded generators.

    >>> streams = RandomStreams(seed=42)
    >>> link_noise = streams.stream("link/noise")
    >>> same = RandomStreams(seed=42).stream("link/noise")
    >>> bool(link_noise.integers(1 << 30) == same.integers(1 << 30))
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed all streams derive from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator object,
        so draws continue where they left off.
        """
        generator = self._streams.get(name)
        if generator is None:
            import numpy as np

            sequence = np.random.SeedSequence(
                entropy=self._seed, spawn_key=tuple(_name_to_key(name))
            )
            generator = np.random.Generator(np.random.PCG64(sequence))
            self._streams[name] = generator
        return generator

    def fork(self, name: str) -> "RandomStreams":
        """Derive a child registry whose streams are independent of ours."""
        child_entropy = int.from_bytes(
            hashlib.sha256(f"{self._seed}/{name}".encode("utf-8")).digest()[:8],
            "little",
        )
        return RandomStreams(seed=child_entropy)
