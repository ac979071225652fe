"""Reproducible random-number streams.

Every stochastic component of the library draws from an :class:`RngStream`
rather than the global :mod:`random` state, so that

* experiments are reproducible bit-for-bit given a seed, and
* independent subsystems (topology generation, workload sampling, request
  shuffling) consume *independent* streams — adding a draw in one place
  does not perturb another subsystem's sequence.

Streams are derived from a parent seed and a string label with a stable
hash, mirroring the "named sub-stream" idiom used by large simulators.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")

_MASK_64 = (1 << 64) - 1


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a child seed from ``parent_seed`` and a string ``label``.

    The derivation is stable across processes and Python versions (it uses
    SHA-256, not ``hash()``), so a given ``(seed, label)`` pair always
    produces the same child stream.
    """
    digest = hashlib.sha256(f"{parent_seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _MASK_64


class RngStream:
    """A named, seedable wrapper around :class:`random.Random`.

    Parameters
    ----------
    seed:
        Root seed for this stream.
    label:
        Optional human-readable label; recorded for diagnostics and used
        when spawning children.
    """

    def __init__(self, seed: int, label: str = "root") -> None:
        self.seed = int(seed)
        self.label = label
        self._random = random.Random(self.seed)
        #: Uniform float in [0, 1): the generator's own bound method, so
        #: a draw on a hot path costs no wrapper frame.
        self.random = self._random.random

    def spawn(self, label: str) -> "RngStream":
        """Create an independent child stream identified by ``label``."""
        child_seed = derive_seed(self.seed, label)
        return RngStream(child_seed, label=f"{self.label}/{label}")

    # -- thin delegation helpers -------------------------------------------------

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def random_words(self, count: int) -> bytes:
        """The raw generator output behind the next ``count`` ``random()`` calls.

        ``random()`` consumes two 32-bit Mersenne-Twister words per value
        and returns ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``.  One
        ``getrandbits(64 * count)`` takes the same words in the same
        order (first word lowest) and leaves the stream in the same
        state, so applying that formula to the ``2 * count`` little-endian
        uint32 words returned here (``ArrayBackend.unit_floats``)
        reproduces the draws bit for bit without ``count`` python-level
        calls.
        """
        return self._random.getrandbits(64 * count).to_bytes(8 * count, "little")

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high], both ends included."""
        return self._random.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        """Pick one element of ``seq`` uniformly."""
        return self._random.choice(seq)

    def sample(self, population: Sequence[T], k: int) -> list[T]:
        """Sample ``k`` distinct elements."""
        return self._random.sample(population, k)

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def shuffled(self, items: Iterable[T]) -> list[T]:
        """Return a new shuffled list, leaving the input untouched."""
        out = list(items)
        self._random.shuffle(out)
        return out

    def weighted_choice(self, items: Sequence[T], weights: Sequence[float]) -> T:
        """Pick one element with probability proportional to its weight."""
        if len(items) != len(weights):
            raise ValueError("items and weights must have the same length")
        return self._random.choices(items, weights=weights, k=1)[0]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"RngStream(seed={self.seed}, label={self.label!r})"
