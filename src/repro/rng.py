"""Deterministic random-number utilities.

Every stochastic component of the simulator (trace generators, the
probabilistic mitigations, refresh-policy shuffling) receives its own
:class:`random.Random` stream derived from a single experiment seed, so
that runs are reproducible and components are statistically independent.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a child seed from *root_seed* and a label path.

    Uses SHA-256 over the textual path so that the mapping is stable
    across Python versions and processes (unlike ``hash()``).
    """
    text = repr((int(root_seed),) + tuple(str(label) for label in labels))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream(root_seed: int, *labels: object) -> random.Random:
    """Return an independent :class:`random.Random` for a label path."""
    return random.Random(derive_seed(root_seed, *labels))


def seed_sequence(root_seed: int, count: int, *labels: object) -> Iterator[int]:
    """Yield *count* independent seeds below a label path."""
    for index in range(count):
        yield derive_seed(root_seed, *labels, index)


class BufferedRandom:
    """Draw ``random()`` values in blocks while preserving exact order.

    Mersenne-Twister output is a fixed sequence, so the *k*-th
    ``random()`` value is identical whether drawn eagerly or in a
    pre-filled block -- which lets the fused simulation engine bulk-draw
    trigger decisions per chunk and still match the reference engine
    draw-for-draw.

    Other :class:`random.Random` methods consume the same underlying
    stream, so before forwarding one the wrapper rewinds the generator
    to just past the values already handed out (``setstate`` plus a
    replay of the consumed draws) and discards the rest of the block.
    That keeps interleavings such as PARA's ``randrange`` on trigger
    bit-exact with unbuffered use.
    """

    __slots__ = ("_rng", "_block", "_buf", "_pos", "_state")

    def __init__(self, rng: random.Random, block: int = 1024):
        if block < 1:
            raise ValueError(f"block size must be positive: {block}")
        self._rng = rng
        self._block = block
        self._buf: list[float] = []
        self._pos = 0
        self._state: object = None

    def random(self) -> float:
        if self._pos >= len(self._buf):
            self._state = self._rng.getstate()
            self._buf = [self._rng.random() for _ in range(self._block)]
            self._pos = 0
        value = self._buf[self._pos]
        self._pos += 1
        return value

    def _sync(self) -> None:
        """Rewind the generator to just after the draws consumed so far."""
        if self._buf:
            self._rng.setstate(self._state)
            for _ in range(self._pos):
                self._rng.random()
            self._buf = []
            self._pos = 0

    def randrange(self, stop: int) -> int:
        self._sync()
        return self._rng.randrange(stop)

    def getstate(self):
        self._sync()
        return self._rng.getstate()
