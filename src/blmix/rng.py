"""Counter-based splittable random number streams.

Each stream is keyed by a (master_seed, stream_id) pair fed into a Philox
counter-based generator, so replicas are reproducible independent of
scheduling or worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_U64 = 1 << 64


@dataclass(frozen=True)
class RngStream:
    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if type(v) is not int or not -_U64 < v < _U64:
                raise ParameterError(f"{name} must be a 64-bit integer, got {v!r}")

    def chunk(self, c: int) -> np.random.Generator:
        """A fresh generator for chunk ``c``: the stream's start jumped ahead
        c times by 2^128 draws, so chunk 0 is the stream itself and no two
        chunks overlap."""
        key = (self.master_seed % _U64) * _U64 + (self.stream_id % _U64)
        return np.random.Generator(np.random.Philox(key=key).jumped(c))
