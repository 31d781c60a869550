"""Deterministic counter-based random streams.

Each consumer draws from its own stream named by (seed, label), and a draw
is a pure function of (seed, label, index).  Changing how one consumer
draws therefore never perturbs another stream's values, which is what
makes paired topology/policy comparisons attributable to the thing that
actually changed.
"""

from __future__ import annotations

import struct
from hashlib import sha256

_U64 = 2**64
_first_u64 = struct.Struct(">Q").unpack_from  # the first 8 bytes, big-endian


def stream_uniform(seed: int, label: str, index: int) -> float:
    """Uniform draw in (0, 1] addressed by (seed, label, index)."""
    return RngStream(seed, label, index).uniform()


class RngStream:
    """A named uniform stream; the draw counter is its only mutable state.

    Draw `index` is `(u + 1) / 2**64`, where `u` is the first 8 bytes,
    read big-endian, of the sha256 digest of the UTF-8 text
    `f"{seed}|{label}|{index}"`: a value in (0, 1].  `uniform` is the one
    implementation of that formula; `stream_uniform` draws through it."""

    __slots__ = ("seed", "label", "index")

    def __init__(self, seed: int, label: str, start: int = 0) -> None:
        self.seed = seed
        self.label = label
        self.index = start

    def uniform(self) -> float:
        index = self.index
        self.index = index + 1
        return (_first_u64(sha256(f"{self.seed}|{self.label}|{index}".encode()).digest())[0] + 1) / _U64

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed}, label={self.label!r}, index={self.index})"
