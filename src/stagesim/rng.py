"""Deterministic counter-based random streams.

Each consumer draws from its own stream named by (seed, label), and a draw
is a pure function of (seed, label, index).  Changing how one consumer
draws therefore never perturbs another stream's values, which is what
makes paired topology/policy comparisons attributable to the thing that
actually changed.

Draw `index` of stream (seed, label) is `(u + 1) / 2**64`, where `u` is the
first 8 bytes, read big-endian, of the SHA-256 digest of the UTF-8 text
`f"{seed}|{label}|{index}"`: a value in (0, 1].  `draw` is the one
implementation of that formula, over the label split into a preformatted
`stream_prefix(seed, head)` and a bytes tail; `RngStream.uniform` and
`stream_uniform` draw through it.
"""

from __future__ import annotations

import struct

# CPython's built-in SHA-256, which spares loading OpenSSL; hashlib where
# the interpreter has neither module.  Each gives the same digests.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

_U64 = 2**64
_first_u64 = struct.Struct(">Q").unpack_from  # the first 8 bytes, big-endian


def stream_prefix(seed: int, head: str) -> bytes:
    """The bytes `f"{seed}|{head}"` that every draw of a stream whose label
    starts with `head` starts with."""
    return f"{seed}|{head}".encode()


def draw(prefix: bytes, tail: bytes, index: int) -> float:
    """Draw `index` of the stream whose label is `head + tail`, where
    `prefix` is `stream_prefix(seed, head)` and `tail` is UTF-8."""
    return (_first_u64(sha256(b"%b%b|%d" % (prefix, tail, index)).digest())[0] + 1) / _U64


def stream_uniform(seed: int, label: str, index: int) -> float:
    """Uniform draw in (0, 1] addressed by (seed, label, index)."""
    return draw(stream_prefix(seed, label), b"", index)


class RngStream:
    """A named uniform stream; the draw counter is its only mutable state."""

    __slots__ = ("seed", "label", "index", "_prefix")

    def __init__(self, seed: int, label: str, start: int = 0) -> None:
        self.seed = seed
        self.label = label
        self.index = start
        self._prefix = stream_prefix(seed, label)

    def uniform(self) -> float:
        index = self.index
        self.index = index + 1
        return draw(self._prefix, b"", index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(seed={self.seed}, label={self.label!r}, index={self.index})"
