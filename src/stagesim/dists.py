"""Scalar distributions sampled by inverse transform from one uniform draw.

Every sample consumes exactly one uniform, so a draw is fully addressed by
its (stream, index) position and stays reproducible no matter what other
consumers do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DistributionError(ValueError):
    """Malformed distribution parameters."""


_SPEC_FIELDS = {
    "constant": ("value",),
    "uniform": ("low", "high"),
    "geometric": ("p", "cap"),
    "empirical": ("values",),
}


@dataclass(frozen=True)
class Distribution:
    """constant | uniform | geometric | empirical.

    uniform covers [low, high] (integer sampling: low..high inclusive);
    geometric counts trials to first success (probability p), capped at cap;
    empirical picks uniformly from a fixed list of values.
    """

    kind: str
    value: float = 0.0
    low: float = 0.0
    high: float = 0.0
    p: float = 0.5
    cap: int = 1
    values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.value, self.low, self.high, self.p, self.cap, *self.values))):
            raise DistributionError("distribution parameters must be finite")
        if self.kind == "constant":
            return
        if self.kind == "uniform":
            if self.low > self.high:
                raise DistributionError("uniform needs low <= high")
        elif self.kind == "geometric":
            if not 0.0 < self.p <= 1.0:
                raise DistributionError("geometric needs 0 < p <= 1")
            if self.cap < 1:
                raise DistributionError("geometric needs cap >= 1")
        elif self.kind == "empirical":
            if not self.values:
                raise DistributionError("empirical needs at least one value")
        else:
            raise DistributionError(f"unknown distribution kind '{self.kind}'")

    @staticmethod
    def constant(value: float) -> "Distribution":
        return Distribution("constant", value=float(value))

    @staticmethod
    def uniform(low: float, high: float) -> "Distribution":
        return Distribution("uniform", low=float(low), high=float(high))

    @staticmethod
    def geometric(p: float, cap: int) -> "Distribution":
        return Distribution("geometric", p=float(p), cap=int(cap))

    @staticmethod
    def empirical(values) -> "Distribution":
        return Distribution("empirical", values=tuple(float(v) for v in values))

    @classmethod
    def from_spec(cls, spec) -> "Distribution":
        """Build from a config mapping like {"kind": "uniform", "low": 1, "high": 3}."""
        if not isinstance(spec, dict) or "kind" not in spec:
            raise DistributionError("distribution spec must be a mapping with a 'kind'")
        kind = spec["kind"]
        if kind not in _SPEC_FIELDS:
            raise DistributionError(f"unknown distribution kind '{kind}'")
        extra = set(spec) - {"kind", *_SPEC_FIELDS[kind]}
        if extra:
            raise DistributionError(f"unexpected distribution keys {sorted(extra)}")
        missing = [k for k in _SPEC_FIELDS[kind] if k not in spec]
        if missing:
            raise DistributionError(f"distribution '{kind}' missing {missing}")
        if kind == "constant":
            return cls.constant(spec["value"])
        if kind == "uniform":
            return cls.uniform(spec["low"], spec["high"])
        if kind == "geometric":
            return cls.geometric(spec["p"], spec["cap"])
        return cls.empirical(spec["values"])

    def to_spec(self) -> dict:
        out = {"kind": self.kind}
        for key in _SPEC_FIELDS[self.kind]:
            val = getattr(self, key)
            out[key] = list(val) if key == "values" else val
        return out

    def sample(self, u: float) -> float:
        """Map one uniform u in (0, 1] to a sample."""
        if self.kind == "constant":
            return self.value
        if self.kind == "uniform":
            return self.low + u * (self.high - self.low)
        if self.kind == "geometric":
            return float(self._geometric(u))
        idx = min(len(self.values) - 1, int(u * len(self.values)))
        return self.values[idx]

    def sample_int(self, u: float) -> int:
        if self.kind == "constant":
            return int(round(self.value))
        if self.kind == "uniform":
            lo, hi = int(self.low), int(self.high)
            return min(hi, lo + int(u * (hi - lo + 1)))
        if self.kind == "geometric":
            return self._geometric(u)
        return int(round(self.sample(u)))

    def max_int(self) -> int:
        """The largest value sample_int can return."""
        if self.kind == "constant":
            return int(round(self.value))
        if self.kind == "uniform":
            return int(self.high)
        if self.kind == "geometric":
            return 1 if self.p >= 1.0 else self.cap
        return max(int(round(v)) for v in self.values)

    def min_int(self) -> int:
        """The smallest value sample_int can return."""
        if self.kind == "uniform":  # sample_int truncates it, and rounds the others
            return int(self.low)
        return int(round(self.min_value()))

    def min_value(self) -> float:
        """The infimum of sample."""
        if self.kind == "constant":
            return self.value
        if self.kind == "uniform":
            return self.low
        if self.kind == "geometric":
            return 1.0
        return min(self.values)

    def _geometric(self, u: float) -> int:
        if self.p >= 1.0:
            return 1
        k = math.ceil(math.log(u) / math.log(1.0 - self.p))
        return min(self.cap, max(1, k))

    def mean(self) -> float:
        if self.kind == "constant":
            return self.value
        if self.kind == "uniform":
            return 0.5 * (self.low + self.high)
        if self.kind == "geometric":
            if self.p >= 1.0:
                return 1.0
            return (1.0 - (1.0 - self.p) ** self.cap) / self.p
        return sum(self.values) / len(self.values)
