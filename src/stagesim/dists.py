"""Scalar distributions sampled by inverse transform from one uniform draw.

Every sample consumes exactly one uniform, so a draw is fully addressed by
its (stream, index) position and stays reproducible no matter what other
consumers do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


class DistributionError(ValueError):
    """Malformed distribution parameters."""


# The parameters each kind takes: a distribution sets these and no others.
_PARAMS = {
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
    empirical picks uniformly from a fixed list of values.  The parameters
    of other kinds stay None.
    """

    kind: str
    value: float | None = None
    low: float | None = None
    high: float | None = None
    p: float | None = None
    cap: int | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        params = _PARAMS.get(self.kind)
        if params is None:
            raise DistributionError(f"unknown distribution kind '{self.kind}'")
        for f in fields(self)[1:]:  # the parameters, after kind
            if (getattr(self, f.name) is None) == (f.name in params):
                rule = "needs" if f.name in params else "takes no"
                raise DistributionError(f"a {self.kind} distribution {rule} '{f.name}'")
        numbers = self.values if self.kind == "empirical" else [getattr(self, k) for k in params]
        if not all(map(math.isfinite, numbers)):
            raise DistributionError("distribution parameters must be finite")
        if self.kind == "uniform":
            if self.low > self.high:
                raise DistributionError("uniform needs low <= high")
        elif self.kind == "geometric":
            if not 0.0 < self.p <= 1.0:
                raise DistributionError("geometric needs 0 < p <= 1")
            if 1.0 - self.p == 1.0:  # _geometric divides by log(1 - p)
                raise DistributionError("geometric needs p > 2**-54, else 1 - p rounds to 1")
            if self.cap < 1:
                raise DistributionError("geometric needs cap >= 1")
        elif self.kind == "empirical":
            if not self.values:
                raise DistributionError("empirical needs at least one value")

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
            # (1 - (1 - p)**cap) / p, in a form that keeps its precision
            # for tiny p; rounding can still land an ulp outside [1, cap]
            mean = -math.expm1(self.cap * math.log1p(-self.p)) / self.p
            return min(float(self.cap), max(1.0, mean))
        return sum(self.values) / len(self.values)
