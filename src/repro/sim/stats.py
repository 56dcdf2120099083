"""Statistics primitives for simulator metrics.

Latency is accumulated through the small set of classes here
(:class:`RunningMean` is ``ArchMetrics.latency``; :class:`Histogram` is
its tail-latency counterpart), each with a ``reset()`` for the warm-up
boundary (table 3-3's 1000 reset cycles); the integer delivery, drop and
cycle counters live on ``ArchMetrics`` itself.
"""

from __future__ import annotations

import math
from typing import List, Tuple


class RunningMean:
    """Streaming mean/variance (Welford) without storing samples."""

    __slots__ = ("name", "count", "_mean", "_m2", "min", "max")

    def __init__(self, name: str = "mean"):
        self.name = name
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def reset(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def __repr__(self) -> str:
        return f"RunningMean({self.name}: n={self.count}, mean={self.mean:.4g})"


class Histogram:
    """Fixed-width bucket histogram for latency distributions."""

    def __init__(self, name: str = "hist", bucket_width: float = 10.0, n_buckets: int = 200):
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        if n_buckets <= 0:
            raise ValueError("n_buckets must be positive")
        self.name = name
        self.bucket_width = float(bucket_width)
        self.n_buckets = int(n_buckets)
        self._buckets: List[int] = [0] * (self.n_buckets + 1)  # last = overflow
        self._summary = RunningMean(name + ".summary")

    def add(self, value: float) -> None:
        if value < 0:
            raise ValueError(f"Histogram values must be >= 0, got {value}")
        idx = int(value // self.bucket_width)
        if idx >= self.n_buckets:
            idx = self.n_buckets
        self._buckets[idx] += 1
        self._summary.add(value)

    @property
    def count(self) -> int:
        return self._summary.count

    @property
    def mean(self) -> float:
        return self._summary.mean

    @property
    def max(self) -> float:
        return self._summary.max if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Approximate percentile (bucket upper edge); p in [0, 100].

        The answer is always the upper edge of a bucket that actually
        holds samples: empty leading buckets are skipped, so ``p=0``
        reports where the smallest sample lies rather than the first
        bucket's edge. Samples past the last bucket land in the overflow
        bucket, whose edge is ``(n_buckets + 1) * bucket_width``.

        >>> h = Histogram(bucket_width=10.0, n_buckets=4)
        >>> for v in (25.0, 27.0, 31.0):
        ...     h.add(v)
        >>> h.percentile(0)     # smallest sample is in [20, 30)
        30.0
        >>> h.percentile(100)   # largest sample is in [30, 40)
        40.0
        >>> h.add(1000.0)       # overflow bucket edge: (4 + 1) * 10
        >>> h.percentile(100)
        50.0
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.count == 0:
            return 0.0
        target = self.count * p / 100.0
        seen = 0
        for idx, n in enumerate(self._buckets):
            if n == 0:
                continue
            seen += n
            if seen >= target:
                return (idx + 1) * self.bucket_width
        return (self.n_buckets + 1) * self.bucket_width

    def buckets(self) -> Tuple[int, ...]:
        return tuple(self._buckets)

    def reset(self) -> None:
        self._buckets = [0] * (self.n_buckets + 1)
        self._summary.reset()


def window_mean(
    count_before: int, mean_before: float, count_after: int, mean_after: float
) -> float:
    """Mean of the samples added between two ``(count, mean)`` snapshots.

    The per-phase metric-window primitive: scenario players snapshot a
    :class:`RunningMean`'s ``(count, mean)`` at each phase boundary and
    recover the phase-local mean from the totals, so windowing costs
    nothing on the per-sample hot path.

    >>> window_mean(0, 0.0, 4, 10.0)   # all four samples in the window
    10.0
    >>> window_mean(2, 4.0, 4, 7.0)    # two samples averaging 10 joined
    10.0
    """
    n = count_after - count_before
    if n <= 0:
        return 0.0
    return (count_after * mean_after - count_before * mean_before) / n
