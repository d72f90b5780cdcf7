"""Measurement helpers for simulation runs.

:class:`Counter` tracks monotone totals (requests committed, bytes
written); :class:`TimeSeries` records ``(time, value)`` samples and can
summarise them (mean, percentiles) — the raw material for the paper's
throughput and latency figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class Counter:
    """A named monotone counter."""

    def __init__(self, name: str = ""):
        self.name = name
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only move forward")
        self._value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile over pre-sorted values (0 when empty).

    The one percentile rule of the repo: a reported value is always a
    sample that occurred, and it equals the frozen end-to-end
    benchmark's.
    """
    if not sorted_values:
        return 0.0
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in (0, 1], got {fraction}")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass
class SeriesSummary:
    """Summary statistics of a sample set."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float
    stdev: float


class TimeSeries:
    """Time-stamped samples with percentile summaries."""

    def __init__(self, name: str = ""):
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def record(self, time: float, value: float) -> None:
        """Append one sample observed at simulated ``time``."""
        self._times.append(time)
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def values(self) -> list[float]:
        return list(self._values)

    def summary(self) -> SeriesSummary:
        """Summarise all recorded values."""
        if not self._values:
            raise ValueError(f"series {self.name!r} has no samples")
        ordered = sorted(self._values)
        n = len(ordered)
        mean = sum(ordered) / n
        variance = sum((v - mean) ** 2 for v in ordered) / n
        return SeriesSummary(
            count=n,
            mean=mean,
            minimum=ordered[0],
            maximum=ordered[-1],
            p50=percentile(ordered, 0.50),
            p95=percentile(ordered, 0.95),
            p99=percentile(ordered, 0.99),
            stdev=math.sqrt(variance),
        )

    def rate(self, start: float | None = None, end: float | None = None) -> float:
        """Samples per unit time over the observation window.

        The window defaults to [first sample, last sample]; pass explicit
        bounds to measure rates over a fixed horizon (e.g. committed
        transactions per simulated second).
        """
        if not self._times:
            return 0.0
        lo = self._times[0] if start is None else start
        hi = self._times[-1] if end is None else end
        span = hi - lo
        if span <= 0:
            return 0.0
        in_window = sum(1 for t in self._times if lo <= t <= hi)
        return in_window / span
