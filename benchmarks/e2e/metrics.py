"""Metric arithmetic of the end-to-end benchmark.

Pure functions over plain numbers, with no import of ``repro``: the
percentile rule, the steady window of an open-loop run, the
highest-sustained-rate rule of the ladder, the longest commit gap, and
the comparison of two result sets.  ``tests/test_metrics.py`` pins each
rule on synthetic inputs.
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: p99 latency limit of a ladder rung, ms: about three times the p99 the
#: channel shows at 25 tps, which is the target ROADMAP item 2 sets for
#: sub-saturation load.
LADDER_P99_LIMIT_MS = 300.0
#: A rung has a growing backlog when the mean latency of the last third
#: of its arrivals exceeds this multiple of the first third's.
BACKLOG_GROWTH_LIMIT = 1.5
#: Share of an open-loop run's arrivals treated as warm-up.
WARMUP_SHARE = 0.10
#: A host metric whose repeats differ by more than this share of their
#: median is reported but marked unresolved.
UNRESOLVED_SPREAD = 0.10


def percentile(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile; ``fraction`` in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"percentile fraction must be in (0, 1], got {fraction}")
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` samples lie above the nearest-rank percentile."""
    return count - max(1, math.ceil(fraction * count)) if count else 0


def tail_supported(count: int, fraction: float = 0.99) -> bool:
    """The rule for quoting a tail: at least ten samples beyond it."""
    return samples_beyond(count, fraction) >= 10


def steady_window(due_ms: Sequence[float]) -> tuple[float, float]:
    """The window open-loop goodput is taken over: after the first
    ``WARMUP_SHARE`` of arrivals, up to the last arrival.  The drain
    tail after the last arrival is outside it."""
    if not due_ms:
        raise ValueError("steady window of an empty schedule")
    ordered = sorted(due_ms)
    return ordered[int(len(ordered) * WARMUP_SHARE)], ordered[-1]


def window_goodput_tps(
    due_ms: Sequence[float], succeeded: Sequence[bool]
) -> float:
    """Successful requests *due* inside the steady window per simulated
    second of window.  Counting by due time keeps a request that was due
    in the window but finished in the drain tail, and leaves out the
    warm-up requests that finished inside the window."""
    start, end = steady_window(due_ms)
    if end <= start:
        return 0.0
    inside = sum(
        1 for due, ok in zip(due_ms, succeeded) if ok and start <= due <= end
    )
    return inside / ((end - start) / 1000.0)


def backlog_growth(latencies_in_arrival_order: Sequence[float]) -> float:
    """Mean latency of the last third of arrivals over the first third's."""
    third = len(latencies_in_arrival_order) // 3
    if third == 0:
        return 1.0
    first = statistics.fmean(latencies_in_arrival_order[:third])
    last = statistics.fmean(latencies_in_arrival_order[-third:])
    return last / first if first > 0 else math.inf


def rung_sustained(failed_share: float, p99_ms: float, growth: float) -> bool:
    """Whether one ladder rung was served: nothing failed, the tail met
    the limit, and the backlog was not growing."""
    return (
        failed_share == 0
        and p99_ms <= LADDER_P99_LIMIT_MS
        and growth <= BACKLOG_GROWTH_LIMIT
    )


def max_sustained_rate(rungs: Sequence[tuple[float, bool]]) -> float:
    """Highest rate such that it and every lower rung was sustained.

    ``rungs`` is ``(rate, sustained)`` pairs; 0 when the lowest fails.
    """
    best = 0.0
    for rate, sustained in sorted(rungs):
        if not sustained:
            break
        best = rate
    return best


def longest_gap_ms(
    completion_ms: Iterable[float], start_ms: float, end_ms: float
) -> float:
    """Longest interval between consecutive completions that overlaps
    ``[start_ms, end_ms]`` — time without service.  An outage that
    begins inside the window counts in full even if it ends after it."""
    ordered = sorted(completion_ms)
    longest = 0.0
    for before, after in zip(ordered, ordered[1:]):
        if after > start_ms and before < end_ms:
            longest = max(longest, after - before)
    return longest


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median — the steadiness measure the benchmark contract uses."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else math.inf


def range_spread(values: Sequence[float]) -> float:
    """(max - min) / median of a few repeats."""
    middle = statistics.median(values)
    if not middle:
        return 0.0 if max(values) == min(values) else math.inf
    return (max(values) - min(values)) / abs(middle)


def verdict(
    before: float,
    after: float,
    better: str,
    bound: float,
    resolved: bool = True,
) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for one metric.

    ``worse`` means ``after`` is on the wrong side of ``before`` by more
    than ``bound`` (a share of ``before``); ``better`` is the mirror
    image.  A metric whose repeats spread wider than the noise limit on
    either side cannot be called either way.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if before == after:
        return "same"
    if not resolved:
        return "unresolved"
    slack = abs(before) * bound
    gain = before - after if better == "lower" else after - before
    if gain < -slack:
        return "worse"
    if gain > slack:
        return "better"
    return "same"
