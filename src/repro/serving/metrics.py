"""Run accounting for the open-loop serving tier.

A run's story is four numbers per offered load — p50/p95/p99 latency
and goodput — plus the shed rate and the queue-depth trajectory that
explain them.  Latency is measured from *arrival* at the gateway (not
from dispatch), so time spent queued behind admission control is part
of every percentile; that is what makes the knee visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.sim.monitor import percentile


@dataclass(frozen=True)
class LatencySummary:
    """Percentiles of one run's arrival-to-completion latencies (ms)."""

    count: int
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float

    @classmethod
    def from_values(cls, values: list[float]) -> "LatencySummary":
        if not values:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(values)
        return cls(
            count=len(ordered),
            mean_ms=sum(ordered) / len(ordered),
            p50_ms=percentile(ordered, 0.50),
            p95_ms=percentile(ordered, 0.95),
            p99_ms=percentile(ordered, 0.99),
            max_ms=ordered[-1],
        )


@dataclass(frozen=True)
class RunMetrics:
    """One open-loop run reduced to the numbers the knee curve plots."""

    #: Requests presented to the gateway (admitted + shed).
    offered: int
    #: Requests that reached a terminal outcome at the target.
    completed: int
    committed: int
    aborted: int
    shed: int
    #: First arrival to last terminal event, simulated ms.
    duration_ms: float
    #: The generator's configured arrival rate (requests/s), if known.
    offered_tps: float
    #: Committed requests per simulated second.
    goodput_tps: float
    shed_rate: float
    latency: LatencySummary
    #: High-water mark of gateway queue + orderer queue during the run.
    queue_depth_peak: int
    #: ``(time_ms, gateway_queue, target_queue)`` samples.
    queue_depth_series: tuple[tuple[float, int, int], ...]

    def as_row(self) -> dict[str, Any]:
        """Flat dict for report tables and ``BENCH_micro.json`` rows."""
        return {
            "offered_tps": round(self.offered_tps, 1),
            "goodput_tps": round(self.goodput_tps, 1),
            "p50_ms": round(self.latency.p50_ms, 1),
            "p95_ms": round(self.latency.p95_ms, 1),
            "p99_ms": round(self.latency.p99_ms, 1),
            "max_ms": round(self.latency.max_ms, 1),
            "shed_pct": round(self.shed_rate * 100.0, 1),
            "committed": self.committed,
            "aborted": self.aborted,
            "shed": self.shed,
            "queue_peak": self.queue_depth_peak,
        }


class ServingMetrics:
    """Mutable per-run accumulator the gateway records into."""

    def __init__(self) -> None:
        self.offered = 0
        self.shed = 0
        self.committed = 0
        self.aborted = 0
        self.latencies_ms: list[float] = []
        self.first_arrival_ms: float | None = None
        self.last_event_ms: float = 0.0
        self.queue_depth_peak = 0
        self.queue_series: list[tuple[float, int, int]] = []

    def _touch(self, now_ms: float) -> None:
        if self.first_arrival_ms is None:
            self.first_arrival_ms = now_ms
        if now_ms > self.last_event_ms:
            self.last_event_ms = now_ms

    def record_arrival(self, now_ms: float) -> None:
        self.offered += 1
        self._touch(now_ms)

    def record_shed(self, now_ms: float) -> None:
        self.shed += 1
        self._touch(now_ms)

    def record_completion(
        self, arrival_ms: float, now_ms: float, committed: bool
    ) -> None:
        self.latencies_ms.append(now_ms - arrival_ms)
        if committed:
            self.committed += 1
        else:
            self.aborted += 1
        self._touch(now_ms)

    def sample_queue(
        self, now_ms: float, gateway_depth: int, target_depth: int
    ) -> None:
        self.queue_series.append((now_ms, gateway_depth, target_depth))
        total = gateway_depth + target_depth
        if total > self.queue_depth_peak:
            self.queue_depth_peak = total

    def finalize(self, offered_tps: float = 0.0) -> RunMetrics:
        start = self.first_arrival_ms or 0.0
        duration_ms = max(self.last_event_ms - start, 1e-9)
        completed = self.committed + self.aborted
        return RunMetrics(
            offered=self.offered,
            completed=completed,
            committed=self.committed,
            aborted=self.aborted,
            shed=self.shed,
            duration_ms=duration_ms,
            offered_tps=offered_tps,
            goodput_tps=self.committed / (duration_ms / 1000.0),
            shed_rate=(self.shed / self.offered) if self.offered else 0.0,
            latency=LatencySummary.from_values(self.latencies_ms),
            queue_depth_peak=self.queue_depth_peak,
            queue_depth_series=tuple(self.queue_series),
        )
