"""Open-loop serving tier in front of the simulated network.

Everything the benchmarks measured before this package was *closed
loop*: clients blocked inside the simulation kernel, so throughput was
sampled at zero queueing and latency never showed the knee an
overloaded deployment lives on.  This package adds the missing ingress:

- :mod:`repro.serving.bridge` runs coroutines on the discrete-event
  kernel itself, so client sessions are ordinary ``async def`` code
  while time stays simulated and deterministic;
- :mod:`repro.serving.gateway` accepts concurrent pipelined sessions,
  coalesces submissions into adaptive micro-batches, and applies
  admission control (bounded inflight + orderer-queue watermark with
  hysteresis) that sheds or delays load instead of collapsing;
- :mod:`repro.serving.loadgen` generates seeded Poisson arrivals with
  configurable operation mixes, measuring latency from *arrival*, and
  is the one place that drives a gateway (:func:`drive`);
- :mod:`repro.serving.metrics` reduces a run to latency percentiles,
  goodput, shed rate, and queue-depth series.

Under partition the tier fails fast: a :class:`ShardedTarget` aborts a
request routed at a dark shard at dispatch, and the one place that
sheds is admission control.
"""

from repro.serving.bridge import SimBridge
from repro.serving.gateway import (
    AdmissionConfig,
    AsyncGateway,
    NetworkTarget,
    ServingRequest,
    ShardedTarget,
    ViewManagerTarget,
)
from repro.serving.loadgen import (
    OpenLoopConfig,
    PoissonLoadGenerator,
    ServingMix,
    counter_builder,
    drive,
    run_open_loop,
    view_mix_builder,
)
from repro.serving.metrics import LatencySummary, RunMetrics, ServingMetrics

__all__ = [
    "AdmissionConfig",
    "AsyncGateway",
    "LatencySummary",
    "NetworkTarget",
    "OpenLoopConfig",
    "PoissonLoadGenerator",
    "RunMetrics",
    "ServingMetrics",
    "ServingMix",
    "ServingRequest",
    "ShardedTarget",
    "SimBridge",
    "ViewManagerTarget",
    "counter_builder",
    "drive",
    "run_open_loop",
    "view_mix_builder",
]
