"""Partition microbenchmark: degrade, don't collapse.

**Goodput under a dark shard** — an open-loop counter workload over
four shards while one shard is partitioned for ~30% of the run (a
``partition_chain`` plan event on that shard's injector).
Goodput must stay above zero in *every* time bucket of the partition
window: traffic to the three live shards keeps committing while the
dark shard's requests fail fast, aborted at dispatch by the
:class:`~repro.serving.ShardedTarget`'s routing refusal.  The run is in
simulated time, deterministic in the seed.

Results are recorded under ``partitions`` in ``BENCH_micro.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_partition_microbench.py -v -s
"""

from __future__ import annotations

from repro.fabric.config import NetworkConfig
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.serving import AdmissionConfig, OpenLoopConfig, ShardedTarget
from repro.serving.loadgen import counter_builder, run_open_loop
from repro.sharding import ShardedGateway, ShardedNetwork
from repro.workload.zipf import CounterContract

#: Describes this file's rows in ``BENCH_micro.json``.
_DESCRIPTION = (
    "goodput with one dark shard whose requests abort at dispatch; "
    "simulated time"
)

SEED = 31

ADMISSION = AdmissionConfig(
    max_inflight=64, shed_high=512, shed_low=256, max_batch=8, linger_ms=2.0
)

OFFERED_TPS = 300.0
REQUESTS = 600
#: The dark window: ~[600, 1300) ms of a ~2000 ms run (~30-35%).
DARK_AT_MS = 600.0
DARK_FOR_MS = 700.0
BUCKET_MS = 250.0


def _run_goodput_leg(darken: bool):
    sharded = ShardedNetwork(
        config=NetworkConfig(
            real_signatures=False,
            batch_timeout_ms=20.0,
            storage_backend="memory",
        ),
        shard_count=4,
    )
    for network in sharded.shards:
        network.install_chaincode(CounterContract())
    gateway = ShardedGateway(sharded, "bencher")
    target = ShardedTarget(gateway)
    if darken:
        dark = FaultEvent("partition_chain", at_ms=DARK_AT_MS, for_ms=DARK_FOR_MS)
        FaultInjector(sharded.shards[1], FaultPlan(retry=None, events=(dark,)))

    metrics, requests = run_open_loop(
        target,
        OpenLoopConfig(
            offered_tps=OFFERED_TPS, requests=REQUESTS, sessions=8, seed=SEED
        ),
        counter_builder(seed=SEED),
        admission=ADMISSION,
    )
    committed_at = sorted(
        r.completed_ms for r in requests if r.outcome == "committed"
    )
    return metrics.as_row(), committed_at


def _bucket_counts(committed_at, start, end, width):
    buckets = []
    t = start
    while t < end:
        buckets.append(
            sum(1 for at in committed_at if t <= at < t + width)
        )
        t += width
    return buckets


def test_goodput_survives_a_dark_shard(record):
    clean_row, _clean_at = _run_goodput_leg(darken=False)
    dark_row, committed_at = _run_goodput_leg(darken=True)

    # Commits landed in every bucket of the partition window: the
    # serving tier degraded (one shard's keys failing fast) instead of
    # stalling.
    window_buckets = _bucket_counts(
        committed_at, DARK_AT_MS, DARK_AT_MS + DARK_FOR_MS, BUCKET_MS
    )
    assert all(count > 0 for count in window_buckets), (
        f"goodput hit zero inside the partition window: {window_buckets}"
    )
    assert dark_row["goodput_tps"] > 0
    # Roughly one shard in four went dark for a third of the run; the
    # losses must stay in that ballpark, not cascade.
    assert dark_row["committed"] >= 0.7 * clean_row["committed"]

    record("partitions", _DESCRIPTION, {"goodput_dark_shard": {
        "offered_tps": OFFERED_TPS,
        "requests": REQUESTS,
        "shards": 4,
        "dark_shard": 1,
        "dark_window_ms": [DARK_AT_MS, DARK_AT_MS + DARK_FOR_MS],
        "bucket_ms": BUCKET_MS,
        "partition_window_commits_per_bucket": window_buckets,
        "min_commits_in_window_bucket": min(window_buckets),
        "clean": clean_row,
        "dark": dark_row,
    }})
