"""Serving-tier microbenchmarks: the open-loop knee curve.

A seeded Poisson stream of counter bumps flows through the serving
gateway (micro-batches + admission control) into the simulated network,
whose channel cuts blocks by group commit once the target is bound;
latency is measured from *arrival*, so queueing is part of every
percentile.  The acceptance shape is the knee: offered loads up to 400
tps commit with p99 within 3x of the 25 tps floor and zero shedding,
while deep overload sheds the excess — p99 stays bounded by the shed
watermark (instead of growing without bound) and goodput holds at the
saturated pipeline's capacity rather than collapsing.

Cross-cutting legs ride along:

- the **occ commit backend** under hot-key contention turns the
  reference backend's MVCC aborts into rebased commits — higher goodput
  on the same offered load;
- **1 vs 4 shards** through the key-routed sharded target scales the
  saturated goodput out.

Results are recorded under ``serving`` in ``BENCH_micro.json``.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_serving_microbench.py -v -s
"""

from __future__ import annotations

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.serving import (
    AdmissionConfig,
    NetworkTarget,
    OpenLoopConfig,
    ShardedTarget,
    counter_builder,
    run_open_loop,
)
from repro.sharding.network import ShardedGateway, ShardedNetwork
from repro.workload.zipf import CounterContract

#: Describes this file's rows in ``BENCH_micro.json``.
_DESCRIPTION = (
    "open-loop Poisson arrivals through the serving gateway, latency from "
    "arrival: the knee, occ under contention, shard scale-out; simulated time"
)

#: The offered-load sweep (requests/s): three legs under single-channel
#: capacity, three past it.  Overload legs run longer so the shedding
#: steady state dominates the drain tail.
LOAD_SWEEP = (25.0, 100.0, 400.0, 1600.0, 3200.0, 6400.0)
REQUESTS_LOW = 600
REQUESTS_OVERLOAD = 2400
OVERLOAD_FROM = 1600.0

#: Acceptance floors: p99 past the knee vs the lowest load, and how
#: close the deepest-overload goodput must stay to the sweep's peak.
KNEE_P99_FACTOR = 5.0
NO_COLLAPSE_FRACTION = 0.9
#: Below the knee (ROADMAP item 1): a channel behind a serving target
#: cuts blocks by group commit, so up to 400 tps nothing is shed and
#: p99 stays within this factor of the 25 tps floor.
FLAT_UP_TO_TPS = 400.0
FLAT_P99_FACTOR = 3.0
#: What group commit costs at deep overload: the committer idles for
#: consensus + delivery between blocks, so the 6400 tps leg commits 603
#: tps where the timer cutter's full, back-to-back blocks reached 633.9
#: (the 1600 and 3200 tps legs rose, 440 -> 594 and 553 -> 600).  The
#: floor keeps that loss within 5 %; ROADMAP item 1c has 633.9 to beat.
TIMER_SATURATED_GOODPUT_TPS = 633.9
SATURATED_GOODPUT_FRACTION = 0.95

ADMISSION = AdmissionConfig(
    max_inflight=128,
    shed_high=384,
    shed_low=336,
    max_batch=32,
    linger_ms=2.0,
)

SESSIONS = 8
SEED = 11


def _config(**overrides):
    params = dict(
        latency=SINGLE_REGION,
        real_signatures=False,
        batch_timeout_ms=15.0,
    )
    params.update(overrides)
    return NetworkConfig(**params)


def _requests_for(offered):
    return REQUESTS_OVERLOAD if offered >= OVERLOAD_FROM else REQUESTS_LOW


def _run_leg(offered, config=None, conflict_rate=0.0, requests=None):
    """One offered-load point against a fresh single channel."""
    network = build_network(config or _config())
    network.install_chaincode(CounterContract())
    target = NetworkTarget(network, network.register_user("bencher"))
    metrics, _ = run_open_loop(
        target,
        OpenLoopConfig(
            offered_tps=offered,
            requests=requests or _requests_for(offered),
            sessions=SESSIONS,
            seed=SEED,
        ),
        counter_builder(conflict_rate=conflict_rate),
        admission=ADMISSION,
    )
    return metrics.as_row(), network


def _sweep(config=None):
    rows = []
    for offered in LOAD_SWEEP:
        row, _network = _run_leg(offered, config=config)
        rows.append(row)
    return rows


def test_knee_curve_reference_backend(rearm, record):
    """The acceptance bench: >=5 load points, p99 knee, no collapse."""
    rearm()
    rows = _sweep()
    assert len(rows) >= 5
    for row in rows:
        for key in ("p50_ms", "p95_ms", "p99_ms", "goodput_tps"):
            assert key in row

    low = rows[0]
    shedding = [r for r in rows if r["shed_pct"] > 0]
    settled = [r for r in rows if r["shed_pct"] == 0]
    assert low in settled and len(shedding) >= 2

    # No hump on the way to the knee: the timer cutter used to put the
    # 100 and 400 tps legs at ~15x the floor with a committer queue.
    for row in rows:
        if row["offered_tps"] <= FLAT_UP_TO_TPS:
            assert row["shed"] == 0 and row["aborted"] == 0, row
            assert row["p99_ms"] <= FLAT_P99_FACTOR * low["p99_ms"], (
                f"p99 {row['p99_ms']} at {row['offered_tps']} tps is over "
                f"{FLAT_P99_FACTOR}x the floor {low['p99_ms']}"
            )

    # The knee: past saturation p99 is many times the uncontended p99 —
    # but *bounded* by the shed watermark, not growing with offered load.
    for row in shedding:
        assert row["p99_ms"] >= KNEE_P99_FACTOR * low["p99_ms"], (
            f"no knee: p99 {row['p99_ms']} at {row['offered_tps']} tps vs "
            f"{low['p99_ms']} at {low['offered_tps']} tps"
        )

    # No goodput collapse under deep overload: the most-overloaded leg
    # stays within 10% of the sweep's best goodput.
    peak = max(r["goodput_tps"] for r in rows)
    deepest = rows[-1]
    assert deepest["goodput_tps"] >= NO_COLLAPSE_FRACTION * peak, (
        f"goodput collapsed: {deepest['goodput_tps']} at "
        f"{deepest['offered_tps']} tps vs peak {peak}"
    )

    floor = SATURATED_GOODPUT_FRACTION * TIMER_SATURATED_GOODPUT_TPS
    assert deepest["goodput_tps"] >= floor, (
        f"saturated goodput {deepest['goodput_tps']} tps at "
        f"{deepest['offered_tps']} tps fell under {floor:.1f}"
    )

    record("serving", _DESCRIPTION, {"knee_reference": {
        "sweep": rows,
        "admission": {
            "max_inflight": ADMISSION.max_inflight,
            "shed_high": ADMISSION.shed_high,
            "shed_low": ADMISSION.shed_low,
            "max_batch": ADMISSION.max_batch,
            "linger_ms": ADMISSION.linger_ms,
        },
        "p99_knee_factor_observed": round(
            min(r["p99_ms"] for r in shedding) / low["p99_ms"], 2
        ),
        "min_required": KNEE_P99_FACTOR,
        "p99_below_knee_factor_observed": round(
            max(
                r["p99_ms"] for r in rows if r["offered_tps"] <= FLAT_UP_TO_TPS
            )
            / low["p99_ms"],
            2,
        ),
        "max_allowed_below_knee": FLAT_P99_FACTOR,
        "saturated_goodput_tps": deepest["goodput_tps"],
        "saturated_goodput_floor_tps": round(floor, 1),
        "saturated_goodput_timer_cutter_tps": TIMER_SATURATED_GOODPUT_TPS,
    }})


def test_occ_backend_lifts_goodput_under_contention(rearm, record):
    """Hot-key contention through the gateway: the occ commit backend
    rebases the reference backend's MVCC losers into commits."""
    offered = 400.0
    rearm()
    reference, _ = _run_leg(
        offered,
        config=_config(commit_backend="reference"),
        conflict_rate=1.0,
        requests=REQUESTS_LOW,
    )
    rearm()
    occ, _ = _run_leg(
        offered,
        config=_config(commit_backend="occ"),
        conflict_rate=1.0,
        requests=REQUESTS_LOW,
    )
    assert reference["aborted"] > 0
    assert occ["aborted"] == 0
    assert occ["goodput_tps"] > reference["goodput_tps"]
    record("serving", _DESCRIPTION, {"occ_contention": {
        "offered_tps": offered,
        "conflict_rate": 1.0,
        "reference": reference,
        "occ": occ,
        "goodput_lift": round(
            occ["goodput_tps"] / reference["goodput_tps"], 2
        ),
    }})


def _run_sharded_leg(offered, shard_count, requests):
    sharded = ShardedNetwork(config=_config(), shard_count=shard_count)
    for network in sharded.shards:
        network.install_chaincode(CounterContract())
    gateway = ShardedGateway(sharded, "bencher")
    target = ShardedTarget(gateway)
    metrics, _ = run_open_loop(
        target,
        OpenLoopConfig(
            offered_tps=offered, requests=requests, sessions=SESSIONS, seed=SEED
        ),
        counter_builder(),
        admission=ADMISSION,
    )
    return metrics.as_row()


def test_sharding_scales_saturated_goodput(rearm, record):
    """1 vs 4 shards at deep overload: the key-routed deployment
    commits more per simulated second through the same gateway."""
    offered, requests = 3200.0, REQUESTS_OVERLOAD
    rearm()
    one = _run_sharded_leg(offered, 1, requests)
    rearm()
    four = _run_sharded_leg(offered, 4, requests)
    assert four["goodput_tps"] > 1.5 * one["goodput_tps"], (
        f"sharding did not scale: {one['goodput_tps']} -> "
        f"{four['goodput_tps']} goodput at {offered} tps"
    )
    record("serving", _DESCRIPTION, {"shard_scale_out": {
        "offered_tps": offered,
        "one_shard": one,
        "four_shards": four,
        "goodput_ratio": round(four["goodput_tps"] / one["goodput_tps"], 2),
    }})
