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

Results are written to ``BENCH_serving.json`` at the repo root.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_serving_microbench.py -v -s
"""

from __future__ import annotations

import itertools
import json
import random
import secrets as secrets_module
from pathlib import Path

import pytest

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.ledger import transaction as transaction_module
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

_RESULTS: dict[str, dict] = {}
_BENCH_JSON = Path(__file__).resolve().parents[1] / "BENCH_serving.json"

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


@pytest.fixture
def rearm(monkeypatch):
    """Identical randomness and tid sequence for every leg (see the
    commit-backend differential suite for the pattern)."""

    def arm():
        rng = random.Random(0x1EDE9)
        monkeypatch.setattr(
            secrets_module, "token_bytes", lambda n=32: rng.randbytes(n)
        )
        monkeypatch.setattr(secrets_module, "randbits", rng.getrandbits)
        monkeypatch.setattr(secrets_module, "randbelow", lambda n: rng.randrange(n))
        monkeypatch.setattr(
            transaction_module, "_tid_counter", itertools.count(7_000_000)
        )

    return arm


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


def test_knee_curve_reference_backend(rearm):
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

    _RESULTS["knee_reference"] = {
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
    }


def test_occ_backend_lifts_goodput_under_contention(rearm):
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
    _RESULTS["occ_contention"] = {
        "offered_tps": offered,
        "conflict_rate": 1.0,
        "reference": reference,
        "occ": occ,
        "goodput_lift": round(
            occ["goodput_tps"] / reference["goodput_tps"], 2
        ),
    }


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


def test_sharding_scales_saturated_goodput(rearm):
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
    _RESULTS["shard_scale_out"] = {
        "offered_tps": offered,
        "one_shard": one,
        "four_shards": four,
        "goodput_ratio": round(four["goodput_tps"] / one["goodput_tps"], 2),
    }


def test_write_bench_json():
    """Persist the numbers gathered above (runs last in file order)."""
    assert _RESULTS, "no benchmark results collected"
    payload = {
        "description": (
            "serving-tier open-loop bench: Poisson arrivals through the "
            "serving gateway (micro-batches + admission control), latency "
            "measured from arrival"
        ),
        "machine_note": (
            "all latency/goodput numbers are simulated-time, so they are "
            "machine-independent; the knee is the acceptance shape — p99 "
            "past saturation is bounded by the shed watermark while "
            "goodput stays at saturated-pipeline capacity."
        ),
        "results": _RESULTS,
    }
    _BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {_BENCH_JSON}")
