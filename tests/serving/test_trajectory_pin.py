"""Open-loop serving trajectories pinned across changes to the bridge.

Three seeded :func:`run_open_loop` runs — a plain channel driven past
the knee with a watermark tight enough to shed, a view-manager mix with
grants, revokes and audits, and a sharded deployment with one shard
dark for part of the run — each reduced to the clock, the number of
events the kernel scheduled, the size of every micro-batch the gateway
dispatched (what ``gateway.batch_sizes`` holds; recorded at the target
because ``run_open_loop`` keeps its gateway), the queue-depth series,
and every request's outcome and arrived/dispatched/completed stamps.

How the session and drain coroutines are scheduled against the kernel
must not show in any of them: same events, same order, same clock.

Every backend selector is pinned in the config, so the digests hold
under any ambient ``REPRO_*`` variable; transaction ids are fixed-width
and no encoded size depends on random key material.

``PYTHONPATH=src python tests/serving/test_trajectory_pin.py --regen``
prints freshly computed digests (and the observables behind them); the
values below were generated at fcf10750d465e22c2109d2cde18cd42847ab235f,
where the coroutines still ran on an asyncio event loop.
"""

from __future__ import annotations

import hashlib
import json
import sys

import pytest

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.serving import (
    AdmissionConfig,
    NetworkTarget,
    OpenLoopConfig,
    ServingMix,
    ShardedTarget,
    ViewManagerTarget,
    counter_builder,
    run_open_loop,
    view_mix_builder,
)
from repro.sharding import ShardedGateway, ShardedNetwork
from repro.views.hash_based import HashBasedManager
from repro.views.predicates import AttributeEquals
from repro.views.types import ViewMode
from repro.workload.zipf import CounterContract

PINNED = {
    "knee": "343309e3e31f81c3848be7726a269345987dffbd642bf52f5ceb7ec7ecf21f72",
    "view_mix": "aa7d3a11d69e6168799ee1af7f3864a6e9eac03369288b47a9e3eb85d913c68d",
    "dark_shard": "bca61c5362a1c0caaa6701dcb409d528213008985f7541d796b549efce4260b3",
}


def _config(**overrides) -> NetworkConfig:
    settings = dict(
        latency=SINGLE_REGION,
        real_signatures=False,
        key_bits=512,
        batch_timeout_ms=15.0,
        commit_backend="reference",
        orderer_backend="raft",
        storage_backend="none",
        fault_plan="off",
    )
    settings.update(overrides)
    return NetworkConfig(**settings)


def _observe(target, config, builder, admission) -> dict:
    """One open-loop run, reduced to what the scheduler must not move."""
    batch_sizes: list[int] = []
    dispatch = target.dispatch

    def recording_dispatch(batch):
        batch_sizes.append(len(batch))
        return dispatch(batch)

    target.dispatch = recording_dispatch
    metrics, requests = run_open_loop(target, config, builder, admission=admission)
    env = target.env
    return {
        "now": env.now,
        "events_scheduled": env._sequence,
        "batch_sizes": batch_sizes,
        "queue_series": [list(sample) for sample in metrics.queue_depth_series],
        "requests": [
            [r.index, r.outcome, r.arrived_ms, r.dispatched_ms, r.completed_ms]
            for r in requests
        ],
    }


def _knee() -> dict:
    """600 counter bumps at 1600 tps over 8 sessions into one channel
    that commits a few hundred a second: the watermark sheds."""
    network = build_network(_config())
    network.install_chaincode(CounterContract())
    target = NetworkTarget(network, network.register_user("client"))
    return _observe(
        target,
        OpenLoopConfig(offered_tps=1600.0, requests=600, sessions=8, seed=11),
        counter_builder(),
        AdmissionConfig(
            max_inflight=48, shed_high=96, shed_low=64, max_batch=16, linger_ms=2.0
        ),
    )


def _view_mix() -> dict:
    """Writes, grants, revokes and audits on a hash-revocable view."""
    network = build_network(_config())
    owner = network.register_user("owner")
    principals = ["alice", "bob", "carol", "dave"]
    for principal in principals:
        network.register_user(principal)
    manager = HashBasedManager(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "M"), ViewMode.REVOCABLE)
    return _observe(
        ViewManagerTarget(manager),
        OpenLoopConfig(
            offered_tps=300.0,
            requests=240,
            sessions=6,
            seed=21,
            mix=ServingMix(invoke=0.55, grant=0.2, revoke=0.1, audit=0.15),
        ),
        view_mix_builder("w1", principals),
        AdmissionConfig(
            max_inflight=32, shed_high=400, shed_low=300, max_batch=8, linger_ms=2.0
        ),
    )


def _dark_shard() -> dict:
    """Three shards, the middle one partitioned from 60 ms to 220 ms:
    requests routed to it abort alone, the rest of each batch commits."""
    sharded = ShardedNetwork(config=_config(), shard_count=3)
    for network in sharded.shards:
        network.install_chaincode(CounterContract())
    env = sharded.env
    env.timeout(60.0).callbacks.append(lambda _: sharded.partition_shard(1))
    env.timeout(220.0).callbacks.append(lambda _: sharded.heal_shard_partition(1))
    observed = _observe(
        ShardedTarget(ShardedGateway(sharded, "client")),
        OpenLoopConfig(offered_tps=900.0, requests=360, sessions=8, seed=5),
        counter_builder(),
        AdmissionConfig(
            max_inflight=64, shed_high=160, shed_low=96, max_batch=16, linger_ms=2.0
        ),
    )
    observed["heights"] = [
        network.reference_peer.chain.height for network in sharded.shards
    ]
    return observed


SCENARIOS = {
    "knee": _knee,
    "view_mix": _view_mix,
    "dark_shard": _dark_shard,
}


def _digest(observed: dict) -> str:
    canonical = json.dumps(observed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _outcomes(observed: dict) -> dict[str, int]:
    counts: dict[str, int] = {}
    for _index, outcome, *_stamps in observed["requests"]:
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_serving_trajectory_matches_the_pinned_digest(name):
    observed = SCENARIOS[name]()
    outcomes = _outcomes(observed)
    # The scenario went through what it names, not around it.
    assert outcomes.get("committed", 0) > 0
    if name == "knee":
        assert outcomes.get("shed", 0) > 0
    else:
        assert outcomes.get("aborted", 0) > 0
    dispatched = sum(
        1 for _i, _o, _arrived, dispatched, _c in observed["requests"]
        if dispatched is not None
    )
    assert sum(observed["batch_sizes"]) == dispatched
    assert _digest(observed) == PINNED[name], json.dumps(_summary(observed))


def _summary(observed: dict) -> dict:
    """The observables without the per-request rows (failure message)."""
    return {
        "now": observed["now"],
        "events_scheduled": observed["events_scheduled"],
        "batches": len(observed["batch_sizes"]),
        "outcomes": _outcomes(observed),
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_trajectory_pin.py --regen")
    for scenario, run in SCENARIOS.items():
        result = run()
        print(f'    "{scenario}": "{_digest(result)}",')
        print(json.dumps(_summary(result), sort_keys=True), file=sys.stderr)
