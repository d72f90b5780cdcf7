"""Open-loop serving trajectories pinned across changes to the tier.

Three seeded :func:`run_open_loop` runs — a plain channel driven past
the knee with a watermark tight enough to shed, a view-manager mix with
grants, revokes and audits, and a sharded deployment with one shard
dark for part of the run — each under both block-cutting policies and
reduced to the clock, the number of events the kernel scheduled, the
size of every micro-batch the gateway dispatched (what
``gateway.batch_sizes`` holds; recorded at the target because
``run_open_loop`` keeps its gateway), the queue-depth series, and every
request's outcome and arrived/dispatched/completed stamps.

How the session and drain coroutines are scheduled against the kernel
must not show in any of them: same events, same order, same clock.

Each run is compared field by field with
``serving.<policy>.<name>`` of ``benchmarks/pins_expected.json``.
Every backend selector is pinned in the config, so the values hold
under any ambient ``REPRO_*`` variable; transaction ids are fixed-width
and no encoded size depends on random key material.

History of the pinned values.  The "timer" values were first recorded
where the coroutines still ran on an asyncio event loop and a
micro-batch had one terminal event.  They held unchanged with the timer
put back behind the bound target once the group cutter existed
(checked on a build with the cutter and without per-request
completion), and were regenerated once, for per-request completion:
``knee`` moved only in ``events_scheduled`` (4197 -> 4122) and the
queue-depth series (a sample per completed request, not per batch) —
no request stamp, batch size or the clock; ``view_mix`` (audits are
terminal at dispatch, grants on their own notice) and ``dark_shard``
(a request routed at the dark shard aborts at dispatch and frees its
inflight slot at once) moved in batch sizes, stamps and the clock too.
The "group" values were recorded with them.  The dark window became a
``partition_chain`` plan event on shard 1's own injector, and
``dark_shard`` moved in ``events_scheduled`` alone (timer 5180 -> 5216,
group 5265 -> 5267): +2 under both cutters for the plan's event process
(its start and end events beside the two timeouts that replaced two
bare timer callbacks), and +34 more under the timer cutter because an
injector's link is not FIFO, so a block that lands while its
predecessor is still in commit service first replays that predecessor
from the block log (a CPU request that finds it committed).  No stamp,
batch size, queue sample or the clock moved.
"""

from __future__ import annotations

import pytest

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.faults import FaultEvent, FaultInjector, FaultPlan
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

def _config() -> NetworkConfig:
    return NetworkConfig(
        latency=SINGLE_REGION,
        real_signatures=False,
        key_bits=512,
        batch_timeout_ms=15.0,
        commit_backend="reference",
        orderer_backend="raft",
        storage_backend="none",
        fault_plan="off",
    )


def _cut_by(cut_policy: str, *networks) -> None:
    """Binding the target moved ``networks`` to group commit; "timer"
    puts the paper's cutter back so both stay pinned."""
    for network in networks:
        assert network.cut_policy == "group"
        network.cut_policy = cut_policy


def _observe(target, config, builder, admission) -> dict:
    """One open-loop run, reduced to what the scheduler must not move."""
    batch_sizes: list[int] = []
    dispatch = target.dispatch

    def recording_dispatch(batch, complete):
        batch_sizes.append(len(batch))
        dispatch(batch, complete)

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


def _knee(cut_policy: str) -> dict:
    """600 counter bumps at 1600 tps over 8 sessions into one channel
    that commits a few hundred a second: the watermark sheds."""
    network = build_network(_config())
    network.install_chaincode(CounterContract())
    target = NetworkTarget(network, network.register_user("client"))
    _cut_by(cut_policy, network)
    return _observe(
        target,
        OpenLoopConfig(offered_tps=1600.0, requests=600, sessions=8, seed=11),
        counter_builder(),
        AdmissionConfig(
            max_inflight=48, shed_high=96, shed_low=64, max_batch=16, linger_ms=2.0
        ),
    )


def _view_mix(cut_policy: str) -> dict:
    """Writes, grants, revokes and audits on a hash-revocable view."""
    network = build_network(_config())
    owner = network.register_user("owner")
    principals = ["alice", "bob", "carol", "dave"]
    for principal in principals:
        network.register_user(principal)
    manager = HashBasedManager(Gateway(network, owner))
    # Bound before the view's set-up transaction: one policy per run.
    target = ViewManagerTarget(manager)
    _cut_by(cut_policy, network)
    manager.create_view("w1", AttributeEquals("to", "M"), ViewMode.REVOCABLE)
    return _observe(
        target,
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


def _dark_shard(cut_policy: str) -> dict:
    """Three shards, the middle one partitioned from 60 ms to 220 ms:
    requests routed to it abort alone, the rest of each batch commits."""
    sharded = ShardedNetwork(config=_config(), shard_count=3)
    for network in sharded.shards:
        network.install_chaincode(CounterContract())
    target = ShardedTarget(ShardedGateway(sharded, "client"))
    _cut_by(cut_policy, *sharded.shards)
    dark = FaultEvent("partition_chain", at_ms=60.0, for_ms=160.0)
    FaultInjector(sharded.shards[1], FaultPlan(retry=None, events=(dark,)))
    observed = _observe(
        target,
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


def _outcomes(observed: dict) -> dict[str, int]:
    counts: dict[str, int] = {}
    for _index, outcome, *_stamps in observed["requests"]:
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def _check_pinned(drift, name: str, cut_policy: str) -> None:
    observed = SCENARIOS[name](cut_policy)
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
    lines = drift.pin_diff(observed, "serving", cut_policy, name)
    assert not lines, "\n".join(lines)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_serving_trajectory_matches_the_pinned_digest(name, drift):
    """The paper's timer cutter, put back behind the bound target."""
    _check_pinned(drift, name, "timer")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_serving_trajectory_under_group_commit_matches_the_pinned_digest(name, drift):
    _check_pinned(drift, name, "group")
