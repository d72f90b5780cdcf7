"""One dark shard, everything else keeps serving.

A network partition is not a crash: the shard keeps its memory and its
ledger, it is simply unreachable from the router.  Each dark window is
a ``partition_chain`` plan event on the shard's own injector, ended by
its ``heal()``.  These tests pin the
routing refusals, the presumed-abort fast path for cross-shard
transactions touching the dark shard, coordinator failover off a dark
ring placement, and the serving target's fail-fast abort of a request
routed at the dark shard.
"""

from __future__ import annotations

import pytest

from repro.errors import FaultInjectionError, TwoPhaseCommitError
from repro.fabric.config import NetworkConfig
from repro.fabric.peer import ValidationCode
from repro.serving.gateway import ServingRequest, ShardedTarget
from repro.sharding import (
    CrossShardWrite,
    ShardedGateway,
    ShardedNetwork,
    TwoPhaseCoordinator,
)
from repro.sharding.crossshard import SHARD_CHAINCODE
from repro.workload.zipf import CounterContract


def _run(coordinator, writes, xid=None):
    """Drive one 2PC transaction to its result."""
    return coordinator.env.run(until=coordinator.execute(writes, xid))


def _deployment(shards=3):
    sharded = ShardedNetwork(
        config=NetworkConfig(
            real_signatures=False,
            batch_timeout_ms=20.0,
            storage_backend="memory",
        ),
        shard_count=shards,
    )
    for network in sharded.shards:
        network.install_chaincode(CounterContract())
    gateway = ShardedGateway(sharded, "client")
    return sharded, gateway


def _key_on(sharded, shard, tag="k"):
    """A routing key whose home is the given shard."""
    for i in range(10_000):
        key = f"{tag}-{i}"
        if sharded.shard_index(key) == shard:
            return key
    raise AssertionError(f"no key found for shard {shard}")


def _record_on(sharded, shard, xid):
    return sharded.shards[shard].query(
        SHARD_CHAINCODE, "get_record", {"xid": xid}
    )


class TestRouting:
    def test_partitioned_shard_refuses_traffic_with_state_intact(self, outage):
        sharded, gateway = _deployment()
        key = _key_on(sharded, 1)
        notice = gateway.invoke(key, "counter", "bump", {"key": key, "amount": 4})
        assert notice.code is ValidationCode.VALID

        injector = outage(sharded.shards[1], "partition_chain")
        assert not sharded.shard_reachable(1)
        assert sharded.per_shard_stats()[1]["reachable"] is False
        with pytest.raises(FaultInjectionError, match="unreachable"):
            gateway.invoke(key, "counter", "bump", {"key": key, "amount": 1})

        # Heal: no recovery dance — the shard never lost anything.
        injector.heal()
        assert sharded.shards[1].reference_peer.last_recovery is None
        assert sharded.shard_reachable(1)
        assert sharded.shards[1].query("counter", "get", {"key": key}) == 4
        post = gateway.invoke(key, "counter", "bump", {"key": key, "amount": 1})
        assert post.code is ValidationCode.VALID
        assert sharded.shards[1].query("counter", "get", {"key": key}) == 5

    def test_live_shards_keep_committing_around_the_dark_one(self, outage):
        sharded, gateway = _deployment()
        outage(sharded.shards[1], "partition_chain")
        for shard in (0, 2):
            key = _key_on(sharded, shard, tag="live")
            notice = gateway.invoke(key, "counter", "bump", {"key": key, "amount": 1})
            assert notice.code is ValidationCode.VALID
        assert not sharded.shard_reachable(1)  # still dark the whole time


class TestCrossShardPresumedAbort:
    def test_transaction_touching_dark_shard_aborts_before_phase_one(self, outage):
        sharded, gateway = _deployment()
        coordinator = TwoPhaseCoordinator(sharded, gateway)
        injector = outage(sharded.shards[1], "partition_chain")

        writes = [
            CrossShardWrite(shard=0, lock_key="pa", payload={"v": 1}),
            CrossShardWrite(shard=1, lock_key="pa", payload={"v": 1}),
        ]
        result = _run(coordinator, writes)

        assert not result.committed
        assert result.refused == [1]
        assert coordinator.stats["presumed_aborts"] == 1
        # No prepare ever flew: the dark shard holds no lock to strand,
        # and the live shard applied nothing.
        assert coordinator.stats["prepares"] == 0
        sharded.verify_atomicity(result)
        assert _record_on(sharded, 0, result.xid) is None
        injector.heal()
        assert _record_on(sharded, 1, result.xid) is None

        # The lock key is free on the live shard: a post-heal retry of
        # the same writes commits cleanly.
        retry = _run(coordinator, writes)
        assert retry.committed
        sharded.verify_atomicity(retry)
        sharded.verify_convergence()

    def test_cross_shard_between_live_shards_unaffected(self, outage):
        sharded, gateway = _deployment()
        coordinator = TwoPhaseCoordinator(sharded, gateway)
        outage(sharded.shards[1], "partition_chain")
        result = _run(
            coordinator,
            [
                CrossShardWrite(shard=0, lock_key="ok", payload={"v": 2}),
                CrossShardWrite(shard=2, lock_key="ok", payload={"v": 2}),
            ],
        )
        assert result.committed
        sharded.verify_atomicity(result)
        assert coordinator.stats["presumed_aborts"] == 0

    def test_coordinator_fails_over_off_a_dark_ring_placement(self, outage):
        sharded, gateway = _deployment()
        coordinator = TwoPhaseCoordinator(sharded, gateway)
        dark = 1
        # An xid whose coordinator records the ring would place on the
        # dark shard.
        xid = next(
            f"xid-{i:08d}"
            for i in range(10_000)
            if sharded.coordinator_shard_for(f"xid-{i:08d}") == dark
        )
        outage(sharded.shards[dark], "partition_chain")
        result = _run(
            coordinator,
            [
                CrossShardWrite(shard=0, lock_key="fo", payload={"v": 3}),
                CrossShardWrite(shard=2, lock_key="fo", payload={"v": 3}),
            ],
            xid=xid,
        )
        assert result.committed
        assert result.coordinator_shard != dark
        assert sharded.shard_reachable(result.coordinator_shard)
        sharded.verify_atomicity(result)

    def test_every_shard_dark_cannot_coordinate(self, outage):
        sharded, gateway = _deployment()
        coordinator = TwoPhaseCoordinator(sharded, gateway)
        for network in sharded.shards:
            outage(network, "partition_chain")
        with pytest.raises(TwoPhaseCommitError, match="no reachable shard"):
            _run(
                coordinator,
                [
                    CrossShardWrite(shard=0, lock_key="x", payload={}),
                    CrossShardWrite(shard=1, lock_key="x", payload={}),
                ],
            )


def _request(index, key):
    return ServingRequest(
        index=index,
        session=0,
        kind="invoke",
        payload={
            "key": key,
            "chaincode": "counter",
            "fn": "bump",
            "args": {"key": key, "amount": 1},
        },
    )


def _dispatch(sharded, target, requests):
    """Dispatch and run until every request completed; the
    ``(outcome, detail)`` pairs in request order."""
    slots = {}

    def complete(request, outcome, detail):
        slots[request.index] = (outcome, detail)

    target.dispatch(requests, complete)
    while len(slots) < len(requests):
        sharded.env.step()
    return [slots[request.index] for request in requests]


class TestShardedTarget:
    def test_dark_shard_fails_fast_at_dispatch_and_commits_once_healed(self, outage):
        sharded, gateway = _deployment()
        target = ShardedTarget(gateway)
        dark_key = _key_on(sharded, 1, tag="dk")
        live_key = _key_on(sharded, 0, tag="lk")
        injector = outage(sharded.shards[1], "partition_chain")

        # The dark shard's request aborts with the routing error; the
        # live shard's request riding in the same batch commits.
        slots = _dispatch(
            sharded, target, [_request(0, dark_key), _request(1, live_key)]
        )
        assert slots[0][0] == "aborted"
        assert isinstance(slots[0][1], FaultInjectionError)
        assert slots[1][0] == "committed"

        # Healed, the same key commits at once: no window to wait out.
        injector.heal()
        slots = _dispatch(sharded, target, [_request(2, dark_key)])
        assert slots[0][0] == "committed"
        assert sharded.shards[1].query("counter", "get", {"key": dark_key}) == 1
