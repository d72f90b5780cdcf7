"""Cross-shard 2PC driver: atomicity, locks, and crash recovery."""

from collections import Counter

import pytest

from repro.errors import TwoPhaseCommitError
from repro.fabric.config import NetworkConfig
from repro.sharding import (
    COORDINATOR_CHAINCODE,
    SHARD_CHAINCODE,
    CrossShardWrite,
    ShardedGateway,
    ShardedNetwork,
    TwoPhaseCoordinator,
)


def _run(coordinator, writes, xid=None):
    """Drive one 2PC transaction to its result."""
    return coordinator.env.run(until=coordinator.execute(writes, xid))


def _deployment(shards=3, storage="memory"):
    sharded = ShardedNetwork(
        config=NetworkConfig(
            real_signatures=False,
            batch_timeout_ms=20.0,
            storage_backend=storage,
        ),
        shard_count=shards,
    )
    gateway = ShardedGateway(sharded, "coordinator-client")
    return sharded, gateway, TwoPhaseCoordinator(sharded, gateway)


def _writes(shards=(0, 1), lock="item-1", payload=None):
    return [
        CrossShardWrite(shard=s, lock_key=lock, payload=payload or {"s": s})
        for s in shards
    ]


def _record_on(sharded, shard, xid):
    return sharded.shards[shard].query(
        SHARD_CHAINCODE, "get_record", {"xid": xid}
    )


class TestHappyPath:
    def test_commit_materialises_on_all_shards(self):
        sharded, _gw, co = _deployment()
        result = _run(co, _writes((0, 2), payload={"v": 7}))
        assert result.committed
        sharded.verify_atomicity(result)
        for shard in (0, 2):
            assert _record_on(sharded, shard, result.xid) == {"v": 7}
        # Untouched shard holds nothing.
        assert _record_on(sharded, 1, result.xid) is None
        # Journal compacted after the done marker.
        assert co.log.pending() == {}

    def test_coordinator_record_auditable_on_chain(self):
        sharded, gw, co = _deployment()
        result = _run(co, _writes((0, 1)))
        status = sharded.shards[result.coordinator_shard].query(
            COORDINATOR_CHAINCODE,
            "status",
            {"xid": result.xid},
            creator=gw.user_id,
        )
        assert status["state"] == "committed"

    def test_coordinator_chain_carries_begin_and_decide_only(self):
        """The sharded 2PC relays no votes: a committed transaction puts
        one ``begin`` and one ``decide`` on its coordinator chain and no
        ``record_vote``."""
        sharded, _gw, co = _deployment()
        result = _run(co, _writes((0, 2)))
        assert result.committed
        chain = sharded.shards[result.coordinator_shard].reference_peer.chain
        fns = Counter(
            tx.nonsecret["fn"]
            for tx in chain.transactions()
            if tx.nonsecret.get("cc") == COORDINATOR_CHAINCODE
        )
        assert fns == {"begin": 1, "decide": 1}

    def test_one_shard_deployment_coordinates_on_its_only_chain(self):
        sharded, _gw, co = _deployment(shards=1)
        result = _run(co, _writes((0,), payload={"v": 1}))
        assert result.committed and result.coordinator_shard == 0
        assert _record_on(sharded, 0, result.xid) == {"v": 1}
        assert sharded.cross_shard_stats() == {"begun": 1, "committed": 1, "aborted": 0}

    def test_coordinator_placement_spreads_by_xid(self):
        sharded, _gw, co = _deployment(shards=4)
        placements = {
            sharded.coordinator_shard_for(f"xid-{i:08d}") for i in range(64)
        }
        assert len(placements) > 1


class TestConflicts:
    def test_held_lock_aborts_everywhere(self):
        """Two transactions race for lock ``hot`` on shard 1.  The
        contender starts once the blocker's ``begin`` is on chain, so its
        prepare reaches shard 1 while the blocker holds the lock there.
        Shard 1 refuses it, and it aborts on every participant, also on
        shard 2 where its own prepare took the lock."""
        sharded, _gw, co = _deployment()
        env = co.env
        blocker = co.execute(_writes((0, 1), lock="hot"), xid="xs-blocker")
        coordinator = sharded.shards[sharded.coordinator_shard_for("xs-blocker")]
        begun = f"{COORDINATOR_CHAINCODE}~xact~xs-blocker"
        while coordinator.reference_peer.statedb.get(begun) is None:
            env.step()
        contender = co.execute(_writes((1, 2), lock="hot"))
        sharded.run(until=env.all_of([blocker, contender]))
        assert blocker.value.committed
        assert not contender.value.committed
        assert contender.value.refused == [1]
        for result in (blocker.value, contender.value):
            sharded.verify_atomicity(result)
            records = [_record_on(sharded, s, result.xid) for s in result.shards]
            if result.committed:
                assert records == [{"s": s} for s in result.shards]
            else:
                assert records == [None, None]

    def test_prepared_lock_refuses_second_transaction(self):
        sharded, gw, co = _deployment()
        # Park a prepare (lock held, never decided) directly.
        hold = co._submit(
            1,
            SHARD_CHAINCODE,
            "prepare",
            {"xid": "squatter", "lock_key": "hot", "payload": {}},
        )
        sharded.run(until=hold)
        result = _run(co, _writes((0, 1), lock="hot"))
        assert not result.committed
        assert result.refused == [1]
        sharded.verify_atomicity(result)
        assert _record_on(sharded, 0, result.xid) is None
        assert co.stats["refusals"] == 1
        # Releasing the squatter unblocks the key for the next attempt.
        release = co._submit(1, SHARD_CHAINCODE, "abort", {"xid": "squatter"})
        sharded.run(until=release)
        retry = _run(co, _writes((0, 1), lock="hot"))
        assert retry.committed


class TestValidation:
    def test_duplicate_shard_rejected(self):
        _sharded, _gw, co = _deployment()
        with pytest.raises(TwoPhaseCommitError, match="duplicate shard"):
            _run(
                co,
                [
                    CrossShardWrite(shard=0, lock_key="a"),
                    CrossShardWrite(shard=0, lock_key="b"),
                    CrossShardWrite(shard=1, lock_key="a"),
                ],
            )


class TestCoordinatorCrashRecovery:
    """Kill the driver at each stage; a new driver over the same journal
    must finish every transaction to a safe outcome."""

    def _crash_setup(self, co, sharded, xid, writes, *, begin_tx, prepares, decision):
        """Drive the protocol partially, as if the coordinator died."""
        coordinator = sharded.coordinator_shard_for(xid)
        co.log.log_begin(xid, writes, coordinator)
        if begin_tx:
            event = co._submit(
                coordinator,
                COORDINATOR_CHAINCODE,
                "begin",
                {"xid": xid, "views": [f"shard-{w.shard}" for w in writes]},
            )
            sharded.run(until=event)
        if prepares:
            for write in writes:
                event = co._submit(
                    write.shard,
                    SHARD_CHAINCODE,
                    "prepare",
                    {
                        "xid": xid,
                        "lock_key": write.lock_key,
                        "payload": write.payload,
                    },
                )
                sharded.run(until=event)
        if decision is not None:
            co.log.log_decision(xid, decision)
        return coordinator

    def test_crash_before_decision_presumes_abort(self):
        sharded, gw, co = _deployment()
        writes = _writes((0, 1), lock="hot")
        self._crash_setup(
            co, sharded, "xs-crash-a", writes,
            begin_tx=True, prepares=True, decision=None,
        )
        recovered = TwoPhaseCoordinator(sharded, gw, log=sharded.coordinator_log())
        results = recovered.recover()
        assert [r.xid for r in results] == ["xs-crash-a"]
        assert not results[0].committed and results[0].replayed
        # Locks the prepares took are free again.
        follow_up = _run(recovered, _writes((0, 1), lock="hot"))
        assert follow_up.committed
        assert recovered.log.pending() == {}

    def test_crash_after_durable_decision_commits(self):
        sharded, gw, co = _deployment()
        writes = _writes((0, 2), payload={"v": 9})
        self._crash_setup(
            co, sharded, "xs-crash-b", writes,
            begin_tx=True, prepares=True, decision="committed",
        )
        recovered = TwoPhaseCoordinator(sharded, gw, log=sharded.coordinator_log())
        results = recovered.recover()
        assert results[0].committed and results[0].replayed
        for shard in (0, 2):
            assert _record_on(sharded, shard, "xs-crash-b") == {"v": 9}
        sharded.verify_atomicity(results[0])

    def test_crash_mid_fanout_replays_idempotently(self):
        sharded, gw, co = _deployment()
        writes = _writes((0, 1), payload={"v": 3})
        self._crash_setup(
            co, sharded, "xs-crash-c", writes,
            begin_tx=True, prepares=True, decision="committed",
        )
        # ONE commit of the fan-out landed before the crash.
        sharded.run(
            until=co._submit(0, SHARD_CHAINCODE, "commit", {"xid": "xs-crash-c"})
        )
        recovered = TwoPhaseCoordinator(sharded, gw, log=sharded.coordinator_log())
        results = recovered.recover()
        assert results[0].committed
        for shard in (0, 1):
            assert _record_on(sharded, shard, "xs-crash-c") == {"v": 3}
        sharded.verify_atomicity(results[0])

    def test_crash_before_begin_tx_leaves_no_trace(self):
        sharded, gw, co = _deployment()
        writes = _writes((1, 2), lock="ghost")
        self._crash_setup(
            co, sharded, "xs-crash-d", writes,
            begin_tx=False, prepares=False, decision=None,
        )
        recovered = TwoPhaseCoordinator(sharded, gw, log=sharded.coordinator_log())
        results = recovered.recover()
        assert not results[0].committed
        assert recovered.log.pending() == {}
        # Nothing on any chain for this xid.
        for shard in (1, 2):
            assert _record_on(sharded, shard, "xs-crash-d") is None

    def test_journal_compaction_drops_done_transactions(self):
        sharded, _gw, co = _deployment()
        for _ in range(3):
            _run(co, _writes((0, 1), lock="k", payload={}))
        assert co.log.pending() == {}
        assert co.log.entries() == []


class TestWithoutDurability:
    def test_inert_log_still_commits(self):
        # "none", not None: an ambient REPRO_STORAGE_BACKEND must not arm it.
        sharded, _gw, co = _deployment(storage="none")
        assert co.log.store is None
        result = _run(co, _writes((0, 1)))
        assert result.committed
        assert co.log.pending() == {}
