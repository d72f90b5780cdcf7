"""Unit tests for the 2PC coordinator and shard chaincodes.

Two of them pin fixed bugs: ``decide`` once overwrote any prior
decision, so a recovering coordinator replaying its log could flip
``aborted`` → ``committed`` after shards had released locks on the
strength of the first one (now an identical re-decide is a no-op and a
conflicting one raises); and a re-``prepare`` of the same xid under a
new lock key left the first lock held forever, because commit and abort
release only the lock the *current* pending record names.
"""

import pytest

from repro.errors import ChaincodeError
from repro.sharding.crossshard import CoordinatorContract, ShardContract
from repro.fabric.chaincode import TxContext
from repro.ledger.statedb import StateDatabase, Version


@pytest.fixture
def statedb():
    return StateDatabase()


def _ctx(statedb, cc):
    return TxContext(cc, statedb, "t", "coordinator")


def _apply(ctx, statedb, position=0):
    for key, value in ctx.write_set.items():
        statedb.put(key, value, Version(1, position))


class TestCoordinator:
    def test_begin_and_decide(self, statedb):
        contract = CoordinatorContract()
        ctx = _ctx(statedb, "coordinator")
        contract.invoke(ctx, "begin", {"xid": "x1", "views": ["v1", "v2"]})
        _apply(ctx, statedb)
        ctx2 = _ctx(statedb, "coordinator")
        contract.invoke(ctx2, "decide", {"xid": "x1", "outcome": "committed"})
        _apply(ctx2, statedb, 1)
        status = contract.invoke(
            _ctx(statedb, "coordinator"), "status", {"xid": "x1"}
        )
        assert status == {"views": ["v1", "v2"], "state": "committed"}

    def test_double_begin_rejected(self, statedb):
        contract = CoordinatorContract()
        ctx = _ctx(statedb, "coordinator")
        contract.invoke(ctx, "begin", {"xid": "x1", "views": []})
        _apply(ctx, statedb)
        with pytest.raises(ChaincodeError, match="already begun"):
            contract.invoke(
                _ctx(statedb, "coordinator"), "begin", {"xid": "x1", "views": []}
            )

    def test_decide_unknown_or_invalid(self, statedb):
        contract = CoordinatorContract()
        with pytest.raises(ChaincodeError, match="unknown"):
            contract.invoke(
                _ctx(statedb, "coordinator"),
                "decide",
                {"xid": "ghost", "outcome": "committed"},
            )
        ctx = _ctx(statedb, "coordinator")
        contract.invoke(ctx, "begin", {"xid": "x1", "views": []})
        _apply(ctx, statedb)
        with pytest.raises(ChaincodeError, match="invalid"):
            contract.invoke(
                _ctx(statedb, "coordinator"),
                "decide",
                {"xid": "x1", "outcome": "maybe"},
            )

    def test_decide_replay_is_idempotent(self, statedb):
        """A recovering coordinator may re-send its decision verbatim."""
        contract = CoordinatorContract()
        ctx = _ctx(statedb, "coordinator")
        contract.invoke(ctx, "begin", {"xid": "x1", "views": ["v1"]})
        _apply(ctx, statedb)
        ctx2 = _ctx(statedb, "coordinator")
        contract.invoke(ctx2, "decide", {"xid": "x1", "outcome": "aborted"})
        _apply(ctx2, statedb, 1)
        replay = _ctx(statedb, "coordinator")
        contract.invoke(replay, "decide", {"xid": "x1", "outcome": "aborted"})
        assert replay.write_set == {}  # no-op, nothing rewritten
        status = contract.invoke(
            _ctx(statedb, "coordinator"), "status", {"xid": "x1"}
        )
        assert status["state"] == "aborted"

    def test_conflicting_redecide_rejected(self, statedb):
        """A decision can never flip — the 2PC finality guarantee —
        whichever outcome came first."""
        contract = CoordinatorContract()
        for position, (xid, first, other) in enumerate(
            [("x1", "committed", "aborted"), ("x2", "aborted", "committed")]
        ):
            ctx = _ctx(statedb, "coordinator")
            contract.invoke(ctx, "begin", {"xid": xid, "views": []})
            _apply(ctx, statedb, 2 * position)
            ctx2 = _ctx(statedb, "coordinator")
            contract.invoke(ctx2, "decide", {"xid": xid, "outcome": first})
            _apply(ctx2, statedb, 2 * position + 1)
            with pytest.raises(ChaincodeError, match="already decided"):
                contract.invoke(
                    _ctx(statedb, "coordinator"),
                    "decide",
                    {"xid": xid, "outcome": other},
                )
            status = contract.invoke(
                _ctx(statedb, "coordinator"), "status", {"xid": xid}
            )
            assert status["state"] == first


class TestShard:
    def test_prepare_commit_cycle(self, statedb):
        contract = ShardContract()
        ctx = _ctx(statedb, "twopc")
        vote = contract.invoke(
            ctx,
            "prepare",
            {"xid": "x1", "lock_key": "item-1", "payload": {"tid": "t1"}},
        )
        assert vote == {"prepared": True}
        _apply(ctx, statedb)
        ctx2 = _ctx(statedb, "twopc")
        assert contract.invoke(ctx2, "commit", {"xid": "x1"}) == {"committed": True}
        _apply(ctx2, statedb, 1)
        record = contract.invoke(_ctx(statedb, "twopc"), "get_record", {"xid": "x1"})
        assert record == {"tid": "t1"}
        # Lock was released.
        assert statedb.get("twopc~lock~item-1") is None

    def test_conflicting_prepare_votes_no(self, statedb):
        contract = ShardContract()
        ctx = _ctx(statedb, "twopc")
        contract.invoke(
            ctx, "prepare", {"xid": "x1", "lock_key": "item-1", "payload": {}}
        )
        _apply(ctx, statedb)
        vote = contract.invoke(
            _ctx(statedb, "twopc"),
            "prepare",
            {"xid": "x2", "lock_key": "item-1", "payload": {}},
        )
        assert vote == {"prepared": False, "conflict_with": "x1"}

    def test_prepare_is_reentrant_for_same_xid(self, statedb):
        contract = ShardContract()
        ctx = _ctx(statedb, "twopc")
        contract.invoke(
            ctx, "prepare", {"xid": "x1", "lock_key": "item-1", "payload": {}}
        )
        _apply(ctx, statedb)
        vote = contract.invoke(
            _ctx(statedb, "twopc"),
            "prepare",
            {"xid": "x1", "lock_key": "item-1", "payload": {}},
        )
        assert vote == {"prepared": True}

    def test_commit_unprepared_rejected(self, statedb):
        with pytest.raises(ChaincodeError, match="unprepared"):
            ShardContract().invoke(_ctx(statedb, "twopc"), "commit", {"xid": "x9"})

    def test_commit_replay_is_noop(self, statedb):
        """Re-committing a committed xid (coordinator crash recovery
        re-driving phase 2) must not error or rewrite the record."""
        contract = ShardContract()
        ctx = _ctx(statedb, "twopc")
        contract.invoke(
            ctx, "prepare", {"xid": "x1", "lock_key": "item-1", "payload": {"n": 1}}
        )
        _apply(ctx, statedb)
        ctx2 = _ctx(statedb, "twopc")
        contract.invoke(ctx2, "commit", {"xid": "x1"})
        _apply(ctx2, statedb, 1)
        replay = _ctx(statedb, "twopc")
        assert contract.invoke(replay, "commit", {"xid": "x1"}) == {
            "committed": True,
            "replayed": True,
        }
        assert replay.write_set == {}
        record = contract.invoke(_ctx(statedb, "twopc"), "get_record", {"xid": "x1"})
        assert record == {"n": 1}

    def test_reprepare_after_commit_is_replay(self, statedb):
        """Phase 1 re-driven after a completed commit takes no new lock."""
        contract = ShardContract()
        ctx = _ctx(statedb, "twopc")
        contract.invoke(
            ctx, "prepare", {"xid": "x1", "lock_key": "item-1", "payload": {}}
        )
        _apply(ctx, statedb)
        ctx2 = _ctx(statedb, "twopc")
        contract.invoke(ctx2, "commit", {"xid": "x1"})
        _apply(ctx2, statedb, 1)
        vote = contract.invoke(
            _ctx(statedb, "twopc"),
            "prepare",
            {"xid": "x1", "lock_key": "item-1", "payload": {}},
        )
        assert vote == {"prepared": True, "replayed": True}
        assert statedb.get("twopc~lock~item-1") is None

    def test_reprepare_different_key_releases_old_lock(self, statedb):
        contract = ShardContract()
        ctx = _ctx(statedb, "twopc")
        contract.invoke(
            ctx, "prepare", {"xid": "x1", "lock_key": "item-1", "payload": {}}
        )
        _apply(ctx, statedb)
        ctx2 = _ctx(statedb, "twopc")
        contract.invoke(
            ctx2, "prepare", {"xid": "x1", "lock_key": "item-2", "payload": {}}
        )
        _apply(ctx2, statedb, 1)
        # item-1's lock is free again; item-2's is held by x1.
        vote = contract.invoke(
            _ctx(statedb, "twopc"),
            "prepare",
            {"xid": "x2", "lock_key": "item-1", "payload": {}},
        )
        assert vote == {"prepared": True}
        assert statedb.get("twopc~lock~item-2") == "x1"

    def test_abort_releases_lock(self, statedb):
        contract = ShardContract()
        ctx = _ctx(statedb, "twopc")
        contract.invoke(
            ctx, "prepare", {"xid": "x1", "lock_key": "item-1", "payload": {}}
        )
        _apply(ctx, statedb)
        ctx2 = _ctx(statedb, "twopc")
        assert contract.invoke(ctx2, "abort", {"xid": "x1"}) == {"aborted": True}
        _apply(ctx2, statedb, 1)
        vote = contract.invoke(
            _ctx(statedb, "twopc"),
            "prepare",
            {"xid": "x2", "lock_key": "item-1", "payload": {}},
        )
        assert vote == {"prepared": True}

    def test_abort_without_prepare_is_noop(self, statedb):
        assert ShardContract().invoke(
            _ctx(statedb, "twopc"), "abort", {"xid": "never"}
        ) == {"aborted": True}

    def test_record_count(self, statedb):
        contract = ShardContract()
        for i in range(2):
            ctx = _ctx(statedb, "twopc")
            contract.invoke(
                ctx,
                "prepare",
                {"xid": f"x{i}", "lock_key": f"item-{i}", "payload": {"n": i}},
            )
            _apply(ctx, statedb, i * 2)
            ctx2 = _ctx(statedb, "twopc")
            contract.invoke(ctx2, "commit", {"xid": f"x{i}"})
            _apply(ctx2, statedb, i * 2 + 1)
        assert contract.invoke(_ctx(statedb, "twopc"), "record_count", {}) == 2
