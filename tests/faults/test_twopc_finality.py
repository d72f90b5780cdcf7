"""Regression: 2PC decisions are final and prepares don't leak locks.

Two bugs in the cross-chain baseline's chaincodes:

- ``CoordinatorContract.fn_decide`` overwrote any prior decision.  A
  recovering coordinator replaying its log could flip ``aborted`` →
  ``committed`` *after* shards had already released locks and discarded
  payloads on the strength of the first decision.  Fixed: an identical
  re-decide is an idempotent no-op, a conflicting one raises.
- ``ShardContract.fn_prepare`` left the first lock held forever when
  the same ``xid`` re-prepared under a different ``lock_key`` (a
  coordinator retry after a partial failure): commit/abort only release
  the lock named in the *current* pending record.
"""

import pytest

from repro.sharding.crossshard import CoordinatorContract, ShardContract
from repro.errors import ChaincodeError
from repro.fabric.chaincode import TxContext
from repro.ledger.statedb import StateDatabase, Version


@pytest.fixture
def statedb():
    return StateDatabase()


def _ctx(statedb, cc="coordinator"):
    return TxContext(cc, statedb, "t", "coordinator")


def _invoke(contract, statedb, fn, args, position=0):
    ctx = _ctx(statedb, contract.name)
    result = contract.invoke(ctx, fn, args)
    for key, value in ctx.write_set.items():
        statedb.put(key, value, Version(1, position))
    return result


class TestDecisionFinality:
    def _begun(self, statedb):
        contract = CoordinatorContract()
        _invoke(contract, statedb, "begin", {"xid": "x1", "views": ["v1"]})
        return contract

    def test_identical_redecide_is_idempotent(self, statedb):
        contract = self._begun(statedb)
        _invoke(contract, statedb, "decide", {"xid": "x1", "outcome": "aborted"}, 1)
        # A recovering coordinator replays its log: same decision again.
        _invoke(contract, statedb, "decide", {"xid": "x1", "outcome": "aborted"}, 2)
        status = _invoke(contract, statedb, "status", {"xid": "x1"})
        assert status["state"] == "aborted"

    def test_conflicting_redecide_rejected(self, statedb):
        contract = self._begun(statedb)
        _invoke(contract, statedb, "decide", {"xid": "x1", "outcome": "aborted"}, 1)
        with pytest.raises(ChaincodeError, match="already decided"):
            _invoke(
                contract, statedb, "decide", {"xid": "x1", "outcome": "committed"}, 2
            )
        # The recorded outcome did not flip.
        status = _invoke(contract, statedb, "status", {"xid": "x1"})
        assert status["state"] == "aborted"

    def test_commit_then_abort_also_rejected(self, statedb):
        contract = self._begun(statedb)
        _invoke(contract, statedb, "decide", {"xid": "x1", "outcome": "committed"}, 1)
        with pytest.raises(ChaincodeError, match="already decided"):
            _invoke(
                contract, statedb, "decide", {"xid": "x1", "outcome": "aborted"}, 2
            )


class TestPrepareLockLeak:
    def test_reprepare_with_new_key_releases_old_lock(self, statedb):
        shard = ShardContract()
        vote = _invoke(
            shard,
            statedb,
            "prepare",
            {"xid": "x1", "lock_key": "item-a", "payload": {"v": 1}},
        )
        assert vote == {"prepared": True}
        # Coordinator retry after a partial failure re-prepares the
        # same xid under a different lock key.
        vote = _invoke(
            shard,
            statedb,
            "prepare",
            {"xid": "x1", "lock_key": "item-b", "payload": {"v": 2}},
            1,
        )
        assert vote == {"prepared": True}
        # The first lock is free again: another transaction can take it.
        vote = _invoke(
            shard,
            statedb,
            "prepare",
            {"xid": "x2", "lock_key": "item-a", "payload": {"v": 3}},
            2,
        )
        assert vote == {"prepared": True}, "first lock leaked after re-prepare"

    def test_commit_after_reprepare_releases_current_lock(self, statedb):
        shard = ShardContract()
        _invoke(
            shard,
            statedb,
            "prepare",
            {"xid": "x1", "lock_key": "item-a", "payload": {"v": 1}},
        )
        _invoke(
            shard,
            statedb,
            "prepare",
            {"xid": "x1", "lock_key": "item-b", "payload": {"v": 2}},
            1,
        )
        _invoke(shard, statedb, "commit", {"xid": "x1"}, 2)
        assert statedb.get("twopc~lock~item-a") is None
        assert statedb.get("twopc~lock~item-b") is None
        assert statedb.get("twopc~record~x1") == {"v": 2}

    def test_identical_reprepare_keeps_lock(self, statedb):
        shard = ShardContract()
        _invoke(
            shard,
            statedb,
            "prepare",
            {"xid": "x1", "lock_key": "item-a", "payload": {"v": 1}},
        )
        vote = _invoke(
            shard,
            statedb,
            "prepare",
            {"xid": "x1", "lock_key": "item-a", "payload": {"v": 1}},
            1,
        )
        assert vote == {"prepared": True}
        conflicting = _invoke(
            shard,
            statedb,
            "prepare",
            {"xid": "x2", "lock_key": "item-a", "payload": {"v": 9}},
            2,
        )
        assert conflicting == {"prepared": False, "conflict_with": "x1"}
