"""The atomicity oracle holds every decided 2PC transaction all-or-nothing.

:meth:`repro.faults.InvariantMonitor.assert_atomicity` (part of
``check()``) reads each transaction decided on the chain it watches and
checks every participant the ``begin`` record names: the transaction's
record is there exactly when the decision is ``committed``, and none of
its pending payloads or locks is left.  Each run here — a baseline
request, a sharded transaction, a baseline request refused by a
squatter lock, a recovery after a crash mid fan-out — passes as the
program is, and fails ``check()`` with one step of the one coordinator
mutated (the ``_mutant`` helper of the isolation-oracle tests).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.baseline import CrossChainDeployment
from repro.errors import InvariantViolationError
from repro.fabric.config import NetworkConfig
from repro.faults import InvariantMonitor
from repro.sharding import (
    COORDINATOR_CHAINCODE,
    SHARD_CHAINCODE,
    CrossShardWrite,
    ShardedGateway,
    ShardedNetwork,
    TwoPhaseCoordinator,
)
from repro.sim import Environment
from repro.workload.generator import TransferRequest

from tests.faults.test_isolation_oracle import _mutant

FAN_OUT = "yield self._fan_out(writes, fn, xid)"


def _run(coordinator, writes, xid=None):
    """Drive one 2PC transaction to its result."""
    return coordinator.env.run(until=coordinator.execute(writes, xid))


def _request(item: str, access: list[str]) -> TransferRequest:
    return TransferRequest(
        index=0,
        fn="create_item",
        item=item,
        sender=None,
        receiver=access[0],
        args={"item": item, "owner": access[0]},
        public={"item": item, "to": access[0], "access": access},
        secret=b"payload",
    )


def _baseline_commit(fast_config) -> list:
    """One request committed on three view chains; the chains to check."""
    deployment = CrossChainDeployment(
        Environment(),
        ["D1", "I1", "T1"],
        # "off": healing an ambient plan mid-2PC would test the plan.
        config=replace(fast_config, fault_plan="off"),
        prepare_timeout_ms=60_000.0,
    )
    identities = deployment.register_user("client")
    result = deployment.submit_request_sync(
        identities, _request("i1", ["D1", "I1", "T1"])
    )
    assert result.committed and result.participant_txs == 6
    return [deployment.main, *deployment.view_chains.values()]


def _baseline_refused(fast_config) -> list:
    """A squatter's lock on I1 refuses the one attempt ``max_retries=0``
    allows, after D1 voted yes."""
    deployment = CrossChainDeployment(
        Environment(),
        ["D1", "I1"],
        config=replace(fast_config, fault_plan="off"),
        prepare_timeout_ms=60_000.0,
        max_retries=0,
    )
    identities = deployment.register_user("client")
    squat = TwoPhaseCoordinator(deployment, identities["main"])._submit(
        "I1",
        SHARD_CHAINCODE,
        "prepare",
        {"xid": "squatter", "lock_key": "hot", "payload": {}},
    )
    deployment.env.run(until=squat)
    result = deployment.submit_request_sync(identities, _request("hot", ["D1", "I1"]))
    assert not result.committed and result.refused == ["I1"]
    return [deployment.main, *deployment.view_chains.values()]


def _sharded(storage: str | None = None):
    sharded = ShardedNetwork(
        config=NetworkConfig(
            real_signatures=False,
            batch_timeout_ms=20.0,
            storage_backend=storage,
            fault_plan="off",
        ),
        shard_count=3,
    )
    gateway = ShardedGateway(sharded, "client")
    return sharded, gateway, TwoPhaseCoordinator(sharded, gateway)


def _writes(shards) -> list[CrossShardWrite]:
    return [CrossShardWrite(shard=s, lock_key="k", payload={"v": s}) for s in shards]


def _sharded_commit() -> list:
    sharded, _gateway, coordinator = _sharded()
    assert _run(coordinator, _writes((0, 2))).committed
    return sharded.shards


def _recovered_mid_fan_out() -> list:
    """The coordinator journals ``committed``, one commit of its fan-out
    lands, it crashes; a new coordinator recovers from the journal."""
    sharded, gateway, coordinator = _sharded(storage="memory")
    xid, writes = "xid-crashed", _writes((0, 1))
    home = sharded.coordinator_shard_for(xid)
    coordinator.log.log_begin(xid, writes, home)
    begin = {"xid": xid, "views": ["shard-0", "shard-1"]}
    sharded.run(until=coordinator._submit(home, COORDINATOR_CHAINCODE, "begin", begin))
    sharded.run(until=coordinator._fan_out(writes, "prepare", xid))
    coordinator.log.log_decision(xid, "committed")
    sharded.run(until=coordinator._submit(0, SHARD_CHAINCODE, "commit", {"xid": xid}))
    recovered = TwoPhaseCoordinator(sharded, gateway, log=sharded.coordinator_log())
    assert [r.committed for r in recovered.recover()] == [True]
    return sharded.shards


def _assert_caught(networks) -> None:
    """``check()`` fails on some chain, through the atomicity oracle."""
    caught = []
    for network in networks:
        monitor = InvariantMonitor(network)
        monitor.assert_isolation()
        try:
            monitor.check()
        except InvariantViolationError as exc:
            caught.append(str(exc))
    assert caught and all("atomicity violation" in c for c in caught), caught


@pytest.mark.parametrize(
    "run", ["baseline_commit", "baseline_refused", "sharded_commit", "recovered"]
)
def test_unmutated_runs_pass(fast_config, run):
    networks = {
        "baseline_commit": lambda: _baseline_commit(fast_config),
        "baseline_refused": lambda: _baseline_refused(fast_config),
        "sharded_commit": _sharded_commit,
        "recovered": _recovered_mid_fan_out,
    }[run]()
    for network in networks:
        InvariantMonitor(network).check()


def test_commit_fan_out_skipping_a_participant_is_caught(monkeypatch, fast_config):
    skip_first_commit = "yield self._fan_out(writes[fn == 'commit':], fn, xid)"
    monkeypatch.setattr(
        TwoPhaseCoordinator,
        "_finish",
        _mutant(TwoPhaseCoordinator._finish, FAN_OUT, skip_first_commit),
    )
    _assert_caught(_baseline_commit(fast_config))
    _assert_caught(_sharded_commit())


def test_abort_fan_out_skipping_a_yes_voter_is_caught(monkeypatch, fast_config):
    skip_first_abort = "yield self._fan_out(writes[fn == 'abort':], fn, xid)"
    monkeypatch.setattr(
        TwoPhaseCoordinator,
        "_finish",
        _mutant(TwoPhaseCoordinator._finish, FAN_OUT, skip_first_abort),
    )
    _assert_caught(_baseline_refused(fast_config))


def test_recovery_redriving_the_opposite_outcome_is_caught(monkeypatch):
    monkeypatch.setattr(
        TwoPhaseCoordinator,
        "recover",
        _mutant(
            TwoPhaseCoordinator.recover,
            "self._finish(xid, writes, coordinator, outcome, decide=begun)",
            "self._finish(xid, writes, coordinator, "
            '{"committed": "aborted", "aborted": "committed"}[outcome], '
            "decide=begun)",
        ),
    )
    _assert_caught(_recovered_mid_fan_out())
