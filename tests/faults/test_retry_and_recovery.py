"""Fault-injection integration: retries, redelivery, crash recovery,
and owner outages on a live simulated network."""

from collections import Counter
from dataclasses import replace

import pytest

from repro import build_network
from repro.errors import FaultInjectionError, OwnerUnavailableError
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.endorser import Proposal
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultPlan,
    InvariantMonitor,
    MessageFaultRule,
    RetryPolicy,
    recover_peer,
)
from repro.views.hash_based import HashBasedManager
from repro.views.predicates import AttributeEquals
from repro.views.types import ViewMode
from repro.workload.zipf import COUNTER_CHAINCODE, CounterContract

RETRY = RetryPolicy(timeout_ms=1_000.0, backoff_ms=50.0, jitter_ms=10.0)


def _network(plan=None, **config_overrides):
    # plan="off" pins the network fault-free even under an ambient
    # REPRO_FAULT_PLAN; plan=None leaves the ambient pickup in place
    # (the env-var attachment tests below depend on it).
    if plan == "off":
        fault_plan = "off"
    else:
        fault_plan = plan.to_json() if plan is not None else None
    config = NetworkConfig(
        latency=SINGLE_REGION,
        real_signatures=False,
        batch_timeout_ms=50.0,
        fault_plan=fault_plan,
        **config_overrides,
    )
    return build_network(config)


def _invoke_items(network, user, count, prefix="i"):
    return [
        network.invoke_sync(
            user, "supply", "create_item", {"item": f"{prefix}{i}", "owner": "M"}
        )
        for i in range(count)
    ]


def test_config_fault_plan_attaches_injector():
    plan = FaultPlan(seed=3, retry=RETRY)
    network = _network(plan)
    assert network.faults is not None
    assert network.faults.plan == plan


def test_env_var_fault_plan_attaches_injector(monkeypatch):
    plan = FaultPlan(seed=5, retry=RETRY)
    monkeypatch.setenv("REPRO_FAULT_PLAN", plan.to_json())
    network = _network()
    assert network.faults is not None
    assert network.faults.plan == plan


def test_no_plan_means_no_injector(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    network = _network()
    assert network.faults is None
    assert network.block_log == []


def test_dropped_broadcast_is_retried_exactly_once():
    plan = FaultPlan(
        seed=1,
        retry=RETRY,
        messages=(
            MessageFaultRule(channel="client_to_orderer", drop=1.0, max_drops=1),
        ),
    )
    network = _network(plan)
    monitor = InvariantMonitor(network)
    user = network.register_user("u")
    notices = _invoke_items(network, user, 3)
    assert all(n.code is ValidationCode.VALID for n in notices)
    assert network.faults.stats["retries"] == 1
    network.faults.heal()
    monitor.check()
    tids = [tx.tid for block in network.block_log for tx in block.transactions]
    assert len(tids) == len(set(tids))


def test_duplicated_broadcast_is_deduplicated_at_orderer():
    plan = FaultPlan(
        seed=1,
        retry=RETRY,
        messages=(
            MessageFaultRule(channel="client_to_orderer", duplicate=1.0),
        ),
    )
    network = _network(plan)
    monitor = InvariantMonitor(network)
    user = network.register_user("u")
    notices = _invoke_items(network, user, 3)
    assert all(n.code is ValidationCode.VALID for n in notices)
    assert network.faults.stats["deduped_txs"] >= 3
    network.faults.heal()
    monitor.check()


def test_dropped_block_delivery_is_redelivered():
    plan = FaultPlan(
        seed=1,
        retry=RETRY,
        redeliver_after_ms=25.0,
        messages=(
            MessageFaultRule(channel="orderer_to_peer", drop=1.0, max_drops=2),
        ),
    )
    network = _network(plan)
    monitor = InvariantMonitor(network)
    user = network.register_user("u")
    notices = _invoke_items(network, user, 4)
    assert all(n.code is ValidationCode.VALID for n in notices)
    assert network.faults.stats["redeliveries"] >= 2
    network.faults.heal()
    monitor.check()


def test_delayed_messages_commit_without_retry_duplicates():
    plan = FaultPlan(
        seed=1,
        retry=RETRY,
        messages=(
            MessageFaultRule(
                channel="orderer_to_peer",
                delay=1.0,
                delay_range_ms=(5.0, 40.0),
            ),
        ),
    )
    network = _network(plan)
    monitor = InvariantMonitor(network)
    user = network.register_user("u")
    notices = _invoke_items(network, user, 3)
    assert all(n.code is ValidationCode.VALID for n in notices)
    network.faults.heal()
    monitor.check()


def test_crashed_peer_recovers_by_replaying_its_chain():
    plan = FaultPlan(
        seed=1,
        retry=RETRY,
        events=(
            FaultEvent(kind="crash_peer", at_ms=100.0, for_ms=400.0, target=1),
        ),
    )
    network = _network(plan)
    monitor = InvariantMonitor(network)
    user = network.register_user("u")
    notices = _invoke_items(network, user, 6)
    assert all(n.code is ValidationCode.VALID for n in notices)
    network.env.run(until=network.env.now + 1_000)
    assert network.faults.stats["peer_crashes"] == 1
    assert network.faults.stats["peer_recoveries"] == 1
    network.faults.heal()
    monitor.check()
    network.verify_convergence()


def test_crash_leader_mid_run_with_raft():
    plan = FaultPlan(
        seed=1,
        retry=replace(RETRY, timeout_ms=3_000.0),
        events=(FaultEvent(kind="crash_leader", at_ms=150.0, for_ms=1_500.0),),
    )
    network = _network(plan, use_raft=True)
    monitor = InvariantMonitor(network)
    user = network.register_user("u")
    notices = _invoke_items(network, user, 5)
    assert all(n.code is ValidationCode.VALID for n in notices)
    assert network.faults.stats["orderer_crashes"] == 1
    network.faults.heal()
    monitor.check()


def test_recover_peer_rebuilds_identical_state():
    network = _network("off")
    user = network.register_user("u")
    _invoke_items(network, user, 5)
    peer = network.peers[1]
    reference_root = network.reference_peer.current_state_root()
    assert peer.current_state_root() == reference_root
    # Wipe and rebuild from the blockchain alone.
    replayed = peer.recover_from_chain(
        network._peer_keys,
        network._peer_secrets,
        policy=network.config.endorsement_policy,
    )
    assert replayed == peer.chain.height
    assert peer.current_state_root() == reference_root
    network.verify_convergence()


def test_recover_peer_catches_up_missed_blocks():
    plan = FaultPlan(seed=1, retry=RETRY)
    network = _network(plan)
    user = network.register_user("u")
    _invoke_items(network, user, 2)
    peer = network.peers[1]
    # Simulate a long outage: the peer missed blocks entirely.
    network.faults._down_peers.add(peer.peer_id)
    _invoke_items(network, user, 2, prefix="late")
    assert peer.chain.height < len(network.block_log)
    network.faults._down_peers.discard(peer.peer_id)
    applied = recover_peer(network, peer)
    assert applied >= 1
    assert peer.chain.height == len(network.block_log)
    network.env.run(until=network.env.now + 500)
    network.verify_convergence()


def test_owner_outage_queues_invocations_and_fails_queries():
    plan = FaultPlan(
        seed=1,
        retry=RETRY,
        events=(FaultEvent(kind="owner_outage", at_ms=100.0, for_ms=1_000.0),),
    )
    network = _network(plan)
    env = network.env
    owner = network.register_user("owner")
    manager = HashBasedManager(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "W1"), ViewMode.REVOCABLE)
    env.run(until=200)  # inside the outage window
    assert not network.faults.owner_available()
    with pytest.raises(OwnerUnavailableError):
        manager.query_view("w1", "anyone")

    event = manager.invoke_with_secret_async(
        "create_item",
        {"item": "i1", "owner": "W1"},
        {"item": "i1", "to": "W1"},
        b"secret",
    )
    env.run(until=400)
    assert not event.triggered  # queued behind the outage
    env.run(until=event)
    assert env.now > 1_100.0  # completed only after the owner returned
    assert event.value.notice.code is ValidationCode.VALID
    assert network.faults.owner_available()
    assert network.faults.stats["owner_outages"] == 1


def test_heal_closes_open_owner_window():
    plan = FaultPlan(
        seed=1,
        retry=RETRY,
        events=(FaultEvent(kind="owner_outage", at_ms=0.0, for_ms=1e9),),
    )
    network = _network(plan)
    network.env.run(until=100)
    assert not network.faults.owner_available()
    network.faults.heal()
    assert network.faults.owner_available()


def test_plan_validation_rejects_endorser_crash():
    plan = FaultPlan(
        seed=1,
        events=(FaultEvent(kind="crash_peer", at_ms=0.0, target=0),),
    )
    with pytest.raises(FaultInjectionError, match="reference-peer"):
        _network(plan)


def test_plan_validation_rejects_out_of_range_peer():
    plan = FaultPlan(
        seed=1,
        events=(FaultEvent(kind="crash_peer", at_ms=0.0, target=99),),
    )
    with pytest.raises(FaultInjectionError, match="out of range"):
        _network(plan)


def test_plan_validation_requires_consensus_group_for_orderer_crash():
    plan = FaultPlan(
        seed=1,
        events=(FaultEvent(kind="crash_orderer", at_ms=0.0, target=0),),
    )
    # Pin the raft *model* path (no real consensus group) explicitly:
    # under an ambient REPRO_ORDERER_BACKEND=pbft the plan would be
    # legitimately valid — pbft replicas can crash.
    with pytest.raises(FaultInjectionError, match="use_raft"):
        _network(plan, orderer_backend="raft")


def test_retry_exhaustion_fails_the_submission():
    plan = FaultPlan(
        seed=1,
        retry=RetryPolicy(max_attempts=2, timeout_ms=200.0, backoff_ms=10.0),
        messages=(MessageFaultRule(channel="client_to_orderer", drop=1.0),),
    )
    network = _network(plan)
    user = network.register_user("u")
    with pytest.raises(FaultInjectionError, match="no commit notice"):
        network.invoke_sync(
            user, "supply", "create_item", {"item": "lost", "owner": "M"}
        )


def test_a_notice_during_the_backoff_completes_the_request_once():
    """The first broadcast is held past the attempt timeout and commits
    while the retry backs off.  That notice completes the request: it
    used to go to the abandoned attempt, which counted and timed the
    request, while the retry re-endorsed after the commit and counted
    it a second time from the ledger, without the chaincode response."""
    plan = FaultPlan(
        seed=1,
        retry=RetryPolicy(timeout_ms=100.0, backoff_ms=500.0, jitter_ms=0.0),
        messages=(
            MessageFaultRule(
                channel="client_to_orderer",
                delay=1.0,
                delay_range_ms=(150.0, 150.0),
                until_ms=50.0,
            ),
        ),
    )
    network = _network(plan, commit_backend="reference")
    env = network.env
    endorsed_at, committed_at, completed_at = [], [], []
    for peer in network.peers:
        endorse = peer.endorse
        peer.endorse = lambda proposal, endorse=endorse: (
            endorsed_at.append(env.now) or endorse(proposal)
        )
    network.on_block(lambda block, result: committed_at.append(env.now))
    user = network.register_user("u")
    event = network.submit(
        Proposal(
            chaincode="supply",
            fn="create_item",
            args={"item": "i1", "owner": "M"},
            creator=user.user_id,
        )
    )
    event.callbacks.append(lambda fired: completed_at.append(env.now))
    notice = env.run(until=event)

    (commit,) = committed_at
    assert completed_at == [commit + network.config.latency.client_to_peer]
    assert notice.code is ValidationCode.VALID
    assert notice.response == {"holder": "M", "hops": 0, "handlers": ["M"]}
    assert network.metrics.committed_requests.value == 1
    assert len(network.metrics.latencies_ms) == 1
    assert endorsed_at and max(endorsed_at) < commit
    stats = network.faults.stats
    assert (stats["retries"], stats["rescued_notices"]) == (1, 0)
    env.run(until=env.now + 1_000.0)
    assert network.metrics.committed_requests.value == 1
    assert max(endorsed_at) < commit


def test_a_retry_endorsing_after_the_commit_completes_the_request():
    """The first broadcast is held past the attempt timeout and commits
    around the retry.  ``create_item`` is not idempotent: a retry that
    ran it again after the commit would raise, the item exists.  The
    tid is VALID on chain, so the request completes with that notice
    and the one endorsement's chaincode response.  The backoffs sweep
    the retry across the commit in 0.25 ms steps."""
    for step in range(160):
        backoff_ms = 60.0 + step * 0.25
        plan = FaultPlan(
            seed=1,
            retry=RetryPolicy(
                timeout_ms=100.0, backoff_ms=backoff_ms, jitter_ms=0.0
            ),
            messages=(
                MessageFaultRule(
                    channel="client_to_orderer",
                    delay=1.0,
                    delay_range_ms=(150.0, 150.0),
                    until_ms=50.0,
                ),
            ),
        )
        network = _network(plan, commit_backend="reference")
        user = network.register_user("u")
        notice = network.invoke_sync(
            user, "supply", "create_item", {"item": "i1", "owner": "M"}
        )
        assert notice.code is ValidationCode.VALID, backoff_ms
        assert notice.response == {
            "holder": "M",
            "hops": 0,
            "handlers": ["M"],
        }, backoff_ms
        assert network.metrics.committed_requests.value == 1, backoff_ms


def test_heal_during_a_commits_service_time():
    """heal() catches every peer up from the block log; a commit of the
    same block that was in its service time when heal ran used to wake
    up and die with ``expected block 1, got 0``."""
    network = _network(FaultPlan(seed=1, retry=RETRY), commit_backend="reference")
    network.install_chaincode(CounterContract())
    env = network.env
    injector = network.faults
    in_service = []
    factor = injector.service_factor
    injector.service_factor = lambda node: in_service.append(env.now) or factor(node)
    user = network.register_user("u")
    event = Gateway(network, user).submit_async(
        COUNTER_CHAINCODE, "bump", {"key": "k", "amount": 1}
    )
    while not in_service:
        env.step()
    env.run(until=in_service[0] + 1.0)
    injector.heal()
    notice = env.run(until=event)
    env.run(until=env.now + 500.0)
    assert notice.code is ValidationCode.VALID
    assert [peer.chain.height for peer in network.peers] == [1, 1]
    network.verify_convergence()


def test_a_timeout_retry_rebroadcasts_the_endorsed_transaction():
    """Two broadcasts of a tid are lost and the third is duplicated.
    Every retry re-sends the transaction its one endorsement produced:
    each endorser runs the chaincode once for the tid, and every copy
    that reaches the orderer is byte-identical."""
    plan = FaultPlan(
        seed=1,
        retry=RetryPolicy(timeout_ms=200.0, backoff_ms=20.0, jitter_ms=0.0),
        messages=(
            MessageFaultRule(
                channel="client_to_orderer", drop=1.0, max_drops=2, duplicate=1.0
            ),
        ),
    )
    network = _network(plan, commit_backend="reference")
    endorsed = Counter()
    for peer in network.peers:
        endorse = peer.endorse
        peer.endorse = lambda proposal, endorse=endorse: (
            endorsed.update([proposal.tid]) or endorse(proposal)
        )
    inbox = network._order_inbox
    put = inbox.put
    ordered = []
    inbox.put = lambda tx: ordered.append(tx) or put(tx)
    user = network.register_user("u")
    notice = network.invoke_sync(
        user, "supply", "create_item", {"item": "i1", "owner": "M"}
    )
    assert notice.code is ValidationCode.VALID
    assert notice.response == {"holder": "M", "hops": 0, "handlers": ["M"]}
    stats = network.faults.stats
    assert (stats["retries"], stats["deduped_txs"]) == (2, 1)
    assert endorsed == {notice.tid: network.config.endorsement_policy}
    assert [tx.tid for tx in ordered] == [notice.tid] * 2
    assert len({tx.digest() for tx in ordered}) == 1
    network.faults.heal()
    network.verify_convergence()
