"""Partition differential suite: split-brain safety on raft and pbft.

The safety proof under partition, run against both real consensus
backends:

- while a minority-side consensus replica (and a validating peer) are
  partitioned away, the minority commits **nothing** and the majority
  keeps committing;
- after the partition heals, the isolated nodes catch up and the run is
  **byte-identical** — tips, per-block tid lists, state roots, clock —
  to a fault-free run of the same seed;
- an isolated raft leader is deposed without a disruptive term storm
  (PreVote), an isolated pbft primary is replaced by a view change, and
  in both cases client traffic keeps committing through the majority;
- asymmetric (mute) partitions deliver the gray failure they promise:
  the node keeps receiving blocks while nothing it sends gets out;
- a slow node and a lossy link act on their peer inside their window
  and nowhere else.

Also home to two fault-plan regressions: retry exhaustion, and
``heal()`` flushing in-flight delayed messages parked on timers beyond
the heal.
"""

from __future__ import annotations

import itertools
import random
import secrets as secrets_module

import pytest

from repro import build_network
from repro.errors import FaultInjectionError
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.faults import (
    FaultEvent,
    FaultPlan,
    InvariantMonitor,
    MessageFaultRule,
    RetryPolicy,
)
from repro.ledger import transaction as transaction_module

BACKENDS = ("raft", "pbft")


@pytest.fixture
def rearm(monkeypatch):
    """Seeded DRBG behind ``secrets`` + tid-counter reset, so every leg
    draws the same bytes and transaction ids in order."""

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


def _config(backend: str, plan: FaultPlan | None, peer_count: int = 4) -> NetworkConfig:
    kwargs = dict(
        latency=SINGLE_REGION,
        real_signatures=False,
        batch_timeout_ms=50.0,
        peer_count=peer_count,
        # "off" (not None) pins the clean leg fault-free even under an
        # ambient REPRO_FAULT_PLAN (a leg of CI's ambient job exports one).
        fault_plan=plan.to_json() if plan is not None else "off",
    )
    if backend == "raft":
        kwargs["use_raft"] = True
    else:
        kwargs["orderer_backend"] = backend
    return NetworkConfig(**kwargs)


def _minority_progress(network, backend: str):
    """How much the partitioned consensus replica (index 2) has committed."""
    if backend == "raft":
        return network.raft.nodes[2].commit_index
    return len(network.pbft.nodes[2].log)


#: Splits away one consensus replica and one validating peer for 1.5 s.
#: raft runs 3 orderers (majority 2 survives), pbft runs 4 (quorum 3
#: survives) — in both cases the rest of the deployment must not notice.
PARTITION_PLAN = FaultPlan(
    seed=13,
    retry=RetryPolicy(
        max_attempts=8, timeout_ms=3_000.0, backoff_ms=100.0, jitter_ms=0.0
    ),
    events=(
        FaultEvent(
            "partition",
            at_ms=600.0,
            for_ms=1_500.0,
            groups=(("orderer:2", "peer:3"),),
        ),
    ),
    redeliver_after_ms=150.0,
)


def _run_split_brain(backend: str, plan: FaultPlan | None):
    network = build_network(_config(backend, plan))
    monitor = InvariantMonitor(network)
    env = network.env
    user = network.register_user("alice")
    faulted = network.faults is not None

    def wave(tag, count=3):
        return [
            network.invoke_sync(
                user, "supply", "create_item", {"item": f"{tag}{i}", "owner": "W1"}
            )
            for i in range(count)
        ]

    notices = wave("pre")
    if env.now < 700.0:
        env.run(until=700.0)  # inside the partition window

    if faulted:
        frozen = _minority_progress(network, backend)
        peer3_height = network.peers[3].chain.height
        ref_height = network.reference_peer.chain.height

    notices += wave("mid")  # the majority keeps committing

    if faulted:
        # The minority side committed nothing while the majority grew.
        assert _minority_progress(network, backend) == frozen
        assert network.peers[3].chain.height == peer3_height
        assert network.reference_peer.chain.height > ref_height

    if env.now < 2_300.0:
        env.run(until=2_300.0)  # past the scheduled heal
    notices += wave("post")

    summary = None
    if faulted:
        summary = network.faults.summary()
        network.faults.heal()
        env.run(until=3_500.0)
        network.verify_convergence()
    else:
        env.run(until=3_500.0)
    monitor.check()

    peer = network.reference_peer
    fingerprint = {
        "codes": [n.code.value for n in notices],
        "tids": [n.tid for n in notices],
        "tip": peer.chain.tip_hash.hex(),
        "blocks": [
            (block.number, [tx.tid for tx in block.transactions])
            for block in peer.chain
        ],
        "state_root": peer.current_state_root().hex(),
        "sim_now": env.now,
    }
    return fingerprint, summary, network


@pytest.mark.parametrize("backend", BACKENDS)
def test_minority_partition_is_invisible_to_clients(backend, rearm):
    """Minority commits nothing, majority never stalls, and the healed
    run is byte-identical to the fault-free leg of the same seed."""
    rearm()
    clean, no_summary, _ = _run_split_brain(backend, None)
    rearm()
    split, summary, network = _run_split_brain(backend, PARTITION_PLAN)

    assert no_summary is None
    assert summary["partitions"] == 1
    assert summary["partition_heals"] == 1
    assert summary["messages_blocked_by_partition"] > 0
    assert summary["redeliveries"] > 0  # peer:3's blocks queued for redelivery

    assert split == clean
    assert clean["codes"] == ["valid"] * 9

    # Post-heal the isolated replica converged with the majority.
    if backend == "raft":
        logs = {
            tuple(
                tid
                for digest in network.raft.committed_payloads(node.node_id)
                for tid in digest
            )
            for node in network.raft.nodes
        }
        assert len(logs) == 1
    else:
        logs = {
            tuple(map(tuple, (node.log[seq] for seq in sorted(node.log))))
            for node in network.pbft.nodes
        }
        assert len(logs) == 1


def test_isolated_raft_leader_is_deposed_without_term_storm():
    """Cutting the leader off: the majority elects a replacement and
    keeps committing; the old leader freezes (PreVote keeps it from
    bumping terms in the minority) and catches up after heal."""
    plan = FaultPlan(
        seed=5,
        retry=RetryPolicy(
            max_attempts=10, timeout_ms=4_000.0, backoff_ms=200.0, jitter_ms=0.0
        ),
    )
    network = build_network(_config("raft", plan))
    monitor = InvariantMonitor(network)
    env = network.env
    faults = network.faults
    raft = network.raft
    # Plans without a partition event leave the consensus
    # connectivity hook unwired; this test drives the partition by hand
    # (the victim depends on who won the first election), so wire it.
    raft.connectivity = faults._orderer_connectivity
    user = network.register_user("alice")

    network.invoke_sync(user, "supply", "create_item", {"item": "a", "owner": "W1"})
    old_leader = raft.leader
    assert old_leader is not None
    old_commit = old_leader.commit_index
    old_term = old_leader.current_term

    faults.topology.activate(
        FaultEvent(
            "partition", at_ms=0.0, groups=((f"orderer:{old_leader.node_id}",),)
        )
    )

    notice = network.invoke_sync(
        user, "supply", "create_item", {"item": "b", "owner": "W1"}
    )
    assert notice.code.value == "valid"
    new_leader = raft.leader
    assert new_leader.node_id != old_leader.node_id
    assert new_leader.current_term > old_term
    # The deposed leader froze: nothing committed on the minority side,
    # and PreVote kept it from burning terms it could never win with.
    assert old_leader.commit_index == old_commit
    assert old_leader.current_term == old_term

    faults.heal()
    env.run(until=env.now + 500.0)  # heartbeats re-sync the stragglers
    monitor.check()
    logs = {
        tuple(
            tid
            for digest in raft.committed_payloads(node.node_id)
            for tid in digest
        )
        for node in raft.nodes
    }
    assert len(logs) == 1


def test_isolated_pbft_primary_triggers_view_change():
    """Cutting the primary off from the quorum: a view change installs
    a connected replica as primary and ordering continues."""
    plan = FaultPlan(
        seed=9,
        retry=RetryPolicy(
            max_attempts=10, timeout_ms=6_000.0, backoff_ms=200.0, jitter_ms=0.0
        ),
        events=(
            FaultEvent(
                "partition", at_ms=300.0, for_ms=2_500.0, groups=(("orderer:0",),)
            ),
        ),
    )
    network = build_network(_config("pbft", plan))
    monitor = InvariantMonitor(network)
    env = network.env
    pbft = network.pbft
    user = network.register_user("alice")
    assert pbft.primary == 0  # view 0: the node the plan isolates

    network.invoke_sync(user, "supply", "create_item", {"item": "a", "owner": "W1"})
    if env.now < 400.0:
        env.run(until=400.0)  # inside the partition window
    notice = network.invoke_sync(
        user, "supply", "create_item", {"item": "b", "owner": "W1"}
    )
    assert notice.code.value == "valid"
    assert pbft.stats["view_changes"] >= 1
    assert pbft.primary != 0

    network.faults.heal()
    env.run(until=env.now + 500.0)
    monitor.check()
    # The isolated ex-primary was gap-filled back to the quorum's log.
    logs = {
        tuple(map(tuple, (node.log[seq] for seq in sorted(node.log))))
        for node in pbft.nodes
    }
    assert len(logs) == 1


def test_asymmetric_partition_mutes_sends_but_not_receives():
    """A mute peer keeps committing delivered blocks: the partition cuts
    what it sends, not what it receives."""
    plan = FaultPlan(
        seed=21,
        retry=RetryPolicy(max_attempts=6, timeout_ms=2_000.0, backoff_ms=100.0),
        events=(
            FaultEvent(
                "partition",
                at_ms=100.0,
                for_ms=2_000.0,
                groups=(("peer:1",),),
                symmetric=False,
            ),
        ),
    )
    network = build_network(_config("raft", plan, peer_count=2))
    env = network.env
    faults = network.faults
    user = network.register_user("alice")

    env.run(until=200.0)  # partition active
    assert faults.reachable("orderer", "peer:1")  # ingress still open
    assert not faults.reachable("peer:1", "client")  # egress mute
    notices = [
        network.invoke_sync(
            user, "supply", "create_item", {"item": f"m{i}", "owner": "W1"}
        )
        for i in range(3)
    ]
    assert [n.code.value for n in notices] == ["valid"] * 3
    # The mute peer received and committed every block in real time —
    # no redelivery queue built up behind it.
    assert network.peers[1].chain.height == network.reference_peer.chain.height
    faults.heal()
    network.verify_convergence()


#: One gray failure of peer:1 over the first 1.5 s of the run: a slow
#: node stretches its commit service time, a lossy link loses every
#: block the orderer delivers to it.
DEGRADATIONS = {
    "slow_node": FaultEvent(
        kind="slow_node", at_ms=0.0, for_ms=1_500.0, node="peer:1", factor=4.0
    ),
    "link_loss": FaultEvent(
        kind="link_loss",
        at_ms=0.0,
        for_ms=1_500.0,
        src="orderer",
        dst="peer:1",
        drop=1.0,
    ),
}


@pytest.mark.parametrize("kind", sorted(DEGRADATIONS))
def test_degradation_acts_on_its_peer_only_inside_the_window(kind):
    """Inside the window the slow peer spends ``factor`` times the
    reference peer's service time on a block, or the lossy link leaves
    it behind until redelivery; after the window it commits in step."""
    spec = DEGRADATIONS[kind]
    plan = FaultPlan(seed=17, events=(spec,), redeliver_after_ms=100.0)
    network = build_network(_config("raft", plan, peer_count=2))
    env = network.env
    faults = network.faults
    committed_at: dict[tuple[int, int], float] = {}
    for index, peer in enumerate(network.peers):
        commit = peer.validate_and_commit

        def recording(block, *args, _index=index, _commit=commit, **kwargs):
            result = _commit(block, *args, **kwargs)
            committed_at[_index, block.number] = env.now
            return result

        peer.validate_and_commit = recording
    user = network.register_user("alice")

    def create(item):
        notice = network.invoke_sync(
            user, "supply", "create_item", {"item": item, "owner": "W1"}
        )
        assert notice.code.value == "valid"
        return network.block_log[notice.block_number]

    def lag(block):
        return committed_at[1, block.number] - committed_at[0, block.number]

    inside = create("in")
    window_end = spec.at_ms + spec.for_ms
    assert env.now < window_end
    if kind == "link_loss":
        assert network.peers[1].chain.height < network.reference_peer.chain.height
    env.run(until=window_end + 500.0)
    network.verify_convergence()  # caught up with no heal()
    redeliveries = faults.stats["redeliveries"]
    outside = create("out")
    env.run(until=env.now + 500.0)
    network.verify_convergence()

    if kind == "slow_node":
        service = network.config.commit_block_overhead_ms + sum(
            network._validate_service_ms(tx) for tx in inside.transactions
        )
        assert lag(inside) == pytest.approx((spec.factor - 1.0) * service)
        assert redeliveries == 0
    else:
        assert redeliveries > 0
        assert committed_at[1, inside.number] >= window_end
    assert lag(outside) == 0.0
    assert faults.stats["redeliveries"] == redeliveries


# --------------------------------------------------------------------------
# Regressions: retry exhaustion and heal() flushing.
# --------------------------------------------------------------------------


def test_without_deadline_the_same_plan_burns_all_attempts():
    """A submission whose every broadcast is lost spends all eight
    attempts, timeouts and backoffs, then fails loudly."""
    plan = FaultPlan(
        seed=3,
        retry=RetryPolicy(
            max_attempts=8, timeout_ms=1_000.0, backoff_ms=400.0, jitter_ms=0.0
        ),
        messages=(MessageFaultRule(channel="client_to_orderer", drop=1.0),),
    )
    network = build_network(_config("raft", plan, peer_count=2))
    user = network.register_user("u")
    with pytest.raises(FaultInjectionError, match="no commit notice"):
        network.invoke_sync(
            user, "supply", "create_item", {"item": "doomed", "owner": "M"}
        )
    assert network.env.now > 8_000.0


def test_heal_flushes_messages_delayed_past_the_heal():
    """Regression: a message parked on a 30 s delay timer used to stay
    parked across heal(); commits then waited out the whole delay.  The
    delay now races the heal event, so healing flushes it immediately."""
    plan = FaultPlan(
        seed=2,
        retry=RetryPolicy(max_attempts=1, timeout_ms=60_000.0, backoff_ms=10.0),
        messages=(
            MessageFaultRule(
                channel="client_to_orderer",
                delay=1.0,
                delay_range_ms=(30_000.0, 30_000.0),
            ),
        ),
    )
    network = build_network(_config("raft", plan, peer_count=2))
    env = network.env
    user = network.register_user("u")
    from repro.fabric.endorser import Proposal

    event = network.submit(
        Proposal(
            chaincode="supply",
            fn="create_item",
            args={"item": "late", "owner": "W1"},
            creator=user.user_id,
        )
    )
    env.run(until=600.0)
    assert not event.triggered  # still parked on the delay timer
    network.faults.heal()
    env.run(until=event)
    # Committed promptly after the heal, not at the 30 s mark.
    assert env.now < 5_000.0
    assert event.value.code.value == "valid"


def test_heal_flushes_block_deliveries_delayed_past_the_heal():
    """Same regression on the orderer→peer channel: a delivery delayed
    beyond the heal must land at heal time, not leave the peer behind
    until the stale timer expires."""
    plan = FaultPlan(
        seed=4,
        retry=RetryPolicy(max_attempts=2, timeout_ms=60_000.0, backoff_ms=10.0),
        messages=(
            MessageFaultRule(
                channel="orderer_to_peer",
                delay=1.0,
                delay_range_ms=(30_000.0, 30_000.0),
            ),
        ),
        redeliver_after_ms=150.0,
    )
    network = build_network(_config("raft", plan, peer_count=2))
    env = network.env
    user = network.register_user("u")
    from repro.fabric.endorser import Proposal

    event = network.submit(
        Proposal(
            chaincode="supply",
            fn="create_item",
            args={"item": "late", "owner": "W1"},
            creator=user.user_id,
        )
    )
    env.run(until=600.0)
    assert not event.triggered
    network.faults.heal()
    env.run(until=event)
    assert env.now < 5_000.0
    network.verify_convergence()



def test_partition_plan_json_round_trip():
    plan = FaultPlan(
        seed=42,
        events=(
            FaultEvent(
                "partition",
                at_ms=100.0,
                for_ms=500.0,
                groups=(("orderer:1",), ("peer:2", "peer:3")),
                symmetric=False,
            ),
        ),
    )
    restored = FaultPlan.from_source(plan.to_json())
    assert restored.events == plan.events
    assert restored.to_json() == plan.to_json()
