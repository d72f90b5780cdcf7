"""Stress tests for the transaction pipeline under many concurrent clients.

These pin the delivery guarantees: every submitted transaction gets
exactly one CommitNotice, nothing is lost or duplicated across blocks,
block numbers stay strictly monotone, and all peers converge — with ≥8
submitter processes in flight at once.
"""

from __future__ import annotations

import pytest

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.endorser import Proposal
from repro.fabric.peer import ValidationCode

SUBMITTERS = 12
PER_SUBMITTER = 15


def _network(real_signatures=False):
    return build_network(
        NetworkConfig(
            latency=SINGLE_REGION,
            real_signatures=real_signatures,
            batch_timeout_ms=50.0,
        )
    )


def _watch_blocks(network):
    """Record (block number, tids) as blocks commit on the reference peer."""
    seen: list[tuple[int, list[str]]] = []
    network.on_block(
        lambda block, _result: seen.append(
            (block.number, [tx.tid for tx in block.transactions])
        )
    )
    return seen


def _submitter(network, user_id, index, count, notices, stagger_ms=7.0):
    """One client process: submit ``count`` unique creates back to back."""
    env = network.env

    def run():
        for n in range(count):
            proposal = Proposal(
                chaincode="supply",
                fn="create_item",
                args={"item": f"item-{index}-{n}", "owner": "W1"},
                public={"item": f"item-{index}-{n}", "to": "W1"},
                creator=user_id,
                tid=f"tx-stress-{index:02d}-{n:03d}",
            )
            notice = yield network.submit(proposal)
            notices.append(notice)
            yield env.timeout(stagger_ms)

    return env.process(run())


def test_many_concurrent_submitters_lose_nothing():
    network = _network()
    env = network.env
    user = network.register_user("client")
    seen_blocks = _watch_blocks(network)
    notices: list = []
    processes = [
        _submitter(
            network, user.user_id, index, PER_SUBMITTER, notices,
            stagger_ms=3.0 + index,  # desynchronise the submitters
        )
        for index in range(SUBMITTERS)
    ]
    env.run(until=env.all_of(processes))
    network.verify_convergence()

    expected_tids = {
        f"tx-stress-{index:02d}-{n:03d}"
        for index in range(SUBMITTERS)
        for n in range(PER_SUBMITTER)
    }
    # Exactly one CommitNotice per submission — none lost, none doubled.
    noticed = [notice.tid for notice in notices]
    assert len(noticed) == SUBMITTERS * PER_SUBMITTER
    assert set(noticed) == expected_tids
    assert len(set(noticed)) == len(noticed)
    # Unique items, no interleaving on state: everything commits VALID.
    assert {notice.code for notice in notices} == {ValidationCode.VALID}
    # Blocks arrive with strictly monotone numbers and disjoint contents.
    numbers = [number for number, _tids in seen_blocks]
    assert numbers == sorted(numbers)
    assert len(set(numbers)) == len(numbers)
    committed = [tid for _number, tids in seen_blocks for tid in tids]
    assert len(set(committed)) == len(committed)
    assert set(committed) == expected_tids
    # The notices agree with where the chain actually put things.
    chain = network.reference_peer.chain
    for notice in notices:
        assert chain.locate(notice.tid)[0] == notice.block_number


def test_conflicting_submitters_get_exactly_one_notice_each():
    """Heavy same-key contention: every submission still gets exactly
    one notice, and exactly one contender per block-round wins."""
    network = _network()
    env = network.env
    user = network.register_user("client")
    manager_proposals = [
        Proposal(
            chaincode="supply",
            fn="create_item",
            args={"item": "contested", "owner": "W1"},
            public={"item": "contested", "to": "W1"},
            creator=user.user_id,
            tid=f"tx-contest-{n:02d}",
        )
        for n in range(8)
    ]
    events = [network.submit(p) for p in manager_proposals]
    env.run(until=env.all_of(events))
    network.verify_convergence()

    notices = [event.value for event in events]
    assert len({notice.tid for notice in notices}) == 8
    codes = [notice.code for notice in notices]
    # One winner creates the item; everyone else raced it in the same
    # block and lost (same pre-state endorsement, later position).
    assert codes.count(ValidationCode.VALID) == 1
    assert set(codes) <= {ValidationCode.VALID, ValidationCode.MVCC_CONFLICT}


def test_stress_with_real_signatures():
    """Real RSA endorsement signing under concurrent submitters
    (smaller scale: pure-Python RSA is slow)."""
    network = _network(real_signatures=True)
    env = network.env
    user = network.register_user("client")
    notices: list = []
    processes = [
        _submitter(network, user.user_id, index, 3, notices)
        for index in range(8)
    ]
    env.run(until=env.all_of(processes))
    network.verify_convergence()
    assert len(notices) == 24
    assert {notice.code for notice in notices} == {ValidationCode.VALID}
    assert len({notice.tid for notice in notices}) == 24


def test_phase_clock_accounts_a_live_run():
    """Every pipeline phase of a live run lands in the wall clock."""
    network = _network()
    env = network.env
    user = network.register_user("client")
    notices: list = []
    processes = [
        _submitter(network, user.user_id, index, 6, notices, stagger_ms=1.0)
        for index in range(8)
    ]
    env.run(until=env.all_of(processes))
    seconds = network.phase_wall.seconds
    assert {"endorse", "order", "commit"} <= set(seconds)
    assert all(total > 0.0 for total in seconds.values())


def test_gateway_batches_preserve_session_order_across_cuts():
    """Satellite of the serving tier: interleaved open-loop sessions
    drained through the async gateway's micro-batches must keep each
    session's submissions in chain order across batch boundaries, with
    exactly one terminal outcome per request."""
    from repro.serving import (
        AdmissionConfig,
        AsyncGateway,
        NetworkTarget,
        ServingRequest,
        drive,
    )

    network = _network()
    user = network.register_user("client")
    seen_blocks = _watch_blocks(network)
    target = NetworkTarget(network, user)
    gateway = AsyncGateway(
        target,
        AdmissionConfig(
            max_inflight=32,
            shed_high=10_000,  # nothing sheds: full delivery audit
            shed_low=5_000,
            max_batch=5,  # small batches force many cut boundaries
            linger_ms=3.0,
        ),
    )
    sessions = 6
    per_session = 20
    schedule: list[ServingRequest] = []
    for index in range(sessions * per_session):
        session = index % sessions
        schedule.append(
            ServingRequest(
                index=index,
                session=session,
                payload={
                    "chaincode": "supply",
                    "fn": "create_item",
                    "args": {"item": f"gw-{index}", "owner": "W1"},
                    "public": {"item": f"gw-{index}", "to": "W1"},
                    "tid": f"tx-gw-{session:02d}-{index // sessions:03d}",
                },
                # Sessions interleave: consecutive arrivals belong to
                # different sessions, so every batch mixes sessions.
                arrival_ms=index * 1.7,
            )
        )
    by_session = [
        [r for r in schedule if r.session == s] for s in range(sessions)
    ]
    drive(gateway, schedule)
    network.verify_convergence()

    # Exactly one terminal outcome per request, everything committed.
    assert all(r.outcome == "committed" for r in schedule)
    assert all(r.completed_ms is not None for r in schedule)
    # Exactly-once on chain: no request lost or duplicated by batching.
    committed = [tid for _number, tids in seen_blocks for tid in tids]
    assert sorted(committed) == sorted(
        r.payload["tid"] for r in schedule
    )
    assert len(set(committed)) == len(committed)
    # The notice each request carries agrees with the chain.
    chain = network.reference_peer.chain
    for request in schedule:
        block, _position = chain.locate(request.payload["tid"])
        assert block == request.detail.block_number
    # Per-session order survives micro-batch boundaries: a session's
    # n-th request never lands after its (n+1)-th in chain order.
    for s in range(sessions):
        locations = [
            chain.locate(r.payload["tid"]) for r in by_session[s]
        ]
        assert locations == sorted(locations)
    # The run really exercised batch boundaries (many partial batches).
    assert len(gateway.batch_sizes) > len(schedule) // 5
