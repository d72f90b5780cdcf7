"""Every dispatched request has its own terminal event: one bad request
aborts alone, a read completes when it is served, a grant on its own
commit notice — never when the slowest member of its micro-batch does."""

from __future__ import annotations

import pytest

from repro import build_network
from repro.errors import ChaincodeError
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.serving import (
    AdmissionConfig,
    AsyncGateway,
    NetworkTarget,
    ServingRequest,
    ViewManagerTarget,
    drive,
)
from repro.views.hash_based import HashBasedManager
from repro.views.predicates import AttributeEquals
from repro.views.types import ViewMode
from repro.workload.zipf import CounterContract

#: Everything that arrives inside the linger window is one micro-batch.
ONE_BATCH = AdmissionConfig(
    max_inflight=64, shed_high=10_000, shed_low=5_000, max_batch=8, linger_ms=2.0
)


def _config() -> NetworkConfig:
    return NetworkConfig(
        latency=SINGLE_REGION,
        real_signatures=False,
        batch_timeout_ms=15.0,
        fault_plan="off",
    )


def _bump(index: int, key: str, fn: str = "bump") -> ServingRequest:
    return ServingRequest(
        index=index,
        session=0,
        payload={
            "chaincode": "counter",
            "fn": fn,
            "args": {"key": key, "amount": 1},
        },
    )


def test_one_bad_request_aborts_alone():
    """Regression: ``[bump a, counter.no_such_fn, bump b]`` used to raise
    ``ChaincodeError`` out of ``env.step()`` with both bumps committed
    and all three requests left without an outcome."""
    network = build_network(_config())
    network.install_chaincode(CounterContract())
    target = NetworkTarget(network, network.register_user("client"))
    gateway = AsyncGateway(target, ONE_BATCH)
    first, bad, last = _bump(0, "a"), _bump(1, "x", fn="no_such_fn"), _bump(2, "b")
    drive(gateway, [first, bad, last])
    assert gateway.batch_sizes == [3]
    assert bad.outcome == "aborted"
    assert isinstance(bad.detail, ChaincodeError)
    for request in (first, last):
        assert request.outcome == "committed"
        assert request.detail.code is ValidationCode.VALID
    # What the outcomes say is what the state holds.
    counters = {
        key: network.query("counter", "get", {"key": key}) for key in "axb"
    }
    assert counters == {"a": 1, "x": 0, "b": 1}
    # The refusal is known after endorsement, well before a block commits.
    assert bad.completed_ms < min(first.completed_ms, last.completed_ms)
    assert gateway.backlog() == 0
    metrics = gateway.metrics.finalize()
    assert (metrics.committed, metrics.aborted) == (2, 1)


def test_a_defect_in_the_simulation_is_not_an_outcome():
    """Only what a request can die of alone becomes ``aborted``; any
    other exception from a submission still stops the run."""
    network = build_network(_config())
    network.install_chaincode(CounterContract())
    target = NetworkTarget(network, network.register_user("client"))
    env, submit = network.env, network.submit

    def submit_with_defect(proposal):
        if proposal.args["key"] != "x":
            return submit(proposal)

        def defect():
            yield env.timeout(1.0)
            raise KeyError("a bug, not a refusal")

        return env.process(defect())

    network.submit = submit_with_defect
    requests = [_bump(0, "a"), _bump(1, "x"), _bump(2, "b")]
    with pytest.raises(KeyError, match="a bug, not a refusal"):
        drive(AsyncGateway(target, ONE_BATCH), requests)
    assert requests[1].outcome is None


def test_view_mix_batch_completes_request_by_request():
    network = build_network(_config())
    owner = network.register_user("owner")
    network.register_user("alice")
    network.register_user("bob")
    manager = HashBasedManager(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "M"), ViewMode.REVOCABLE)
    manager.grant_access("w1", "alice")
    invoke = ServingRequest(
        index=0,
        session=0,
        kind="invoke",
        payload={
            "fn": "create_item",
            "args": {"item": "srv-1", "owner": "M"},
            "public": {"item": "srv-1", "to": "M"},
            "secret": b'{"type":"phone"}',
        },
    )
    audit = ServingRequest(
        index=1, session=0, kind="audit", payload={"view": "w1", "principal": "alice"}
    )
    grant = ServingRequest(
        index=2, session=0, kind="grant", payload={"view": "w1", "principal": "bob"}
    )
    requests = [invoke, audit, grant]
    for request in requests:
        request.arrival_ms = network.env.now
    gateway = AsyncGateway(ViewManagerTarget(manager), ONE_BATCH)
    drive(gateway, requests)
    assert gateway.batch_sizes == [3]
    assert [r.outcome for r in requests] == ["committed"] * 3
    assert invoke.dispatched_ms == audit.dispatched_ms == grant.dispatched_ms
    # The read is served at dispatch and is terminal there.
    assert audit.completed_ms == audit.dispatched_ms
    # The grant is terminal at its own commit notice: the block its
    # transaction is in, plus the hop back to the client.
    chain = network.reference_peer.chain
    block_number, _position = chain.locate(grant.detail.tid)
    assert grant.detail.block_number == block_number
    assert grant.completed_ms > chain.block(block_number).header.timestamp
    # The invoke waits for its view maintenance, which is a later block.
    assert invoke.completed_ms > grant.completed_ms > audit.completed_ms
