"""A request is one process.

``FabricNetwork.submit`` starts one simulation process per request and
nothing else per request: the endorse-and-broadcast body of every
attempt runs inside it, whether the request commits first time, is
resubmitted after a lost broadcast, or is re-endorsed after an MVCC
conflict.  Only block deliveries start processes of their own.
"""

from __future__ import annotations

from dataclasses import replace

from repro import build_network
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.faults import FaultPlan, MessageFaultRule, RetryPolicy
from repro.workload.zipf import COUNTER_CHAINCODE, CounterContract


def _started_processes(network) -> list[str]:
    """Names of the processes the network starts from now on, block
    deliveries left out."""
    env = network.env
    names: list[str] = []
    start = env.process

    def process(generator):
        name = generator.__qualname__
        if name != "FabricNetwork._deliver":
            names.append(name)
        return start(generator)

    env.process = process
    return names


def test_a_fault_free_request_is_one_process(fast_config):
    network = build_network(replace(fast_config, fault_plan="off"))
    user = network.register_user("alice")
    started = _started_processes(network)
    notice = network.invoke_sync(
        user, "supply", "create_item", {"item": "i1", "owner": "M1"}
    )
    assert notice.code is ValidationCode.VALID
    assert started == ["FabricNetwork._request"]


def test_a_request_retried_after_timeouts_is_one_process(fast_config):
    plan = FaultPlan(
        seed=1,
        retry=RetryPolicy(timeout_ms=200.0, backoff_ms=20.0, jitter_ms=0.0),
        messages=(
            MessageFaultRule(channel="client_to_orderer", drop=1.0, max_drops=2),
        ),
    )
    network = build_network(replace(fast_config, fault_plan=plan.to_json()))
    user = network.register_user("alice")
    started = _started_processes(network)
    notice = network.invoke_sync(
        user, "supply", "create_item", {"item": "i1", "owner": "M1"}
    )
    assert notice.code is ValidationCode.VALID
    assert network.faults.stats["retries"] == 2
    assert started == ["FabricNetwork._request"]


def test_a_request_retried_after_an_mvcc_conflict_is_one_process(fast_config):
    network = build_network(
        replace(
            fast_config,
            fault_plan="off",
            commit_backend="reference",
            mvcc_retry_attempts=2,
        )
    )
    network.install_chaincode(CounterContract())
    client = Gateway(network, network.register_user("client"))
    started = _started_processes(network)
    events = [
        client.submit_async(COUNTER_CHAINCODE, "bump", {"key": "hot", "amount": 1})
        for _ in range(2)
    ]
    notices = network.env.run(until=network.env.all_of(events))
    assert [notice.code for notice in notices] == [ValidationCode.VALID] * 2
    assert network.mvcc_retries == 1
    assert started == ["FabricNetwork._request"] * 2
    # One notice per request: the conflicted attempt is not a request.
    assert network.metrics.committed_requests.value == 2
    assert len(network.metrics.latencies_ms) == 2
