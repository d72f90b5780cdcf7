"""Owner outages seen through the async gateway.

An injected view-owner outage must degrade, not destroy, a serving
micro-batch: the synchronous owner-mediated operations (audits) in the
batch abort alone with :class:`~repro.errors.OwnerUnavailableError`,
while invocations sharing the very same dispatch queue at the offline
owner and commit once the outage lifts — and the gateway keeps serving
afterwards as if nothing happened.
"""

from __future__ import annotations

from repro import build_network
from repro.errors import OwnerUnavailableError
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.faults import FaultEvent, FaultPlan
from repro.serving import AdmissionConfig, AsyncGateway, ViewManagerTarget, drive
from repro.serving.gateway import ServingRequest
from repro.views.hash_based import HashBasedManager
from repro.views.predicates import AttributeEquals
from repro.views.types import ViewMode

SECRET = b'{"type":"phone","amount":3,"price_cents":900}'

WIDE_OPEN = AdmissionConfig(
    max_inflight=64, shed_high=10_000, shed_low=5_000, max_batch=8, linger_ms=2.0
)

#: Owner offline for four seconds, starting well after view setup.
OUTAGE_PLAN = FaultPlan(
    seed=21,
    events=(FaultEvent(kind="owner_outage", at_ms=1_000.0, for_ms=4_000.0),),
)


def _manager():
    network = build_network(
        NetworkConfig(
            latency=SINGLE_REGION,
            real_signatures=False,
            batch_timeout_ms=50.0,
            fault_plan=OUTAGE_PLAN.to_json(),
        )
    )
    owner = network.register_user("owner")
    network.register_user("alice")
    manager = HashBasedManager(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "M"), ViewMode.REVOCABLE)
    manager.grant_access("w1", "alice")
    assert network.env.now < 1_000.0  # setup finished before the outage
    return manager, network


def _run_schedule(manager, schedule):
    for when, request in schedule:
        request.arrival_ms = when
    gateway = AsyncGateway(ViewManagerTarget(manager), WIDE_OPEN)
    drive(gateway, [request for _when, request in schedule])
    return gateway


def _request(index, kind, payload):
    return ServingRequest(index=index, session=0, kind=kind, payload=payload)


def test_outage_mid_batch_fails_only_owner_bound_requests():
    manager, network = _manager()
    invoke = _request(
        0,
        "invoke",
        {
            "fn": "create_item",
            "args": {"item": "out-1", "owner": "M"},
            "public": {"item": "out-1", "to": "M"},
            "secret": SECRET,
        },
    )
    audit = _request(1, "audit", {"view": "w1", "principal": "alice"})
    late_audit = _request(2, "audit", {"view": "w1", "principal": "alice"})

    # invoke+audit arrive together mid-outage; the third audit arrives
    # after the outage has lifted.
    _run_schedule(
        manager, [(1_200.0, invoke), (1_200.0, audit), (5_500.0, late_audit)]
    )

    # The audit is a synchronous owner interaction: it aborts alone ...
    assert audit.outcome == "aborted"
    assert isinstance(audit.detail, OwnerUnavailableError)
    # ... while the invoke sharing its micro-batch queues at the offline
    # owner and commits once the outage lifts.
    assert audit.dispatched_ms == invoke.dispatched_ms  # same micro-batch
    assert invoke.outcome == "committed"
    assert invoke.completed_ms is not None and invoke.completed_ms > 5_000.0

    # The gateway is fully serviceable after the outage.
    assert late_audit.outcome == "committed"
    assert late_audit.detail > 0  # reply bytes served
    assert network.faults.summary()["owner_outages"] == 1
    # And the queued invocation truly landed in the view.
    assert len(manager.buffer.get("w1").tids) == 1


def test_outage_does_not_leak_into_neighbouring_sessions():
    """Two sessions' invokes and one doomed audit share the run: every
    invoke commits, only the audit carries the outage."""
    manager, _network = _manager()
    requests = [
        _request(
            i,
            "invoke",
            {
                "fn": "create_item",
                "args": {"item": f"out-{i}", "owner": "M"},
                "public": {"item": f"out-{i}", "to": "M"},
                "secret": SECRET,
            },
        )
        for i in range(3)
    ]
    doomed = _request(3, "audit", {"view": "w1", "principal": "alice"})
    schedule = [(1_100.0, r) for r in requests] + [(1_100.0, doomed)]
    _run_schedule(manager, schedule)

    assert [r.outcome for r in requests] == ["committed"] * 3
    assert doomed.outcome == "aborted"
    assert isinstance(doomed.detail, OwnerUnavailableError)
