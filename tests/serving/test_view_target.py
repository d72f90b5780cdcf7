"""The view-manager dispatch target: invokes, RBAC, audits via the
async gateway — and the async grant/revoke paths it rides on."""

from __future__ import annotations

import pytest

from repro.errors import AccessDeniedError, LedgerViewError
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.serving import (
    AdmissionConfig,
    AsyncGateway,
    OpenLoopConfig,
    ServingMix,
    ViewManagerTarget,
    drive,
    view_mix_builder,
)
from repro.serving.gateway import ServingRequest
from repro.serving.loadgen import run_open_loop
from repro.views.hash_based import HashBasedManager
from repro.views.predicates import AttributeEquals
from repro.views.types import ViewMode

SECRET = b'{"type":"phone","amount":10,"price_cents":19900}'

WIDE_OPEN = AdmissionConfig(
    max_inflight=64, shed_high=10_000, shed_low=5_000, max_batch=8, linger_ms=2.0
)


@pytest.fixture
def manager(network):
    owner = network.register_user("owner")
    for principal in ("alice", "bob", "carol", "dave"):
        network.register_user(principal)
    manager = HashBasedManager(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "M"), ViewMode.REVOCABLE)
    return manager


def _run_schedule(manager, schedule):
    """Drive hand-crafted (time, request) pairs through the gateway."""
    for when, request in schedule:
        request.arrival_ms = when
    gateway = AsyncGateway(ViewManagerTarget(manager), WIDE_OPEN)
    drive(gateway, [request for _when, request in schedule])


def _request(index, kind, payload, arrival_ms):
    return ServingRequest(
        index=index, session=0, kind=kind, payload=payload, arrival_ms=arrival_ms
    )


def test_invoke_grant_audit_roundtrip(manager):
    invoke = _request(
        0,
        "invoke",
        {
            "fn": "create_item",
            "args": {"item": "srv-1", "owner": "M"},
            "public": {"item": "srv-1", "to": "M"},
            "secret": SECRET,
        },
        arrival_ms=0.0,
    )
    grant = _request(1, "grant", {"view": "w1", "principal": "alice"}, 1.0)
    audit = _request(2, "audit", {"view": "w1", "principal": "alice"}, 400.0)
    _run_schedule(manager, [(0.0, invoke), (1.0, grant), (400.0, audit)])
    assert invoke.outcome == "committed"
    assert invoke.detail.notice.code is ValidationCode.VALID
    assert grant.outcome == "committed"
    assert audit.outcome == "committed"
    assert audit.detail > 0  # size of the reply served
    # The grant took durably, not just inside the run.
    assert len(manager.query_view("w1", "alice")) == audit.detail


def test_revoke_without_grant_is_aborted_not_fatal(manager):
    invoke = _request(
        0,
        "invoke",
        {
            "fn": "create_item",
            "args": {"item": "srv-2", "owner": "M"},
            "public": {"item": "srv-2", "to": "M"},
            "secret": SECRET,
        },
        arrival_ms=0.0,
    )
    revoke = _request(1, "revoke", {"view": "w1", "principal": "nobody"}, 0.5)
    _run_schedule(manager, [(0.0, invoke), (0.5, revoke)])
    # The bad RBAC op aborts alone; the invoke sharing the run commits.
    assert revoke.outcome == "aborted"
    assert isinstance(revoke.detail, LedgerViewError)
    assert invoke.outcome == "committed"


def test_audit_by_unauthorized_principal_aborts(manager):
    audit = _request(0, "audit", {"view": "w1", "principal": "mallory"}, 0.0)
    _run_schedule(manager, [(0.0, audit)])
    assert audit.outcome == "aborted"
    assert isinstance(audit.detail, AccessDeniedError)


def test_open_loop_view_mix(manager):
    config = OpenLoopConfig(
        offered_tps=50.0,
        requests=40,
        sessions=4,
        seed=21,
        mix=ServingMix(invoke=0.7, grant=0.2, revoke=0.0, audit=0.1),
    )
    target = ViewManagerTarget(manager)
    metrics, requests = run_open_loop(
        target,
        config,
        view_mix_builder("w1", ["alice", "bob"]),
        admission=WIDE_OPEN,
    )
    assert metrics.shed == 0
    assert all(r.outcome in ("committed", "aborted") for r in requests)
    invokes = [r for r in requests if r.kind == "invoke"]
    assert invokes and all(r.outcome == "committed" for r in invokes)
    # Early audits may race the first grant (policy aborts), but once
    # both principals are granted the remaining audits succeed.
    grants = [r for r in requests if r.kind == "grant"]
    assert grants and all(r.outcome == "committed" for r in grants)


def test_async_grant_matches_sync_grant(manager):
    env = manager.gateway.network.env
    event = manager.grant_access_async("w1", "carol")
    record = manager.buffer.get("w1")
    assert "carol" in record.authorized  # recorded before publication
    notice = env.run(until=event)
    assert notice.code is ValidationCode.VALID
    # The grant is effective: carol's queries are served, not refused.
    assert isinstance(manager.query_view("w1", "carol"), bytes)


def test_async_revoke_rotates_key(manager):
    manager.grant_access("w1", "dave")
    record = manager.buffer.get("w1")
    version_before = record.key_version
    event = manager.revoke_access_async("w1", "dave")
    env = manager.gateway.network.env
    notice = env.run(until=event)
    assert notice.code is ValidationCode.VALID
    assert "dave" not in record.authorized
    assert record.key_version == version_before + 1
    with pytest.raises(AccessDeniedError):
        manager.query_view("w1", "dave")
