"""Tests for the TxListContract and its batching service (§5.4)."""

import pytest

from repro.errors import ChaincodeError
from repro.fabric.network import Gateway
from repro.views.txlist_contract import TxListService
from repro.views.predicates import AttributeEquals


@pytest.fixture
def gateway(network):
    return Gateway(network, network.register_user("owner"))


@pytest.fixture
def service(gateway):
    return TxListService(gateway, flush_interval_ms=1_000.0)


def _register(service, view="w1", attr_value="W1"):
    service.register_view(view, AttributeEquals("to", attr_value).descriptor())


def test_register_and_empty_list(service):
    _register(service)
    assert service.get_list("w1") == []


def test_double_register_rejected(service):
    _register(service)
    with pytest.raises(ChaincodeError, match="already registered"):
        _register(service)


def test_bad_descriptor_rejected(service):
    with pytest.raises(ChaincodeError):
        service.register_view("bad", {"op": "martian"})


def test_flush_assigns_by_predicate(service):
    _register(service, "w1", "W1")
    _register(service, "w2", "W2")
    service.record("t1", {"to": "W1"})
    service.record("t2", {"to": "W2"})
    service.record("t3", {"to": "W1"})
    assert service.pending_count == 3
    flushed = service.flush()
    assert flushed == 3
    assert service.get_list("w1") == ["t1", "t3"]
    assert service.get_list("w2") == ["t2"]
    assert service.pending_count == 0


def test_flush_with_nothing_pending_is_noop(service):
    assert service.flush() == 0
    assert service.flush_count == 0


def test_segments_accumulate_across_flushes(service):
    _register(service)
    service.record("t1", {"to": "W1"})
    service.flush()
    service.record("t2", {"to": "W1"})
    service.flush()
    assert service.get_list("w1") == ["t1", "t2"]
    assert service.flush_count == 2


def test_interval_gating(service, network):
    _register(service)
    service.record("t1", {"to": "W1"})
    assert not service.due()  # interval not elapsed yet
    network.env.run(until=network.env.now + 2_000.0)
    assert service.due()
    assert service.flush() == 1
    service.record("t2", {"to": "W1"})
    assert not service.due()  # the flush restarted the interval
    network.env.run(until=network.env.now + 2_000.0)
    assert service.due()


def test_last_flush_timestamp(service, network):
    _register(service)
    assert service.gateway.query("txlist", "last_flush") is None
    service.record("t1", {"to": "W1"})
    service.flush()
    last = service.gateway.query("txlist", "last_flush")
    assert last is not None and last <= network.env.now


def test_flush_carries_view_data(service):
    _register(service)
    service.record("t1", {"to": "W1"}, view_data={"w1": {"t1": b"\x99"}})
    service.flush()
    data = service.gateway.query("txlist", "get_view_data", {"view": "w1"})
    assert data == {"t1": b"\x99"}


def test_onchain_predicate_assignment_is_owner_proof(service, gateway):
    """The contract, not the owner, decides list membership: an update
    whose public part matches a view lands on that view's list even if
    the owner 'intended' otherwise — completeness cannot be silently
    subverted via the list."""
    _register(service, "w1", "W1")
    service.record("sneaky", {"to": "W1"})
    service.flush()
    assert "sneaky" in service.get_list("w1")


def test_unflushed_records_not_visible(service):
    _register(service)
    service.record("t1", {"to": "W1"})
    assert service.get_list("w1") == []

