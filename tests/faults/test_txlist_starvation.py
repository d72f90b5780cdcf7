"""Regression: TLC flushes must not starve non-business buffers.

The bug: ``TxListService.due()`` tested only ``self._pending`` (the
business-transaction buffer), while ``build_flush_proposal`` drains
three buffers — business updates, explicit extra assignments, and
irrevocable view data.  A batch holding *only* extra grants or only
view data never became due: the grant sat unflushed (invisible to
completeness verification) until an unrelated business transaction
happened to arrive.
"""

import pytest

from repro.fabric.network import Gateway
from repro.views.predicates import AttributeEquals
from repro.views.txlist_contract import TxListService


@pytest.fixture
def gateway(network):
    return Gateway(network, network.register_user("owner"))


@pytest.fixture
def service(gateway):
    return TxListService(gateway, flush_interval_ms=100.0)


def _register(service, view="w1", attr_value="W1"):
    service.register_view(view, AttributeEquals("to", attr_value).descriptor())


def _advance(service, ms):
    env = service.gateway.network.env
    env.run(until=env.now + ms)


def test_extra_only_batch_flushes(service):
    _register(service)
    service.record_extra([("w1", "t-historic")])
    assert service.pending_count == 1
    _advance(service, 200.0)
    assert service.due(), "extra-only batch never became due (starvation)"
    assert service.maybe_flush() == 1
    assert service.get_list("w1") == ["t-historic"]


def test_view_data_only_batch_flushes(service):
    _register(service)
    service.record_extra([], view_data={"w1": {"t9": b"entry".hex()}})
    assert service.pending_count == 1
    _advance(service, 200.0)
    assert service.due(), "view-data-only batch never became due (starvation)"
    assert service.flush() == 1
    data = service.gateway.query("txlist", "get_view_data", {"view": "w1"})
    assert data == {"t9": b"entry".hex()}


def test_flush_reports_all_drained_work(service):
    _register(service)
    service.record(
        "t1",
        {"to": "W1"},
        view_data={"w1": {"t1": b"e1".hex()}},
        extra_assignments=[("w1", "t0")],
    )
    # 1 business + 1 extra + 1 view-data entry.
    assert service.pending_count == 3
    assert service.flush() == 3
    assert service.pending_count == 0
    assert service.flush() == 0


def test_empty_service_is_never_due(service):
    _register(service)
    _advance(service, 500.0)
    assert not service.due()
    assert service.build_flush_proposal() is None
    assert service.maybe_flush() == 0
