"""TLC flush accounting: ``TxListService.due()`` and
``build_flush_proposal`` agree on what is pending across the three
buffers — business updates, explicit extra assignments, and
irrevocable view data.
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
