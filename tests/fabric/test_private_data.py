"""Tests for private data collections (the Fig 13 comparison system)."""

import pytest

from repro.errors import AccessDeniedError, TransactionNotFoundError
from repro.fabric.peer import ValidationCode
from repro.fabric.private_data import PrivateDataManager

PAYLOAD = b'{"type":"phone","amount":10}'


def _submit(pdc, *args):
    return pdc.network.env.run(until=pdc.submit_private(*args))


@pytest.fixture
def pdc(network):
    manager = PrivateDataManager(network)
    manager.create_collection("shipments", {"org1"})
    return manager


@pytest.fixture
def member(network):
    return network.register_user("alice", organization="org1")


@pytest.fixture
def outsider(network):
    return network.register_user("mallory", organization="org9")


def test_submit_hides_payload_on_chain(network, pdc, member):
    notice = _submit(
        pdc, member, "shipments", "create_item",
        {"item": "i1", "owner": "M1"}, {"item": "i1", "to": "M1"}, PAYLOAD,
    )
    assert notice.code is ValidationCode.VALID
    tx = network.get_transaction(notice.tid)
    assert PAYLOAD not in tx.serialize()
    assert len(tx.concealed) == 32  # salted hash only
    assert tx.nonsecret["public"]["pdc"] == "shipments"


def test_member_reads_and_validates(network, pdc, member):
    notice = _submit(
        pdc, member, "shipments", "create_item",
        {"item": "i1", "owner": "M1"}, {"item": "i1"}, PAYLOAD,
    )
    assert pdc.read_private(member, "shipments", notice.tid) == PAYLOAD


def test_outsider_denied(network, pdc, member, outsider):
    notice = _submit(
        pdc, member, "shipments", "create_item",
        {"item": "i1", "owner": "M1"}, {"item": "i1"}, PAYLOAD,
    )
    with pytest.raises(AccessDeniedError):
        pdc.read_private(outsider, "shipments", notice.tid)


def test_unknown_collection_rejected(pdc, member):
    with pytest.raises(AccessDeniedError):
        _submit(
            pdc, member, "ghost", "create_item", {"item": "i", "owner": "M"}, {}, PAYLOAD
        )


def test_side_store_tampering_detected(network, pdc, member):
    notice = _submit(
        pdc, member, "shipments", "create_item",
        {"item": "i1", "owner": "M1"}, {"item": "i1"}, PAYLOAD,
    )
    collection = pdc.collection("shipments")
    for store in collection.side_stores.values():
        store[notice.tid] = b"tampered"
    with pytest.raises(TransactionNotFoundError, match="does not match"):
        pdc.read_private(member, "shipments", notice.tid)


def test_only_member_org_peers_hold_side_stores(network):
    manager = PrivateDataManager(network)
    collection = manager.create_collection("c", {"org2"})
    member_peers = {
        p.peer_id for p in network.peers if p.identity.organization == "org2"
    }
    assert set(collection.side_stores) == member_peers
