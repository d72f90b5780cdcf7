"""End-to-end tests of the four view methods (EI, ER, HI, HR).

Each test runs against every applicable method via parametrization, so
the shared grant/read/verify machinery is exercised under both
concealment styles and both revocation modes.
"""

import pytest

from repro.errors import (
    AccessDeniedError,
    DuplicateViewError,
    RevocationError,
)
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.hash_based import HashBasedManager
from repro.views.manager import ViewReader
from repro.views.predicates import AttributeEquals, Everything
from repro.views.types import Concealment, ViewMode

METHODS = {
    "EI": (EncryptionBasedManager, ViewMode.IRREVOCABLE),
    "ER": (EncryptionBasedManager, ViewMode.REVOCABLE),
    "HI": (HashBasedManager, ViewMode.IRREVOCABLE),
    "HR": (HashBasedManager, ViewMode.REVOCABLE),
}

SECRET = b'{"type":"phone","amount":10,"price_cents":19900}'


@pytest.fixture(params=sorted(METHODS))
def setup(request, network):
    """(method, manager, reader, reader_user) for each of the 4 methods."""
    manager_cls, mode = METHODS[request.param]
    owner = network.register_user("owner")
    reader_user = network.register_user("bob")
    manager = manager_cls(Gateway(network, owner))
    reader = ViewReader(reader_user, Gateway(network, reader_user))
    manager.create_view("w1", AttributeEquals("to", "W1"), mode)
    return request.param, manager, reader, reader_user


def _invoke(manager, item="i1", to="W1", secret=SECRET, fn="create_item"):
    args = (
        {"item": item, "owner": to}
        if fn == "create_item"
        else {"item": item, "sender": "X", "receiver": to}
    )
    return manager.invoke_with_secret(
        fn, args, {"item": item, "from": None, "to": to, "access": [to]}, secret
    )


def _read(reader, manager, view="w1"):
    _, mode = METHODS[type(manager).__name__ == "EncryptionBasedManager" and "EI" or "HI"]
    return reader.read_view(manager, view)


def test_invoke_routes_to_matching_views(setup):
    method, manager, _, _ = setup
    outcome = _invoke(manager)
    assert outcome.notice.code is ValidationCode.VALID
    assert outcome.views == ["w1"]
    record = manager.buffer.get("w1")
    assert outcome.tid in record.data
    assert record.tids == [outcome.tid]


def test_nonmatching_tx_left_out(setup):
    _, manager, _, _ = setup
    outcome = _invoke(manager, to="W9")
    assert outcome.views == []
    assert not manager.buffer.get("w1").contains(outcome.tid)


def test_secret_is_concealed_on_chain(setup):
    method, manager, _, _ = setup
    outcome = _invoke(manager)
    tx = manager.gateway.network.get_transaction(outcome.tid)
    assert SECRET not in tx.serialize()
    if manager.concealment is Concealment.HASH:
        assert len(tx.concealed) == 32  # a digest
        assert len(tx.salt) > 0
    else:
        assert len(tx.concealed) > len(SECRET)  # ciphertext + overhead
        assert tx.salt == b""


def test_granted_reader_recovers_secret(setup):
    _, manager, reader, reader_user = setup
    outcome = _invoke(manager)
    manager.grant_access("w1", reader_user.user_id)
    result = reader.read_view(manager, "w1")
    assert result.secrets == {outcome.tid: SECRET}


def test_unauthorized_query_refused(setup):
    _, manager, reader, _ = setup
    _invoke(manager)
    with pytest.raises(AccessDeniedError):
        reader.read_view(manager, "w1")


def test_query_subset_of_tids(setup):
    _, manager, reader, reader_user = setup
    first = _invoke(manager, item="i1")
    second = _invoke(manager, item="i2")
    manager.grant_access("w1", reader_user.user_id)
    result = reader.read_view(manager, "w1", tids=[second.tid])
    assert set(result.secrets) == {second.tid}
    # Requesting a subset must not reveal the other transaction.
    assert first.tid not in result.secrets


def test_duplicate_view_name_rejected(setup):
    _, manager, _, _ = setup
    with pytest.raises(DuplicateViewError):
        manager.create_view("w1", Everything())


def test_multi_view_membership(setup):
    method, manager, reader, reader_user = setup
    _, mode = METHODS[method]
    manager.create_view("everything", Everything(), mode)
    outcome = _invoke(manager)
    assert set(outcome.views) == {"w1", "everything"}
    manager.grant_access("everything", reader_user.user_id)
    result = reader.read_view(manager, "everything")
    assert outcome.tid in result.secrets


@pytest.mark.parametrize("method", ["ER", "HR"])
def test_revocation_blocks_future_reads(method, network):
    manager_cls, mode = METHODS[method]
    owner = network.register_user("owner")
    bob = network.register_user("bob")
    carol = network.register_user("carol")
    manager = manager_cls(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "W1"), mode)
    outcome = _invoke(manager)
    manager.grant_access("w1", "bob")
    manager.grant_access("w1", "carol")

    bob_reader = ViewReader(bob, Gateway(network, bob))
    assert bob_reader.read_view(manager, "w1").secrets[outcome.tid] == SECRET

    manager.revoke_access("w1", "bob")
    with pytest.raises(AccessDeniedError):
        bob_reader.read_view(manager, "w1")
    # Carol keeps access through the rotated key.
    carol_reader = ViewReader(carol, Gateway(network, carol))
    result = carol_reader.read_view(manager, "w1")
    assert result.secrets[outcome.tid] == SECRET
    assert result.key_version == 1


@pytest.mark.parametrize("method", ["ER", "HR"])
def test_revoked_key_cannot_decrypt_served_data(method, network):
    """Even if a buggy owner serves a revoked user, the stale K_V no
    longer decrypts the response entries."""
    manager_cls, mode = METHODS[method]
    owner = network.register_user("owner")
    bob = network.register_user("bob")
    manager = manager_cls(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "W1"), mode)
    import json

    from repro.errors import DecryptionError

    outcome = _invoke(manager)
    manager.grant_access("w1", "bob")
    bob_reader = ViewReader(bob, Gateway(network, bob))
    stale_key, _ = bob_reader.obtain_view_key("w1", manager.access_tx_ids["w1"])
    manager.revoke_access("w1", "bob")
    # The newest access transaction no longer carries a grant for bob.
    with pytest.raises(AccessDeniedError, match="no current grant"):
        bob_reader.obtain_view_key("w1", manager.access_tx_ids["w1"])
    # Buggy owner: serve bob anyway. The entries are under the rotated
    # K_V, so the stale key fails authentication.
    record = manager.buffer.get("w1")
    record.authorized["bob"] = network.msp.public_key_of("bob")
    body = json.loads(manager.query_view("w1", "bob"))
    entry = bytes.fromhex(body["entries"][outcome.tid])
    with pytest.raises(DecryptionError):
        stale_key.decrypt(entry)


@pytest.mark.parametrize("method", ["EI", "HI"])
def test_irrevocable_views_cannot_revoke(method, network):
    manager_cls, mode = METHODS[method]
    owner = network.register_user("owner")
    network.register_user("bob")
    manager = manager_cls(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "W1"), mode)
    manager.grant_access("w1", "bob")
    with pytest.raises(RevocationError):
        manager.revoke_access("w1", "bob")


@pytest.mark.parametrize("method", ["EI", "HI"])
def test_irrevocable_read_from_chain_without_owner(method, network):
    """The defining property of EI/HI: once granted, the reader gets the
    data from the ViewStorage contract — the owner cannot take it back
    or refuse to serve."""
    manager_cls, mode = METHODS[method]
    owner = network.register_user("owner")
    bob = network.register_user("bob")
    manager = manager_cls(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "W1"), mode)
    outcome = _invoke(manager)
    manager.grant_access("w1", "bob")
    reader = ViewReader(bob, Gateway(network, bob))
    result = reader.read_irrevocable_view(manager, "w1")
    assert result.secrets == {outcome.tid: SECRET}
    # Owner "deletes" its local buffer — on-chain data still serves.
    manager.buffer.get("w1").data.clear()
    again = reader.read_irrevocable_view(manager, "w1")
    assert again.secrets == {outcome.tid: SECRET}


@pytest.mark.parametrize("method", ["EI", "HI"])
def test_irrevocable_onchain_tx_count_is_two_per_request(method, network):
    """Fig 6: irrevocable views cost the invoke plus one merge per request."""
    manager_cls, mode = METHODS[method]
    owner = network.register_user("owner")
    manager = manager_cls(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "W1"), mode)
    before = network.metrics.onchain_txs.value
    for i in range(3):
        _invoke(manager, item=f"i{i}")
    added = network.metrics.onchain_txs.value - before
    assert added == 6  # 3 invokes + 3 merges


@pytest.mark.parametrize("method", ["ER", "HR"])
def test_revocable_onchain_tx_count_is_one_per_request(method, network):
    manager_cls, mode = METHODS[method]
    owner = network.register_user("owner")
    manager = manager_cls(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "W1"), mode)
    before = network.metrics.onchain_txs.value
    for i in range(3):
        _invoke(manager, item=f"i{i}")
    assert network.metrics.onchain_txs.value - before == 3


def test_extra_views_grant_history(setup):
    method, manager, reader, reader_user = setup
    _, mode = METHODS[method]
    manager.create_view("w2", AttributeEquals("to", "W2"), mode)
    first = _invoke(manager, item="i1", to="W1")
    # Second transfer grants W2's view access to the first transaction.
    second = manager.invoke_with_secret(
        "transfer",
        {"item": "i1", "sender": "W1", "receiver": "W2"},
        {"item": "i1", "from": "W1", "to": "W2", "access": ["W1", "W2"]},
        SECRET,
        extra_views={"w2": [first.tid]},
    )
    record = manager.buffer.get("w2")
    assert record.contains(first.tid)
    assert record.contains(second.tid)
    manager.grant_access("w2", reader_user.user_id)
    result = (
        reader.read_irrevocable_view(manager, "w2")
        if mode is ViewMode.IRREVOCABLE
        else reader.read_view(manager, "w2")
    )
    assert set(result.secrets) == {first.tid, second.tid}


def test_view_annotation_in_payload(setup):
    """Transactions carry a per-view annotation (the Fig 10 payload
    mechanism) naming each view they joined."""
    _, manager, _, _ = setup
    outcome = _invoke(manager)
    tx = manager.gateway.network.get_transaction(outcome.tid)
    assert set(tx.nonsecret["public"]["views"]) == {"w1"}


def test_encryption_reader_receives_tx_keys(network):
    owner = network.register_user("owner")
    bob = network.register_user("bob")
    manager = EncryptionBasedManager(Gateway(network, owner))
    manager.create_view("w1", AttributeEquals("to", "W1"), ViewMode.REVOCABLE)
    outcome = _invoke(manager)
    manager.grant_access("w1", "bob")
    reader = ViewReader(bob, Gateway(network, bob))
    result = reader.read_view(manager, "w1")
    tx = network.get_transaction(outcome.tid)
    assert result.tx_keys[outcome.tid].decrypt(tx.concealed) == SECRET
