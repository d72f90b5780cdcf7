"""Edge-case tests for the view manager shared machinery."""

import dataclasses
import json

import pytest

from repro import build_network
from repro.errors import (
    AccessDeniedError,
    DecryptionError,
    InvalidKeyError,
    ViewNotFoundError,
)
from repro.fabric.network import Gateway
from repro.views import manager as manager_module
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.hash_based import HashBasedManager
from repro.views.manager import ViewReader
from repro.views.predicates import AttributeEquals, Everything
from repro.views.types import ViewMode


@pytest.fixture
def manager(network):
    owner = network.register_user("owner")
    return HashBasedManager(Gateway(network, owner))


def test_operations_on_unknown_view_raise(manager, network):
    network.register_user("bob")
    with pytest.raises(ViewNotFoundError):
        manager.grant_access("ghost", "bob")
    with pytest.raises(ViewNotFoundError):
        manager.revoke_access("ghost", "bob")
    with pytest.raises(ViewNotFoundError):
        manager.query_view("ghost", "bob")


def test_grant_to_unknown_user_raises(manager):
    manager.create_view("v", Everything(), ViewMode.REVOCABLE)
    from repro.errors import AccessControlError

    with pytest.raises(AccessControlError):
        manager.grant_access("v", "nobody")


def test_revoking_nonmember_raises(manager, network):
    manager.create_view("v", Everything(), ViewMode.REVOCABLE)
    network.register_user("bob")
    with pytest.raises(AccessDeniedError):
        manager.revoke_access("v", "bob")


def test_query_with_unknown_tids_is_silent(manager, network):
    """Requesting tids not in the view returns what exists; no leak, no
    error (matches serving semantics: you get what you may see)."""
    bob = network.register_user("bob")
    manager.create_view("v", Everything(), ViewMode.REVOCABLE)
    outcome = manager.invoke_with_secret(
        "create_item", {"item": "i", "owner": "x"}, {"item": "i", "to": "x"}, b"s"
    )
    manager.grant_access("v", "bob")
    reader = ViewReader(bob, Gateway(network, bob))
    result = reader.read_view(manager, "v", tids=[outcome.tid, "tx-ghost"])
    assert set(result.secrets) == {outcome.tid}


def test_irrevocable_view_creation_writes_meta_on_chain(network):
    owner = network.register_user("owner")
    manager = EncryptionBasedManager(Gateway(network, owner))
    manager.create_view("deeds", Everything(), ViewMode.IRREVOCABLE)
    meta = network.query("viewstorage", "get_meta", {"view": "deeds"})
    assert meta == {"owner": "owner", "concealment": "encryption"}


def test_revocable_view_creation_stays_off_chain(network):
    owner = network.register_user("owner")
    manager = EncryptionBasedManager(Gateway(network, owner))
    before = network.metrics.onchain_txs.value
    manager.create_view("v", Everything(), ViewMode.REVOCABLE)
    assert network.metrics.onchain_txs.value == before


def test_empty_secret_roundtrip(manager, network):
    bob = network.register_user("bob")
    manager.create_view("v", Everything(), ViewMode.REVOCABLE)
    outcome = manager.invoke_with_secret(
        "create_item", {"item": "i", "owner": "x"}, {"item": "i", "to": "x"}, b""
    )
    manager.grant_access("v", "bob")
    reader = ViewReader(bob, Gateway(network, bob))
    assert reader.read_view(manager, "v").secrets[outcome.tid] == b""


def test_large_secret_roundtrip(manager, network):
    bob = network.register_user("bob")
    manager.create_view("v", Everything(), ViewMode.REVOCABLE)
    payload = bytes(range(256)) * 64  # 16 KiB
    outcome = manager.invoke_with_secret(
        "create_item", {"item": "i", "owner": "x"}, {"item": "i", "to": "x"}, payload
    )
    manager.grant_access("v", "bob")
    reader = ViewReader(bob, Gateway(network, bob))
    assert reader.read_view(manager, "v").secrets[outcome.tid] == payload
    # Hash-based: the chain carries only a 32-byte digest, not 16 KiB.
    assert len(network.get_transaction(outcome.tid).concealed) == 32


def test_access_transactions_are_on_ledger(manager, network):
    network.register_user("bob")
    manager.create_view("v", Everything(), ViewMode.REVOCABLE)
    tid = manager.grant_access("v", "bob")
    tx = network.get_transaction(tid)
    public = tx.nonsecret["public"]
    assert public["access_view"] == "v"
    assert "bob" in public["grants"]
    # Sealed grants never contain the raw view key.
    key_material = manager.buffer.get("v").key.to_bytes()
    assert key_material.hex() not in tx.serialize().decode()


def test_key_version_increments_per_revocation(manager, network):
    for name in ("u1", "u2", "u3"):
        network.register_user(name)
    manager.create_view("v", Everything(), ViewMode.REVOCABLE)
    for name in ("u1", "u2", "u3"):
        manager.grant_access("v", name)
    record = manager.buffer.get("v")
    keys_seen = {record.key.to_bytes()}
    for i, name in enumerate(("u1", "u2"), start=1):
        manager.revoke_access("v", name)
        assert record.key_version == i
        assert record.key.to_bytes() not in keys_seen  # always fresh
        keys_seen.add(record.key.to_bytes())


def test_one_transaction_many_views_single_buffer_entry_each(manager, network):
    for i in range(4):
        manager.create_view(f"v{i}", Everything(), ViewMode.REVOCABLE)
    outcome = manager.invoke_with_secret(
        "create_item", {"item": "i", "owner": "x"}, {"item": "i", "to": "x"}, b"s"
    )
    assert len(outcome.views) == 4
    for i in range(4):
        assert manager.buffer.get(f"v{i}").tids == [outcome.tid]


@pytest.mark.parametrize("offchain", [False, True])
def test_grant_whose_seal_fails_leaves_the_buffer_unchanged(fast_config, offchain):
    """No RSA-OAEP block fits in a 512-bit modulus, so every seal to
    such a principal raises; the grant must not authorize it anyway."""
    network = build_network(dataclasses.replace(fast_config, key_bits=512))
    manager = HashBasedManager(Gateway(network, network.register_user("owner")))
    record = manager.create_view("v", Everything(), ViewMode.REVOCABLE)
    network.register_user("weak")
    grant = manager.grant_access_offchain if offchain else manager.grant_access
    with pytest.raises(InvalidKeyError):
        grant("v", "weak")
    assert record.authorized == {} and record.offchain == set()
    assert manager.access_tx_ids.get("v", []) == []
    with pytest.raises(AccessDeniedError):
        manager.query_view("v", "weak")


def test_revoke_whose_seal_fails_leaves_the_buffer_unchanged(
    manager, network, monkeypatch
):
    record = manager.create_view("v", Everything(), ViewMode.REVOCABLE)
    for name in ("bob", "carol"):
        network.register_user(name)
        manager.grant_access("v", name)
    before = (record.key, record.key_version, dict(record.authorized))
    access_txs = list(manager.access_tx_ids["v"])

    def failing(*_args):
        raise InvalidKeyError("seal failed")

    monkeypatch.setattr(manager_module, "seal_many", failing)
    with pytest.raises(InvalidKeyError):
        manager.revoke_access("v", "carol")
    assert (record.key, record.key_version, record.authorized) == before
    assert manager.access_tx_ids["v"] == access_txs
    assert manager.query_view("v", "carol")


@pytest.mark.parametrize("manager_cls", [EncryptionBasedManager, HashBasedManager])
def test_a_reply_to_an_impostor_opens_to_no_key_it_can_get(network, manager_cls):
    """The reply is not sealed to the requester, so a caller that names
    an authorized principal it does not hold is served.  What it gets
    is ciphertext under ``K_V``: it can obtain no ``K_V`` of its own,
    and a revoked reader's stale ``K_V`` opens none of the entries."""
    manager = manager_cls(Gateway(network, network.register_user("owner")))
    manager.create_view("v", Everything(), ViewMode.REVOCABLE)
    users = {name: network.register_user(name) for name in ("bob", "carol", "mallory")}
    tids = [
        manager.invoke_with_secret(
            "create_item", {"item": item, "owner": "x"}, {"item": item}, b"s"
        ).tid
        for item in ("i", "j")
    ]
    manager.grant_access("v", "bob")
    manager.grant_access("v", "carol")
    readers = {
        name: ViewReader(user, Gateway(network, user)) for name, user in users.items()
    }
    stale_key, _ = readers["carol"].obtain_view_key("v", manager.access_tx_ids["v"])
    manager.revoke_access("v", "carol")

    body = json.loads(manager.query_view("v", "bob"))  # mallory, claiming bob
    assert body["view"] == "v" and body["key_version"] == 1
    assert sorted(body["entries"]) == sorted(tids)
    for name in ("mallory", "carol"):
        with pytest.raises(AccessDeniedError):
            readers[name].obtain_view_key("v", manager.access_tx_ids["v"])
    for entry in body["entries"].values():
        with pytest.raises(DecryptionError):
            stale_key.decrypt(bytes.fromhex(entry))
    assert sorted(readers["bob"].read_view(manager, "v").secrets) == sorted(tids)
