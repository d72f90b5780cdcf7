"""Tests for off-chain key delivery."""

import pytest

from repro.errors import AccessDeniedError
from repro.fabric.network import Gateway
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.hash_based import HashBasedManager
from repro.views.manager import ViewReader
from repro.views.predicates import AttributeEquals
from repro.views.types import ViewMode

SECRET = b'{"cargo":"gpus"}'
PREDICATE = AttributeEquals("to", "W1")


@pytest.fixture(params=[EncryptionBasedManager, HashBasedManager])
def world(request, network):
    manager_cls = request.param
    alice = network.register_user("alice")
    carol = network.register_user("carol")  # second owner
    bob = network.register_user("bob")  # reader
    primary = manager_cls(Gateway(network, alice))
    primary.create_view("w1", PREDICATE, ViewMode.REVOCABLE)
    outcomes = [
        primary.invoke_with_secret(
            "create_item",
            {"item": f"i{i}", "owner": "W1"},
            {"item": f"i{i}", "from": None, "to": "W1", "access": ["W1"]},
            SECRET,
        )
        for i in range(2)
    ]
    return network, manager_cls, primary, carol, bob, outcomes


def test_offchain_grant_roundtrip(world):
    network, manager_cls, primary, carol, bob, outcomes = world
    before = network.metrics.onchain_txs.value
    sealed = primary.grant_access_offchain("w1", "bob")
    assert network.metrics.onchain_txs.value == before  # nothing on chain

    reader = ViewReader(bob, Gateway(network, bob))
    assert reader.accept_offchain_grant(sealed) == "w1"
    result = reader.read_view(primary, "w1")
    assert set(result.secrets) == {o.tid for o in outcomes}


def test_offchain_grant_dies_on_rotation(world):
    network, manager_cls, primary, carol, bob, outcomes = world
    network.register_user(f"decoy-{manager_cls.__name__}")
    sealed = primary.grant_access_offchain("w1", "bob")
    reader = ViewReader(bob, Gateway(network, bob))
    reader.accept_offchain_grant(sealed)
    # Rotation (revoking someone else) invalidates bob's cached key
    # unless he is re-granted.
    primary.grant_access_offchain("w1", f"decoy-{manager_cls.__name__}")
    primary.revoke_access("w1", f"decoy-{manager_cls.__name__}")
    with pytest.raises(AccessDeniedError):
        reader.read_view(primary, "w1")
