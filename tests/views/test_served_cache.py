"""The served-entry cache of a revocable view, for ER and HR.

``ViewManager.query_view`` encrypts each view entry once per view key
``K_V`` and serves that ciphertext to later queries.  The contract:

- a repeated query over unchanged tids encrypts nothing under ``K_V``,
  and what it serves still decrypts and passes the soundness audit;
- a revocation rotates ``K_V``, after which every served entry is a
  fresh ciphertext under the new key and the revoked principal is
  refused;
- the Byzantine-owner windows sit in front of the cache: a
  ``byzantine_corrupt_view`` window serves tampered entries over a warm
  cache (and leaves it clean), and a ``byzantine_stale_view`` window
  still omits late tids.
"""

import json

import pytest

from repro import build_network
from repro.crypto.envelope import open_sealed
from repro.errors import AccessDeniedError, DecryptionError, VerificationError
from repro.fabric.config import SINGLE_REGION, NetworkConfig, RetryPolicy
from repro.fabric.network import Gateway
from repro.faults import FaultEvent, FaultPlan
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.hash_based import HashBasedManager
from repro.views.manager import ViewReader
from repro.views.predicates import AttributeEquals
from repro.views.types import ViewMode
from repro.views.verification import ViewVerifier

PREDICATE = AttributeEquals("to", "W1")
MANAGERS = {"ER": EncryptionBasedManager, "HR": HashBasedManager}


def _world(method, *events):
    plan = FaultPlan(seed=6, retry=RetryPolicy(timeout_ms=5_000.0), events=events)
    network = build_network(
        NetworkConfig(
            latency=SINGLE_REGION,
            real_signatures=False,
            batch_timeout_ms=50.0,
            fault_plan=plan.to_json() if events else "off",
        )
    )
    manager = MANAGERS[method](Gateway(network, network.register_user("owner")))
    manager.create_view("w1", PREDICATE, ViewMode.REVOCABLE)
    return network, manager


def _insert(manager, names):
    return [
        manager.invoke_with_secret(
            "create_item",
            {"item": name, "owner": "W1"},
            {"item": name, "from": None, "to": "W1"},
            f"manifest-{name}".encode(),
        ).tid
        for name in names
    ]


def _reader(network, manager, name, offchain=False):
    user = network.register_user(name)
    reader = ViewReader(user, Gateway(network, user))
    if offchain:
        reader.accept_offchain_grant(manager.grant_access_offchain("w1", name))
    else:
        manager.grant_access("w1", name)
    return reader, ViewVerifier(Gateway(network, user))


def _entries(manager, reader, tids=None):
    """The entries ``query_view`` serves the reader: tid → ciphertext hex."""
    sealed = manager.query_view("w1", reader.user.user_id, tids)
    return json.loads(open_sealed(reader.user.keypair.private, sealed))["entries"]


def _sound(verifier, manager, result):
    return verifier.verify_soundness("w1", PREDICATE, result, manager.concealment)


@pytest.mark.parametrize("method", sorted(MANAGERS))
def test_repeated_query_encrypts_no_entry_again(method, encryptions):
    network, manager = _world(method)
    tids = _insert(manager, ["a", "b", "c"])
    reader, verifier = _reader(network, manager, "bob")
    view_key = manager.buffer.get("w1").key.material

    first = reader.read_view(manager, "w1")
    assert encryptions.count(view_key) == len(tids)
    again = reader.read_view(manager, "w1")
    subset = reader.read_view(manager, "w1", tids=tids[1:])
    assert encryptions.count(view_key) == len(tids)
    assert again.secrets == first.secrets and sorted(again.secrets) == sorted(tids)
    assert subset.secrets == {tid: first.secrets[tid] for tid in tids[1:]}
    assert _sound(verifier, manager, again).ok

    # A later insertion costs exactly its own entry.
    (late,) = _insert(manager, ["d"])
    assert sorted(reader.read_view(manager, "w1").secrets) == sorted(tids + [late])
    assert encryptions.count(view_key) == len(tids) + 1


@pytest.mark.parametrize("method", sorted(MANAGERS))
def test_buffer_rewritten_in_place_is_served_as_it_now_is(method):
    """An owner that forges its buffer after a warm query is caught as
    if the cache were not there (§4.7 case 2)."""
    network, manager = _world(method)
    tids = _insert(manager, ["a", "b"])
    reader, _ = _reader(network, manager, "bob")
    reader.read_view(manager, "w1")
    data = manager.buffer.get("w1").data[tids[0]]
    if method == "HR":
        data["secret"] = b"forged"
    else:
        data["key"] = b"\x01" * 16
    with pytest.raises(VerificationError):
        reader.read_view(manager, "w1")


@pytest.mark.parametrize("method", sorted(MANAGERS))
def test_revoke_serves_every_entry_fresh_under_the_new_key(method):
    network, manager = _world(method)
    tids = _insert(manager, ["a", "b", "c"])
    bob, verifier = _reader(network, manager, "bob")
    carol, _ = _reader(network, manager, "carol")
    old_key = manager.buffer.get("w1").key
    before = _entries(manager, bob)
    assert _entries(manager, bob) == before  # warm: the same ciphertext

    manager.revoke_access("w1", "carol")
    after = _entries(manager, bob)
    assert sorted(after) == sorted(before) == sorted(tids)
    assert not set(after.values()) & set(before.values())
    for entry in after.values():
        with pytest.raises(DecryptionError):
            old_key.decrypt(bytes.fromhex(entry))
    with pytest.raises(AccessDeniedError):
        manager.query_view("w1", "carol")
    with pytest.raises(AccessDeniedError):
        carol.read_view(manager, "w1")
    result = bob.read_view(manager, "w1")
    assert sorted(result.secrets) == sorted(tids)
    assert _sound(verifier, manager, result).ok


@pytest.mark.parametrize("method", sorted(MANAGERS))
def test_corrupt_window_bypasses_a_warm_cache(method):
    window = FaultEvent(kind="byzantine_corrupt_view", at_ms=2_000.0, for_ms=1_000.0)
    network, manager = _world(method, window)
    tids = _insert(manager, ["a", "b", "c"])
    reader, verifier = _reader(network, manager, "bob", offchain=True)
    view_key = manager.buffer.get("w1").key
    warm = _entries(manager, reader)
    assert network.env.now < window.at_ms, "the cache must warm before the window"

    network.env.run(until=2_500.0)
    tampered = _entries(manager, reader)
    for tid in tids:
        assert view_key.decrypt(bytes.fromhex(tampered[tid])) != view_key.decrypt(
            bytes.fromhex(warm[tid])
        )
    if method == "HR":
        result = reader.read_view(manager, "w1", validate=False)
        assert _sound(verifier, manager, result).violations == tids
    else:  # a tampered K_i cannot decrypt the on-chain ciphertext at all
        with pytest.raises(VerificationError, match="does not decrypt"):
            reader.read_view(manager, "w1")

    network.env.run(until=3_500.0)  # the window has closed
    assert _entries(manager, reader) == warm  # and left the cache clean
    assert _sound(verifier, manager, reader.read_view(manager, "w1")).ok


@pytest.mark.parametrize("method", sorted(MANAGERS))
def test_stale_window_still_omits_late_tids_over_a_warm_cache(method, encryptions):
    window = FaultEvent(kind="byzantine_stale_view", at_ms=2_000.0, for_ms=60_000.0)
    network, manager = _world(method, window)
    early = _insert(manager, ["a0", "a1"])
    reader, verifier = _reader(network, manager, "bob", offchain=True)
    assert sorted(_entries(manager, reader)) == sorted(early)  # warm
    assert network.env.now < window.at_ms

    network.env.run(until=2_500.0)
    late = _insert(manager, ["b0", "b1"])
    view_key = manager.buffer.get("w1").key.material
    cached = encryptions.count(view_key)
    assert sorted(_entries(manager, reader)) == sorted(early)
    assert _entries(manager, reader, tids=late) == {}
    assert encryptions.count(view_key) == cached
    report = verifier.verify_completeness(
        "w1", PREDICATE, set(reader.read_view(manager, "w1").secrets)
    )
    assert report.missing == sorted(late)

    network.faults.heal()
    result = reader.read_view(manager, "w1")
    assert sorted(result.secrets) == sorted(early + late)
    assert verifier.verify_completeness("w1", PREDICATE, set(result.secrets)).ok
