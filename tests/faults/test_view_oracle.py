"""The view oracle holds view owners to Prop 4.1 and revocation.

:meth:`repro.faults.InvariantMonitor.assert_views` (part of ``check()``)
folds each registered manager's views from the reference peer's chain
and compares the owner's state with it.  A lifecycle run — concurrent
conflicting creates, a batch, a historical-access grant, TxListContract
flushes, on- and off-chain grants, queries and a revocation — must pass
as the program is, and fail with each of six owner-side functions
mutated (the ``_mutant`` helper of the isolation-oracle tests: one
snippet replaced, which must occur exactly once).
"""

from __future__ import annotations

import pytest

from repro import build_network
from repro.errors import InvariantViolationError
from repro.fabric.network import Gateway
from repro.fabric.peer import ValidationCode
from repro.faults import InvariantMonitor
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.hash_based import HashBasedManager
from repro.views.manager import ViewInvocation, ViewManager, ViewReader
from repro.views.predicates import AttributeEquals
from repro.views.txlist_contract import TxListService
from repro.views.types import ViewMode
from repro.views.verification import ViewVerifier

from tests.faults.test_isolation_oracle import _mutant

PREDICATE = AttributeEquals("to", "W1")


def _request(item: str, to: str) -> tuple:
    return (
        "create_item",
        {"item": item, "owner": to},
        {"item": item, "from": None, "to": to},
        f"manifest-{item}".encode(),
    )


def _conflicting_creates(manager) -> list:
    """Two concurrent ``create_item("dup")``: one commits, one conflicts."""
    env = manager.gateway.network.env
    events = [
        manager.invoke_with_secret_async(*_request("dup", "W1")) for _ in range(2)
    ]
    return env.run(until=env.all_of(events))


@pytest.fixture
def network(fast_config):
    """A network every ambient selector reaches, a fault plan included."""
    return build_network(fast_config)


def _check(monitor):
    """``monitor.check()`` once any ambient fault plan has healed: its
    convergence check needs every peer caught up, and a partitioned
    peer is not until the injector heals it."""
    if monitor.network.faults is not None:
        monitor.network.faults.heal()
    monitor.check()


def _lifecycle(network, manager_cls=HashBasedManager):
    """Every owner-side path the oracle judges; returns the manager."""
    manager = manager_cls(
        Gateway(network, network.register_user("owner")),
        use_txlist=True,
        txlist_flush_interval_ms=0.0,
    )
    manager.create_view("w1", PREDICATE, ViewMode.REVOCABLE)
    manager.create_view("w2", AttributeEquals("to", "W2"), ViewMode.REVOCABLE)
    _conflicting_creates(manager)
    batch = manager.invoke_many(
        [
            ViewInvocation(*_request(f"b{i}", to))
            for i, to in enumerate(["W1", "W2", "W1", "W2"])
        ]
    )
    # Historical access: w1 gains a W2 transfer outside its predicate.
    manager.invoke_with_secret(
        *_request("h", "W1"), extra_views={"w1": [batch[1].tid]}
    )
    for principal in ("bob", "carol", "dave"):
        network.register_user(principal)
    manager.grant_access("w1", "bob")
    manager.grant_access("w1", "carol")
    manager.query_view("w1", "bob")
    manager.revoke_access("w1", "carol")
    manager.query_view("w1", "bob")
    manager.grant_access_offchain("w1", "dave")
    # The last request stays in the owner's unflushed TLC batch.
    manager.txlist.flush_interval_ms = 1e9
    manager.invoke_with_secret(*_request("tail", "W1"))
    return manager


@pytest.mark.parametrize("manager_cls", [HashBasedManager, EncryptionBasedManager])
def test_unmutated_lifecycle_passes(network, manager_cls):
    monitor = InvariantMonitor(network)
    manager = _lifecycle(network, manager_cls)
    _check(monitor)
    record = manager.buffer.get("w1")
    assert record.key_version == 1 and record.served_entries()
    assert manager.txlist.unflushed()[0]


def test_rejected_transaction_joins_no_view(network):
    """An MVCC-conflicted request is neither buffered nor served, and an
    honest owner that omits it passes the reader's completeness audit."""
    monitor = InvariantMonitor(network)
    manager = HashBasedManager(Gateway(network, network.register_user("owner")))
    manager.create_view("w1", PREDICATE, ViewMode.REVOCABLE)
    outcomes = _conflicting_creates(manager)
    codes = sorted(outcome.notice.code.value for outcome in outcomes)
    assert codes == sorted(
        [ValidationCode.VALID.value, ValidationCode.MVCC_CONFLICT.value]
    )
    committed, rejected = sorted(
        outcomes, key=lambda outcome: outcome.notice.code is not ValidationCode.VALID
    )
    record = manager.buffer.get("w1")
    assert record.tids == [committed.tid]
    assert rejected.views == [] and committed.views == ["w1"]
    reader = network.register_user("bob")
    manager.grant_access("w1", "bob")
    served = ViewReader(reader, Gateway(network, reader)).read_view(manager, "w1")
    assert set(served.secrets) == {committed.tid}
    verifier = ViewVerifier(manager.gateway)
    verifier.verify_completeness("w1", PREDICATE, set(record.tids)).assert_ok()
    _check(monitor)


def test_oracle_holds_after_every_request(network):
    monitor = InvariantMonitor(network)
    manager = HashBasedManager(Gateway(network, network.register_user("owner")))
    manager.create_view("w1", PREDICATE, ViewMode.REVOCABLE)
    for i in range(5):
        manager.invoke_with_secret(*_request(f"i{i}", "W1" if i % 2 else "W9"))
        monitor.assert_views()


def test_omitted_and_foreign_tids_are_caught(network):
    monitor = InvariantMonitor(network)
    manager = HashBasedManager(Gateway(network, network.register_user("owner")))
    manager.create_view("w1", PREDICATE, ViewMode.REVOCABLE)
    kept = manager.invoke_with_secret(*_request("a", "W1"))
    manager.invoke_with_secret(*_request("b", "W1"))
    record = manager.buffer.get("w1")
    monitor.assert_views()
    omitted = record.tids.pop()
    with pytest.raises(InvariantViolationError, match="omits"):
        monitor.assert_views()
    record.tids.append(omitted)
    record.tids.append("tx-smuggled")
    record.data["tx-smuggled"] = record.data[kept.tid]
    with pytest.raises(InvariantViolationError, match="not VALID on chain"):
        monitor.assert_views()


# -- six owner-side mutants ---------------------------------------------------------


def _assert_caught(monkeypatch, network, owner, function, old: str, new: str):
    """The lifecycle fails ``check()`` — through the view oracle alone —
    with ``function`` of ``owner`` mutated."""
    monkeypatch.setattr(owner, function.__name__, _mutant(function, old, new))
    monitor = InvariantMonitor(network)
    _lifecycle(network)
    with pytest.raises(InvariantViolationError, match="violation"):
        _check(monitor)
    monitor.assert_exactly_once()
    monitor.assert_isolation()
    with pytest.raises(InvariantViolationError, match="(view|revocation) violation"):
        monitor.assert_views()


def test_tlc_flush_dropping_a_tid_is_caught(monkeypatch, network):
    _assert_caught(
        monkeypatch,
        network,
        TxListService,
        TxListService.build_flush_proposal,
        "batch, self._pending = self._pending, []",
        "batch, self._pending = self._pending[1:], []",
    )


def test_revoke_skipping_key_rotation_is_caught(monkeypatch, network):
    _assert_caught(
        monkeypatch,
        network,
        ViewManager,
        ViewManager.revoke_access_async,
        "key = SymmetricKey.generate()",
        "key = record.key",
    )


def test_revoke_leaving_the_principal_authorized_is_caught(monkeypatch, network):
    _assert_caught(
        monkeypatch,
        network,
        ViewManager,
        ViewManager.revoke_access_async,
        "del record.authorized[principal_id]",
        "pass",
    )


def test_hash_owner_buffering_a_wrong_secret_is_caught(monkeypatch, network):
    _assert_caught(
        monkeypatch,
        network,
        HashBasedManager,
        HashBasedManager._buffered_data,
        '"secret": processed.plaintext',
        '"secret": processed.plaintext + b"!"',
    )


def test_predicate_over_a_stale_nonsecret_is_caught(monkeypatch, network):
    _assert_caught(
        monkeypatch,
        network,
        ViewManager,
        ViewManager._stage,
        "self.buffer.matching(inv.public)",
        "self.buffer.matching(staged[-1][0].public if staged else inv.public)",
    )


def test_owner_buffering_a_rejected_transaction_is_caught(monkeypatch, network):
    _assert_caught(
        monkeypatch,
        network,
        ViewManager,
        ViewManager._settle,
        "if notice.code is not ValidationCode.VALID:",
        "if False:",
    )
