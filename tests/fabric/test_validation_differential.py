"""Differential suite: shared validation verdicts equal a lone replay.

The live network validates every block through one shared
:class:`~repro.fabric.validation.BlockValidationMemo`: the first peer
computes the verdicts, the rest reuse them when their tip matches.
After each seeded scenario the isolation oracle
(:meth:`repro.faults.InvariantMonitor.assert_isolation`) must pass on
the live run, and the ordered block log is replayed serially into a
fresh shadow peer with ``validate_and_commit(..., memo=None)`` — the
lone path catch-up and genesis replay take, a fresh memo per block with
nothing shared — whose per-block validation codes, rebased write sets,
chain tip hash and state root must equal the live peers'.  The
workloads force MVCC conflicts (same-item transfers landing in one
block, commutative bumps the occ backend rebases) so conflict handling
is exercised on real blocks, not just the happy path.

``invoke_many`` intentionally changes *which* maintenance transactions
exist (one coalesced merge per batch instead of one per request), so
its test compares semantics — business state, served secrets, view
sizes, audit verdicts — against the same requests issued as concurrent
``invoke_with_secret_async`` calls, and separately pins the coalescing.
"""

from __future__ import annotations

import itertools
import random
import secrets as secrets_module

import pytest

from repro import build_network
from repro.fabric.config import SINGLE_REGION, NetworkConfig
from repro.fabric.network import Gateway
from repro.faults import InvariantMonitor
from repro.ledger import transaction as transaction_module
from repro.views.encryption_based import EncryptionBasedManager
from repro.views.hash_based import HashBasedManager
from repro.views.manager import ViewInvocation, ViewReader
from repro.views.predicates import AttributeEquals
from repro.views.types import ViewMode
from repro.views.verification import ViewVerifier
from repro.workload.zipf import CounterContract

METHODS = {
    "EI": (EncryptionBasedManager, ViewMode.IRREVOCABLE),
    "ER": (EncryptionBasedManager, ViewMode.REVOCABLE),
    "HI": (HashBasedManager, ViewMode.IRREVOCABLE),
    "HR": (HashBasedManager, ViewMode.REVOCABLE),
}

PREDICATE = AttributeEquals("to", "W1")


@pytest.fixture(autouse=True)
def seeded(monkeypatch):
    """Seeded randomness and tid sequence, so every scenario builds the
    same blocks (and the same conflicts) on every run."""
    rng = random.Random(0x1EDE9)
    monkeypatch.setattr(
        secrets_module, "token_bytes", lambda n=32: rng.randbytes(n)
    )
    monkeypatch.setattr(secrets_module, "randbits", rng.getrandbits)
    monkeypatch.setattr(secrets_module, "randbelow", lambda n: rng.randrange(n))
    monkeypatch.setattr(
        transaction_module, "_tid_counter", itertools.count(7_000_000)
    )


def _network(**overrides):
    """A network plus the reference peer's per-block commit results."""
    network = build_network(
        NetworkConfig(
            latency=SINGLE_REGION,
            real_signatures=False,
            batch_timeout_ms=50.0,
            **overrides,
        )
    )
    live_results = []
    network.on_block(lambda _block, result: live_results.append(result))
    return network, live_results


def _assert_serial_replay_matches(network, live_results):
    """The oracle passes, and a lone serial replay lands where the live
    peers (the first filling each block's memo, the rest reusing its
    verdicts) landed."""
    network.verify_convergence()
    InvariantMonitor(network).assert_isolation()
    live = network.reference_peer
    shadow = live.empty_replica()
    replayed = [
        shadow.validate_and_commit(
            block,
            network._peer_keys,
            network._peer_secrets,
            policy=network.config.endorsement_policy,
            memo=None,
        )
        for block in network.block_log
    ]
    assert len(replayed) == len(live_results) > 0
    for oracle, memoised in zip(replayed, live_results):
        assert memoised.block_number == oracle.block_number
        assert memoised.codes == oracle.codes
        assert memoised.rebased == oracle.rebased
    for peer in network.peers:
        assert peer.validation_codes == shadow.validation_codes
        assert peer.chain.tip_hash == shadow.chain.tip_hash
        assert peer.current_state_root() == shadow.current_state_root()


def _wave(manager, requests):
    """Issue ``requests`` concurrently; returns their outcomes in order."""
    env = manager.gateway.network.env
    events = [
        manager.invoke_with_secret_async(fn, args, public, secret)
        for fn, args, public, secret in requests
    ]
    env.run(until=env.all_of(events))
    return [event.value for event in events]


def _transfer(item, receiver, secret):
    return (
        "transfer",
        {"item": item, "sender": "W1", "receiver": receiver},
        {"item": item, "from": "W1", "to": receiver},
        secret,
    )


def _create(item, secret):
    return (
        "create_item",
        {"item": item, "owner": "W1"},
        {"item": item, "from": None, "to": "W1"},
        secret,
    )


def _read_and_audit(network, manager, view, mode):
    """Serve ``view`` to a fresh reader and audit it against the ledger."""
    reader_user = network.register_user("bob")
    reader = ViewReader(reader_user, Gateway(network, reader_user))
    reader.accept_offchain_grant(manager.grant_access_offchain(view, "bob"))
    if mode is ViewMode.IRREVOCABLE:
        result = reader.read_irrevocable_view(manager, view)
    else:
        result = reader.read_view(manager, view)
    verifier = ViewVerifier(Gateway(network, reader_user))
    soundness = verifier.verify_soundness(
        view, PREDICATE, result, manager.concealment
    )
    completeness = verifier.verify_completeness(
        view, PREDICATE, set(result.secrets)
    )
    return result, soundness, completeness


@pytest.mark.parametrize("method", sorted(METHODS))
def test_memoised_validation_matches_serial_replay(method):
    """Creates, a forced same-block MVCC conflict, then read + audit."""
    manager_cls, mode = METHODS[method]
    network, live_results = _network()
    manager = manager_cls(Gateway(network, network.register_user("owner")))
    manager.create_view("w1", PREDICATE, mode)

    _wave(manager, [_create(f"i{i}", f"manifest-{i}".encode()) for i in range(4)])
    # Two transfers of i0 start at the same instant: both endorse
    # against the same pre-state, land in the same block, and exactly
    # one must lose with MVCC_CONFLICT.  The i1 transfer is the
    # independent bystander the conflict must not disturb.
    transfers = _wave(
        manager,
        [
            _transfer("i0", "W2", b"waybill-a"),
            _transfer("i0", "W3", b"waybill-b"),
            _transfer("i1", "W2", b"waybill-c"),
        ],
    )
    _assert_serial_replay_matches(network, live_results)

    # The scenario really exercised what it claims to: a conflicting
    # pair in one block, one winner, one MVCC loser, bystander intact.
    assert [out.notice.code.value for out in transfers] == [
        "valid",
        "mvcc_conflict",
        "valid",
    ]
    chain = network.reference_peer.chain
    assert chain.locate(transfers[0].tid)[0] == chain.locate(transfers[1].tid)[0]
    result, soundness, completeness = _read_and_audit(
        network, manager, "w1", mode
    )
    assert result.secrets  # the audit ran over real served data
    assert soundness.ok and not soundness.violations
    assert completeness.ok and not completeness.missing


def test_three_way_race_matches_serial_replay():
    """A denser conflict pattern: three same-item transfers in one wave."""
    network, live_results = _network()
    manager = HashBasedManager(Gateway(network, network.register_user("owner")))
    manager.create_view("w1", PREDICATE, ViewMode.REVOCABLE)
    _wave(manager, [_create("hot", b"hot-manifest")])
    race = _wave(
        manager, [_transfer("hot", f"W{n}", f"race-{n}".encode()) for n in (2, 3, 4)]
    )
    _assert_serial_replay_matches(network, live_results)
    # First contender wins, the other two lose to its write.
    assert [out.notice.code.value for out in race] == [
        "valid",
        "mvcc_conflict",
        "mvcc_conflict",
    ]


def test_occ_rebased_writes_match_serial_replay():
    """The memo must hand replicas the *rebased* write sets, or peers
    diverge: four peers, two waves of commutative bumps that all land
    in one block each and rebase behind the per-key winner."""
    bumps = [("a", 1), ("a", 2), ("a", 3), ("b", 5), ("a", 4), ("b", 7)]
    network, live_results = _network(commit_backend="occ", peer_count=4)
    network.install_chaincode(CounterContract())
    gateway = Gateway(network, network.register_user("client"))
    for _wave_number in range(2):
        events = [
            gateway.submit_async("counter", "bump", {"key": key, "amount": amount})
            for key, amount in bumps
        ]
        network.env.run(until=network.env.all_of(events))
        assert {event.value.code.value for event in events} == {"valid"}
    _assert_serial_replay_matches(network, live_results)
    assert sum(len(result.rebased) for result in live_results) == 8
    assert {
        key: gateway.query("counter", "get", {"key": key}) for key in ("a", "b")
    } == {"a": 20, "b": 24}


# -- batched view maintenance (invoke_many) -----------------------------------

BATCH = 12


def _run_batch(batched):
    """The same twelve requests through ``invoke_many`` or as concurrent
    per-request invokes; returns (semantic summary, merge-tx count)."""
    network, _live_results = _network()
    owner = network.register_user("owner")
    gateway = Gateway(network, owner)
    manager = EncryptionBasedManager(gateway)
    manager.create_view("wi", PREDICATE, ViewMode.IRREVOCABLE)
    invocations = [
        ViewInvocation(
            fn="create_item",
            args={"item": f"b{i}", "owner": "W1"},
            public={"item": f"b{i}", "from": None, "to": "W1"},
            secret=f"batch-secret-{i}".encode(),
            tid=f"tx-batched-{i:04d}",
        )
        for i in range(BATCH)
    ]
    if batched:
        outcomes = manager.invoke_many(invocations)
    else:
        events = [
            manager.invoke_with_secret_async(
                inv.fn, inv.args, inv.public, inv.secret, tid=inv.tid
            )
            for inv in invocations
        ]
        network.env.run(until=network.env.all_of(events))
        outcomes = [event.value for event in events]
    network.verify_convergence()

    result, soundness, completeness = _read_and_audit(
        network, manager, "wi", ViewMode.IRREVOCABLE
    )
    summary = {
        "codes": {out.tid: out.notice.code.value for out in outcomes},
        "items": {
            f"b{i}": gateway.query("supply", "get_item", {"item": f"b{i}"})
            for i in range(BATCH)
        },
        "view_sizes": gateway.query("viewstorage", "view_sizes", {}),
        "served": dict(sorted(result.secrets.items())),
        "sound_ok": (soundness.ok, soundness.checked, tuple(soundness.violations)),
        "complete_ok": (completeness.ok, tuple(completeness.missing)),
    }
    merges = sum(
        1
        for block in network.reference_peer.chain
        for tx in block.transactions
        if tx.kind == "view-merge"
    )
    return summary, merges


def test_invoke_many_semantics_match_per_request_invokes():
    per_request, per_request_merges = _run_batch(batched=False)
    batched, batched_merges = _run_batch(batched=True)
    assert batched == per_request
    assert set(per_request["codes"].values()) == {"valid"}
    assert per_request["view_sizes"] == {"wi": BATCH}
    # Pinned tids make the served plaintexts key-for-key comparable.
    assert per_request["served"] == {
        f"tx-batched-{i:04d}": f"batch-secret-{i}".encode() for i in range(BATCH)
    }
    assert per_request["sound_ok"][0] and per_request["complete_ok"][0]
    # The whole point of batching: one coalesced merge transaction for
    # the batch instead of one per request.
    assert per_request_merges == BATCH
    assert batched_merges == 1
